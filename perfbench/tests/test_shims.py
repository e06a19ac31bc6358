"""Smoke tests for the benchmark's timing shims, on a tiny configuration.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
import shims  # noqa: E402

child.import_program()


def tiny_spec(tmp_path):
    """A faulty run with its CSV trace and the explorer, so every shim fires."""
    config = {"image": {"width": 256, "height": 8}, "arch": "baseline",
              "faults": [{"kind": "line_buffers_override", "value": 2}],
              "trace": True, "seed": 5}
    return {"config_text": json.dumps(config), "explore": True,
            "trace_path": str(tmp_path / "trace.csv"), "layers": False,
            "setup_only": False}


def originals():
    return {(owner, attr): vars(owner)[attr]
            for owner, attr, _, _ in shims.targets()}


def test_shims_restore_attributes_and_leave_outputs_unchanged(tmp_path):
    before = originals()
    plain = child.simulate(tiny_spec(tmp_path), time.perf_counter())
    trace = shims.LayerTrace()
    with shims.installed(trace):
        traced = child.simulate(tiny_spec(tmp_path), time.perf_counter())
    after = originals()
    assert all(after[key] is fn for key, fn in before.items())
    assert plain["violations"]["hazards"] > 0
    for key in ("report", "violations", "cycles", "trace_ops",
                "explore_resident"):
        assert traced[key] == plain[key], key
    assert set(trace.calls) == {name for _, _, name, _ in shims.targets()}
    assert 0 < trace.counts["membank.grants"] <= trace.calls["membank.request_access"]


def test_shims_restored_when_the_run_raises():
    before = originals()
    with pytest.raises(RuntimeError):
        with shims.installed(shims.LayerTrace()):
            raise RuntimeError("simulated failure")
    after = originals()
    assert all(after[key] is fn for key, fn in before.items())


def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    def listed(key):
        return [(m["name"], m["unit"]) for m in spec[key]]

    assert listed("end_to_end") == run.END_TO_END
    assert listed("per_layer") == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
