"""Byte-identity pins: sha256 digests of the report text of the regression
matrix and of the reports and CSV traces of four negative runs.  A change
that keeps every verdict but moves one byte of a report or a trace row
fails here; a change meant to alter the output re-derives the digests and
says why."""

import hashlib
import json

import pytest

from dbemem.engine import SimConfig, run_simulation
from dbemem.geometry import ImageGeometry, SliceLayout
from dbemem.sched import preset_by_name
from dbemem.shell import build_report, emit_trace, parse_config, report_to_text

# (preset, slice columns) at 640x128 -> report digest
MATRIX = {
    ("baseline", 1):
        "aa0aa47516e609f360d2ed230db19424fce2e4b3be8a0674c5f8e4f86cea6999",
    ("baseline", 2):
        "d3f5e3d3b56b6c7ebbcbf9b5c730257ed3bb02dd296e2dbee96b990703981a2a",
    ("baseline", 4):
        "746acb26aaf8df19f25e4a65b15d5d14a40aa14cd7cbe326a4879ee821ac9fdf",
    ("type1", 1):
        "9b13a33e8fa25b6401e090cc2af9f30f9d92ec5e05f2302f668d7c2ecf62609e",
    ("type1", 2):
        "88a4ec1243ca0eabf451f1565ec8698873464c9ad4c373a3157f75dfa0958c02",
    ("type1", 4):
        "49344946ae71891d1641e1ac23c5da88b3531eecf8183b08890e87eed776e8f6",
    ("type2", 1):
        "a267335e98303caa7cea6ba5fff177b73d588691bd6c7e845ce7bf2fc3797712",
    ("type2", 2):
        "6f93aff5e5c856be1b67d1a87f3fd3cb9be05843b03a24661b41a05f18ff7573",
    ("type2", 4):
        "043e57d14d3d91cfc444ef805a28d0161f443b05ebd81f12f4fdad43fac1a055",
}


def _config(arch, columns=1, faults=(), interleave="column_major"):
    return {"image": {"width": 640, "height": 128},
            "slices": {"columns": columns, "rows": 1},
            "arch": arch, "interleave": interleave,
            "faults": list(faults), "trace": True}


# traced negative runs: conflicts, hazards and the violation drain
# -> (report digest, trace digest)
NEGATIVE = {
    "type2_banks1": (
        _config("type2", faults=[{"kind": "banks_override", "value": 1}]),
        "0e34cd377e9876cfcb15162f85c22813433eafff64cec0fd609a252bbee62ee5",
        "129e4a14f752dabb25ca328ecb878a33fe2d0a7dc77ddafd710b2e4ac09dbe3e"),
    "type1_fetch2": (
        _config("type1",
                faults=[{"kind": "fetch_budget_override", "value": 2}]),
        "f7a98a9014f681840e3a68f48cca142d08c70b28131cdf77e29f2c579648b9c6",
        "eabe82f4dde8e2d8805254b5ca208933aa503163b1fe0311cf931e5624310cbd"),
    "baseline_lb2": (
        _config("baseline",
                faults=[{"kind": "line_buffers_override", "value": 2}]),
        "bc2c95964c4010f30fe6823dfceccefbb59efb84e495964edc7da3971f290c30",
        "84a1e0d410d55aee9b43547faa838de33dc4bb8633f9464195402f995ce56ab5"),
    "type1_rr_c4": (
        _config("type1", columns=4, interleave="round_robin"),
        "f95c330c34e41f0870a78524af5427ff208b344afab2807d78fed194844323f0",
        "ab91ac75e4a033d60551fc5043a74f050a5770c9a2075cf46d2a5b7377aca129"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_regression_matrix_reports():
    got = {}
    for name, cols in MATRIX:
        cfg = SimConfig(ImageGeometry(640, 128), SliceLayout(cols, 1),
                        preset_by_name(name))
        got[name, cols] = digest(
            report_to_text(build_report(run_simulation(cfg))))
    assert got == MATRIX


@pytest.mark.parametrize("name", sorted(NEGATIVE))
def test_negative_run_report_and_trace(tmp_path, name):
    config, report_digest, trace_digest = NEGATIVE[name]
    res = run_simulation(parse_config(json.dumps(config)))
    path = tmp_path / "trace.csv"
    emit_trace(res, path)
    assert (digest(report_to_text(build_report(res))),
            digest(path.read_text())) == (report_digest, trace_digest)
