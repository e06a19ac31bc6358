"""One simulation of a benchmark workload, in its own process.

Reads a JSON spec on stdin and prints one JSON line: set-up and work
seconds, model cycles, the report text, violation counts, peak RSS of this
process and, when asked, per-layer spans.  Checking against the pins is
left to run.py, so none of it is timed here.

Spec keys: config_text (a dbemem config file), explore (bool), trace_path
(where to emit the CSV trace, or null), layers (bool: install the timing
shims), setup_only (bool: stop after constructing the engine).
"""

import json
import os
import resource
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import dbemem from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import dbemem
    where = os.path.dirname(os.path.abspath(dbemem.__file__))
    if where != os.path.join(SRC, "dbemem"):
        raise SystemExit(f"dbemem imported from {where}, not from {SRC}")
    from dbemem import engine, explore, shell  # noqa: F401  (timed as set-up)


def simulate(spec: dict, t0: float) -> dict:
    """Run the spec; `t0` is when set-up (import included) started."""
    from dbemem import engine, explore, shell
    cfg = shell.parse_config(spec["config_text"])
    eng = engine.Engine(cfg)
    t_setup = time.perf_counter()
    out = {"setup_s": t_setup - t0}
    if spec["setup_only"]:
        return out
    result = eng.run()
    out["report"] = shell.report_to_text(shell.build_report(result))
    out["violations"] = result.violations.as_dict()
    out["cycles"] = result.total_cycles
    path = spec["trace_path"]
    if path:
        shell.emit_trace(result, path)
        with open(path) as fh:
            rows = shell.parse_trace(fh.read())
        os.remove(path)
        ops = Counter(row[4] for row in rows)
        out["trace_ops"] = {op: ops[op]
                            for op in ("conflict", "hazard", "underflow")}
    if spec["explore"]:
        p = cfg.preset
        found = explore.minimal_resident_set(
            cfg.window, explore.preset_budget(p), forwarding=p.forwarding,
            reconvert=p.reconvert_on_fetch)
        out["explore_resident"] = found.resident_count
    out["work_s"] = time.perf_counter() - t_setup
    return out


def main():
    spec = json.loads(sys.stdin.read())
    # numpy is a dependency, not the program: its import (about 0.1 s on a
    # 2-vCPU VM, more than the rest of set-up) stays outside the clock
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    import_program()
    if spec["layers"]:
        import shims
        trace = shims.LayerTrace()
        with shims.installed(trace):
            out = simulate(spec, t0)
        out["layers"] = {"self_s": dict(trace.self_s),
                         "calls": dict(trace.calls),
                         "counts": dict(trace.counts)}
    else:
        out = simulate(spec, t0)
    # read here: the driver's RUSAGE_CHILDREN is the largest of all children,
    # which would hide a smaller later run
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
