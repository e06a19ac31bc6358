"""dbemem benchmark: simulated-cycle throughput, wall time, peak memory and
set-up time per workload, with every run's output checked against pins.

    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Workloads are defined in workloads.py and explained in README.md.  Each
simulation runs in a fresh child process (child.py), one at a time.  With
--trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 means a result was printed (check `correct`); any
other code means the benchmark could not run and printed no result.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "pins.json")
TMP = os.path.join(ROOT, ".perfbench_tmp")
SETUP_PROBES = 8        # set-up-only children per untraced run
CHILD_TIMEOUT_S = 150
# On a shared 2-vCPU virtual machine the host's speed drifted by tens of
# percent within minutes.  Each child's host times are scaled to the speed
# at which REF_ITERATIONS of the reference loop take REF_NOMINAL_S, from the
# loop timed for REF_SECONDS just before and just after the child.
REF_ITERATIONS = 1_000_000
REF_NOMINAL_S = 0.1
REF_SECONDS = 0.25
REF_CHUNK = 100_000

END_TO_END = [("sim_kcycles_per_s", "kcycles/s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]

# per-layer metric -> the span whose self time (LAYER_TIMES) or call count
# (LAYER_CALLS) it reports; LAYER_COUNTS are shim counters with their units
LAYER_TIMES = {
    "sched.slot_plan_s": "sched.slot_plan",
    "sched.display_words_in_s": "sched.display_words_in",
    "engine.serve_window_s": "engine.serve_window",
    "engine.advance_window_s": "engine.advance_window",
    "predwindow.admit_run_s": "predwindow.admit_run",
    "predwindow.slide_s": "predwindow.slide",
    "membank.request_access_s": "membank.request_access",
    "membank.commit_cycle_s": "membank.commit_cycle",
    "engine.commit_slot_self_s": "engine.commit_slot",
    "engine.check_display_s": "engine.check_display",
    "engine.drain_s": "engine.drain",
    "oracle.golden_frame_s": "oracle.golden_frame",
    "oracle.ycocg_frame_s": "oracle.ycocg_frame",
    "shell.build_report_s": "shell.build_report",
    "shell.emit_trace_s": "shell.emit_trace",
    "shell.parse_trace_s": "shell.parse_trace",
    "explore.minimal_resident_set_s": "explore.minimal_resident_set",
    "engine.loop_self_s": "engine.loop",
    "engine.init_s": "engine.init",
}
LAYER_CALLS = {
    "sched.slot_plan_calls": "sched.slot_plan",
    "engine.windows_served": "engine.serve_window",
    "membank.requests": "membank.request_access",
}
LAYER_COUNTS = {
    "sched.accesses_planned": "count", "engine.pixels_served": "px",
    "predwindow.admitted_px": "px", "membank.grants": "count",
    "membank.commits": "count", "oracle.frame_mb": "MB",
    "shell.trace_rows": "count",
}
LAYER_DERIVED = [("membank.grant_ratio", "ratio"), ("trace.wall_s", "s"),
                 ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
                 ("trace.overhead_pct", "%"), ("trace.accounted_share", "ratio")]
PER_LAYER = ([(m, "s") for m in LAYER_TIMES]
             + [(m, "count") for m in LAYER_CALLS]
             + list(LAYER_COUNTS.items()) + LAYER_DERIVED)


class BenchError(Exception):
    """The benchmark cannot produce a result in this checkout."""


def reference_s() -> float:
    """The host's current speed: seconds per REF_ITERATIONS of a fixed
    pure-Python loop, run in chunks for at least REF_SECONDS."""
    t0 = time.perf_counter()
    chunks = 0
    while True:
        acc = 0
        for i in range(REF_CHUNK):
            acc += i * i % 7
        chunks += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= REF_SECONDS:
            return elapsed * REF_ITERATIONS / (chunks * REF_CHUNK)


def run_child(spec: dict) -> dict:
    try:
        proc = subprocess.run([sys.executable, CHILD], input=json.dumps(spec),
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"child exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec_for(sim, seed, layers=False, setup_only=False) -> dict:
    return {"config_text": json.dumps({**sim.config, "seed": seed}),
            "explore": sim.explore,
            "trace_path": os.path.join(TMP, sim.name + ".csv") if sim.trace else None,
            "layers": layers, "setup_only": setup_only}


def problems(sim, out, pin) -> list:
    """Why a simulation's output is wrong; empty when it matches its pins."""
    if "error" in out:
        return [out["error"]]
    found = []
    if out["report"] != pin["report"]:
        found.append("report text differs from the pin")
    if out["violations"] != pin["violations"]:
        found.append(f"violations {out['violations']} != {pin['violations']}")
    if sim.trace:
        for op, cls in (("conflict", "conflicts"), ("hazard", "hazards"),
                        ("underflow", "underflows")):
            if out["trace_ops"][op] != out["violations"][cls]:
                found.append(f"trace has {out['trace_ops'][op]} {op} rows, "
                             f"log counts {out['violations'][cls]}")
    if sim.explore and out["explore_resident"] != pin["explore_resident"]:
        found.append(f"minimal resident set {out['explore_resident']} "
                     f"!= {pin['explore_resident']}")
    return found


class Run:
    """All passes of one workload in one benchmark run."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.sims = WORKLOADS[name]
        self.rng = random.Random(f"{name}/{seed}")
        with open(PINS) as fh:
            self.pins = json.load(fh)[name]
        self.attempted = 0
        self.failed = 0
        self.setup_outs = []                  # children that timed set-up
        self.passes = {False: [], True: []}   # traced -> [[child output]]
        self.ref_s = [reference_s()]

    def _child(self, spec: dict) -> dict:
        """Run one child between two timings of the reference loop.  Adds
        the driver's wall time for it and `scale`, which converts its host
        times to the reference host speed."""
        t0 = time.perf_counter()
        out = run_child(spec)
        out["wall_s"] = time.perf_counter() - t0
        self.ref_s.append(reference_s())
        out["scale"] = 2 * REF_NOMINAL_S / (self.ref_s[-2] + self.ref_s[-1])
        return out

    def probe_setup(self, count: int) -> None:
        for i in range(count):
            sim = self.sims[i % len(self.sims)]
            out = self._child(spec_for(sim, self.rng.randrange(2**32),
                                       setup_only=True))
            if "error" in out:
                raise BenchError(f"{self.name}/{sim.name} set-up: {out['error']}")
            self.setup_outs.append(out)

    def run_pass(self, traced: bool) -> None:
        outs = [self._child(spec_for(sim, self.rng.randrange(2**32), traced))
                for sim in self.sims]
        for sim, out in zip(self.sims, outs):
            self.attempted += 1
            found = problems(sim, out, self.pins[sim.name])
            if found:
                self.failed += 1
                print(f"FAILED {self.name}/{sim.name}: {'; '.join(found)}",
                      file=sys.stderr)
        if any("error" in out for out in outs):
            return
        if not traced:
            self.setup_outs.extend(outs)
        self.passes[traced].append(outs)

    def measure(self, seconds: float, layers: bool) -> None:
        """Run rounds of passes until the next would overrun `seconds`."""
        t0 = time.perf_counter()
        if not layers:
            self.probe_setup(SETUP_PROBES)
        rounds = 0
        while True:
            for traced in ((False, True) if layers else (False,)):
                self.run_pass(traced)
            rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / rounds > seconds:
                break

    def end_to_end(self, scaled: bool = True) -> dict:
        passes = self.passes[False]
        if not passes:
            raise BenchError(f"{self.name}: no pass completed")

        def t(o, key):
            return o[key] * (o["scale"] if scaled else 1.0)

        values = {
            "sim_kcycles_per_s": [sum(o["cycles"] for o in outs) / 1e3
                                  / sum(t(o, "work_s") for o in outs)
                                  for outs in passes],
            "wall_s": [sum(t(o, "wall_s") for o in outs) for outs in passes],
            "peak_rss_mb": [max(o["rss_mb"] for o in outs) for outs in passes],
            "setup_s": [t(o, "setup_s") for o in self.setup_outs],
        }
        return {name: (values[name], unit) for name, unit in END_TO_END}

    def per_layer(self) -> dict:
        if not self.passes[True] or not self.passes[False]:
            raise BenchError(f"{self.name}: no traced and untraced pass pair")
        per_pass = [self._layer_pass(outs) for outs in self.passes[True]]
        values = {name: [p[name] for p in per_pass] for name in per_pass[0]}
        traced = statistics.median(values["trace.wall_s"])
        untraced = statistics.median(
            sum(o["work_s"] * o["scale"] for o in outs)
            for outs in self.passes[False])
        values["trace.untraced_wall_s"] = [untraced]
        values["trace.overhead_s"] = [traced - untraced]
        values["trace.overhead_pct"] = [100 * (traced - untraced) / untraced]
        return {name: (values[name], unit) for name, unit in PER_LAYER}

    @staticmethod
    def _layer_pass(outs) -> dict:
        self_s, calls, counts = {}, {}, {}
        for o in outs:
            for table, into, f in ((o["layers"]["self_s"], self_s, o["scale"]),
                                   (o["layers"]["calls"], calls, 1),
                                   (o["layers"]["counts"], counts, 1)):
                for key, v in table.items():
                    into[key] = into.get(key, 0) + v * f
        m = {name: self_s.get(span, 0.0) for name, span in LAYER_TIMES.items()}
        m.update({name: calls.get(span, 0) for name, span in LAYER_CALLS.items()})
        m.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
        m["membank.grant_ratio"] = m["membank.grants"] / m["membank.requests"]
        wall = sum(o["work_s"] * o["scale"] for o in outs)
        m["trace.wall_s"] = wall
        # engine.init is timed as set-up, outside the work interval
        m["trace.accounted_share"] = (
            sum(v for span, v in self_s.items() if span != "engine.init") / wall)
        return m


def describe(values: list) -> str:
    if len(values) == 1:
        return f"{values[0]:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{statistics.median(values):.6g} (q1 {q1:.6g}, q3 {q3:.6g}, "
            f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)})")


def run_workload(name: str, seed: int, seconds: float, layers: bool):
    run = Run(name, seed)
    run.measure(seconds, layers)
    table = run.per_layer() if layers else run.end_to_end()
    print(f"== {name}: {len(run.passes[False])} untraced + "
          f"{len(run.passes[True])} traced passes of {len(run.sims)} "
          f"simulation(s), seed {seed}")
    for metric, (values, unit) in table.items():
        print(f"  {metric:<34} {unit:<10} {describe(values)}")
    if not layers:
        for metric, (values, unit) in run.end_to_end(scaled=False).items():
            print(f"  unscaled {metric:<25} {unit:<10} {describe(values)}")
    print(f"  {'reference loop':<34} {'s':<10} {describe(run.ref_s)}")
    share = run.failed / run.attempted
    print(f"  {'failed_runs':<34} {'share':<10} {share:.4f} "
          f"({run.failed} of {run.attempted} simulations)")
    metrics = {metric: {"value": statistics.median(values), "unit": unit}
               for metric, (values, unit) in table.items()}
    return metrics, run.attempted, run.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dbemem", "engine.py")):
        print(f"perfbench: no dbemem sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(TMP, exist_ok=True)
    try:
        # compiles the sources and warms the file cache before any timing
        warm = run_child(spec_for(WORKLOADS[names[0]][0], 0, setup_only=True))
        if "error" in warm:
            raise BenchError(f"warm-up: {warm['error']}")
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            m, a, f = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
