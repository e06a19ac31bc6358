"""Write pins.json: the expected report text, violation counts and minimal
resident set of every simulation in every workload.

    python3 perfbench/pin.py

Run it only when a change is meant to alter reports, and review the diff of
pins.json: the benchmark counts any departure from it as a failed run.
"""

import json
import os

from run import PINS, TMP, run_child, spec_for
from workloads import WORKLOADS


def main():
    os.makedirs(TMP, exist_ok=True)
    pins = {}
    for name, sims in WORKLOADS.items():
        pins[name] = {}
        for sim in sims:
            out = run_child(spec_for(sim, 0))
            if "error" in out:
                raise SystemExit(f"{name}/{sim.name}: {out['error']}")
            pin = {"report": out["report"], "violations": out["violations"]}
            if sim.explore:
                pin["explore_resident"] = out["explore_resident"]
            pins[name][sim.name] = pin
    os.rmdir(TMP)
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
