"""The benchmark's workloads: the simulations one pass of each runs.

Every pass is a closed loop: one simulation at a time, each in a fresh
process.  The seed only chooses the golden pixel data; schedules, violation
counts and reports do not depend on it, so one set of pins holds for every
seed.  README.md says why each workload was chosen.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Sim:
    name: str
    config: dict              # a dbemem config file's contents, minus the seed
    explore: bool = False     # also derive the preset's minimal resident set

    @property
    def trace(self) -> bool:
        """The run collects its CSV trace, which is emitted and re-parsed."""
        return self.config["trace"]


def _config(arch, width, height=128, columns=1, faults=(),
            interleave="column_major", trace=False):
    return {"image": {"width": width, "height": height},
            "slices": {"columns": columns, "rows": 1},
            "arch": arch, "interleave": interleave,
            "faults": list(faults), "trace": trace}


def _fault(kind, value):
    return {"kind": kind, "value": value}


WORKLOADS = {
    # The north-star configuration as a band of blocklines: streaming fetch
    # and window service dominate, and the bank ledger grows with cycles.
    # 32 lines keep one simulation near 2 s on a 2-vCPU VM, short enough for
    # the host-speed scaling in run.py to follow the host.
    "band4k_type2": [
        Sim("type2_3840x32_c4", _config("type2", 3840, height=32, columns=4)),
    ],
    # The regression matrix: the two refill presets spend their time in
    # resident-window admission, which type2 bypasses.
    "matrix640": [
        Sim(f"{arch}_640x128", _config(arch, 640), explore=True)
        for arch in ("baseline", "type1", "type2")
    ],
    # Negative runs: conflict, hazard and violation-drain paths plus trace
    # serialisation, which the clean workloads never reach.
    "faults_traced": [
        Sim("type2_banks1", _config("type2", 640, trace=True,
                                    faults=[_fault("banks_override", 1)])),
        Sim("type1_fetch2", _config("type1", 640, trace=True,
                                    faults=[_fault("fetch_budget_override", 2)])),
        Sim("baseline_lb2", _config("baseline", 640, trace=True,
                                    faults=[_fault("line_buffers_override", 2)])),
        Sim("type1_rr_c4", _config("type1", 640, columns=4, trace=True,
                                   interleave="round_robin")),
    ],
}
