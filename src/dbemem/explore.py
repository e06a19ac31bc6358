"""Minimal-residency explorer.

Searches the routing space (which window sections stay in the
reconstruction buffer versus ride the forwarding or fetch paths) and keeps
the smallest assignment whose fetch traffic can actually be placed on the
single-port banks over one steady-state blockline.  This makes the preset
pixel counts auditable instead of asserted.
"""

from dataclasses import dataclass
from itertools import product

from .errors import ConfigError, InfeasibleError
from .geometry import ImageGeometry, Interleave, SliceLayout, build_geometry
from .membank import SramBankModel
from .predwindow import FETCH, RESIDENT, ResidencyPolicy, SECTIONS, WindowSpec
from .sched import ArchPreset, HALF_LINE, REFILL, STREAMING, Scheduler

# the width of the explorer's one slice column, in words, unless the
# previous-line span needs a wider one
SLICE_WORDS = 20


@dataclass(frozen=True)
class FetchBudget:
    """Fetch opportunities per block slot.

    kind "refill": one designated fetch cycle per slot that tops up the
    resident window (it provides no per-need service).  kind "streaming":
    fetches may take any free cycle on the lower-buffer banks and serve
    window needs directly.  Budgets are ordered refill < streaming for the
    monotonicity properties.
    """
    kind: str = REFILL
    banks_per_buffer: int = 1

    def __post_init__(self):
        if self.kind not in (REFILL, STREAMING):
            raise ConfigError(f"unknown budget kind {self.kind!r}")


@dataclass
class ExplorerResult:
    resident_count: int
    resident_positions: dict
    routes: dict


def _candidate_routes(spec: WindowSpec, budget: FetchBudget, forwarding: bool,
                      reconvert: bool):
    """Route assignments to try, cheapest (fewest resident pixels) first.

    The streaming fetch path reaches the lower-buffer lines only (previous
    line and current lower row); the lower row's pixels are YCoCg-tagged, so
    streaming them additionally needs the reconvert unit.
    """
    if budget.kind != STREAMING:
        yield {s: RESIDENT for s in SECTIONS}
        return
    prev_opts = [FETCH, RESIDENT]
    row1_opts = [FETCH, RESIDENT] if reconvert else [RESIDENT]
    combos = []
    for p, r1 in product(prev_opts, row1_opts):
        routes = {"prev": p, "row0": RESIDENT, "row1": r1}
        combos.append(routes)

    def count(routes):
        pol = ResidencyPolicy(routes=dict(routes), forwarding_enabled=forwarding)
        return pol.resident_count(spec)

    yield from sorted(combos, key=count)


def _schedule_feasible(spec: WindowSpec, routes: dict, budget: FetchBudget,
                       forwarding: bool, reconvert: bool,
                       slice_words: int) -> bool:
    """Book one steady-state blockline of traffic on the bank models: it
    is placeable when no booking conflicts under their port law."""
    policy = ResidencyPolicy(routes=dict(routes), forwarding_enabled=forwarding,
                             reconvert_on_fetch=reconvert)
    preset = ArchPreset(
        name="explorer", line_delay=HALF_LINE, line_buffers=2,
        banks_per_buffer=budget.banks_per_buffer,
        fetch_kind=budget.kind,
        fetch_words_per_slot=1, residency=policy)
    image = ImageGeometry(slice_words * 8, 8)
    # one slice column decodes in the same order under either interleave
    plan = build_geometry(image, SliceLayout(1, 1), Interleave.COLUMN_MAJOR)
    sched = Scheduler(preset, spec, plan)
    banks = {key: SramBankModel(*key) for key in sched.bank_keys}
    # blockline 1 is steady state: it has a previous line and a successor
    return all(banks[rec.buffer, rec.bank_id].request_access(rec)
               for slot in sched.blockline_slots(1)
               for rec in sched.slot_plan(slot).records())


def minimal_resident_set(spec: WindowSpec, budget: FetchBudget,
                         forwarding: bool = False, reconvert: bool = False
                         ) -> ExplorerResult:
    """Smallest resident set that still serves every window pixel.

    Brute-forces the section routing against the budget's placeable fetch
    schedule; pixels that are neither forwarded nor fetch-covered must be
    resident.  Raises InfeasibleError when not even full residency places
    its fetch traffic.
    """
    slice_words = SLICE_WORDS
    if slice_words * 8 < spec.prev_line_span[1] + 8:
        slice_words = spec.prev_line_span[1] // 8 + 2
    # candidates are ordered cheapest-first
    for routes in _candidate_routes(spec, budget, forwarding, reconvert):
        if _schedule_feasible(spec, routes, budget, forwarding, reconvert,
                              slice_words):
            policy = ResidencyPolicy(routes=dict(routes),
                                     forwarding_enabled=forwarding,
                                     reconvert_on_fetch=reconvert)
            positions = policy.resident_positions(spec)
            count = sum(len(v) for v in positions.values())
            return ExplorerResult(count, positions, dict(routes))
    # nothing placeable even with everything resident
    raise InfeasibleError("no routing satisfies the schedule")


def preset_budget(preset: ArchPreset) -> FetchBudget:
    return FetchBudget(preset.fetch_kind, preset.banks_per_buffer)
