"""Minimal-residency explorer.

Searches the routing space (which window sections stay in the
reconstruction buffer versus ride the forwarding or fetch paths) and keeps
the smallest assignment whose fetch traffic can actually be placed on the
single-port banks over one steady-state blockline.  This makes the preset
pixel counts auditable instead of asserted.
"""

from dataclasses import dataclass
from itertools import product

from .errors import ConfigError
from .geometry import ImageGeometry, Interleave, SliceLayout, build_geometry
from .membank import SramBankModel
from .predwindow import FETCH, RESIDENT, SECTIONS, WindowSpec
from .sched import (FETCHABLE, HALF_LINE, REFILL, STREAMING, ArchPreset,
                    Scheduler)

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


def _candidates(spec: WindowSpec, budget: FetchBudget, forwarding: bool,
                reconvert: bool) -> list[ArchPreset]:
    """The routings to try, each as a preset, cheapest (fewest resident
    pixels) first: every section the budget's fetch path reaches
    (`FETCHABLE`) fetched or resident, the lower row only through the
    reconvert unit, and the rest resident."""
    reach = [s for s in FETCHABLE[budget.kind] if s != "row1" or reconvert]
    presets = [ArchPreset("explorer", HALF_LINE, 2, budget.banks_per_buffer,
                          budget.kind, 1, dict(zip(SECTIONS, routes)),
                          forwarding)
               for routes in product(*([FETCH, RESIDENT] if s in reach
                                       else [RESIDENT] for s in SECTIONS))]
    return sorted(presets, key=lambda p: p.capacity_for(spec))


def _schedule_feasible(spec: WindowSpec, preset: ArchPreset) -> bool:
    """Book one steady-state blockline of traffic on the bank models, on
    one slice column of SLICE_WORDS words, or wider if the previous-line
    span needs it: it is placeable when no booking conflicts under their
    port law."""
    slice_words = SLICE_WORDS
    if slice_words * 8 < spec.prev_line_span[1] + 8:
        slice_words = spec.prev_line_span[1] // 8 + 2
    image = ImageGeometry(slice_words * 8, 8)
    # one slice column decodes in the same order under either interleave
    plan = build_geometry(image, SliceLayout(1, 1), Interleave.COLUMN_MAJOR)
    sched = Scheduler(preset, spec, plan)
    banks = {key: SramBankModel(*key) for key in sched.bank_keys}
    # blockline 1 is steady state: it has a previous line and a successor
    return all(banks[rec.buffer, rec.bank_id].request_access(rec)
               for sp in map(sched.slot_plan, sched.blockline_slots(1))
               for rec in sp.writes + sp.display_reads + sp.fetches)


def minimal_resident_set(spec: WindowSpec, budget: FetchBudget,
                         forwarding: bool = False, reconvert: bool = False
                         ) -> ExplorerResult:
    """Smallest resident set that still serves every window pixel.

    Brute-forces the section routing against the budget's placeable fetch
    schedule; pixels that are neither forwarded nor fetch-covered must be
    resident.  The last candidate keeps every section resident, and its
    traffic is always placeable.
    """
    preset = next(p for p in _candidates(spec, budget, forwarding, reconvert)
                  if _schedule_feasible(spec, p))
    return ExplorerResult(preset.capacity_for(spec),
                          preset.resident_positions(spec),
                          dict(preset.residency))


def preset_budget(preset: ArchPreset) -> FetchBudget:
    return FetchBudget(preset.fetch_kind, preset.banks_per_buffer)
