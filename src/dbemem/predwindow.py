"""Prediction window geometry and the reconstruction buffer.

The window around a block has three sections: a span on the previous line
(kept in RGB) and two spans on the current blockline's rows (kept in YCoCg).
An architecture (`sched.ArchPreset`) routes each section to the
reconstruction buffer, the block-forwarding path, or per-need line-buffer
fetches.  The circular reconstruction buffer slides by one block (8
relative positions) per slot; both engines keep its residency with
`ReconBufferState`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import BLOCK_W, LINE_WORDS, PIXELS_PER_WORD

SECTIONS = ("prev", "row0", "row1")

RESIDENT = "resident"
FETCH = "fetch"
FORWARDED = "forwarded"    # served from the decode pipe, never stored


@dataclass(frozen=True)
class WindowSpec:
    """Relative x-spans (inclusive, relative to the block's left edge).

    Defaults give 41 + 33 + 32 = 106 pixels; the rightmost 8 of each
    current-row span coincide with the previously decoded block, which is
    the forwarding target.
    """
    prev_line_span: tuple[int, int] = (-8, 32)
    cur_row0_span: tuple[int, int] = (-33, -1)
    cur_row1_span: tuple[int, int] = (-32, -1)

    def __post_init__(self):
        reach = LINE_WORDS * PIXELS_PER_WORD   # no slice is wider
        for name in ("prev_line_span", "cur_row0_span", "cur_row1_span"):
            lo, hi = getattr(self, name)
            if not -reach < lo <= hi < reach:
                raise ConfigError(f"{name} must be lo <= hi within the widest"
                                  f" slice, ({-reach}, {reach}): ({lo}, {hi})")
        for name in ("cur_row0_span", "cur_row1_span"):
            if getattr(self, name)[1] >= 0:
                raise ConfigError(f"{name} must lie strictly left of the block")

    def span(self, section: str) -> tuple[int, int]:
        return {"prev": self.prev_line_span,
                "row0": self.cur_row0_span,
                "row1": self.cur_row1_span}[section]

    def total_pixels(self) -> int:
        return sum(hi - lo + 1 for lo, hi in
                   (self.prev_line_span, self.cur_row0_span, self.cur_row1_span))


BLOCK_BITS = (1 << BLOCK_W) - 1   # one block of a section's positions


def _lowest_bits(bits: int, k: int) -> int:
    """The k lowest set bits of `bits`."""
    out = 0
    while k > 0 and bits:
        low = bits & -bits
        out |= low
        bits ^= low
        k -= 1
    return out


class ReconBufferState:
    """Per-slice-column reconstruction buffer: which relative positions of
    the three circular sections hold a pixel, under a shared pixel capacity.

    A section's positions are the bits of one integer, `valid[section]`,
    bit i for relative offset lo + i; a slide moves every section down by
    one block.  Admission is in ascending relative order; pixels that would
    exceed the capacity are rejected (they will surface as availability
    misses when the window needs them).  The buffer keeps residency only:
    the engines know the values a position holds."""

    def __init__(self, spec: WindowSpec, preset, capacity: int):
        self.capacity = capacity
        self.lo = {s: spec.span(s)[0] for s in SECTIONS}
        resident = preset.resident_positions(spec)
        self.keep = {s: sum(1 << (r - self.lo[s]) for r in resident[s])
                     for s in SECTIONS}
        self.valid = dict.fromkeys(SECTIONS, 0)
        # a section the preset keeps nothing of never holds a pixel
        self._sliding = [s for s in SECTIONS if self.keep[s]]
        self.peak_occupancy = 0
        self._occ = 0

    def slide(self) -> None:
        valid = self.valid
        for s in self._sliding:
            v = valid[s]
            if v:
                self._occ -= (v & BLOCK_BITS).bit_count()
                valid[s] = v >> BLOCK_W

    def clear(self) -> None:
        for s in SECTIONS:
            self.valid[s] = 0
        self._occ = 0

    def admit_run(self, section: str, rel0: int, bits: int) -> int:
        """Admit the positions rel0 + i for the set bits i of `bits`, none
        of which may hold a pixel yet.  Positions outside the section or the
        preset's resident mask are skipped; overflow beyond the capacity is
        rejected from the tail (newest).  Returns how many were admitted."""
        sh = rel0 - self.lo[section]
        cand = (bits << sh if sh >= 0 else bits >> -sh) & self.keep[section]
        if not cand:
            return 0
        k = cand.bit_count()
        room = self.capacity - self._occ
        if k > room:
            cand = _lowest_bits(cand, room)
            k = room
            if not k:
                return 0
        self.valid[section] |= cand
        self._occ += k
        if self._occ > self.peak_occupancy:
            self.peak_occupancy = self._occ
        return k

    def valid_at(self, section: str, rel0: int, n: int) -> np.ndarray:
        """Which of the n positions from rel0 hold a pixel."""
        sh = rel0 - self.lo[section]
        v = self.valid[section]
        return np.array([i >= 0 and (v >> i) & 1 for i in range(sh, sh + n)],
                        dtype=bool)
