"""Prediction window geometry, residency policies, and the reconstruction buffer.

The window around a block has three sections: a span on the previous line
(kept in RGB) and two spans on the current blockline's rows (kept in YCoCg).
A ResidencyPolicy routes each section to the reconstruction buffer, the
block-forwarding path, or per-need line-buffer fetches.  The circular
reconstruction buffer slides by one block (8 relative positions) per slot.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MissError
from .geometry import BLOCK_W

SECTIONS = ("prev", "row0", "row1")

RESIDENT = "resident"
FETCH = "fetch"


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
        for name in ("prev_line_span", "cur_row0_span", "cur_row1_span"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name} has lo > hi: ({lo}, {hi})")
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


@dataclass(frozen=True)
class ResidencyPolicy:
    """Which window pixels live in the reconstruction buffer.

    `routes` maps each section to RESIDENT or FETCH for its non-forwarded
    portion.  With forwarding enabled, the rightmost 8 pixels of each
    current-row span are served from the decode pipe instead of storage.
    """
    routes: dict = field(default_factory=lambda: {s: RESIDENT for s in SECTIONS})
    forwarding_enabled: bool = False
    reconvert_on_fetch: bool = False

    def __post_init__(self):
        for s in SECTIONS:
            if self.routes.get(s) not in (RESIDENT, FETCH):
                raise ConfigError(f"section {s!r} must be routed resident or fetch")

    def resident_positions(self, spec: WindowSpec) -> dict:
        """Per-section list of relative offsets the policy keeps resident."""
        out = {}
        for s in SECTIONS:
            lo, hi = spec.span(s)
            if self.routes[s] != RESIDENT:
                out[s] = []
                continue
            rels = list(range(lo, hi + 1))
            if self.forwarding_enabled and s in ("row0", "row1"):
                rels = [r for r in rels if r < -BLOCK_W]
            out[s] = rels
        return out

    def resident_count(self, spec: WindowSpec) -> int:
        return sum(len(v) for v in self.resident_positions(spec).values())


def policy_full_resident() -> ResidencyPolicy:
    return ResidencyPolicy(routes={s: RESIDENT for s in SECTIONS},
                           forwarding_enabled=False, reconvert_on_fetch=False)


def policy_forwarding() -> ResidencyPolicy:
    return ResidencyPolicy(routes={s: RESIDENT for s in SECTIONS},
                           forwarding_enabled=True, reconvert_on_fetch=False)


def policy_streaming() -> ResidencyPolicy:
    """Only the upper row's non-forwarded pixels stay resident; the previous
    line and the lower row are fetched from the line buffer on demand."""
    return ResidencyPolicy(routes={"prev": FETCH, "row0": RESIDENT, "row1": FETCH},
                           forwarding_enabled=True, reconvert_on_fetch=True)


class SectionStore:
    """One circular window section: values indexed by relative offset."""

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        n = hi - lo + 1
        self.values = np.zeros((n, 3), dtype=np.int32)
        self.valid = np.zeros(n, dtype=bool)

    def idx(self, rel: int) -> int:
        return rel - self.lo

    def slide(self, by: int = BLOCK_W) -> int:
        """Shift down by one block; returns how many entries dropped out."""
        n = self.valid.shape[0]
        if by >= n:
            dropped = int(self.valid.sum())
            self.valid[:] = False
            return dropped
        dropped = int(self.valid[:by].sum())
        self.values[:-by] = self.values[by:]
        self.valid[:-by] = self.valid[by:]
        self.valid[-by:] = False
        return dropped

    def occupancy(self) -> int:
        return int(self.valid.sum())


class ReconBufferState:
    """Per-slice-column reconstruction buffer: three circular sections with a
    shared pixel capacity.  Admission is in ascending relative order; pixels
    that would exceed the capacity are rejected (they will surface as
    availability misses when the window needs them)."""

    def __init__(self, spec: WindowSpec, policy: ResidencyPolicy, capacity: int):
        self.spec = spec
        self.policy = policy
        self.capacity = capacity
        self.sections = {s: SectionStore(*spec.span(s)) for s in SECTIONS}
        resident = policy.resident_positions(spec)
        self._resident_mask = {}
        for s in SECTIONS:
            store = self.sections[s]
            mask = np.zeros(store.valid.shape[0], dtype=bool)
            for r in resident[s]:
                mask[store.idx(r)] = True
            self._resident_mask[s] = mask
        # a section the policy keeps nothing of never holds a valid entry
        self._sliding = [self.sections[s] for s in SECTIONS
                         if self._resident_mask[s].any()]
        self.peak_occupancy = 0
        self.rejected = 0
        self._occ = 0

    def occupancy(self) -> int:
        return self._occ

    def slide(self) -> None:
        for st in self._sliding:
            self._occ -= st.slide()

    def clear(self) -> None:
        for st in self.sections.values():
            st.valid[:] = False
        self._occ = 0

    def admit_run(self, section: str, rel0: int, values) -> int:
        """Admit a contiguous run of previously-invalid positions starting at
        rel0.  Positions outside the policy's resident mask are skipped;
        overflow beyond the capacity is rejected from the tail (newest)."""
        st = self.sections[section]
        mask = self._resident_mask[section]
        n = st.valid.shape[0]
        i0 = st.idx(rel0)
        count = len(values)
        v0 = 0
        if i0 < 0:
            v0 = -i0
            i0 = 0
        i1 = min(i0 + count - v0, n)
        if i1 <= i0:
            return 0
        sel = np.nonzero(mask[i0:i1])[0]
        if sel.shape[0] == 0:
            return 0
        room = self.capacity - self._occ
        if sel.shape[0] > room:
            self.rejected += sel.shape[0] - room
            sel = sel[:room]
            if sel.shape[0] == 0:
                return 0
        vals = np.asarray(values)[v0:v0 + (i1 - i0)]
        st.values[i0:i1][sel] = vals[sel]
        st.valid[i0:i1][sel] = True
        self._occ += sel.shape[0]
        if self._occ > self.peak_occupancy:
            self.peak_occupancy = self._occ
        return int(sel.shape[0])

    def read(self, section: str, rel: int) -> np.ndarray:
        st = self.sections[section]
        i = st.idx(rel)
        if not 0 <= i < st.valid.shape[0]:
            raise MissError(f"{section} rel {rel} outside window span")
        if not st.valid[i]:
            raise MissError(f"{section} rel {rel} not resident")
        return st.values[i]

