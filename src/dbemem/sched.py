"""Per-cycle access plans for the three architecture presets.

Slot discipline (4 cycles per 8x2 block at 4 px/cycle):

  offset 0      block row-writes (upper word -> upper buffer, lower word ->
                the active lower buffer)
  offsets 1, 3  display output reads; the display consumes one word per two
                cycles and each word is read one cycle before its first
                pixel is emitted, which always lands on an odd offset
  offset 2      the designated prediction-fetch cycle for refill presets

The streaming preset (type2) may place prediction fetches on any free
(bank, cycle); with the even/odd bank split the demand of roughly two words
per slot fits without conflicts, which is exactly what the split buys.

A blockline's slots are planned together, as arrays
(`Scheduler.booking_arrays`); `Scheduler.slot_plan` is one slot's view of
them, as AccessRecords.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_int
from .geometry import (BLOCK_W, CYCLES_PER_SLOT, GeometryPlan,
                       PIXELS_PER_WORD, decode_position)
from .membank import AccessRecord, Purpose
from .predwindow import FETCH, FORWARDED, RESIDENT, SECTIONS, WindowSpec

ONE_LINE = "one_line"
HALF_LINE = "half_line"

REFILL = "refill"          # fixed fetch cycle per slot, feeds the resident window
STREAMING = "streaming"    # fetch on any free lower-bank cycle, serve on demand
# the window sections each fetch path serves.  A refill fetch tops up the
# resident window and serves none; the streaming datapath hangs off the
# lower buffer pair, whose lines are the previous line and the lower row,
# and serves the lower row through its RGB->YCoCg reconvert unit
FETCHABLE = {REFILL: (), STREAMING: ("prev", "row1")}

# the rows of `Scheduler.booking_arrays`, and its purpose codes: a purpose's
# code is its place in PURPOSES
BOOKING_FIELDS = ("slot", "cycle", "bank", "purpose", "word", "block", "col",
                  "line", "px")
SLOT, CYCLE, BANK, PURPOSE, WORD, BLOCK, COL, LINE, PX = range(9)
PURPOSES = (Purpose.WRITE_BLOCK_ROW, Purpose.OUTPUT_READ, Purpose.PREDICT_FETCH)
WRITE, DISPLAY, FETCH_READ = range(3)
_CODE = {p: i for i, p in enumerate(PURPOSES)}


@dataclass(frozen=True)
class ArchPreset:
    """An architecture.  `residency` routes each window section's
    non-forwarded pixels RESIDENT (kept in the reconstruction buffer) or
    FETCH (served from the line buffer by the fetch path, which must reach
    the section: `FETCHABLE`).  With `forwarding`, the rightmost block of
    each current-row span is served from the decode pipe instead."""
    name: str
    line_delay: str
    line_buffers: int
    banks_per_buffer: int
    fetch_kind: str
    fetch_words_per_slot: int
    residency: dict
    forwarding: bool
    capacity_pixels: int | None = None  # None -> the resident count under the window spec

    def __post_init__(self):
        if self.line_delay not in (ONE_LINE, HALF_LINE):
            raise ConfigError(f"unknown line delay {self.line_delay!r}")
        require_int(self.line_buffers, "line_buffers", 2, 3)
        require_int(self.banks_per_buffer, "banks_per_buffer", 1, 2)
        # refill pads each slot's fetches up to this many; a slot has four
        # cycles to place them on
        require_int(self.fetch_words_per_slot, "fetch_words_per_slot", 1,
                    CYCLES_PER_SLOT)
        if self.fetch_kind not in (REFILL, STREAMING):
            raise ConfigError(f"unknown fetch kind {self.fetch_kind!r}")
        # streaming places each fetch on a free cycle, and pads none
        if self.fetch_kind == STREAMING and self.fetch_words_per_slot != 1:
            raise ConfigError("a streaming preset takes fetch_words_per_slot "
                              f"1, got {self.fetch_words_per_slot}")
        for s in SECTIONS:
            if self.residency.get(s) not in (RESIDENT, FETCH):
                raise ConfigError(f"section {s!r} must be routed resident or fetch")
        reach = FETCHABLE[self.fetch_kind]
        unserved = [s for s in SECTIONS
                    if self.residency[s] == FETCH and s not in reach]
        if unserved:
            raise ConfigError(
                f"the {self.fetch_kind} fetch path serves "
                f"{', '.join(reach) or 'no section'}, so "
                f"{', '.join(unserved)} cannot be routed fetch")
        if self.capacity_pixels is not None:
            require_int(self.capacity_pixels, "capacity_pixels", 0)

    @property
    def reconvert_on_fetch(self) -> bool:
        """Whether the reconvert unit is in use: the lower row streams."""
        return self.residency["row1"] == FETCH

    def parts(self, spec: WindowSpec) -> dict:
        """Per section, its span as parts (lo, hi, route): with forwarding,
        the rightmost block of a current-row span is FORWARDED and the rest
        keeps the section's route."""
        out = {}
        for s in SECTIONS:
            lo, hi = spec.span(s)
            split = hi + 1
            if s != "prev" and self.forwarding and hi >= -BLOCK_W:
                split = max(lo, -BLOCK_W)
            out[s] = [(a, b, route) for a, b, route in (
                (lo, split - 1, self.residency[s]), (split, hi, FORWARDED))
                if a <= b]
        return out

    def resident_positions(self, spec: WindowSpec) -> dict:
        """Per-section list of relative offsets kept resident."""
        return {s: [r for lo, hi, route in parts if route == RESIDENT
                    for r in range(lo, hi + 1)]
                for s, parts in self.parts(spec).items()}

    def capacity_for(self, spec: WindowSpec) -> int:
        if self.capacity_pixels is not None:
            return self.capacity_pixels
        return sum(map(len, self.resident_positions(spec).values()))

    def latency_cycles(self, plan: GeometryPlan) -> int:
        width = plan.image.width
        return width // 2 if self.line_delay == ONE_LINE else width // 4

    def lower_buffers(self) -> list[str]:
        return [f"lower{i}" for i in range(self.line_buffers - 1)]

    def buffer_names(self) -> list[str]:
        return ["upper"] + self.lower_buffers()

    def buffer_for_line(self, y: int) -> str:
        """Which physical buffer holds image line y."""
        if y % 2 == 0:
            return "upper"
        if self.line_buffers == 3:
            # ping-pong: lower buffers alternate roles every blockline
            return f"lower{(y // 2) % 2}"
        return "lower0"


def preset_baseline() -> ArchPreset:
    return ArchPreset("baseline", ONE_LINE, 3, 1, REFILL, 1,
                      dict.fromkeys(SECTIONS, RESIDENT), forwarding=False)


def preset_type1() -> ArchPreset:
    return ArchPreset("type1", HALF_LINE, 2, 1, REFILL, 1,
                      dict.fromkeys(SECTIONS, RESIDENT), forwarding=True)


def preset_type2() -> ArchPreset:
    """Only the upper row's non-forwarded pixels stay resident; the previous
    line and the lower row are fetched from the line buffer on demand."""
    return ArchPreset("type2", HALF_LINE, 2, 2, STREAMING, 1,
                      {"prev": FETCH, "row0": RESIDENT, "row1": FETCH},
                      forwarding=True)


PRESETS = {"baseline": preset_baseline, "type1": preset_type1, "type2": preset_type2}


def preset_by_name(name: str) -> ArchPreset:
    try:
        return PRESETS[name.lower()]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")


@dataclass
class BlockSlotPlan:
    """One slot's bank accesses, each an AccessRecord, by purpose; booked
    in that order.  A slot past the last decode slot decodes no block and
    only reads the display."""
    writes: list
    display_reads: list
    fetches: list


# the lowest set bit of a 4-bit mask of free slot offsets; none free -> the
# last offset
_FIRST_FREE = np.array([CYCLES_PER_SLOT - 1]
                       + [(m & -m).bit_length() - 1 for m in range(1, 16)])


class Scheduler:
    """The access plan: pure functions of the config and the slot, shared
    by both engines, the explorer and the tests."""

    def __init__(self, preset: ArchPreset, spec: WindowSpec, plan: GeometryPlan,
                 read_latency: int = 0):
        self.preset = preset
        self.plan = plan
        self.n_words = plan.words_per_line
        self.slots_per_blockline = plan.slices.columns * self.n_words
        self.latency = preset.latency_cycles(plan)
        # display words are read ahead of emission through the output register;
        # registered SRAM outputs cost two extra lead cycles (stays on odd
        # offsets, clear of the write and fetch cycles)
        self.read_lead = 1 + 2 * read_latency
        if self.latency < self.read_lead:
            raise ConfigError(
                f"display word 0 would be read at cycle "
                f"{self.latency - self.read_lead}, before the frame starts "
                f"(latency {self.latency}, read lead {self.read_lead})")
        self.words_per_image_line = plan.image.width // PIXELS_PER_WORD
        self.total_display_words = self.words_per_image_line * plan.image.height
        # the frame's slots: the decode slots, then the display-only tail up
        # to the slot of the last display read (latency >= read_lead, so
        # the tail is never negative)
        self.decode_slots = plan.total_blocklines * self.slots_per_blockline
        self.total_slots = self.display_read_cycle(
            self.total_display_words - 1) // CYCLES_PER_SLOT + 1
        prev_hi = spec.prev_line_span[1]
        self.warmup_count = min(prev_hi // PIXELS_PER_WORD + 1,
                                self.n_words) if prev_hi >= 0 else 0
        # per section, the part of its span that is not forwarded (a
        # section forwarded whole has none)
        self._fetched_span = {
            s: (lo, hi) for s, parts in preset.parts(spec).items()
            for lo, hi, route in parts if route != FORWARDED}
        # (buffer, bank) in commit order within a cycle, and each one's place
        self.bank_keys = [(buf, bk) for buf in preset.buffer_names()
                          for bk in range(preset.banks_per_buffer)]
        self.bank_order = {key: i for i, key in enumerate(self.bank_keys)}
        # the place in buffer_names of the buffer holding line y, by y mod 4
        # (buffer-for-line repeats with period 4, ping-pong included)
        self._buf_of = np.array([preset.buffer_names().index(
            preset.buffer_for_line(y)) for y in range(4)], dtype=np.int32)
        self._bases = np.array(plan.partition_bases, dtype=np.int32)
        self._view = (None, None, None)   # see `slot_plan`

    # -- addressing ----------------------------------------------------------

    def word_address(self, slice_col, local_word):
        """(word index, bank) of a slice column's local word, or of arrays
        of them.  Words are block-aligned, so with a bank split the bank is
        the word's parity."""
        return (self._bases[slice_col] + local_word,
                local_word % self.preset.banks_per_buffer)

    # -- display output reads --------------------------------------------------

    def display_read_cycle(self, k: int) -> int:
        """Raster display word k is read read_lead cycles before emission."""
        return self.latency + 2 * k - self.read_lead

    def display_words_in(self, c0: int, c1: int):
        """Raster word indices whose read cycle falls in [c0, c1)."""
        # latency + 2k - lead in [c0, c1)
        k0 = max(0, -(-(c0 + self.read_lead - self.latency) // 2))
        k1 = -(-(c1 + self.read_lead - self.latency) // 2)
        k1 = min(max(k1, 0), self.total_display_words)
        return range(k0, max(k0, k1))

    # -- the schedule ------------------------------------------------------------

    def blockline_slots(self, bl: int) -> range:
        """The slots of blockline bl's pass.  The last blockline's runs on
        through the display-only tail to the end of the frame."""
        spb = self.slots_per_blockline
        last = bl == self.plan.total_blocklines - 1
        return range(bl * spb, self.total_slots if last else (bl + 1) * spb)

    def blockline_classes(self) -> list:
        """Each blockline's class: what its schedule depends on besides a
        whole-blockline shift.  That is its parity (the line -> buffer map
        has period 4 lines), whether it opens a slice (no previous-line
        fetches), and whether the next blockline's warm-up fetches ride on
        its tail.  The blocklines at the start of the frame whose display
        reads are clipped (they read fewer than one word per two cycles)
        and the last blockline, whose pass carries the display tail, are
        classes of their own."""
        n = self.plan.total_blocklines
        classes = [(bl % 2, self.plan.is_first_blockline_of_slice(bl),
                    self._warms_next(bl)) for bl in range(n)]
        cycles = CYCLES_PER_SLOT * self.slots_per_blockline
        for bl in range(n):
            if len(self.display_words_in(cycles * bl, cycles * (bl + 1))) \
                    >= cycles // 2:
                break
            classes[bl] = bl
        classes[-1] = n - 1
        return classes

    def _warms_next(self, bl: int) -> bool:
        """Whether blockline bl's tail fetches the next blockline's first
        previous-line words."""
        nxt = bl + 1
        return bool(self.warmup_count and nxt < self.plan.total_blocklines
                    and not self.plan.is_first_blockline_of_slice(nxt))

    def booking_arrays(self, bls) -> np.ndarray:
        """Every booking of the slots (`blockline_slots`) of blockline
        `bls`, or of each blockline of an ascending sequence `bls`, in
        booking order (blockline by blockline, and per slot: writes,
        display reads, fetches), as an int32 array with one row per field
        of `BOOKING_FIELDS`:

          slot     slot index from the first blockline's first slot
          cycle    the access cycle
          bank     the bank's place in commit order within a cycle, its
                   index in `bank_keys`
          purpose  WRITE, DISPLAY or FETCH_READ, its index in PURPOSES
          word     word index in the line buffer
          block    block id (the decode slot); -1 for display reads
          col      slice column of the booking
          line     the image line written, displayed or demanded
          px       x of the first of the word's 8 pixels on that line

        Each decode slot writes its block's two rows at offset 0.  The
        display reads raster word k at `display_read_cycle(k)`.  Then come
        the slot's fetch demands, in this order: the entering word of the
        previous line's fetched span (not in a slice's first blockline);
        with row1 fetched (only streaming can, `FETCHABLE`), the entering
        word of row1's span if it is already decoded; the next blockline's
        first previous-line words in the last slots (the right-edge clip
        leaves their fetch cycles idle); and for a refill budget above one word,
        the words after the first demand, wrapping round the slice, up to
        the budget.  Refill presets fetch at offset 2 (a second word in a
        slot lands on the same cycle and shows up as a conflict, which is
        the point of the over-budget experiment).  Streaming takes the
        first offset its bank has free in the slot, or offset 3 with none
        free; a word decoded in the slot is written at offset 0 of that
        bank, so its fetch comes after its write.
        """
        bls = np.atleast_1d(bls)
        passes = [self.blockline_slots(bl) for bl in bls.tolist()]
        s0 = passes[0].start
        spb, n = self.slots_per_blockline, self.n_words
        bookings = []   # per kind: (slot, offset, line, col, local word,
                        # block, purpose), each an array or a scalar

        # the decode slots of the blocklines, one after another: each one's
        # slot, blockline, column and block x; each slot writes both rows of
        # its block
        r, t = np.divmod(np.arange(len(bls) * spb), spb)
        bl = bls[r]
        grid = (bl - bls[0]) * spb + t
        _, col, bx = decode_position(self.plan, t)
        tw = np.repeat(grid, 2)
        bookings.append((tw, 0, (2 * bl[:, None] + [0, 1]).ravel(),
                         np.repeat(col, 2), np.repeat(bx, 2), s0 + tw, WRITE))

        k = np.concatenate([np.arange(w.start, w.stop) for w in (
            self.display_words_in(CYCLES_PER_SLOT * p.start,
                                  CYCLES_PER_SLOT * p.stop) for p in passes)])
        cyc = self.display_read_cycle(k) - CYCLES_PER_SLOT * s0
        y, i = np.divmod(k, self.words_per_image_line)
        bookings.append((cyc // CYCLES_PER_SLOT, cyc % CYCLES_PER_SLOT, y,
                         i // n, i % n, -1, DISPLAY))

        # fetch demands, one kind at a time: (valid, line, local word), per
        # decode slot
        def entering(section):
            # one new word of the section's fetched span slides into the
            # next block's window per slot
            w = bx + 1 + self._fetched_span[section][1] // PIXELS_PER_WORD
            return (bx + 1 < n) & (w >= 0) & (w < n), w

        def each(test):
            # test of each decode slot's blockline
            return np.array(list(map(test, bls.tolist())), dtype=bool)[r]

        demands = []
        inner = ~each(self.plan.is_first_blockline_of_slice)
        if inner.any():
            ok, w = entering("prev")
            demands.append((ok & inner, 2 * bl - 1, w))
        if self.preset.reconvert_on_fetch and "row1" in self._fetched_span:
            ok, w = entering("row1")
            demands.append((ok & (w <= bx), 2 * bl + 1, w))
        warms = each(self._warms_next)
        if warms.any():
            j = bx - (n - self.warmup_count)
            demands.append(((j >= 0) & warms, 2 * bl + 1, j))
        want = self.preset.fetch_words_per_slot
        if want > 1 and demands:
            ok, line, w = zip(*demands)
            count = np.sum(ok, axis=0)
            first = np.argmax(ok, axis=0)
            line, w = np.choose(first, line), np.choose(first, w)
            for e in range(1, want):
                demands.append(((count > 0) & (count + e <= want), line,
                                (w + e) % n))

        # a fetch books offset 2, as refill does; streaming moves it below
        for ok, line, w in demands:
            s = grid[ok]
            bookings.append((s, 2, line[ok], col[ok], w[ok], s0 + s,
                             FETCH_READ))

        # each raw field across the kinds, once
        sizes = [len(k[0]) for k in bookings]
        raw = np.empty((7, sum(sizes)), dtype=np.int32)
        for kind, hi in zip(bookings, np.cumsum(sizes).tolist()):
            for row, v in zip(raw, kind):
                row[hi - len(kind[0]):hi] = v
        s, off, line, c, wl, block, purpose = raw
        bank = self._bank(line, c, wl)
        if self.preset.fetch_kind == STREAMING:
            # the offsets each (slot, bank) has taken, as bits; each fetch
            # kind books at most one word per slot.  A slot's row is its
            # place among the slots of the blocklines
            starts = np.array([p.start for p in passes]) - s0
            skip = starts - np.cumsum([0, *map(len, passes[:-1])])
            n0 = sizes[0] + sizes[1]   # the writes and display reads
            at = (s - skip[np.searchsorted(starts, s, side="right") - 1]) \
                * len(self.bank_keys) + bank
            taken = np.zeros((sum(map(len, passes)) * len(self.bank_keys),
                              CYCLES_PER_SLOT), dtype=bool)
            taken[at[:n0], off[:n0]] = True
            taken = np.packbits(taken, axis=1, bitorder="little")[:, 0]
            ends = np.cumsum(sizes)[1:].tolist()
            for lo, hi in zip(ends, ends[1:]):
                a = at[lo:hi]
                off[lo:hi] = _FIRST_FREE[~taken[a] & 0xF]
                taken[a] = taken[a] | 1 << off[lo:hi]
        # each field in booking order, taken straight into its row
        order = np.argsort(s, kind="stable")
        out = np.empty((len(BOOKING_FIELDS), len(s)), dtype=np.int32)
        for row, v in zip(out, (
                s, CYCLES_PER_SLOT * (s0 + s) + off, bank, purpose,
                self.word_address(c, wl)[0], block, c, line,
                c * self.plan.slice_width + PIXELS_PER_WORD * wl)):
            np.take(v, order, out=row, mode="clip")
        return out

    def _bank(self, line, slice_col, local_word):
        """The place in `bank_keys` of the bank holding a slice column's
        local word of image line `line`."""
        return self._buf_of[line % 4] * self.preset.banks_per_buffer \
            + self.word_address(slice_col, local_word)[1]

    def access_records(self, bookings: np.ndarray) -> list[AccessRecord]:
        """The columns of `booking_arrays` as AccessRecords."""
        _, cycle, bank, purpose, word, block, col, line, px = bookings.tolist()
        buf, bank_id = zip(*self.bank_keys)
        return list(map(AccessRecord, cycle, [buf[k] for k in bank],
                        [bank_id[k] for k in bank], word,
                        [PURPOSES[p] for p in purpose], block, col, line, px))

    def slot_plan(self, global_slot: int) -> BlockSlotPlan:
        """One slot's view of `booking_arrays` of its blockline, which is
        kept for the last blockline viewed."""
        bl = min(global_slot // self.slots_per_blockline,
                 self.plan.total_blocklines - 1)
        if self._view[0] != bl:
            b = self.booking_arrays(bl)
            self._view = (bl, b[SLOT], self.access_records(b))
        _, slot, records = self._view
        rel = global_slot - self.blockline_slots(bl).start
        lo, hi = np.searchsorted(slot, (rel, rel + 1))
        by = ([], [], [])
        for rec in records[lo:hi]:
            by[_CODE[rec.purpose]].append(rec)
        return BlockSlotPlan(*by)

    def shift_bookings(self, bookings: np.ndarray, d: int) -> np.ndarray:
        """A blockline's `booking_arrays` moved d blocklines later, within
        its class: cycles by d * 4 * slots_per_blockline, block ids by
        d * slots_per_blockline and lines by 2 * d.  Every line keeps its
        buffer when d is even, and for every d with two line buffers."""
        spb = self.slots_per_blockline
        out = bookings.copy()
        out[CYCLE] += CYCLES_PER_SLOT * spb * d
        out[BLOCK][out[BLOCK] >= 0] += spb * d
        out[LINE] += 2 * d
        return out


def total_frame_cycles(preset: ArchPreset, plan: GeometryPlan) -> int:
    return plan.image.width * plan.image.height // 4 + preset.latency_cycles(plan)
