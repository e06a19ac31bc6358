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
from .geometry import (CYCLES_PER_SLOT, BlockCoord, GeometryPlan,
                       PIXELS_PER_WORD, block_at_slot, decode_position)
from .membank import AccessRecord, Purpose
from .predwindow import (FETCH, FORWARDED, ResidencyPolicy, WindowSpec,
                         policy_forwarding, policy_full_resident,
                         policy_streaming)

ONE_LINE = "one_line"
HALF_LINE = "half_line"

REFILL = "refill"          # fixed fetch cycle per slot, feeds the resident window
STREAMING = "streaming"    # fetch on any free lower-bank cycle, serve on demand

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
    name: str
    line_delay: str
    line_buffers: int
    banks_per_buffer: int
    fetch_kind: str
    fetch_words_per_slot: int
    residency: ResidencyPolicy
    capacity_pixels: int | None = None  # None -> the policy's count under the window spec

    def __post_init__(self):
        if self.line_delay not in (ONE_LINE, HALF_LINE):
            raise ConfigError(f"unknown line delay {self.line_delay!r}")
        require_int(self.line_buffers, "line_buffers", 2, 3)
        require_int(self.banks_per_buffer, "banks_per_buffer", 1, 2)
        # refill pads each slot's fetches up to this many; a slot has four
        # cycles to place them on
        require_int(self.fetch_words_per_slot, "fetch_words_per_slot", 0,
                    CYCLES_PER_SLOT)
        if self.fetch_kind not in (REFILL, STREAMING):
            raise ConfigError(f"unknown fetch kind {self.fetch_kind!r}")
        if self.capacity_pixels is not None:
            require_int(self.capacity_pixels, "capacity_pixels", 0)

    # read-only views of the residency policy's flags, which the engine reads
    @property
    def forwarding(self) -> bool:
        return self.residency.forwarding_enabled

    @property
    def reconvert_on_fetch(self) -> bool:
        return self.residency.reconvert_on_fetch

    def capacity_for(self, spec: WindowSpec) -> int:
        if self.capacity_pixels is not None:
            return self.capacity_pixels
        return self.residency.resident_count(spec)

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
                      residency=policy_full_resident())


def preset_type1() -> ArchPreset:
    return ArchPreset("type1", HALF_LINE, 2, 1, REFILL, 1,
                      residency=policy_forwarding())


def preset_type2() -> ArchPreset:
    return ArchPreset("type2", HALF_LINE, 2, 2, STREAMING, 0,
                      residency=policy_streaming())


PRESETS = {"baseline": preset_baseline, "type1": preset_type1, "type2": preset_type2}


def preset_by_name(name: str) -> ArchPreset:
    try:
        return PRESETS[name.lower()]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")


@dataclass
class BlockSlotPlan:
    """One slot's bank accesses, each an AccessRecord, by purpose.  A slot
    past the last decode slot decodes no block and only reads the
    display."""
    block: BlockCoord | None
    cycle_base: int
    writes: list
    display_reads: list
    fetches: list

    def records(self) -> list:
        """The slot's records in booking order: writes, display reads,
        fetches."""
        return self.writes + self.display_reads + self.fetches


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
        self.spec = spec
        self.plan = plan
        self.n_words = plan.words_per_line
        self.cols = plan.slices.columns
        self.slots_per_blockline = self.cols * self.n_words
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
        self.prev_hi_words = prev_hi // PIXELS_PER_WORD  # floor
        self.warmup_count = min(self.prev_hi_words + 1, self.n_words) \
            if prev_hi >= 0 else 0
        # per section, the part of its span that is not forwarded (a
        # section forwarded whole has none)
        self._fetched_span = {
            s: (lo, hi) for s, parts in preset.residency.parts(spec).items()
            for lo, hi, route in parts if route != FORWARDED}
        # (buffer, bank) in commit order within a cycle, and each one's place
        self.bank_keys = [(buf, bk) for buf in preset.buffer_names()
                          for bk in range(preset.banks_per_buffer)]
        self.bank_order = {key: i for i, key in enumerate(self.bank_keys)}
        # the place in buffer_names of the buffer holding line y, by y mod 4
        # (buffer-for-line repeats with period 4, ping-pong included)
        self._buf_of = np.array([preset.buffer_names().index(
            preset.buffer_for_line(y)) for y in range(4)])
        self._bases = np.array(plan.partition_bases)
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

    def _blockline_class(self, bl: int):
        """What a blockline's schedule depends on besides a whole-blockline
        shift: its parity (the line -> buffer map has period 4 lines), whether
        it opens a slice (no previous-line fetches), and whether the next
        blockline's warm-up fetches ride on its tail.  A blockline whose
        display reads are clipped at the start of the frame (it reads fewer
        than one word per two cycles) and the last blockline, whose pass
        carries the display tail, are classes of their own."""
        cycles = CYCLES_PER_SLOT * self.slots_per_blockline
        c0 = cycles * bl
        if bl == self.plan.total_blocklines - 1 or \
                len(self.display_words_in(c0, c0 + cycles)) < cycles // 2:
            return bl
        return (bl % 2, self.plan.is_first_blockline_of_slice(bl),
                self._warms_next(bl))

    def _warms_next(self, bl: int) -> bool:
        """Whether blockline bl's tail fetches the next blockline's first
        previous-line words."""
        nxt = bl + 1
        return bool(self.warmup_count and nxt < self.plan.total_blocklines
                    and not self.plan.is_first_blockline_of_slice(nxt))

    def booking_arrays(self, bl: int) -> np.ndarray:
        """Every booking of blockline bl's slots (`blockline_slots`) in
        booking order (per slot: writes, display reads, fetches), as an
        int32 array with one row per field of `BOOKING_FIELDS`:

          slot     slot index from the blockline's first slot
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
        for the streaming preset with row1 fetched, the entering word of
        row1's span if it is already decoded; the next blockline's first
        previous-line words in the last slots (the right-edge clip leaves
        their fetch cycles idle); and for a refill budget above one word,
        the words after the first demand, wrapping round the slice, up to
        the budget.  Refill presets fetch at offset 2 (a second word in a
        slot lands on the same cycle and shows up as a conflict, which is
        the point of the over-budget experiment).  Streaming takes the
        first offset its bank has free in the slot, or offset 3 with none
        free; a word decoded in the slot is written at offset 0 of that
        bank, so its fetch comes after its write.
        """
        slots = self.blockline_slots(bl)
        spb, n = self.slots_per_blockline, self.n_words
        bookings = []   # per kind: (slot, offset, line, col, local word,
                        # block, purpose), each an array or a scalar

        # the decode slots' blocks; each slot writes both rows of its block
        t = np.arange(spb)
        _, col, bx = decode_position(self.plan, t)
        tw = np.repeat(t, 2)
        bookings.append((tw, 0, 2 * bl + np.tile([0, 1], spb),
                         np.repeat(col, 2), np.repeat(bx, 2), slots.start + tw,
                         WRITE))

        r = self.display_words_in(CYCLES_PER_SLOT * slots.start,
                                  CYCLES_PER_SLOT * slots.stop)
        k = np.arange(r.start, r.stop)
        cyc = self.display_read_cycle(k) - CYCLES_PER_SLOT * slots.start
        y, i = np.divmod(k, self.words_per_image_line)
        bookings.append((cyc // CYCLES_PER_SLOT, cyc % CYCLES_PER_SLOT, y,
                         i // n, i % n, -1, DISPLAY))

        # fetch demands, one kind at a time: (valid, line, local word)
        def entering(section):
            # one new word of the section's fetched span slides into the
            # next block's window per slot
            w = bx + 1 + self._fetched_span[section][1] // PIXELS_PER_WORD
            return (bx + 1 < n) & (w >= 0) & (w < n), w

        demands = []
        if not self.plan.is_first_blockline_of_slice(bl):
            ok, w = entering("prev")
            demands.append((ok, 2 * bl - 1, w))
        if self.preset.fetch_kind == STREAMING and "row1" in \
                self._fetched_span and \
                self.preset.residency.routes["row1"] == FETCH:
            # the streaming fetch datapath (with its reconvert unit) hangs
            # off the lower buffer pair, so only the lower row can stream
            ok, w = entering("row1")
            demands.append((ok & (w <= bx), 2 * bl + 1, w))
        if self._warms_next(bl):
            j = bx - (n - self.warmup_count)
            demands.append((j >= 0, 2 * bl + 1, j))
        want = self.preset.fetch_words_per_slot
        if self.preset.fetch_kind == REFILL and want > 1 and demands:
            ok, line, w = zip(*demands)
            count = np.sum(ok, axis=0)
            first = np.argmax(ok, axis=0)
            line, w = np.array(line)[first], np.choose(first, w)
            for e in range(1, want):
                demands.append(((count > 0) & (count + e <= want), line,
                                (w + e) % n))

        if self.preset.fetch_kind == STREAMING:
            # the offsets each (slot, bank) has taken, as bits
            taken = np.zeros((len(slots), len(self.bank_keys)), dtype=np.int64)
            for s, off, line, c, wl, _, _ in bookings:
                np.bitwise_or.at(taken, (s, self._bank(line, c, wl)),
                                 1 << off)
        for ok, line, w in demands:
            line = np.broadcast_to(line, bx.shape)[ok]
            s, c, w = t[ok], col[ok], w[ok]
            if self.preset.fetch_kind == STREAMING:
                at = (s, self._bank(line, c, w))
                off = _FIRST_FREE[~taken[at] & 0xF]
                taken[at] |= 1 << off
            else:
                off = 2
            bookings.append((s, off, line, c, w, slots.start + s, FETCH_READ))

        rows = []
        for s, off, line, c, wl, block, purpose in bookings:
            rows.append(np.stack(np.broadcast_arrays(
                s, CYCLES_PER_SLOT * (slots.start + s) + off,
                self._bank(line, c, wl), purpose,
                self.word_address(c, wl)[0], block, c, line,
                c * self.plan.slice_width + PIXELS_PER_WORD * wl)))
        out = np.concatenate(rows, axis=1)
        return out[:, np.argsort(out[SLOT], kind="stable")].astype(np.int32)

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
        block = block_at_slot(self.plan, global_slot) \
            if global_slot < self.decode_slots else None
        return BlockSlotPlan(block, CYCLES_PER_SLOT * global_slot, *by)

    def shift_bookings(self, bookings: np.ndarray, d: int) -> np.ndarray:
        """A blockline's `booking_arrays` moved d blocklines later, within
        its class: cycles by d * 4 * slots_per_blockline, block ids by
        d * slots_per_blockline and lines by 2 * d.  d is even, so every
        line keeps its buffer."""
        spb = self.slots_per_blockline
        out = bookings.copy()
        out[CYCLE] += CYCLES_PER_SLOT * spb * d
        out[BLOCK][out[BLOCK] >= 0] += spb * d
        out[LINE] += 2 * d
        return out


def total_frame_cycles(preset: ArchPreset, plan: GeometryPlan) -> int:
    return plan.image.width * plan.image.height // 4 + preset.latency_cycles(plan)
