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
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, require_int
from .geometry import (BLOCK_W, CYCLES_PER_SLOT, BlockCoord, GeometryPlan,
                       PIXELS_PER_WORD, block_at_slot)
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


class FetchDemand(NamedTuple):
    """One line-buffer word the prediction path needs this slot."""
    line_y: int
    word_local: int            # word index within the slice column
    slice_col: int
    min_offset: int = 0        # 1 when the word is written at this slot's offset 0


@dataclass
class BlockSlotPlan:
    """One slot's bank accesses, each an AccessRecord.  A slot past the last
    decode slot decodes no block and only reads the display."""
    block: BlockCoord | None
    cycle_base: int
    writes: list = field(default_factory=list)
    fetches: list = field(default_factory=list)
    display_reads: list = field(default_factory=list)

    def records(self) -> list:
        """The slot's records in booking order: writes, display reads,
        fetches."""
        return self.writes + self.display_reads + self.fetches


class Scheduler:
    """Pure per-slot access-plan generator shared by the engine and tests."""

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
        # buffer-for-line repeats with period 4 (ping-pong included)
        self._buf_of = [preset.buffer_for_line(y) for y in range(4)]
        # (buffer, bank) in commit order within a cycle, and each one's place
        self.bank_keys = [(buf, bk) for buf in preset.buffer_names()
                          for bk in range(preset.banks_per_buffer)]
        self.bank_order = {key: i for i, key in enumerate(self.bank_keys)}

    # -- addressing ----------------------------------------------------------

    def word_address(self, slice_col: int, local_word: int) -> tuple[int, int]:
        """(word index, bank) of a slice column's local word.  Words are
        block-aligned, so with a bank split the bank is the word's parity."""
        return (self.plan.partition_bases[slice_col] + local_word,
                local_word % self.preset.banks_per_buffer)

    # -- writes --------------------------------------------------------------

    def write_records(self, b: BlockCoord, cycle_base: int) -> list[AccessRecord]:
        word, bank = self.word_address(b.slice_col, b.block_x)
        x0 = self.plan.slice_base_x(b.slice_col) + BLOCK_W * b.block_x
        y0 = 2 * b.blockline
        recs = []
        for y in (y0, y0 + 1):
            recs.append(AccessRecord(
                cycle=cycle_base, buffer=self._buf_of[y % 4],
                bank_id=bank, word_index=word,
                purpose=Purpose.WRITE_BLOCK_ROW,
                block_id=b.global_block_index, slice_col=b.slice_col,
                line=y, px=x0))
        return recs

    # -- prediction fetches ----------------------------------------------------

    def fetch_demands(self, b: BlockCoord) -> list[FetchDemand]:
        """Line-buffer words the window pipeline wants during this slot.

        Refill presets top up the resident previous-line span (one entering
        word per slot, plus the next blockline's left words during the tail
        slots, where the right-edge clip leaves the fetch cycle idle).
        The streaming preset additionally pulls the entering word of every
        fetch-routed section.
        """
        demands: list[FetchDemand] = []
        bl, bx, col = b.blockline, b.block_x, b.slice_col
        first = self.plan.is_first_blockline_of_slice(bl)

        def entering_word(section: str) -> int | None:
            # one new word slides into the next block's span per slot; the
            # forwarded block needs no fetch
            if bx + 1 >= self.n_words or section not in self._fetched_span:
                return None
            hi = self._fetched_span[section][1]
            w = (PIXELS_PER_WORD * (bx + 1) + hi) // PIXELS_PER_WORD
            return w if 0 <= w < self.n_words else None

        if not first:
            w = entering_word("prev")
            if w is not None:
                demands.append(FetchDemand(2 * bl - 1, w, col))
        if self.preset.fetch_kind == STREAMING:
            # the streaming fetch datapath (with its reconvert unit) hangs off
            # the lower buffer pair, so only the lower row can stream
            if self.preset.residency.routes["row1"] == FETCH:
                w = entering_word("row1")
                if w is not None and w <= bx:
                    demands.append(FetchDemand(2 * bl + 1, w, col,
                                               min_offset=1 if w == bx else 0))
        # tail warmup for the next blockline's previous line: the right-edge
        # clip frees exactly enough fetch cycles at the end of each blockline
        nxt = bl + 1
        if (self.warmup_count and nxt < self.plan.total_blocklines
                and not self.plan.is_first_blockline_of_slice(nxt)):
            j = bx - (self.n_words - self.warmup_count)
            if 0 <= j < self.warmup_count:
                demands.append(FetchDemand(2 * bl + 1, j, col,
                                           min_offset=1 if j == bx else 0))
        return demands

    def fetch_records(self, b: BlockCoord, cycle_base: int,
                      occupied) -> list[AccessRecord]:
        """Place this slot's fetch demands.

        `occupied` maps (buffer, bank) -> set of taken offsets.  Refill
        presets book the designated offset 2 (a second word in the same slot
        lands on the same cycle and shows up as a conflict, which is the
        point of the over-budget experiment).  Streaming picks the first
        free cycle on the word's bank.
        """
        out = []
        demands = self.fetch_demands(b)
        if self.preset.fetch_kind == REFILL and self.preset.fetch_words_per_slot > 1:
            demands = self._overbudget(demands, b)
        for d in demands:
            buf = self._buf_of[d.line_y % 4]
            word, bank = self.word_address(d.slice_col, d.word_local)
            if self.preset.fetch_kind == REFILL:
                offset = 2
            else:
                taken = occupied.setdefault((buf, bank), set())
                free = [o for o in range(d.min_offset, CYCLES_PER_SLOT)
                        if o not in taken]
                offset = free[0] if free else CYCLES_PER_SLOT - 1
            occupied.setdefault((buf, bank), set()).add(offset)
            out.append(AccessRecord(
                cycle=cycle_base + offset, buffer=buf, bank_id=bank,
                word_index=word, purpose=Purpose.PREDICT_FETCH,
                block_id=b.global_block_index, slice_col=d.slice_col,
                line=d.line_y, px=self.plan.slice_base_x(d.slice_col)
                + PIXELS_PER_WORD * d.word_local))
        return out

    def _overbudget(self, demands, b):
        """Pad the demand list up to fetch_words_per_slot with extra
        previous-line words (the "second fetch per slot" experiment)."""
        if not demands:
            return demands
        extra = []
        want = self.preset.fetch_words_per_slot
        base = demands[0]
        w = base.word_local
        while len(demands) + len(extra) < want:
            w = (w + 1) % self.n_words
            extra.append(FetchDemand(base.line_y, w, base.slice_col))
        return demands + extra

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

    def display_record(self, k: int) -> AccessRecord:
        y = k // self.words_per_image_line
        i = k % self.words_per_image_line
        col = (i * PIXELS_PER_WORD) // self.plan.slice_width
        word, bank = self.word_address(col, i - col * self.n_words)
        return AccessRecord(
            cycle=self.display_read_cycle(k), buffer=self._buf_of[y % 4],
            bank_id=bank, word_index=word, purpose=Purpose.OUTPUT_READ,
            block_id=-1, slice_col=col, line=y, px=PIXELS_PER_WORD * i)

    # -- whole-slot view ---------------------------------------------------------

    def slot_plan(self, global_slot: int) -> BlockSlotPlan:
        base = CYCLES_PER_SLOT * global_slot
        display = [self.display_record(k) for k in
                   self.display_words_in(base, base + CYCLES_PER_SLOT)]
        if global_slot >= self.decode_slots:
            return BlockSlotPlan(None, base, display_reads=display)
        b = block_at_slot(self.plan, global_slot)
        plan = BlockSlotPlan(block=b, cycle_base=base, display_reads=display)
        plan.writes = self.write_records(b, base)
        occupied: dict = {}
        for rec in plan.records():
            occupied.setdefault((rec.buffer, rec.bank_id), set()).add(rec.cycle - base)
        plan.fetches = self.fetch_records(b, base, occupied)
        return plan

    # -- whole-blockline view --------------------------------------------------

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
        nxt = bl + 1
        warm = bool(self.warmup_count and nxt < self.plan.total_blocklines
                    and not self.plan.is_first_blockline_of_slice(nxt))
        return (bl % 2, self.plan.is_first_blockline_of_slice(bl), warm)

    def booking_arrays(self, plans, slot0: int) -> np.ndarray:
        """The records of consecutive slot plans, the first at global slot
        `slot0`, in booking order (`BlockSlotPlan.records`: per slot,
        writes, display reads, fetches), as an int32 array with one row per
        field of `BOOKING_FIELDS`:

          slot     slot index from slot0
          cycle    the access cycle
          bank     the bank's place in commit order within a cycle, its
                   index in `bank_keys`
          purpose  WRITE, DISPLAY or FETCH_READ, its index in PURPOSES
          word     word index in the line buffer
          block    block id; -1 for display reads
          col      slice column of the record
          line     the image line written, displayed or demanded
          px       x of the first of the word's 8 pixels on that line
        """
        at = self.bank_order
        rows = [(sp.cycle_base // CYCLES_PER_SLOT - slot0, r.cycle,
                 at[r.buffer, r.bank_id], _CODE[r.purpose], r.word_index,
                 r.block_id, r.slice_col, r.line, r.px)
                for sp in plans for r in sp.records()]
        return np.array(rows, dtype=np.int32).reshape(-1, len(BOOKING_FIELDS)).T

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
