"""The cycle loop: applies schedules to the memory models, serves prediction
windows, and verifies every transaction against the golden oracle.

The outer loop advances in 4-cycle block slots; bank commits happen per
cycle inside a slot.  Violations never abort a run, so one simulation can
fully characterize a broken configuration.
"""

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, require_int
from .geometry import (BLOCK_W, CYCLES_PER_SLOT, LINE_WORDS, PIXELS_PER_WORD,
                       GeometryPlan, ImageGeometry, Interleave, SliceLayout,
                       build_geometry)
from .membank import Purpose, SramBankModel
from .oracle import GoldenOracle, ycocg_frame
from .predwindow import FETCH, RESIDENT, ReconBufferState, SECTIONS, WindowSpec
from .sched import ArchPreset, REFILL, STREAMING, Scheduler, total_frame_cycles

DETAIL_LIMIT = 16  # violation samples kept per class


def _bad_pixels(got: np.ndarray, want: np.ndarray) -> int:
    """Pixels of `got` that differ from `want` in any component.  Equal bytes,
    the usual case, settle it without the per-pixel count."""
    if got.tobytes() == want.tobytes():
        return 0
    return int((got != want).any(axis=1).sum())


@dataclass
class FaultSpec:
    """Deterministic perturbation for negative testing."""
    kind: str                 # noop | flip_word | capacity_override |
                              # line_buffers_override | banks_override |
                              # delay_override | fetch_budget_override
    buffer: str | None = None
    word_index: int | None = None
    cycle: int | None = None
    value: int | str | None = None

    def __post_init__(self):
        kinds = ("noop", "flip_word", "capacity_override", "line_buffers_override",
                 "banks_override", "delay_override", "fetch_budget_override")
        if self.kind not in kinds:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
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
    slices: SliceLayout
    preset: ArchPreset
    window: WindowSpec = field(default_factory=WindowSpec)
    clock_hz: float = 200e6
    throughput_ppc: int = 4
    seed: int = 0
    interleave: Interleave = Interleave.COLUMN_MAJOR
    sram_read_latency: int = 0   # sensitivity knob: 1 models registered outputs
    collect_trace: bool = False
    faults: list = field(default_factory=list)

    def __post_init__(self):
        if self.throughput_ppc * CYCLES_PER_SLOT != 16:
            raise ConfigError("throughput x 4 cycles must equal the 16-px block")
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
        return (self.conflicts + self.hazards + self.underflows
                + self.availability_misses + self.output_mismatches
                + self.prediction_mismatches)

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
    windows_served: int
    pixels_served: int
    assembly_peak_pixels: int
    preset: ArchPreset
    plan: GeometryPlan
    config: SimConfig
    trace_rows: list = field(default_factory=list)
    violation_rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations.passed()


class _ColumnState:
    """Per-slice-column runtime state.

    The fetch stage is a small word-wide register file in front of the
    prediction datapath: slot index is line_y mod 4, and a per-word line tag
    guards against stale data (lines two blocklines apart share a slot, but
    their service windows never overlap).
    """

    def __init__(self, spec, preset, capacity, n_words):
        self.recon = ReconBufferState(spec, preset.residency, capacity)
        self.stage_vals = np.zeros((4, n_words, PIXELS_PER_WORD, 3),
                                   dtype=np.int32)
        self.stage_line = np.full((4, n_words), -1, dtype=np.int64)
        self.history = deque(maxlen=2)  # (block_x, rgb_rows, yco_rows)


def apply_faults_to_preset(preset: ArchPreset, faults) -> ArchPreset:
    """The preset with the override faults applied.  ArchPreset checks the
    overridden fields; the checks here reject values it would accept but
    that leave the run unchanged."""
    for f in faults:
        if f.kind == "capacity_override":
            # None would restore the policy's own count
            require_int(f.value, "capacity_override value", 0)
            preset = replace(preset, capacity_pixels=f.value)
        elif f.kind == "line_buffers_override":
            preset = replace(preset, line_buffers=f.value)
        elif f.kind == "banks_override":
            preset = replace(preset, banks_per_buffer=f.value)
        elif f.kind == "delay_override":
            preset = replace(preset, line_delay=f.value)
        elif f.kind == "fetch_budget_override":
            # a budget below 2 changes no schedule, and a slot has four
            # cycles; streaming presets place their fetches themselves
            require_int(f.value, "fetch_budget_override value", 2,
                        CYCLES_PER_SLOT)
            if preset.fetch_kind != REFILL:
                raise ConfigError("fetch_budget_override needs a refill preset; "
                                  f"{preset.name} streams its fetches")
            preset = replace(preset, fetch_words_per_slot=f.value)
    return preset


class Engine:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.preset = apply_faults_to_preset(cfg.preset, cfg.faults)
        self.plan = build_geometry(cfg.image, cfg.slices, cfg.interleave)
        self.spec = cfg.window
        self.sched = Scheduler(self.preset, self.spec, self.plan,
                               read_latency=cfg.sram_read_latency)
        self.oracle = GoldenOracle(cfg.seed, cfg.image.bit_depth)
        self.capacity = self.preset.capacity_for(self.spec)
        self.banks = {}
        for buf in self.preset.buffer_names():
            for bk in range(self.preset.banks_per_buffer):
                self.banks[(buf, bk)] = SramBankModel(buf, bk)
        # (buffer, bank) -> (commit order within a cycle, bank)
        self._bank_at = {key: (i, bank)
                         for i, (key, bank) in enumerate(self.banks.items())}
        self.cols = [_ColumnState(self.spec, self.preset, self.capacity,
                                  self.plan.words_per_line)
                     for _ in range(cfg.slices.columns)]
        self.log = ViolationLog()
        self.trace_rows = []
        self.violation_rows = []
        flips = sorted([f for f in cfg.faults if f.kind == "flip_word"],
                       key=lambda f: f.cycle)
        run_cycles = total_frame_cycles(self.preset, self.plan)
        for f in flips:
            if f.buffer not in self.preset.buffer_names():
                raise ConfigError(
                    f"flip_word buffer {f.buffer!r} is not one of "
                    f"{self.preset.buffer_names()}")
            if f.cycle >= run_cycles:
                raise ConfigError(f"flip_word cycle {f.cycle} is past the "
                                  f"run's last cycle {run_cycles - 1}")
        self._flips = deque(flips)   # pending, in cycle order
        self._next_display_k = 0
        # per-section span metadata: each span splits into a left part (the
        # section's route) and, with forwarding, the previously-decoded block
        self._parts = {}
        routes = self.preset.residency.routes
        fwd_on = self.preset.residency.forwarding_enabled
        for s in SECTIONS:
            lo, hi = self.spec.span(s)
            parts = []
            if s != "prev" and fwd_on and hi >= -BLOCK_W:
                split = max(lo, -BLOCK_W)
                if split > lo:
                    parts.append((lo, split - 1, routes[s]))
                parts.append((split, hi, "forwarded"))
            else:
                parts.append((lo, hi, routes[s]))
            self._parts[s] = parts
        # per section: name, line offset from the blockline's upper row,
        # span start and parts
        self._window = [(s, dy, self.spec.span(s)[0], self._parts[s])
                        for s, dy in zip(SECTIONS, (-1, 0, 1))]
        self._resident_rows = [(s, row) for s, row in (("row0", 0), ("row1", 1))
                               if routes[s] == RESIDENT]
        self._stage_words_static = self._stage_words()

    def _stage_words(self) -> int:
        words = self.sched.warmup_count + 1
        if self.preset.fetch_kind == STREAMING:
            for s, (lo, hi, route) in (
                    ("prev", self._parts["prev"][0]),
                    ("row1", self._parts["row1"][0])):
                if route == FETCH:
                    words += (hi - lo) // PIXELS_PER_WORD + 2
        return words

    # -- bookkeeping helpers -------------------------------------------------

    def _note(self, cls, item):
        self.log.details.setdefault(cls, [])
        if len(self.log.details[cls]) < DETAIL_LIMIT:
            self.log.details[cls].append(item)

    def _drain_bank_violations(self):
        tracing = self.cfg.collect_trace
        for bank in self.banks.values():
            if not (bank.conflicts or bank.hazards or bank.underflows):
                continue
            for v in bank.conflicts:
                self.log.conflicts += 1
                self._note("conflicts", v)
                if tracing:
                    self.violation_rows.append(
                        (v.cycle, -1, v.buffer, v.bank_id, "conflict",
                         v.second_word, v.second_purpose.value, v.block_id))
            for v in bank.hazards:
                self.log.hazards += 1
                self._note("hazards", v)
                if tracing:
                    self.violation_rows.append(
                        (v.cycle, -1, v.buffer, v.bank_id, "hazard",
                         v.word_index, Purpose.WRITE_BLOCK_ROW.value,
                         v.block_id))
            for v in bank.underflows:
                self.log.underflows += 1
                self._note("underflows", v)
                if tracing:
                    self.violation_rows.append(
                        (v.cycle, -1, v.buffer, v.bank_id, "underflow",
                         v.word_index, v.purpose.value, -1))
            bank.conflicts.clear()
            bank.hazards.clear()
            bank.underflows.clear()

    # -- main loop -------------------------------------------------------------

    def run(self) -> EngineResult:
        plan = self.plan
        w, h = plan.image.width, plan.image.height
        rgb = self.oracle.golden_frame(w, h)
        yco = ycocg_frame(rgb)
        self._rgb, self._yco = rgb, yco
        total_cycles = total_frame_cycles(self.preset, plan)
        windows_served = 0
        pixels_served = 0

        for bl in range(plan.total_blocklines):
            y0 = 2 * bl
            for sp in self.sched.blockline_plans(bl):
                b = sp.block
                col = self.cols[b.slice_col]
                booked = []   # (cycle, bank order, bank) of every grant
                # book block row-writes (values from the golden decode)
                x0 = plan.slice_base_x(b.slice_col) + BLOCK_W * b.block_x
                write_booked = []
                for rec in sp.writes:
                    row_y = y0 if rec.buffer == "upper" else y0 + 1
                    if self._book(rec, booked, rgb[row_y, x0:x0 + BLOCK_W],
                                  row_y):
                        write_booked.append(rec)
                # book display reads
                for rec in sp.display_reads:
                    self._book(rec, booked)
                # book prediction fetches
                fetch_booked = [(rec, demand) for rec, demand in sp.fetches
                                if self._book(rec, booked)]
                self._commit_slot(sp.cycle_base, booked, write_booked,
                                  fetch_booked)
                # slide the window and verify availability for this block
                self._advance_window(b, col)
                served, misses, mismatches = self._serve_window(b, col)
                windows_served += 1
                pixels_served += served
                self.log.availability_misses += misses
                self.log.prediction_mismatches += mismatches
                # record the decoded block for forwarding / admission
                col.history.append((b.block_x,
                                    rgb[y0:y0 + 2, x0:x0 + BLOCK_W],
                                    yco[y0:y0 + 2, x0:x0 + BLOCK_W]))
                self._drain_bank_violations()

        # display-only tail after the last decode slot
        slot = plan.total_blocklines * self.sched.slots_per_blockline
        while self._next_display_k < self.sched.total_display_words:
            base = CYCLES_PER_SLOT * slot
            booked = []
            for k in self.sched.display_words_in(base, base + CYCLES_PER_SLOT):
                self._book(self.sched.display_record(k), booked)
            self._commit_slot(base, booked)
            self._drain_bank_violations()
            slot += 1

        peak = [c.recon.peak_occupancy for c in self.cols]
        return EngineResult(
            violations=self.log,
            latency_cycles=self.sched.latency,
            total_cycles=total_cycles,
            peak_recon_per_column=peak,
            recon_capacity=self.capacity,
            windows_served=windows_served,
            pixels_served=pixels_served,
            assembly_peak_pixels=self._stage_words_static * PIXELS_PER_WORD,
            preset=self.preset,
            plan=plan,
            config=self.cfg,
            trace_rows=self.trace_rows,
            violation_rows=self.violation_rows,
        )

    def _book(self, rec, booked, values=None, line_y=-1) -> bool:
        """Request one access; a grant joins the slot's commit list and the
        trace.  Returns whether it was granted."""
        order, bank = self._bank_at[rec.buffer, rec.bank_id]
        if not bank.request_access(rec, values=values, line_y=line_y):
            return False
        booked.append((rec.cycle, order, bank))
        if self.cfg.collect_trace:
            self.trace_rows.append(
                (rec.cycle, rec.slice_col, rec.buffer, rec.bank_id, rec.op,
                 rec.word_index, rec.purpose.value, rec.block_id))
        return True

    def _commit_slot(self, base, booked, write_recs=(), fetch_booked=()):
        """Commit the slot's granted accesses in cycle order, banks in
        `self.banks` order within a cycle.  Idle (cycle, bank) pairs are not
        visited, so a bank's frontier stays at its last booked cycle.  A
        flip fault lands before the commits of its cycle.  A fetched word
        enters its column's stage as read at its fetch cycle, if the bank
        then holds the demanded line."""
        flips = self._flips
        armed = False
        for cyc, _, bank in sorted(booked):
            if not armed and cyc > base:
                self._arm_required_reads(base, write_recs, fetch_booked)
                armed = True
            while flips and flips[0].cycle <= cyc:
                self._apply_flip(flips.popleft())
            rec, vals = bank.commit_cycle(cyc)
            if rec.purpose is Purpose.OUTPUT_READ:
                self._check_display_word(rec, vals)
            elif rec.purpose is Purpose.PREDICT_FETCH and vals is not None:
                demand = next(d for r, d in fetch_booked if r is rec)
                if bank.line_tag[rec.word_index] == demand.line_y:
                    col = self.cols[demand.slice_col]
                    s = demand.line_y & 3
                    col.stage_vals[s, demand.word_local] = vals
                    col.stage_line[s, demand.word_local] = demand.line_y
        if not armed:
            self._arm_required_reads(base, write_recs, fetch_booked)
        while flips and flips[0].cycle < base + CYCLES_PER_SLOT:
            self._apply_flip(flips.popleft())

    def _arm_required_reads(self, base, write_recs, fetch_booked):
        """New data in place after the slot's first cycle: arm the
        required-read checks against the overwrites that follow (display once
        per word, plus any prediction fetch scheduled on current contents)."""
        for rec in write_recs:
            self.banks[(rec.buffer, rec.bank_id)].register_required_reads(
                rec.word_index, 1, "output")
        for rec, _ in fetch_booked:
            if rec.cycle > base:
                self.banks[(rec.buffer, rec.bank_id)] \
                    .register_required_reads(rec.word_index, 1, "fetch")

    def _apply_flip(self, f):
        for (buf, bk), bank in self.banks.items():
            if buf == f.buffer:
                bank.values[f.word_index] ^= 1

    def _check_display_word(self, rec, vals):
        k = self._next_display_k
        self._next_display_k += 1
        wpl = self.sched.words_per_image_line
        y, i = divmod(k, wpl)
        exp_cycle = self.sched.display_read_cycle(k)
        if rec.cycle != exp_cycle:
            raise AssertionError(
                f"display word {k} read at {rec.cycle}, expected {exp_cycle}")
        if vals is None:
            return  # underflow already recorded by the bank
        x = i * PIXELS_PER_WORD
        bad = _bad_pixels(vals, self._rgb[y, x:x + PIXELS_PER_WORD])
        if bad:
            self.log.output_mismatches += bad
            self._note("output_mismatches", (k, y, x, bad))

    # -- window service ----------------------------------------------------------

    def _advance_window(self, b, col):
        plan = self.plan
        base_x = plan.slice_base_x(b.slice_col)
        left = base_x + BLOCK_W * b.block_x
        if b.block_x == 0:
            col.recon.clear()
            col.history.clear()
            if not plan.is_first_blockline_of_slice(b.blockline):
                self._admit_prev(b, col, left, base_x, full=True)
            return
        col.recon.slide()
        if not plan.is_first_blockline_of_slice(b.blockline):
            self._admit_prev(b, col, left, base_x, full=False)
        # rows: without forwarding the previous block becomes resident now; with
        # forwarding it is served from the pipe this slot and stored at the next
        if self.preset.residency.forwarding_enabled:
            if len(col.history) == 2:
                yco2 = col.history[0][2]
                for section, row in self._resident_rows:
                    col.recon.admit_run(section, -2 * BLOCK_W, yco2[row])
        elif col.history:
            yco1 = col.history[-1][2]
            for section, row in self._resident_rows:
                col.recon.admit_run(section, -BLOCK_W, yco1[row])

    def _admit_prev(self, b, col, left, base_x, full):
        if self.preset.residency.routes["prev"] != RESIDENT:
            return
        lo, hi = self.spec.prev_line_span
        prev_y = 2 * b.blockline - 1
        r0 = max(lo, base_x - left) if full else hi - BLOCK_W + 1
        stage_line = col.stage_line[prev_y & 3]
        stage_vals = col.stage_vals[prev_y & 3]
        r = r0
        while r <= hi:
            x = left + r
            if x < base_x:
                r += 1
                continue
            if x >= base_x + self.plan.slice_width:
                break
            wloc = (x - base_x) // PIXELS_PER_WORD
            j = (x - base_x) % PIXELS_PER_WORD
            n = PIXELS_PER_WORD - j
            if r + n - 1 > hi:
                n = hi - r + 1
            if stage_line[wloc] == prev_y:
                col.recon.admit_run("prev", r, stage_vals[wloc, j:j + n])
            r += n

    def _serve_window(self, b, col):
        """Serve every unclipped window pixel by exactly one path and compare
        the value against the oracle.  Returns (served, misses, mismatches)."""
        plan = self.plan
        base_x = plan.slice_base_x(b.slice_col)
        left = base_x + BLOCK_W * b.block_x
        hi_x = base_x + plan.slice_width - 1
        first = plan.is_first_blockline_of_slice(b.blockline)
        served = misses = mismatches = 0
        y0 = 2 * b.blockline
        streaming = self.preset.fetch_kind == STREAMING
        for section, dy, lo_s, parts in self._window:
            if dy < 0:
                if first:
                    continue
                golden = self._rgb
            else:
                golden = self._yco
            y = y0 + dy
            store = col.recon.sections[section]
            for (plo, phi, route) in parts:
                xa = max(left + plo, base_x)
                xb = min(left + phi, hi_x)
                if xb < xa:
                    continue
                m = xb - xa + 1
                want = golden[y, xa:xb + 1]
                n_miss = n_bad = 0
                if route == RESIDENT:
                    i0 = xa - left - lo_s
                    vmask = store.valid[i0:i0 + m]
                    vals = store.values[i0:i0 + m]
                    if vmask.all():
                        n_bad = _bad_pixels(vals, want)
                    else:
                        n_miss = int(m - vmask.sum())
                        n_bad = _bad_pixels(vals[vmask], want[vmask])
                elif route == "forwarded":
                    hist_ok = col.history and \
                        col.history[-1][0] == b.block_x - 1
                    if hist_ok:
                        yrow = col.history[-1][2][dy]
                        offs = xa - (left - BLOCK_W)
                        n_bad = _bad_pixels(yrow[offs:offs + m], want)
                    else:
                        n_miss = m
                elif route == FETCH and streaming and section != "row0":
                    n_miss, n_bad = self._serve_fetched(
                        col, section, y, xa, xb, base_x, want)
                else:
                    n_miss = m
                served += m - n_miss - n_bad
                misses += n_miss
                mismatches += n_bad
                if n_miss:
                    self._note("availability_misses",
                               (b.global_block_index, section, n_miss))
                if n_bad:
                    self._note("prediction_mismatches",
                               (b.global_block_index, section, n_bad))
        return served, misses, mismatches

    def _serve_fetched(self, col, section, y, xa, xb, base_x, want):
        """Serve a contiguous span from the fetch stage (streaming presets)."""
        wa = (xa - base_x) // PIXELS_PER_WORD
        wb = (xb - base_x) // PIXELS_PER_WORD
        s = y & 3
        tags = col.stage_line[s, wa:wb + 1]
        p0 = (xa - base_x) - wa * PIXELS_PER_WORD
        m = xb - xa + 1
        if (tags == y).all():
            flat = col.stage_vals[s, wa:wb + 1].reshape(-1, 3)[p0:p0 + m]
            if section == "prev":
                return 0, _bad_pixels(flat, want)
            if not self.preset.residency.reconvert_on_fetch:
                return m, 0
            # `want` is the reconvert of the golden RGB, so a stage holding
            # the golden RGB serves it exactly and needs no reconvert here
            if flat.tobytes() == self._rgb[y, xa:xb + 1].tobytes():
                return 0, 0
            return 0, _bad_pixels(ycocg_frame(flat), want)
        # some words missing: serve word by word
        n_miss = n_bad = 0
        reconv = self.preset.residency.reconvert_on_fetch
        for w in range(wa, wb + 1):
            x0 = max(xa, base_x + w * PIXELS_PER_WORD)
            x1 = min(xb, base_x + (w + 1) * PIXELS_PER_WORD - 1)
            cnt = x1 - x0 + 1
            if col.stage_line[s, w] != y or (section != "prev" and not reconv):
                n_miss += cnt
                continue
            j = x0 - base_x - w * PIXELS_PER_WORD
            px = col.stage_vals[s, w, j:j + cnt]
            got = px if section == "prev" else ycocg_frame(px)
            n_bad += _bad_pixels(got, want[x0 - xa:x0 - xa + cnt])
        return n_miss, n_bad


def run_simulation(cfg: SimConfig) -> EngineResult:
    """Deterministic full run; violations are reported, never raised."""
    return Engine(cfg).run()


def inject_fault(cfg: SimConfig, fault: FaultSpec) -> EngineResult:
    """Re-run the config with one extra perturbation."""
    cfg2 = replace(cfg, faults=list(cfg.faults) + [fault])
    return run_simulation(cfg2)
