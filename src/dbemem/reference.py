"""The per-cycle reference engine: every slot's plan (`slot_plan`) is
booked on the single-port bank models, committed cycle by cycle and
applied word by word to the reference's own word ledger.

`Engine` checks whole blocklines with numpy; this class is what the tests
hold it to.  Both produce the same counts, details, trace rows and
violation rows on every config.
"""

from collections import deque

import numpy as np

from .engine import Engine, EngineResult
from .geometry import (BLOCK_W, CYCLES_PER_SLOT, LINE_WORDS, PIXELS_PER_WORD,
                       decode_position)
from .membank import (VIOLATION_CLASSES, HazardViolation, Purpose,
                      SramBankModel, UnderflowViolation)
from .oracle import ycocg_frame
from .predwindow import FORWARDED, RESIDENT, SECTIONS, ReconBufferState


def bad_pixels(got: np.ndarray, want: np.ndarray) -> int:
    """Pixels of `got` that differ from `want` in any component."""
    return int((got != want).any(axis=1).sum())


def _violation_row(cls, v) -> tuple:
    """The trace row of violation `v` of class `cls` (`VIOLATION_CLASSES`):
    the word, purpose and block of the access that met it, which is a
    conflict's second booking, a hazard's write or an underflow's read."""
    if cls == "conflicts":
        row = ("conflict", v.second_word, v.second_purpose, v.block_id)
    elif cls == "hazards":
        row = ("hazard", v.word_index, Purpose.WRITE_BLOCK_ROW, v.block_id)
    else:
        row = ("underflow", v.word_index, v.purpose, -1)
    op, word, purpose, block = row
    return (v.cycle, -1, v.buffer, v.bank_id, op, word, purpose.value, block)


class _ColumnState:
    """Per-slice-column runtime state.

    The fetch stage is a small word-wide register file in front of the
    prediction datapath: slot index is the line mod 4, and a per-word line tag
    guards against stale data (lines two blocklines apart share a slot, but
    their service windows never overlap).  `values` holds, per section and
    pixel x of the slice, the value last admitted to the recon buffer; the
    buffer says which of them are resident.
    """

    def __init__(self, spec, preset, capacity, n_words, slice_width):
        self.recon = ReconBufferState(spec, preset, capacity)
        self.values = {s: np.zeros((slice_width, 3), dtype=np.int32)
                       for s in SECTIONS}
        self.stage_vals = np.zeros((4, n_words, PIXELS_PER_WORD, 3),
                                   dtype=np.int32)
        self.stage_line = np.full((4, n_words), -1, dtype=np.int64)
        self.history = deque(maxlen=2)  # (block_x, yco_rows)


class ReferenceEngine(Engine):
    """The cycle loop: book each slot's accesses on the bank models, apply
    their commits cycle by cycle to the word ledger (`apply`), slide and
    serve each block's window.

    The word ledger holds, per (buffer, word), the line the word holds (-1:
    never written), its pixels, and the display and fetch reads it still
    owes; per bank, the violations not yet drained."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.banks = [SramBankModel(buf, bk) for buf, bk in self.sched.bank_keys]
        self.trace_rows = []
        self.violation_rows = []
        buffers = self.preset.buffer_names()
        self._word_base = {buf: i * LINE_WORDS for i, buf in enumerate(buffers)}
        n_wk = len(buffers) * LINE_WORDS
        self.word_line = [-1] * n_wk
        self.word_px = np.zeros((n_wk, PIXELS_PER_WORD, 3), dtype=np.int32)
        self.word_owed = ([0] * n_wk, [0] * n_wk)   # display, fetch
        # per bank, in drain order (`VIOLATION_CLASSES`): its conflicts,
        # then the hazards and underflows on its words
        self.undrained = [(bank.conflicts, [], []) for bank in self.banks]
        image = self.plan.image
        self._rgb = self.oracle.golden_frame(image.width, image.height)
        self._yco = ycocg_frame(self._rgb)
        self.cols = [_ColumnState(self.spec, self.preset, self.capacity,
                                  self.plan.words_per_line,
                                  self.plan.slice_width)
                     for _ in range(cfg.slices.columns)]
        self._flips = deque(self._watches)   # pending flips, in cycle order
        self._flipped = set()   # watches whose flip the word still holds
        self._next_display_k = 0   # the raster word the display reads next
        self._resident_rows = [(s, row) for s, row in (("row0", 0), ("row1", 1))
                               if self.preset.residency[s] == RESIDENT]

    def _drain_bank_violations(self):
        for found in self.undrained:
            for name, violations in zip(VIOLATION_CLASSES, found):
                setattr(self.log, name,
                        getattr(self.log, name) + len(violations))
                for v in violations:
                    self._note(name, v)
                    if self.cfg.collect_trace:
                        self.violation_rows.append(_violation_row(name, v))
                violations.clear()

    def run(self) -> EngineResult:
        plan = self.plan
        yco = self._yco
        pixels_served = 0

        for slot in range(self.sched.total_slots):
            sp = self.sched.slot_plan(slot)
            booked = []   # (cycle, bank order) of every grant
            # the first booking of a bank and cycle wins it: block
            # row-writes, then display reads, then prediction fetches
            write_booked = [rec for rec in sp.writes
                            if self._book(rec, booked)]
            for rec in sp.display_reads:
                self._book(rec, booked)
            fetch_booked = [rec for rec in sp.fetches
                            if self._book(rec, booked)]
            self._commit_slot(CYCLES_PER_SLOT * slot, booked, write_booked,
                              fetch_booked)
            # slide the window and verify availability for this block; the
            # display-only tail after the last decode slot has none
            if slot < self.sched.decode_slots:
                bl, c, bx = decode_position(plan, slot)
                col = self.cols[c]
                self._advance_window(bl, c, bx, col)
                served, misses, mismatches = self._serve_window(slot, bl, c,
                                                                bx, col)
                pixels_served += served
                self.log.availability_misses += misses
                self.log.prediction_mismatches += mismatches
                # record the decoded block for forwarding / admission
                x0 = c * plan.slice_width + BLOCK_W * bx
                col.history.append((bx, yco[2 * bl:2 * bl + 2,
                                            x0:x0 + BLOCK_W]))
            self._drain_bank_violations()

        self._reject_silent_flips()
        return self._result(pixels_served,
                            [c.recon.peak_occupancy for c in self.cols])

    def _word(self, rec):
        """The word ledger's index of a record's word."""
        return self._word_base[rec.buffer] + rec.word_index

    def _book(self, rec, booked) -> bool:
        """Request one access; a grant joins the slot's commit list and the
        trace.  Returns whether it was granted."""
        order = self.sched.bank_order[rec.buffer, rec.bank_id]
        if not self.banks[order].request_access(rec):
            return False
        booked.append((rec.cycle, order))
        if self.cfg.collect_trace:
            op = "write" if rec.purpose is Purpose.WRITE_BLOCK_ROW else "read"
            self.trace_rows.append(
                (rec.cycle, rec.slice_col, rec.buffer, rec.bank_id, op,
                 rec.word_index, rec.purpose.value, rec.block_id))
        return True

    def _commit_slot(self, base, booked, write_recs, fetch_booked):
        """Commit the slot's granted accesses in cycle order, banks in
        `self.banks` order within a cycle.  Idle (cycle, bank) pairs are not
        visited, so a bank's frontier stays at its last booked cycle.  A
        flip fault lands before the commits of its cycle.  A fetched word
        enters its column's stage as read at its fetch cycle, if it then
        holds the demanded line."""
        armed = False
        for cyc, order in sorted(booked):
            if not armed and cyc > base:
                self._arm_required_reads(base, write_recs, fetch_booked)
                armed = True
            self._land_flips(cyc)
            rec = self.banks[order].commit_cycle(cyc)
            vals = self.apply(rec)
            self._watch(rec, vals)
            if rec.purpose is Purpose.OUTPUT_READ:
                self._check_display_word(rec, vals)
            elif rec.purpose is Purpose.PREDICT_FETCH and vals is not None \
                    and self.word_line[self._word(rec)] == rec.line:
                col = self.cols[rec.slice_col]
                s = rec.line & 3
                w = (rec.px - rec.slice_col * self.plan.slice_width) \
                    // PIXELS_PER_WORD
                col.stage_vals[s, w] = vals
                col.stage_line[s, w] = rec.line
        if not armed:
            self._arm_required_reads(base, write_recs, fetch_booked)
        self._land_flips(base + CYCLES_PER_SLOT - 1)

    def apply(self, rec):
        """Apply a committed access to the word ledger.  A write holds the
        golden pixels of its line at its x from then on; overwriting a word
        that still owes display or fetch reads is a hazard, which records
        both counts and clears them.  A read of a never-written word is an
        underflow; any other read pays one owed read of its kind, if the
        word owes one.  Returns the word's pixels for a read of a written
        word, valid until its next write, else None."""
        k = self._word(rec)
        owed_display, owed_fetch = self.word_owed
        if rec.purpose is Purpose.WRITE_BLOCK_ROW:
            if owed_display[k] or owed_fetch[k]:
                self._undrained(rec)[1].append(HazardViolation(
                    rec.cycle, rec.buffer, rec.bank_id, rec.word_index,
                    owed_display[k], owed_fetch[k], rec.block_id))
                owed_display[k] = owed_fetch[k] = 0
            self.word_line[k] = rec.line
            self.word_px[k] = self._rgb[rec.line,
                                        rec.px:rec.px + PIXELS_PER_WORD]
            return None
        if self.word_line[k] < 0:
            self._undrained(rec)[2].append(UnderflowViolation(
                rec.cycle, rec.buffer, rec.bank_id, rec.word_index,
                rec.purpose))
            return None
        owed = owed_display if rec.purpose is Purpose.OUTPUT_READ \
            else owed_fetch
        if owed[k]:
            owed[k] -= 1
        return self.word_px[k]

    def _undrained(self, rec):
        return self.undrained[self.sched.bank_order[rec.buffer, rec.bank_id]]

    def _arm_required_reads(self, base, write_recs, fetch_booked):
        """New data in place after the slot's first cycle: arm the
        required-read checks against the overwrites that follow (display once
        per word, plus any prediction fetch scheduled on current contents)."""
        owed_display, owed_fetch = self.word_owed
        for rec in write_recs:
            owed_display[self._word(rec)] += 1
        for rec in fetch_booked:
            if rec.cycle > base:
                owed_fetch[self._word(rec)] += 1

    def _land_flips(self, last):
        """Land the pending flips of cycles up to `last` on the word
        ledger."""
        flips = self._flips
        while flips and flips[0].fault.cycle <= last:
            watch = flips.popleft()
            self.word_px[watch.wk] ^= 1
            self._flipped.add(watch)

    def _watch(self, rec, vals):
        """Note a commit on the word of a flip: a write overwrites the flip,
        and a read of a written word sees it while the word holds it."""
        for watch in self._watches:
            f = watch.fault
            if (rec.buffer, rec.word_index) != (f.buffer, f.word_index):
                continue
            if rec.purpose is Purpose.WRITE_BLOCK_ROW:
                watch.writes.append(rec.cycle)
                self._flipped.discard(watch)
            elif vals is not None:
                watch.reads.append(rec.cycle)
                watch.seen |= watch in self._flipped

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
            return  # an underflow, recorded by `apply`
        x = i * PIXELS_PER_WORD
        bad = bad_pixels(vals, self._rgb[y, x:x + PIXELS_PER_WORD])
        if bad:
            self.log.output_mismatches += bad
            self._note("output_mismatches", (k, y, x, bad))

    # -- window service ----------------------------------------------------------

    def _advance_window(self, bl, c, bx, col):
        """Slide column c's window to block bx of blockline bl and admit
        what becomes resident."""
        plan = self.plan
        base_x = c * plan.slice_width
        left = base_x + BLOCK_W * bx
        if bx == 0:
            col.recon.clear()
            col.history.clear()
            if not plan.is_first_blockline_of_slice(bl):
                self._admit_prev(bl, col, left, base_x, full=True)
            return
        col.recon.slide()
        if not plan.is_first_blockline_of_slice(bl):
            self._admit_prev(bl, col, left, base_x, full=False)
        # rows: without forwarding the previous block becomes resident now; with
        # forwarding it is served from the pipe this slot and stored at the next
        if self.preset.forwarding:
            if len(col.history) == 2:
                yco2 = col.history[0][1]
                for section, row in self._resident_rows:
                    self._admit(col, section, -2 * BLOCK_W, left - base_x,
                                yco2[row])
        elif col.history:
            yco1 = col.history[-1][1]
            for section, row in self._resident_rows:
                self._admit(col, section, -BLOCK_W, left - base_x, yco1[row])

    @staticmethod
    def _admit(col, section, rel0, left, vals):
        """Admit a run of pixels at relative offsets rel0.. of the block at
        slice x `left`, and keep the values of those the buffer took."""
        recon = col.recon
        before = recon.valid[section]
        if not recon.admit_run(section, rel0, (1 << len(vals)) - 1):
            return
        new = recon.valid[section] ^ before
        sh = rel0 - recon.lo[section]
        new = new >> sh if sh >= 0 else new << -sh
        for i in range(len(vals)):
            if (new >> i) & 1:
                col.values[section][left + rel0 + i] = vals[i]

    def _admit_prev(self, bl, col, left, base_x, full):
        if self.preset.residency["prev"] != RESIDENT:
            return
        lo, hi = self.spec.prev_line_span
        prev_y = 2 * bl - 1
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
                self._admit(col, "prev", r, left - base_x,
                            stage_vals[wloc, j:j + n])
            r += n

    def _serve_window(self, slot, bl, c, bx, col):
        """Serve every unclipped window pixel of the block decoded in
        `slot` (block bx of column c in blockline bl) by exactly one path
        and compare the value against the oracle.  Returns (served,
        misses, mismatches)."""
        plan = self.plan
        base_x = c * plan.slice_width
        left = base_x + BLOCK_W * bx
        hi_x = base_x + plan.slice_width - 1
        first = plan.is_first_blockline_of_slice(bl)
        served = misses = mismatches = 0
        y0 = 2 * bl
        for section, dy, parts in self._window:
            if dy < 0:
                if first:
                    continue
                golden = self._rgb
            else:
                golden = self._yco
            y = y0 + dy
            for (plo, phi, route) in parts:
                xa = max(left + plo, base_x)
                xb = min(left + phi, hi_x)
                if xb < xa:
                    continue
                m = xb - xa + 1
                want = golden[y, xa:xb + 1]
                n_miss = n_bad = 0
                if route == RESIDENT:
                    vmask = col.recon.valid_at(section, xa - left, m)
                    vals = col.values[section][xa - base_x:xb - base_x + 1]
                    n_miss = int(m - vmask.sum())
                    n_bad = bad_pixels(vals[vmask], want[vmask])
                elif route == FORWARDED:
                    hist_ok = col.history and \
                        col.history[-1][0] == bx - 1
                    if hist_ok:
                        yrow = col.history[-1][1][dy]
                        offs = xa - (left - BLOCK_W)
                        n_bad = bad_pixels(yrow[offs:offs + m], want)
                    else:
                        n_miss = m
                else:   # FETCH, served from the stage
                    n_miss, n_bad = self._serve_fetched(
                        col, section, y, xa, xb, base_x, want)
                served += m - n_miss - n_bad
                misses += n_miss
                mismatches += n_bad
                if n_miss:
                    self._note("availability_misses", (slot, section, n_miss))
                if n_bad:
                    self._note("prediction_mismatches",
                               (slot, section, n_bad))
        return served, misses, mismatches

    def _serve_fetched(self, col, section, y, xa, xb, base_x, want):
        """Serve a contiguous span from the fetch stage, word by word: the
        lower row through the reconvert unit."""
        wa = (xa - base_x) // PIXELS_PER_WORD
        wb = (xb - base_x) // PIXELS_PER_WORD
        s = y & 3
        n_miss = n_bad = 0
        for w in range(wa, wb + 1):
            x0 = max(xa, base_x + w * PIXELS_PER_WORD)
            x1 = min(xb, base_x + (w + 1) * PIXELS_PER_WORD - 1)
            cnt = x1 - x0 + 1
            if col.stage_line[s, w] != y:
                n_miss += cnt
                continue
            j = x0 - base_x - w * PIXELS_PER_WORD
            px = col.stage_vals[s, w, j:j + cnt]
            got = px if section == "prev" else ycocg_frame(px)
            n_bad += bad_pixels(got, want[x0 - xa:x0 - xa + cnt])
        return n_miss, n_bad
