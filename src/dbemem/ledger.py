"""The line-buffer ledger as arrays.

A `Pass` is the bookings of a blockline's slots with what stays fixed
when the blockline is replayed whole blocklines later: the port law, the
commit order and each word's order of events.  `owed_reads` counts the
reads a word still owes along its events.
"""

import numpy as np

from .geometry import CYCLES_PER_SLOT, LINE_WORDS, PIXELS_PER_WORD
from .membank import SramBankModel
from .sched import (BANK, COL, CYCLE, FETCH_READ, LINE, PURPOSE, PURPOSES, PX,
                    SLOT, WORD, WRITE)

# ledger event types, in a word's event list: the commit of a granted
# booking, or a required read armed after its slot's first cycle
WRITE_EVENT, ARM_DISPLAY, ARM_FETCH, READ_DISPLAY, READ_FETCH = range(5)
_COMMIT_EVENT = np.array([WRITE_EVENT, READ_DISPLAY, READ_FETCH])  # by purpose code
# larger than any count of reads owed within a pass: offsetting each
# segment by a multiple keeps one running minimum from reaching the next
_SEGMENT_GAP = 1 << 32


def owed_reads(step, start, seg, head):
    """Reads owed after each event of a word-sorted event list: the running
    sum of `step` (+1 armed, -1 read), which a read never takes below 0,
    started at each segment head from `start`."""
    q = np.cumsum(step)
    q += start - (q - step)[head][seg]
    low = np.minimum.accumulate(q - _SEGMENT_GAP * seg) + _SEGMENT_GAP * seg
    return q - np.minimum(low, 0)


def _frontiers(b, n_banks):
    """Per booking of `b` and per bank, the bank's frontier before the
    booking: 1 + the latest cycle booked on it so far, or 0; and a last
    row after every booking.  Every booked cycle is granted to its first
    booking and committed at the end of its slot, so at a slot's first
    booking this is the bank model's own `frontier` when the slot books,
    and the last row is each bank's after the pass."""
    latest = np.full((b.shape[1] + 1, n_banks), -1, dtype=np.int64)
    latest[np.arange(1, len(latest)), b[BANK]] = b[CYCLE]
    return np.maximum.accumulate(latest, axis=0) + 1


def _book_slot(sched, b, frontier):
    """The booking protocol for one slot's bookings `b` on fresh bank
    models whose frontiers are `frontier`: book the slot (the first booking
    of a (bank, cycle) wins, a later one is a conflict and is not granted),
    then commit its grants in cycle and bank order; a booking behind its
    bank's frontier is a ConfigError.  Returns the conflicts as (position,
    winner's position) in the slot."""
    banks = [SramBankModel(buf, bk) for buf, bk in sched.bank_keys]
    for model, f in zip(banks, frontier.tolist()):
        model.frontier = f
    first, lost = {}, []
    for i, (rec, k) in enumerate(zip(sched.access_records(b),
                                     b[BANK].tolist())):
        if banks[k].request_access(rec):
            first[rec.cycle, k] = i
        else:
            lost.append((i, first[rec.cycle, k]))
    for cyc, k in sorted(first):
        banks[k].commit_cycle(cyc)
    return lost


class Pass:
    """The bookings of a blockline's slots (`Scheduler.blockline_slots`)
    with what stays fixed when the blockline is replayed d blocklines
    later: the port law, the commit order and each word's order of
    events."""

    def __init__(self, eng, bl):
        """Book blockline bl's `Scheduler.booking_arrays`, `bookings`, of
        the engine's scheduler `sched`."""
        self.bl0 = bl
        self.sched = sched = eng.sched
        self.bookings = b = sched.booking_arrays(bl)
        slot, cycle, bank, word = b[SLOT], b[CYCLE], b[BANK], b[WORD]
        frontier = _frontiers(b, len(sched.bank_keys))
        self.frontier = frontier[-1]   # each bank's after the pass
        # each slot's first booking, and per booking its slot's
        heads = np.flatnonzero(np.diff(slot, prepend=-1))
        own_head = np.repeat(heads, np.diff(heads, append=len(slot)))
        # a slot's verdict depends, per booking in booking order, on its
        # bank, its cycle from the slot's first cycle, whether it is behind
        # its bank's frontier and whether its word is outside the buffer;
        # a slot's key is those rows' bytes
        s0 = sched.blockline_slots(bl).start
        codes = np.stack([bank, cycle - CYCLES_PER_SLOT * (slot + s0),
                          cycle < frontier[own_head, bank],
                          (word < 0) | (word >= LINE_WORDS)],
                         axis=1, dtype=np.int32)
        row, keys = codes.strides[0], codes.tobytes()
        verdicts = {}    # slot key -> its conflicts: (position, winner's)
        hits = []        # (slot's first booking, its conflicts)
        # the first slot of each key, in slot order, is booked for real,
        # so a ConfigError comes from the earliest slot that would raise
        heads = heads.tolist()
        for lo, hi in zip(heads, [*heads[1:], len(slot)]):
            key = keys[row * lo:row * hi]
            lost = verdicts.get(key)
            if lost is None:
                lost = verdicts[key] = _book_slot(sched, b[:, lo:hi],
                                                  frontier[lo])
            if lost:
                hits.append((lo, lost))
        conflicts = []   # (booking index, first purpose, first word)
        if hits:
            purpose_of, word_of = b[PURPOSE].tolist(), word.tolist()
            conflicts = [(lo + j, PURPOSES[purpose_of[lo + w]],
                          word_of[lo + w])
                         for lo, lost in hits for j, w in lost]
        self.conflicts = conflicts
        granted = np.ones(b.shape[1], dtype=bool)
        granted[[c[0] for c in conflicts]] = False
        self.granted = g = np.flatnonzero(granted)   # in booking order
        # commit order: per slot the commits on its first cycle, then the
        # required reads armed by its granted writes and later fetches, then
        # the other commits by cycle, banks in commit order within a cycle.
        # One sort key per event holds (slot, phase 0, 1 or 2 in that
        # order, cycle, bank) as digits
        slot, cyc, bank, purpose = (b[f][g].astype(np.int64)
                                    for f in (SLOT, CYCLE, BANK, PURPOSE))
        on_first = cyc % CYCLES_PER_SLOT == 0
        arm_d = purpose == WRITE
        arm_f = (purpose == FETCH_READ) & ~on_first
        idx = np.concatenate([g, g[arm_d], g[arm_f]])
        typ = np.concatenate([_COMMIT_EVENT[purpose],
                              np.full(arm_d.sum(), ARM_DISPLAY),
                              np.full(arm_f.sum(), ARM_FETCH)])
        within = (cyc - cyc.min()) * len(sched.bank_keys) + bank
        span = int(within.max()) + 1
        phase = np.where(on_first, 0, 2)
        commit = np.argsort(np.concatenate(
            [(slot * 3 + phase) * span + within,
             (np.concatenate([slot[arm_d], slot[arm_f]]) * 3 + 1) * span]),
            kind="stable")
        nb = eng.preset.banks_per_buffer
        wk = (b[BANK][idx] // nb) * LINE_WORDS + b[WORD][idx]
        # by word, then commit order; an event's rank is its place in the
        # commit order.  A word's key is below 3 x LINE_WORDS (every word
        # outside the buffer was rejected above), so it fits in 16 bits,
        # which numpy sorts stably by radix
        rank = np.argsort(wk[commit].astype(np.int16), kind="stable")
        order = commit[rank]
        self.ev_b, self.ev_typ, self.ev_wk = idx[order], typ[order], wk[order]

        # each word's events: the latest write strictly before each event;
        # segments that restart the owed counts after each write
        m = len(order)
        pos = np.arange(m)
        head = np.ones(m, dtype=bool)
        head[1:] = self.ev_wk[1:] != self.ev_wk[:-1]
        start = pos[head][np.cumsum(head) - 1]
        is_w = self.ev_typ == WRITE_EVENT
        upto = np.maximum.accumulate(np.where(is_w, pos, -1))
        before = np.concatenate([[-1], upto[:-1]]) if m else upto
        self.last_write = np.where(before >= start, before, -1)
        seg_head = head.copy()
        seg_head[1:] |= is_w[:-1]
        self.seg = np.cumsum(seg_head) - 1
        self.seg_head = np.flatnonzero(seg_head)
        tail = np.ones(m, dtype=bool)
        tail[:-1] = head[1:]
        self.tail = np.flatnonzero(tail)
        self.tail_write = np.where(upto[tail] >= start[tail], upto[tail], -1)
        self.writes = np.flatnonzero(is_w)
        self.reads = np.flatnonzero(self.ev_typ >= READ_DISPLAY)
        dsp = np.flatnonzero(self.ev_typ == READ_DISPLAY)
        self.display = dsp[np.argsort(rank[dsp])]
        # fetches by stage key, then commit order; a key's line is relative
        # to the pass, so a shift by whole blocklines keeps it
        f = np.flatnonzero(self.ev_typ == READ_FETCH)
        fb = self.ev_b[f]
        key = eng.stage_key(b[COL][fb], (b[LINE][fb] + 1) // 2 - bl,
                            b[PX][fb] // PIXELS_PER_WORD
                            - b[COL][fb] * eng.plan.words_per_line)
        o = np.lexsort((rank[f], key))
        self.fetches, self.fetch_key = f[o], key[o]
        self.fetch_slot = b[SLOT][fb][o]
