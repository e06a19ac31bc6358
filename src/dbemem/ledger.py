"""The line-buffer ledger as arrays.

A `Pass` is the bookings of a blockline's slots with what stays fixed
when the blockline is replayed whole blocklines later: the port law, the
commit order and each word's order of events, built only by
`class_templates`, for a run's blockline classes in one batch.
`owed_reads` counts the reads a word still owes along its events.
"""

import numpy as np

from .errors import ConfigError
from .geometry import CYCLES_PER_SLOT, LINE_WORDS, PIXELS_PER_WORD
from .membank import SramBankModel
from .sched import (BANK, COL, CYCLE, FETCH_READ, LINE, PURPOSE, PURPOSES, PX,
                    SLOT, WORD, WRITE)

# ledger event types, in a word's event list: the commit of a granted
# booking, or a required read armed after its slot's first cycle
WRITE_EVENT, ARM_DISPLAY, ARM_FETCH, READ_DISPLAY, READ_FETCH = range(5)
_COMMIT_EVENT = np.array([WRITE_EVENT, READ_DISPLAY, READ_FETCH],
                         dtype=np.int8)   # by purpose code
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


def _frontiers(b, n_banks, cut, heads):
    """Per slot of `b`, whose first bookings are at `heads`, and per bank,
    the bank's frontier when the slot books: 1 + the latest cycle booked
    on it in an earlier slot of the slot's pass, or 0; and per pass each
    bank's frontier after the pass.  Pass p is `b[:, cut[p]:cut[p + 1]]`.
    Every booked cycle is granted to its first booking and committed at
    the end of its slot, so this is the bank model's own `frontier`."""
    n, passes = b.shape[1], len(cut) - 1
    at = np.arange(n) + np.repeat(np.arange(passes), np.diff(cut))
    # a running maximum per pass over a row before the pass and a row
    # after each of its bookings
    f = np.full((n + passes, n_banks), -1, dtype=np.int32)
    f[at + 1, b[BANK]] = b[CYCLE]
    top, end = cut[:-1] + np.arange(passes), cut[1:] + np.arange(passes)
    for lo, hi in zip(top.tolist(), (end + 1).tolist()):
        np.maximum.accumulate(f[lo:hi], axis=0, out=f[lo:hi])
    f += 1
    return f[at[heads]], f[end].astype(np.int64)


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
    events.  `bookings` holds the pass's `Scheduler.booking_arrays`, its
    slots counted from its first; every other index is into them or into
    the pass's events.  Built by `class_templates`."""


def class_templates(eng, bls):
    """The passes (`Pass`) of the ascending blocklines `bls` of engine
    `eng`'s schedule, built at once over their bookings: the
    slot verdicts, the frontiers, the commit order and each word's events
    are worked out once over the batch, the pass being the most
    significant key of every order, and each pass takes its part.  The
    slots are booked in slot order, and the first slot that raises a
    ConfigError ends the batch: that slot's pass is the error, and no
    pass follows it."""
    sched = eng.sched
    b = sched.booking_arrays(bls)
    slot, cycle, bank, word = b[SLOT], b[CYCLE], b[BANK], b[WORD]
    # each pass's first slot, from the batch's, and its first booking
    s0 = np.array([sched.blockline_slots(bl).start for bl in bls])
    s0 -= s0[0]
    cut = np.append(np.searchsorted(slot, s0), len(slot))
    # each booking's pass
    p = np.repeat(np.arange(len(bls), dtype=np.int32), np.diff(cut))
    # each slot's first booking, and per booking its slot's place
    heads = np.flatnonzero(np.diff(slot, prepend=-1))
    own = np.repeat(np.arange(len(heads)), np.diff(heads, append=len(slot)))
    before, after = _frontiers(b, len(sched.bank_keys), cut, heads)
    # a slot's verdict depends, per booking in booking order, on its bank,
    # its cycle from the slot's first cycle, whether it is behind its
    # bank's frontier and whether its word is outside the buffer; a slot's
    # key is those rows' bytes, and the passes share their verdicts
    first = CYCLES_PER_SLOT * sched.blockline_slots(bls[0]).start
    codes = np.stack([bank, cycle - CYCLES_PER_SLOT * slot - first,
                      cycle < before[own, bank],
                      (word < 0) | (word >= LINE_WORDS)],
                     axis=1, dtype=np.int32)
    row, keys = codes.strides[0], codes.tobytes()
    lo, hi, pass_of = heads.tolist(), [*heads[1:].tolist(), len(slot)], \
        p[heads].tolist()
    slot_key = [keys[row * i:row * j] for i, j in zip(lo, hi)]
    # the first slot of each key, in slot order, is booked for real, so a
    # ConfigError comes from the earliest slot that would raise
    first_slot = dict(zip(reversed(slot_key), range(len(lo) - 1, -1, -1)))
    verdicts = {}    # slot key -> its conflicts: (position, winner's)
    error, passes = None, len(bls)
    for i in sorted(first_slot.values()):
        try:
            verdicts[slot_key[i]] = _book_slot(sched, b[:, lo[i]:hi[i]],
                                               before[i])
        except ConfigError as e:
            error, passes = e, pass_of[i]
            break
    # (slot's pass, its first booking, its conflicts) of every slot of the
    # passes kept that conflicts
    hits = [(q, i, verdicts[k]) for q, i, k in zip(pass_of, lo, slot_key)
            if q < passes and verdicts[k]] if any(verdicts.values()) else []
    n = cut[passes]
    out = _passes(eng, bls[:passes], b[:, :n], p[:n], cut[:passes + 1], s0,
                  after, hits) if passes else []
    return out + [error] if error else out


def _passes(eng, bls, b, p, cut, s0, after, hits):
    """The passes `bls` of the batch's bookings `b`, pass q being
    `b[:, cut[q]:cut[q + 1]]` from slot s0[q], with each booking's pass
    `p`, each pass's frontiers `after` and its slots' conflicts `hits`
    (`class_templates`)."""
    n_pass = len(bls)
    conflicts = [[] for _ in bls]   # (booking, first purpose, first word)
    lost = []
    if hits:
        purpose_of, word_of = b[PURPOSE].tolist(), b[WORD].tolist()
        base = cut.tolist()
        for q, lo, pairs in hits:
            conflicts[q] += [(lo + j - base[q], PURPOSES[purpose_of[lo + w]],
                              word_of[lo + w]) for j, w in pairs]
            lost += [lo + j for j, _ in pairs]
    granted = np.ones(b.shape[1], dtype=bool)
    granted[lost] = False
    g = np.flatnonzero(granted)   # in booking order
    ev_b, typ, wk, pk, rank = _events(eng, b, g, p)
    last_write, seg, seg_head, tail, tail_write = _word_ledger(pk, typ)
    ev = p[ev_b]    # each event's pass, nondecreasing
    e0 = np.searchsorted(ev, np.arange(n_pass + 1)).astype(np.int32)
    off = e0[ev]    # each event's pass's first event
    # fetches by pass and stage key, then commit order; a key's line is
    # relative to the pass, so a shift by whole blocklines keeps it
    f = np.flatnonzero(typ == READ_FETCH)
    f_at = np.searchsorted(f, e0)
    fb = ev_b[f]
    fp = p[fb]
    key = eng.stage_key(b[COL, fb], (b[LINE, fb] + 1) // 2 - np.array(bls)[fp],
                        b[PX, fb] // PIXELS_PER_WORD
                        - b[COL, fb] * eng.plan.words_per_line)
    o = np.lexsort((rank[f], key, fp))
    f = f[o]
    dsp = np.flatnonzero(typ == READ_DISPLAY)
    d_at = np.searchsorted(dsp, e0)
    dsp = dsp[np.argsort(rank[dsp], kind="stable")]   # in commit order
    t_at = np.searchsorted(tail, e0)

    # each pass's part: its bookings with slots from its first, and
    # booking indices and event positions from its first
    def parts(a, at):
        """`a` cut at the bounds `at`, one part per pass."""
        at = at.tolist()
        return [a[i:j] for i, j in zip(at, at[1:])]

    def positions(x, at=None):
        """Event positions x, pass by pass, each from its pass's first
        event: cut at `at`, or where ascending x reaches each pass."""
        return parts(x - off[x], np.searchsorted(x, e0) if at is None else at)

    bookings = []
    for i, j, s in zip(cut.tolist(), cut[1:].tolist(), s0.tolist()):
        part = b[:, i:j]
        if s:
            part = part.copy()
            part[SLOT] -= s
        bookings.append(part)
    fields = dict(
        bookings=bookings,
        granted=parts(g - cut[p[g]], np.searchsorted(g, cut)),
        ev_b=parts(ev_b - cut[ev], e0), ev_typ=parts(typ, e0),
        ev_wk=parts(wk, e0),
        last_write=parts(np.where(last_write >= 0, last_write - off, -1), e0),
        seg=parts(seg - seg[e0[:-1]][ev], e0), seg_head=positions(seg_head),
        tail=positions(tail, t_at),
        tail_write=parts(np.where(tail_write >= 0, tail_write - off[tail], -1),
                         t_at),
        writes=positions(np.flatnonzero(typ == WRITE_EVENT)),
        reads=positions(np.flatnonzero(typ >= READ_DISPLAY)),
        display=positions(dsp, d_at), fetches=positions(f, f_at),
        fetch_key=parts(key[o], f_at),
        fetch_slot=parts((b[SLOT, fb] - s0[fp])[o], f_at))
    out = []
    for q, bl in enumerate(bls):
        tm = Pass()
        vars(tm).update({k: v[q] for k, v in fields.items()}, bl0=bl,
                        sched=eng.sched, frontier=after[q],
                        conflicts=conflicts[q])
        out.append(tm)
    return out


def _events(eng, b, g, p):
    """The events of the granted bookings `g` of the batch's bookings `b`,
    whose passes are `p`: the commits and the required reads armed, by
    pass and word, then in commit order.  Returns each event's booking,
    type, ledger word and pass-and-word key, and its rank in the commit
    order."""
    # commit order: per slot the commits on its first cycle, then the
    # required reads armed by its granted writes and later fetches, then
    # the other commits by cycle, banks in commit order within a cycle.
    # One sort key per event holds (slot, phase 0, 1 or 2 in that order,
    # cycle, bank) as digits; slots count from the batch's first, so the
    # pass is the most significant
    slot, cyc, bank, purpose = (b[f, g] for f in (SLOT, CYCLE, BANK, PURPOSE))
    on_first = cyc % CYCLES_PER_SLOT == 0
    arm_d = purpose == WRITE
    arm_f = (purpose == FETCH_READ) & ~on_first
    idx = np.concatenate([g, g[arm_d], g[arm_f]])
    typ = np.concatenate([_COMMIT_EVENT[purpose],
                          np.full(arm_d.sum(), ARM_DISPLAY, dtype=np.int8),
                          np.full(arm_f.sum(), ARM_FETCH, dtype=np.int8)])
    within = (cyc - CYCLES_PER_SLOT * slot) * len(eng.sched.bank_keys) + bank
    within -= within.min()
    commit = np.concatenate([slot * 3 + 2 * ~on_first, slot[arm_d] * 3 + 1,
                             slot[arm_f] * 3 + 1])
    commit *= int(within.max()) + 1
    commit[:len(g)] += within
    commit = np.argsort(commit, kind="stable")
    nb = eng.preset.banks_per_buffer
    # a ledger word, as the index the engine's word arrays take
    wk = (b[BANK, idx] // nb) * LINE_WORDS + b[WORD, idx].astype(np.intp)
    # by pass and word, then commit order; an event's rank is its place in
    # the commit order.  A word's key is below 3 x LINE_WORDS (every word
    # outside the buffer was rejected above), and a run has at most 10
    # classes (8 by parity, slice start and warm-up, the clipped first
    # blockline and the last), so a run's pass-and-word key fits in 16
    # bits, which numpy sorts stably by radix
    pk = p[idx] * (3 * LINE_WORDS) + wk
    if pk.size and pk.max() < 1 << 16:
        pk = pk.astype(np.uint16)
    pk = pk[commit]
    rank = np.argsort(pk, kind="stable")
    order = commit[rank]
    return idx[order], typ[order], wk[order], pk[rank], rank


def _word_ledger(pk, typ):
    """Over events sorted by pass-and-word key `pk`, of types `typ`: the
    latest write strictly before each event of its word, or -1; the
    segments that restart the owed counts at each word's first event and
    after each write, and their first events; each word's last event and
    its latest write, or -1."""
    m = len(pk)
    pos = np.arange(m, dtype=np.int32)
    head = np.ones(m, dtype=bool)
    head[1:] = pk[1:] != pk[:-1]
    start = np.where(head, pos, 0)
    np.maximum.accumulate(start, out=start)
    is_w = typ == WRITE_EVENT
    upto = np.where(is_w, pos, -1)
    np.maximum.accumulate(upto, out=upto)
    before = np.full_like(upto, -1)
    before[1:] = upto[:-1]
    seg_head = head.copy()
    seg_head[1:] |= is_w[:-1]
    tail = np.ones(m, dtype=bool)
    tail[:-1] = head[1:]
    tail = np.flatnonzero(tail)
    return (np.where(before >= start, before, -1), np.cumsum(seg_head) - 1,
            np.flatnonzero(seg_head),
            tail, np.where(upto[tail] >= start[tail], upto[tail], -1))
