"""`ledger.Pass`'s port law against the bank models booked one access at a
time: on every class template of a seeded draw of configs, the conflicts
(with each winner's purpose and word), the granted bookings and each
bank's frontier after the pass are the ones that booking every slot on
`SramBankModel`s gives."""

import json
import random
import numpy as np
import pytest

from dbemem.engine import Engine, FaultSpec, SimConfig
from dbemem.errors import ConfigError
from dbemem.geometry import (CYCLES_PER_SLOT, ImageGeometry, Interleave,
                             SliceLayout)
from dbemem.ledger import Pass
from dbemem.membank import SramBankModel
from dbemem.predwindow import FETCH, RESIDENT, SECTIONS
from dbemem.sched import (BANK, CYCLE, FETCH_READ, HALF_LINE, LINE, ONE_LINE,
                          PURPOSE, REFILL, SLOT, STREAMING, ArchPreset,
                          preset_by_name)
from dbemem.shell import parse_config

from test_report_digests import NEGATIVE

PRESETS = ("baseline", "type1", "type2")


def per_booking_loop(sched, b):
    """Every booking of `b` on fresh bank models, slot by slot: book the
    slot, then commit its grants in cycle and bank order.  Returns the
    conflicts as (booking index, first purpose, first word), the granted
    booking indices and each bank model's frontier after its last
    commit."""
    banks = [SramBankModel(buf, bk) for buf, bk in sched.bank_keys]
    records = sched.access_records(b)
    bank_of = b[BANK].tolist()
    conflicts = []
    ends = (np.flatnonzero(np.diff(b[SLOT])) + 1).tolist()
    for lo, hi in zip([0, *ends], [*ends, len(records)]):
        grants = []
        for i in range(lo, hi):
            k = bank_of[i]
            if banks[k].request_access(records[i]):
                grants.append((records[i].cycle, k))
            else:
                v = banks[k].conflicts[-1]
                conflicts.append((i, v.first_purpose, v.first_word))
        grants.sort()
        for cyc, k in grants:
            banks[k].commit_cycle(cyc)
    lost = {i for i, _, _ in conflicts}
    return (conflicts, [i for i in range(len(records)) if i not in lost],
            [bank.frontier for bank in banks])


def class_blocklines(eng):
    """The first blockline of each blockline class."""
    first = {}
    for bl in range(eng.plan.total_blocklines):
        first.setdefault(eng.sched._blockline_class(bl), bl)
    return list(first.values())


def custom_arch(rng, fetch_kind):
    """A custom arch of `fetch_kind` with its other fields drawn."""
    if fetch_kind == REFILL:
        residency = dict.fromkeys(SECTIONS, RESIDENT)
        budget = rng.randint(1, 4)
    else:
        residency = {"prev": rng.choice([RESIDENT, FETCH]), "row0": RESIDENT,
                     "row1": rng.choice([RESIDENT, FETCH])}
        budget = 1
    return ArchPreset("custom", rng.choice([ONE_LINE, HALF_LINE]),
                      rng.choice([2, 3]), rng.choice([1, 2]), fetch_kind,
                      budget, residency, forwarding=rng.random() < 0.5)


def drawn_configs(seed, per_kind):
    """`per_kind` configs of each kind (a preset as it is, with
    `banks_override: 1` (type2, the preset with two banks) or with a
    fetch budget of 2-4, or a custom refill
    or streaming arch) on 1, 2 or 4 columns of 8-80 px slices, with
    interleave and read latency drawn, then the four traced negative
    runs.  A draw that the engine rejects is drawn again."""
    rng = random.Random(seed)
    kinds = ([("preset", name) for name in PRESETS]
             + [("banks", "type2")]
             + [("budget", name) for name in ("baseline", "type1")]
             + [("custom", REFILL), ("custom", STREAMING)])
    configs = []
    for kind, arg in kinds * per_kind:
        while True:
            faults = []
            if kind == "custom":
                preset = custom_arch(rng, arg)
            else:
                preset = preset_by_name(arg)
            if kind == "banks":
                faults.append(FaultSpec("banks_override", value=1))
            elif kind == "budget":
                faults.append(FaultSpec("fetch_budget_override",
                                        value=rng.randint(2, 4)))
            cols = rng.choice([1, 2, 4])
            cfg = SimConfig(
                ImageGeometry(cols * 8 * rng.randint(1, 10),
                              rng.choice([8, 12, 16, 20])),
                SliceLayout(cols, 1), preset,
                interleave=rng.choice(list(Interleave)),
                sram_read_latency=rng.choice([0, 1]), faults=faults)
            try:
                Engine(cfg)
            except ConfigError:
                continue
            configs.append(cfg)
            break
    return configs + [parse_config(json.dumps(NEGATIVE[name][0]))
                      for name in sorted(NEGATIVE)]


CONFIGS = drawn_configs(seed=23, per_kind=10)


def test_draw_covers_every_kind():
    """The draw holds both read latencies, both interleaves, 1, 2 and 4
    columns, fetch budgets of 2, 3 and 4, and a conflicting template."""
    assert {c.sram_read_latency for c in CONFIGS} == {0, 1}
    assert {c.interleave for c in CONFIGS} == set(Interleave)
    assert {c.slices.columns for c in CONFIGS} == {1, 2, 4}
    budgets = {f.value for c in CONFIGS for f in c.faults
               if f.kind == "fetch_budget_override"}
    budgets |= {c.preset.fetch_words_per_slot for c in CONFIGS
                if c.preset.name == "custom"}
    assert {2, 3, 4} <= budgets
    eng = Engine(CONFIGS[-1])
    assert any(Pass(eng, bl).conflicts for bl in class_blocklines(eng))


def test_fetches_demand_the_lines_around_their_blockline():
    """Blockline bl's fetches demand line 2 bl - 1 or 2 bl + 1, the two
    lines of the engine's fetch stage relative to the pass
    (`Engine.stage_key`)."""
    for cfg in CONFIGS:
        sched = Engine(cfg).sched
        for bl in range(sched.plan.total_blocklines):
            b = sched.booking_arrays(bl)
            line = b[LINE][b[PURPOSE] == FETCH_READ]
            assert np.isin(line, (2 * bl - 1, 2 * bl + 1)).all()


@pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
def test_port_law_matches_per_booking_loop(cfg):
    eng = Engine(cfg)
    for bl in class_blocklines(eng):
        tm = Pass(eng, bl)
        conflicts, granted, _ = per_booking_loop(eng.sched, tm.bookings)
        assert tm.conflicts == conflicts
        assert tm.granted.tolist() == granted


@pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
def test_kept_frontier_matches_per_booking_loop(cfg):
    """The frontier row each template keeps, which a checked pass moves
    onto the carried frontiers, is each bank model's after its last
    commit."""
    eng = Engine(cfg)
    for bl in class_blocklines(eng):
        tm = Pass(eng, bl)
        assert tm.frontier.tolist() == per_booking_loop(eng.sched,
                                                        tm.bookings)[2]


def test_carried_frontier_is_each_banks_latest_booking(monkeypatch):
    """After every checked pass of blockline bl, the engine's carried
    frontier of each bank is 1 + the latest cycle booked on it in
    blocklines 0..bl, or 0: a bank that the pass's template leaves
    untouched keeps its frontier when the template is moved.  Some drawn
    narrow frames check such a moved pass."""
    commit = Engine._commit_slot
    after = {}   # checked blockline -> (its shift d, the carried frontier)

    def spy(self, tm, d):
        out = commit(self, tm, d)
        after[tm.bl0 + d] = (d, self._frontier.tolist())
        return out

    monkeypatch.setattr(Engine, "_commit_slot", spy)
    moved_untouched = 0
    for cfg in CONFIGS:
        eng = Engine(cfg)
        after.clear()
        eng.run()
        n_banks = len(eng.sched.bank_keys)
        latest = [-1] * n_banks
        for bl in range(eng.plan.total_blocklines):
            b = eng.sched.booking_arrays(bl)
            for k in range(n_banks):
                on = b[CYCLE][b[BANK] == k]
                latest[k] = max([latest[k], *on.tolist()])
                moved_untouched += bl in after and after[bl][0] > 0 \
                    and not on.size
            if bl in after:
                assert after[bl][1] == [c + 1 for c in latest], (cfg, bl)
    assert moved_untouched


@pytest.mark.parametrize("name", PRESETS)
def test_port_law_matches_per_booking_loop_on_moved_bookings(monkeypatch,
                                                             name):
    """Each booking of the sixth slot of blockline 1 of a 320x32 frame,
    moved to each cycle of its slot in turn: the slot keeps its banks but
    not its cycles, and some moves land on a cycle another booking of the
    slot holds on the same bank."""
    eng = Engine(SimConfig(ImageGeometry(320, 32), SliceLayout(1, 1),
                           preset_by_name(name)))
    planned = eng.sched.booking_arrays(1)
    first = CYCLES_PER_SLOT * eng.sched.blockline_slots(1)[5]
    conflicting = 0
    for i in np.flatnonzero(planned[SLOT] == 5):
        for offset in range(CYCLES_PER_SLOT):
            b = planned.copy()
            b[CYCLE, i] = first + offset
            monkeypatch.setattr(eng.sched, "booking_arrays", lambda bl: b)
            tm = Pass(eng, 1)
            conflicts, granted, _ = per_booking_loop(eng.sched, b)
            assert tm.conflicts == conflicts
            assert tm.granted.tolist() == granted
            conflicting += bool(conflicts)
    assert conflicting


@pytest.mark.parametrize("name", PRESETS)
def test_each_slot_pattern_is_booked_once(monkeypatch, name):
    """The slots a pass books on the bank models differ pairwise in their
    bookings' banks and cycles from the slot's first cycle, and they are
    a few of the pass's slots."""
    booked = []
    request = SramBankModel.request_access

    def spy(self, rec):
        booked.append(rec)
        return request(self, rec)

    monkeypatch.setattr(SramBankModel, "request_access", spy)
    cfg = SimConfig(ImageGeometry(640, 32), SliceLayout(4, 1),
                    preset_by_name(name))
    eng = Engine(cfg)
    for bl in class_blocklines(eng):
        booked.clear()
        slots = Pass(eng, bl).bookings[SLOT]
        patterns = {}
        for rec in booked:
            s = rec.cycle // CYCLES_PER_SLOT
            patterns.setdefault(s, []).append(
                (eng.sched.bank_order[rec.buffer, rec.bank_id],
                 rec.cycle - CYCLES_PER_SLOT * s))
        assert len(set(map(tuple, patterns.values()))) == len(patterns)
        assert 0 < len(patterns) <= (slots[-1] + 1) // 4
