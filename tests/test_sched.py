from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dbemem.engine import Engine, SimConfig
from dbemem.errors import ConfigError
from dbemem.geometry import ImageGeometry, Interleave, SliceLayout, build_geometry
from dbemem.membank import Purpose
from dbemem.predwindow import WindowSpec
from dbemem.sched import (Scheduler, preset_baseline, preset_by_name,
                          preset_type1, preset_type2, total_frame_cycles)


def make_plan(width=640, height=64, cols=1, rows=1,
              interleave=Interleave.COLUMN_MAJOR):
    return build_geometry(ImageGeometry(width, height), SliceLayout(cols, rows),
                          interleave)


def test_preset_structure():
    b = preset_baseline()
    assert (b.line_delay, b.line_buffers, b.banks_per_buffer) == ("one_line", 3, 1)
    assert not b.forwarding and not b.reconvert_on_fetch
    t1 = preset_type1()
    assert (t1.line_delay, t1.line_buffers, t1.banks_per_buffer) == ("half_line", 2, 1)
    assert t1.forwarding and not t1.reconvert_on_fetch
    t2 = preset_type2()
    assert (t2.line_delay, t2.line_buffers, t2.banks_per_buffer) == ("half_line", 2, 2)
    assert t2.forwarding and t2.reconvert_on_fetch
    for p in (b, t1, t2):   # the flags are the residency policy's
        assert p.forwarding == p.residency.forwarding_enabled
        assert p.reconvert_on_fetch == p.residency.reconvert_on_fetch
    with pytest.raises(ConfigError):
        preset_by_name("type3")


def test_latency_cycles():
    plan = make_plan(3840, 2160)
    assert preset_baseline().latency_cycles(plan) == 1920
    assert preset_type1().latency_cycles(plan) == 960
    assert preset_type2().latency_cycles(plan) == 960


def test_baseline_ping_pong_alternates():
    plan = make_plan()
    sched = Scheduler(preset_baseline(), WindowSpec(), plan)
    n = sched.slots_per_blockline

    def lower_write_target(slot):
        sp = sched.slot_plan(slot)
        return [r.buffer for r in sp.writes if r.buffer != "upper"][0]

    assert lower_write_target(5) == "lower0"
    assert lower_write_target(n + 5) == "lower1"
    assert lower_write_target(2 * n + 5) == "lower0"


def test_writes_always_offset_zero():
    plan = make_plan()
    for preset in (preset_baseline(), preset_type1(), preset_type2()):
        sched = Scheduler(preset, WindowSpec(), plan)
        for slot in (0, 7, 100, 200):
            sp = sched.slot_plan(slot)
            assert len(sp.writes) == 2
            assert all(r.cycle == sp.cycle_base for r in sp.writes)


def test_display_reads_on_odd_offsets():
    plan = make_plan()
    for preset in (preset_baseline(), preset_type1(), preset_type2()):
        sched = Scheduler(preset, WindowSpec(), plan)
        for k in range(0, sched.total_display_words, 97):
            assert sched.display_read_cycle(k) % 4 in (1, 3)


def test_type1_slot_shape_first_half():
    """In the busy half, the lower buffer carries exactly the designated
    pattern: write at 4K, output reads at 4K+1 and 4K+3, fetch at 4K+2."""
    plan = make_plan()
    sched = Scheduler(preset_type1(), WindowSpec(), plan)
    n = sched.slots_per_blockline
    for slot in range(2 * n + 5, 2 * n + 30):
        sp = sched.slot_plan(slot)
        lower = sorted((r.cycle - sp.cycle_base, r.purpose)
                       for r in sp.records() if r.buffer == "lower0")
        assert lower == [(0, Purpose.WRITE_BLOCK_ROW), (1, Purpose.OUTPUT_READ),
                         (2, Purpose.PREDICT_FETCH), (3, Purpose.OUTPUT_READ)]


def test_type1_single_fetch_per_slot():
    plan = make_plan()
    sched = Scheduler(preset_type1(), WindowSpec(), plan)
    n = sched.slots_per_blockline
    for slot in range(2 * n, 3 * n):
        sp = sched.slot_plan(slot)
        assert len(sp.fetches) <= 1
        for rec in sp.fetches:
            assert rec.cycle - sp.cycle_base == 2


def test_type2_bank_loads():
    """Every bank obeys the port law with room to spare: at most 4 accesses
    per slot (never two on one cycle), and on average at least two free
    cycles per bank per slot over a steady blockline."""
    plan = make_plan()
    sched = Scheduler(preset_type2(), WindowSpec(), plan)
    n = sched.slots_per_blockline
    free_total = 0
    samples = 0
    for slot in range(2 * n, 3 * n):
        sp = sched.slot_plan(slot)
        per_bank = Counter()
        per_cycle = Counter()
        for r in sp.records():
            per_bank[(r.buffer, r.bank_id)] += 1
            per_cycle[(r.buffer, r.bank_id, r.cycle)] += 1
        assert all(v == 1 for v in per_cycle.values())   # port law
        for buf in ("upper", "lower0"):
            for bank in (0, 1):
                used = per_bank.get((buf, bank), 0)
                assert used <= 4
                assert 4 - used >= 1
                free_total += 4 - used
                samples += 1
    assert free_total / samples >= 2.0


def test_type2_fetches_every_cycle_offsets():
    # streaming fetches may land on any offset, unlike the refill presets
    plan = make_plan()
    sched = Scheduler(preset_type2(), WindowSpec(), plan)
    n = sched.slots_per_blockline
    offsets = set()
    for slot in range(2 * n, 3 * n):
        sp = sched.slot_plan(slot)
        for rec in sp.fetches:
            offsets.add(rec.cycle - sp.cycle_base)
    assert len(offsets) >= 3


def test_output_timeline_rate_law():
    """The engine's own OutputRead trace rows: raster word k is read at
    latency - read_lead + 2k, so it is emitted at latency + 2k (8 px per two
    cycles, exactly 4 px/cycle), with no word missing."""
    for name, read_latency in (("baseline", 0), ("type1", 0), ("type2", 0),
                               ("baseline", 1)):
        cfg = SimConfig(ImageGeometry(256, 64), SliceLayout(1, 1),
                        preset_by_name(name), sram_read_latency=read_latency,
                        collect_trace=True)
        eng = Engine(cfg)
        res = eng.run()
        lead = eng.sched.read_lead
        assert lead == 1 + 2 * read_latency
        reads = [row[0] for row in res.trace_rows if row[6] == "OutputRead"]
        assert reads == [res.latency_cycles - lead + 2 * k
                         for k in range(256 * 64 // 8)]
        assert reads[-1] + lead + 2 == total_frame_cycles(eng.preset, eng.plan)


def test_total_frame_cycles():
    plan = make_plan(3840, 2160)
    assert total_frame_cycles(preset_baseline(), plan) == 3840 * 2160 // 4 + 1920
    assert total_frame_cycles(preset_type1(), plan) == 3840 * 2160 // 4 + 960


@pytest.mark.parametrize("name", ["baseline", "type1", "type2"])
@pytest.mark.parametrize("read_latency", [0, 1])
def test_display_tail_is_planned_by_slot_plan(name, read_latency):
    """Past the last decode slot a slot plan decodes no block and only
    reads the display; the frame's slots end with the last display read,
    and the last blockline's slots run to that end."""
    plan = make_plan(320, 32)
    sched = Scheduler(preset_by_name(name), WindowSpec(), plan,
                      read_latency=read_latency)
    assert sched.decode_slots == 320 * 32 // 16 < sched.total_slots
    tail = [sched.slot_plan(t) for t in range(sched.decode_slots,
                                              sched.total_slots)]
    assert all(sp.block is None and not sp.writes and not sp.fetches
               and sp.display_reads for sp in tail)
    last = sched.display_record(sched.total_display_words - 1)
    assert tail[-1].display_reads[-1] == last
    assert sched.blockline_slots(plan.total_blocklines - 1) == range(
        sched.decode_slots - sched.slots_per_blockline, sched.total_slots)
    assert sched.blockline_slots(0) == range(sched.slots_per_blockline)


def test_warmup_fills_tail_slots():
    # the next blockline's left prev words are fetched while the right-edge
    # clip leaves the fetch cycle idle
    plan = make_plan()
    sched = Scheduler(preset_type1(), WindowSpec(), plan)
    n = sched.slots_per_blockline
    tail_words = []
    for slot in range(3 * n - sched.warmup_count, 3 * n):
        sp = sched.slot_plan(slot)
        for rec in sp.fetches:   # one slice column: px / 8 is its word
            tail_words.append((rec.line, rec.px // 8))
    bl = 2
    assert tail_words == [(2 * bl + 1, j) for j in range(sched.warmup_count)]


@pytest.mark.parametrize("name", ["baseline", "type1", "type2"])
@pytest.mark.parametrize("interleave", list(Interleave))
@pytest.mark.parametrize("read_latency", [0, 1])
@pytest.mark.parametrize("budget", [None, 2])
def test_blockline_replay_matches_slot_plan(name, interleave, read_latency,
                                            budget):
    """Every blockline's bookings equal those of the first blockline of its
    class, shifted by whole blocklines: the replay the engine runs is
    slot_plan, field by field (cycle, bank, purpose, word, block, column,
    line and pixel x)."""
    preset = preset_by_name(name)
    if budget is not None:
        preset = replace(preset, fetch_words_per_slot=budget)
    for cols in (1, 2, 4):
        for rows in (1, 2):
            plan = make_plan(320, 32, cols, rows, interleave)
            sched = Scheduler(preset, WindowSpec(), plan,
                              read_latency=read_latency)
            templates = {}
            for bl in range(plan.total_blocklines):
                slots = sched.blockline_slots(bl)
                direct = sched.booking_arrays(map(sched.slot_plan, slots),
                                              slots.start)
                bl0, template = templates.setdefault(
                    sched._blockline_class(bl), (bl, direct))
                assert np.array_equal(
                    sched.shift_bookings(template, bl - bl0), direct)
            # replay happens: fewer classes than blocklines
            assert len(templates) < plan.total_blocklines
