import hashlib
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from dbemem.engine import Engine, FaultSpec, SimConfig
from dbemem.errors import ConfigError
from dbemem.geometry import (CYCLES_PER_SLOT, LINE_WORDS, PIXELS_PER_WORD,
                             ImageGeometry, Interleave, SliceLayout,
                             build_geometry)
from dbemem.ledger import Pass
from dbemem.membank import Purpose
from dbemem.predwindow import WindowSpec
from dbemem.sched import (COL, PX, REFILL, WORD, Scheduler, preset_baseline,
                          preset_by_name, preset_type1, preset_type2,
                          total_frame_cycles)

from test_shell import trace_of


def make_plan(width=640, height=64, cols=1, rows=1,
              interleave=Interleave.COLUMN_MAJOR):
    return build_geometry(ImageGeometry(width, height), SliceLayout(cols, rows),
                          interleave)


def display_record(sched, k):
    """The record of raster display word k in its slot's plan."""
    cycle = sched.display_read_cycle(k)
    return next(r for r in sched.slot_plan(cycle // CYCLES_PER_SLOT)
                .display_reads if r.cycle == cycle)


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
            assert all(r.cycle == 4 * slot for r in sp.writes)


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
        lower = sorted((r.cycle - 4 * slot, r.purpose)
                       for r in sp.writes + sp.display_reads + sp.fetches
                       if r.buffer == "lower0")
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
            assert rec.cycle - 4 * slot == 2


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
        for r in sp.writes + sp.display_reads + sp.fetches:
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
            offsets.add(rec.cycle - 4 * slot)
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
        reads = [row[0] for row in trace_of(res)
                 if row[4] == "read" and row[6] == "OutputRead"]
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
    assert all(not sp.writes and not sp.fetches and sp.display_reads
               for sp in tail)
    last = display_record(sched, sched.total_display_words - 1)
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


def budget_cases(budgets):
    """(preset, interleave, read latency, fetch budget) cases; a budget
    only for the refill presets, since a streaming preset pads no
    fetches."""
    return [pytest.param(name, il, lat, budget,
                         id=f"{budget}-{lat}-{il}-{name}")
            for budget in budgets for lat in (0, 1) for il in Interleave
            for name in ("baseline", "type1", "type2")
            if budget is None or preset_by_name(name).fetch_kind == REFILL]


@pytest.mark.parametrize("name, interleave, read_latency, budget",
                         budget_cases([None, 2]))
def test_blockline_replay_matches_slot_plan(name, interleave, read_latency,
                                            budget):
    """Every blockline's bookings equal those of the first blockline of its
    class, shifted by whole blocklines: the replay the engine runs is
    the blockline's own plan, field by field (cycle, bank, purpose, word,
    block, column, line and pixel x).  With two line buffers, the baseline
    with two included, a steady blockline also equals the first blockline
    of its class's other parity shifted by an odd count, which the engine
    replays; with three, no odd shift reproduces one."""
    preset = preset_by_name(name)
    if budget is not None:
        preset = replace(preset, fetch_words_per_slot=budget)
    presets = [preset]
    if preset.line_buffers == 3:
        presets.append(replace(preset, line_buffers=2))
    for preset, cols, rows in product(presets, (1, 2, 4), (1, 2)):
        plan = make_plan(320, 32, cols, rows, interleave)
        sched = Scheduler(preset, WindowSpec(), plan,
                          read_latency=read_latency)
        templates = {}
        odd = []   # per steady blockline after its other parity's first
        for bl in range(plan.total_blocklines):
            direct = sched.booking_arrays(bl)
            key = sched._blockline_class(bl)
            bl0, template = templates.setdefault(key, (bl, direct))
            assert np.array_equal(
                sched.shift_bookings(template, bl - bl0), direct)
            if isinstance(key, tuple) and (1 - key[0], *key[1:]) in templates:
                bl1, other = templates[1 - key[0], *key[1:]]
                odd.append(np.array_equal(
                    sched.shift_bookings(other, bl - bl1), direct))
        # replay happens: fewer classes than blocklines
        assert len(templates) < plan.total_blocklines
        assert odd and (all(odd) if preset.line_buffers == 2
                        else not any(odd))


@pytest.mark.parametrize("name, interleave, read_latency, budget",
                         budget_cases([None, 2, 4]))
def test_booking_place_follows_from_its_word(name, interleave, read_latency,
                                             budget):
    """Every booking's slice column and pixel x follow from its word
    address: a column owns one partition of each line buffer, and its
    local word w holds pixels 8w to 8w + 7 of the column's slice.  So a
    word's value can come from another line but never from another x,
    which lets the engine name a value by its line (`Engine._mismatch`)."""
    preset = preset_by_name(name)
    if budget is not None:
        preset = replace(preset, fetch_words_per_slot=budget)
    for cols in (1, 2, 4):
        plan = make_plan(320, 32, cols, 1, interleave)
        sched = Scheduler(preset, WindowSpec(), plan,
                          read_latency=read_latency)
        for bl in range(plan.total_blocklines):
            b = sched.booking_arrays(bl)
            col, local = np.divmod(b[WORD], LINE_WORDS // cols)
            assert np.array_equal(b[COL], col), bl
            assert np.array_equal(
                b[PX], col * plan.slice_width + PIXELS_PER_WORD * local), bl


# the schedule bit for bit, over 3 presets x {1, 2, 4} columns x both
# interleaves x read latency {0, 1} x {1, 2} slice rows at 320x32.  A case
# adds a fetch budget and a bank count to a preset, or a window spec; its
# digest is the sha256 of one line per config and blockline class: the
# class key and the sha256 of the bookings of the class's first blockline
SPECS = {
    # a previous-line span left of the block, so no warm-up, and a row1
    # span that forwarding covers whole
    "prev_left": WindowSpec((-24, -4), (-25, -1), (-8, -1)),
    # a previous-line span wider than a 4-column slice: with 4 columns
    # every slot fetches a warm-up word of the next blockline
    "wide_prev": WindowSpec((-16, 80), (-40, -2), (-20, -3))}
SCHEDULE_DIGESTS = {
    "baseline_budgetpreset_bankspreset": (
        ("baseline", None, None, None),
        "ae6fe0f067e16d4de64d2446c5059cb146903109be38a516ea22381930059694"),
    "baseline_budgetpreset_banks2": (
        ("baseline", None, 2, None),
        "512bfaf20cc65815d01eee1c94bed8b775be904b4066bbd06d586e61af691c97"),
    "baseline_budget2_bankspreset": (
        ("baseline", 2, None, None),
        "bb3d2a179aefb13b85f51ff6daf7f601a26cc7f80a7d6e5204ae81c245b07922"),
    "baseline_budget2_banks2": (
        ("baseline", 2, 2, None),
        "d8f937a41d72e6b3cbb6a5bd69658ab03457c1b0f1266ad06b3b174bc43cd91d"),
    "baseline_budget3_bankspreset": (
        ("baseline", 3, None, None),
        "b5be01bad923a6cc46cd680ae402ed7b9a592e1d8b6ba9effd216ac9647ee161"),
    "baseline_budget3_banks2": (
        ("baseline", 3, 2, None),
        "2f30792739822283c94cf200ed00722dfe111581318fbea0ccf3abc7e47b9059"),
    "baseline_budget4_bankspreset": (
        ("baseline", 4, None, None),
        "5c686b81052e2854a813722539a361f8c7c6e359514bad23efecc2ff535a8e91"),
    "baseline_budget4_banks2": (
        ("baseline", 4, 2, None),
        "7358bf6b5312e540983c8575f4c4c9f2b51fb5679ef2c9286ab8c98867767644"),
    "type1_budgetpreset_bankspreset": (
        ("type1", None, None, None),
        "71d962777e2e13da6919011853a4ec61d16c9ae0da6bb279b343908b84024f19"),
    "type1_budgetpreset_banks2": (
        ("type1", None, 2, None),
        "074cd49e014a4ab7911c316c4c07e056f2e4f0ee7560fc718e0b4f5c12e6190b"),
    "type1_budget2_bankspreset": (
        ("type1", 2, None, None),
        "3ed559d70153abab5a4985fc8e4e3faec120d309f299b26cd1f55965486c7f50"),
    "type1_budget2_banks2": (
        ("type1", 2, 2, None),
        "77299808765c67e331724901d3b0448496e78a3d948d1c665da7aa80e6d10b36"),
    "type1_budget3_bankspreset": (
        ("type1", 3, None, None),
        "d9eafd6ad9deade07f4e4da0c2fc7df1cadf361691bde8d9d9c83f149157966f"),
    "type1_budget3_banks2": (
        ("type1", 3, 2, None),
        "28dde70742724fbcd421f081bcce65f7235d49a01c7a56739e57a578627628dd"),
    "type1_budget4_bankspreset": (
        ("type1", 4, None, None),
        "df2bf674ee2de78876db354c5fcdb371c6bbf95470b72ac0a5ff4495ff40537c"),
    "type1_budget4_banks2": (
        ("type1", 4, 2, None),
        "58bd05688f5102d2b86d8ab056862b6cf83d748aad0c3e2bdaea2864ef500a2d"),
    "type2_budgetpreset_bankspreset": (
        ("type2", None, None, None),
        "9c7d86ca3df5a3694a87e3f04ab9b1eba0d4282d8d32d2ebb4f0ad2426c944ea"),
    "type2_budgetpreset_banks1": (
        ("type2", None, 1, None),
        "04354f8e3ddd026937cd27802a6308dbd1830e7f240d588b838ad04feec95f39"),
    "baseline_prev_left": (
        ("baseline", None, None, "prev_left"),
        "1ac281e51c40da3f8786083004c67ac70b71de4b79925ee056741360664a4ab2"),
    "type1_prev_left": (
        ("type1", None, None, "prev_left"),
        "eb4b67bded7a86230700561f8ab72768ccd35e919fbb3669a1ff2df369a3497c"),
    "type2_prev_left": (
        ("type2", None, None, "prev_left"),
        "5729819bde1e1dbcec63462e8a90b8ff561b22652288631ca2c120d3c6e4f7c7"),
    "baseline_wide_prev": (
        ("baseline", None, None, "wide_prev"),
        "94e76e138eefa85dc33daca97094ab041fa4eb04ea70611f39b695a1cbc71c30"),
    "type1_wide_prev": (
        ("type1", None, None, "wide_prev"),
        "94717ff6ce35b3e07e2439af40a6469b29e728192006357de8a74f85babf619c"),
    "type2_wide_prev": (
        ("type2", None, None, "wide_prev"),
        "ef6eb22dca2494c8dcfe9003cd0fb6491748ba41a0d5b34da66c53e8fed224bd"),
}


def _schedule_digest(name, budget, banks, spec):
    faults = []
    if budget is not None:
        faults.append(FaultSpec("fetch_budget_override", value=budget))
    if banks is not None:
        faults.append(FaultSpec("banks_override", value=banks))
    lines = []
    for cols in (1, 2, 4):
        for interleave in Interleave:
            for read_latency in (0, 1):
                for rows in (1, 2):
                    eng = Engine(SimConfig(
                        ImageGeometry(320, 32), SliceLayout(cols, rows),
                        preset_by_name(name), window=SPECS.get(spec,
                                                               WindowSpec()),
                        interleave=interleave,
                        sram_read_latency=read_latency, faults=faults))
                    classes = {}
                    for bl in range(eng.plan.total_blocklines):
                        classes.setdefault(eng.sched._blockline_class(bl), bl)
                    for key, bl in classes.items():
                        b = Pass(eng, bl).bookings
                        lines.append(f"{cols} {interleave.value} "
                                     f"{read_latency} {rows} {key!r} "
                                     f"{b.shape} {b.dtype} "
                                     + hashlib.sha256(b.tobytes()).hexdigest())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(SCHEDULE_DIGESTS))
def test_schedule_pinned_bit_for_bit(case):
    name, budget, banks, spec = SCHEDULE_DIGESTS[case][0]
    assert _schedule_digest(name, budget, banks, spec) == \
        SCHEDULE_DIGESTS[case][1]
