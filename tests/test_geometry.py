import random

import numpy as np
import pytest

from dbemem.errors import ConfigError
from dbemem.geometry import (ImageGeometry, Interleave, SliceLayout,
                             build_geometry, decode_position)
from dbemem.predwindow import WindowSpec
from dbemem.sched import Scheduler, preset_by_name

from test_sched import display_record


def plan_4k(columns=4):
    return build_geometry(ImageGeometry(3840, 2160), SliceLayout(columns, 1),
                          Interleave.ROUND_ROBIN)


def sched_for(plan, preset="type1"):
    return Scheduler(preset_by_name(preset), WindowSpec(), plan)


def slot_of(plan, c, bx, bl):
    """Inverse of the decode order, for picking a block's slot."""
    cols, n = plan.slices.columns, plan.words_per_line
    within = bx * cols + c if plan.interleave is Interleave.ROUND_ROBIN \
        else c * n + bx
    return bl * cols * n + within


def display_addr(sched, x, y):
    """(buffer, bank, word) the display reads pixel (x, y) from."""
    rec = display_record(sched, y * sched.words_per_image_line + x // 8)
    return rec.buffer, rec.bank_id, rec.word_index


def test_4k_four_columns():
    plan = plan_4k(4)
    assert plan.slice_width == 960
    assert plan.words_per_line == 120
    assert plan.partition_bases == (0, 120, 240, 360)


def test_4k_single_column_uses_whole_buffer():
    plan = plan_4k(1)
    assert plan.partition_bases == (0,)
    assert plan.words_per_line == 480


def test_width_divisibility():
    with pytest.raises(ConfigError):
        build_geometry(ImageGeometry(3841, 2160), SliceLayout(1, 1),
                       Interleave.ROUND_ROBIN)
    with pytest.raises(ConfigError):
        build_geometry(ImageGeometry(3844, 2160), SliceLayout(4, 1),
                       Interleave.ROUND_ROBIN)


def test_odd_height_rejected():
    with pytest.raises(ConfigError):
        ImageGeometry(640, 127)


def test_bad_columns_rejected():
    with pytest.raises(ConfigError):
        SliceLayout(3, 1)


def test_too_wide_for_buffer():
    with pytest.raises(ConfigError):
        build_geometry(ImageGeometry(3848, 2160), SliceLayout(1, 1),
                       Interleave.ROUND_ROBIN)


def test_block_to_pixels():
    """A block's 8x2 pixels are the ones the display reads back from the
    words that block wrote."""
    plan = plan_4k(4)
    sched = sched_for(plan)
    for c, bx, bl, x0, y0 in ((0, 1, 2, 8, 4), (1, 0, 0, 960, 0)):
        slot = slot_of(plan, c, bx, bl)
        assert decode_position(plan, slot) == (bl, c, bx)
        sp = sched.slot_plan(slot)
        written = [(r.buffer, r.bank_id, r.word_index) for r in sp.writes]
        for x in (x0, x0 + 7):
            assert [display_addr(sched, x, y) for y in (y0, y0 + 1)] == written
        assert display_addr(sched, x0 + 8, y0) != written[0]


def test_pixel_to_word():
    sched1 = sched_for(plan_4k(1))
    assert display_addr(sched1, 17, 0) == ("upper", 0, 2)
    assert display_addr(sched1, 3839, 1) == ("lower0", 0, 479)
    sched4 = sched_for(plan_4k(4))
    assert display_addr(sched4, 959, 0)[2] == 119
    assert display_addr(sched4, 960, 0)[2] == 120    # column 1's partition
    assert display_record(sched4, 960 // 8).slice_col == 1
    assert sched4.word_address(1, 0) == (120, 0)


def test_pixel_to_word_bank_split():
    sched = sched_for(plan_4k(1), "type2")
    assert [display_addr(sched, x, 1)[1] for x in (0, 8, 16, 24)] == [0, 1, 0, 1]
    assert sched.word_address(0, 5) == (5, 1)
    # the bank follows the local word, not the partition base
    assert sched_for(plan_4k(4), "type2").word_address(1, 1) == (121, 1)


def blocks_in_order(plan):
    """(blockline, slice column, block x) of every decode slot."""
    return [decode_position(plan, s) for s in
            range(plan.slices.columns * plan.words_per_line
                  * plan.total_blocklines)]


def test_decode_order_round_robin():
    plan = build_geometry(ImageGeometry(32, 2), SliceLayout(2, 1),
                          Interleave.ROUND_ROBIN)
    order = [(c, bx) for _, c, bx in blocks_in_order(plan)]
    assert order == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_decode_order_column_major():
    plan = build_geometry(ImageGeometry(32, 2), SliceLayout(2, 1),
                          Interleave.COLUMN_MAJOR)
    order = [(c, bx) for _, c, bx in blocks_in_order(plan)]
    assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_decode_order_event_count():
    plan = build_geometry(ImageGeometry(640, 64), SliceLayout(4, 1),
                          Interleave.ROUND_ROBIN)
    events = blocks_in_order(plan)
    assert len(events) == 640 * 64 // 16
    assert [bl for bl, _, _ in events] == sorted(bl for bl, _, _ in events)


def random_plans(seed, n, max_blocks, max_blocklines):
    rng = random.Random(seed)
    for _ in range(n):
        cols = rng.choice([1, 2, 4])
        rows = rng.choice([1, 2])
        width = cols * 8 * rng.randint(2, max_blocks)
        height = 2 * rows * rng.randint(1, max_blocklines)
        yield build_geometry(ImageGeometry(width, height),
                             SliceLayout(cols, rows), rng.choice(list(Interleave)))


def test_tiling_exact_coverage():
    for plan in random_plans(7, 8, 10, 4):
        height, width = plan.image.height, plan.image.width
        cover = np.zeros((height, width), dtype=np.int32)
        for bl, c, bx in blocks_in_order(plan):
            x0 = c * plan.slice_width + 8 * bx
            cover[2 * bl:2 * bl + 2, x0:x0 + 8] += 1
        assert (cover == 1).all()


def check_addressing(sched):
    """Every (line, word) is written exactly once over the frame's slots,
    and every raster display word is read from the (buffer, bank, word) the
    block covering it wrote.  Each write and display record carries that
    line and pixel x, and each fetch record reads the word its line was
    written to from its pixel x."""
    plan = sched.plan
    writes = {}
    fetches = []
    for slot in range(sched.slots_per_blockline * plan.total_blocklines):
        sp = sched.slot_plan(slot)
        bl, c, bx = decode_position(plan, slot)
        for rec in sp.writes:
            y = 2 * bl + (rec.buffer != "upper")
            assert (y, rec.word_index) not in writes
            x0 = c * plan.slice_width + 8 * bx
            assert (rec.line, rec.px) == (y, x0)
            writes[y, rec.word_index] = (rec.buffer, rec.bank_id, x0)
        fetches += sp.fetches
    assert len(writes) == plan.image.height * sched.words_per_image_line
    for k in range(sched.total_display_words):
        rec = display_record(sched, k)
        y, i = divmod(k, sched.words_per_image_line)
        assert (rec.line, rec.px) == (y, 8 * i)
        assert writes[y, rec.word_index] == (rec.buffer, rec.bank_id, 8 * i)
    written_at = {(y, x0): (buf, bank, word)
                  for (y, word), (buf, bank, x0) in writes.items()}
    for rec in fetches:
        assert written_at[rec.line, rec.px] == (rec.buffer, rec.bank_id,
                                                rec.word_index)


def test_addressing_bijection():
    presets = ["baseline", "type1", "type2"]
    for i, plan in enumerate(random_plans(8, 6, 12, 3)):
        check_addressing(sched_for(plan, presets[i % 3]))


def test_partition_regions_disjoint():
    plan = plan_4k(4)
    spans = [(b, b + plan.words_per_line) for b in plan.partition_bases]
    for i, (a0, a1) in enumerate(spans):
        for b0, b1 in spans[i + 1:]:
            assert a1 <= b0 or b1 <= a0
