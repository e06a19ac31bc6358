"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The full-4K criterion
simulates a complete 3840x2160 frame (~2M cycles) and takes about 0.2 s
on a 2-vCPU VM; everything else runs at the 640x128 regression size.
"""

import random

import numpy as np
import pytest

from dbemem.engine import Engine, FaultSpec, SimConfig, run_simulation
from dbemem.explore import FetchBudget, minimal_resident_set, preset_budget
from dbemem.geometry import (Chroma, ImageGeometry, Interleave, SliceLayout,
                             build_geometry)
from dbemem.oracle import ycocg_frame
from dbemem.predwindow import WindowSpec
from dbemem.sched import Scheduler, preset_by_name, preset_type2
from dbemem.shell import buffer_accounting, throughput_metrics

from test_sched import display_record

PEAKS = {"baseline": 106, "type1": 90, "type2": 25}
LATENCY_DIV = {"baseline": 2, "type1": 4, "type2": 4}


def small_cfg(name, cols=1, chroma=Chroma.C444, **kw):
    return SimConfig(image=ImageGeometry(640, 128, chroma),
                     slices=SliceLayout(cols, 1),
                     preset=preset_by_name(name), **kw)


@pytest.fixture(scope="module")
def full_4k_result():
    cfg = SimConfig(image=ImageGeometry(3840, 2160), slices=SliceLayout(4, 1),
                    preset=preset_type2())
    return run_simulation(cfg)


@pytest.fixture(scope="module")
def regression_results():
    out = {}
    for name in PEAKS:
        for cols in (1, 2, 4):
            for chroma in (Chroma.C444, Chroma.C422):
                res = run_simulation(small_cfg(name, cols, chroma))
                out[(name, cols, chroma.value)] = res
    return out


def test_criterion_1_throughput_arithmetic():
    m = throughput_metrics(200e6, 4, 3840, 2160)
    assert m["mpixels_per_sec"] == 800.00
    assert m["fps"] == 96.45
    print("ACCEPTANCE 1 PASS: 200 MHz x 4 px/cycle -> 800.00 Mpix/s, "
          "96.45 fps at 3840x2160")


def test_criterion_2_line_buffer_accounting():
    base = buffer_accounting(preset_by_name("baseline"), 1)
    t1 = buffer_accounting(preset_by_name("type1"), 1)
    t2 = buffer_accounting(preset_by_name("type2"), 1)
    assert base["line_buffer_bits_total"] == 3 * 480 * 256
    assert t1["line_buffer_bits_total"] == t2["line_buffer_bits_total"] \
        == 2 * 480 * 256
    delta = base["line_buffer_bits_total"] - t1["line_buffer_bits_total"]
    assert delta == 122880                      # 15 KiB (~16 KB decimal-rounded)
    assert t1["reductions_vs_baseline"]["line_buffer_pct"] == 33.33
    print("ACCEPTANCE 2 PASS: line buffer 368640 -> 245760 bits, "
          "reduction 33.33%, delta 122880 bits (15 KiB)")


def test_criterion_3_recon_buffer_counts(regression_results, full_4k_result):
    for name, want in PEAKS.items():
        res = regression_results[(name, 1, "444")]
        assert max(res.peak_recon_per_column) == want, name
    assert max(full_4k_result.peak_recon_per_column) == 25
    acct = buffer_accounting(preset_by_name("type2"), 4)
    assert abs(acct["recon_bytes_total"] - 376) <= 1     # 375 B by pixel math
    assert acct["recon_bytes_per_slice_rounded"] == 94
    assert abs(acct["reductions_vs_baseline"]["recon_pct"] - 77.3) <= 1.0
    print("ACCEPTANCE 3 PASS: max recon occupancy 106/90/25 px; 4-slice "
          f"total {acct['recon_bytes_total']:.0f} B (reported 376 B, delta "
          f"{376 - acct['recon_bytes_total']:.0f} B), 94 B/slice rounded, "
          f"reduction {acct['reductions_vs_baseline']['recon_pct']:.2f}% "
          "(reported 77.3%)")


def test_criterion_4_scheduling_correctness(regression_results, full_4k_result):
    for (name, cols, chroma), res in regression_results.items():
        assert res.passed, (name, cols, chroma, res.violations.as_dict())
        width = res.plan.image.width
        assert res.latency_cycles == width // LATENCY_DIV[name]
        assert res.total_cycles == width * res.plan.image.height // 4 \
            + res.latency_cycles
    assert full_4k_result.passed, full_4k_result.violations.as_dict()
    assert full_4k_result.latency_cycles == 960
    assert full_4k_result.total_cycles == 3840 * 2160 // 4 + 960
    print("ACCEPTANCE 4 PASS: zero violations for 3 presets x {1,2,4} slices "
          "x {444,422} at 640x128 and one full 3840x2160 run; latency = "
          "one/half blockline as designed")


def test_criterion_5_challenge_reproductions():
    a = run_simulation(small_cfg("baseline", faults=[
        FaultSpec("line_buffers_override", value=2)]))
    assert a.violations.hazards >= 1
    b = run_simulation(small_cfg("type1", faults=[
        FaultSpec("fetch_budget_override", value=2)]))
    assert b.violations.conflicts >= 1
    c = run_simulation(small_cfg("type2", faults=[
        FaultSpec("banks_override", value=1)]))
    assert c.violations.conflicts >= 1
    print(f"ACCEPTANCE 5 PASS: challenge reproductions -> "
          f"{a.violations.hazards} hazards (2 line buffers), "
          f"{b.violations.conflicts} conflicts (2nd fetch/slot), "
          f"{c.violations.conflicts} conflicts (unsplit banks)")


def test_criterion_6_tightness_sweeps():
    hits = {}
    for name, cap in (("baseline", 105), ("type1", 89), ("type2", 24)):
        res = run_simulation(small_cfg(name, faults=[
            FaultSpec("capacity_override", value=cap)]))
        assert res.violations.availability_misses >= 1, name
        hits[name] = res.violations.availability_misses
    print(f"ACCEPTANCE 6 PASS: capacities 105/89/24 miss "
          f"({hits['baseline']}/{hits['type1']}/{hits['type2']} availability "
          "misses); the preset counts are minimal")


def test_criterion_7_explorer_consistency():
    spec = WindowSpec()
    for name, want in PEAKS.items():
        preset = preset_by_name(name)
        res = minimal_resident_set(spec, preset_budget(preset),
                                   forwarding=preset.forwarding,
                                   reconvert=preset.reconvert_on_fetch)
        assert res.resident_count == want
    rng = random.Random(4242)
    budgets = [FetchBudget("refill", 1), FetchBudget("streaming", 2)]
    checked = 0
    for _ in range(110):
        prev = (-8 * rng.randint(0, 2), rng.randint(0, 39))
        spec_r = WindowSpec(prev_line_span=prev,
                            cur_row0_span=(-rng.randint(1, 40), -1),
                            cur_row1_span=(-rng.randint(1, 40), -1))
        for fwd in (False, True):
            for rec in (False, True):
                counts = [minimal_resident_set(spec_r, b, fwd, rec)
                          .resident_count for b in budgets]
                assert counts == sorted(counts, reverse=True)
                assert minimal_resident_set(spec_r, budgets[1], True, rec) \
                    .resident_count <= counts[1] or fwd
        checked += 1
    assert checked >= 100
    print("ACCEPTANCE 7 PASS: explorer returns 106/90/25 for the preset "
          f"budgets and is monotone over {checked} randomized specs")


def test_criterion_8_property_suites():
    # lossless transform: exhaustive at 8-bit depth
    v = np.arange(256, dtype=np.int32)
    r, g, b = np.meshgrid(v, v, v, indexing="ij")
    rgb = np.stack([r.ravel(), g.ravel(), b.ravel()], axis=-1)
    yco = ycocg_frame(rgb)
    y, co, cg = yco[:, 0], yco[:, 1], yco[:, 2]
    t = y - (cg >> 1)
    g2 = cg + t
    b2 = t - (co >> 1)
    assert np.array_equal(b2 + co, rgb[:, 0])
    assert np.array_equal(g2, rgb[:, 1])
    assert np.array_equal(b2, rgb[:, 2])

    # determinism: two runs produce byte-identical traces
    cfg = small_cfg("type2", collect_trace=True)
    assert run_simulation(cfg).trace_rows == run_simulation(cfg).trace_rows

    # rate law: the engine's OutputRead trace rows put raster word k at
    # latency + 2k after the read lead, none missing: exactly 4 px/cycle
    cfg = SimConfig(image=ImageGeometry(320, 32), slices=SliceLayout(1, 1),
                    preset=preset_by_name("type1"), collect_trace=True)
    eng = Engine(cfg)
    res = eng.run()
    emitted = [row[0] + eng.sched.read_lead for row in res.trace_rows
               if row[6] == "OutputRead"]
    assert emitted == [res.latency_cycles + 2 * k for k in range(320 * 32 // 8)]

    # tiling and addressing bijections on randomized geometries, through
    # the schedule the engine runs: every block once, every (line, word)
    # written once, and every display word read from its block's write
    rng = random.Random(11)
    for _ in range(5):
        cols = rng.choice([1, 2, 4])
        width = cols * 8 * rng.randint(2, 10)
        height = 2 * rng.randint(1, 6)
        plan = build_geometry(ImageGeometry(width, height),
                              SliceLayout(cols, 1),
                              rng.choice(list(Interleave)))
        sched = Scheduler(preset_by_name(rng.choice(list(PEAKS))),
                          WindowSpec(), plan)
        cover = np.zeros((height, width), dtype=np.int32)
        writes = {}
        for slot in range(sched.slots_per_blockline * plan.total_blocklines):
            sp = sched.slot_plan(slot)
            blk = sp.block
            x0 = plan.slice_base_x(blk.slice_col) + 8 * blk.block_x
            cover[2 * blk.blockline:2 * blk.blockline + 2, x0:x0 + 8] += 1
            for rec in sp.writes:
                y = 2 * blk.blockline + (rec.buffer != "upper")
                assert (y, rec.word_index) not in writes
                writes[y, rec.word_index] = (rec.buffer, rec.bank_id, x0)
        assert (cover == 1).all()
        for k in range(sched.total_display_words):
            rec = display_record(sched, k)
            y, i = divmod(k, sched.words_per_image_line)
            assert writes[y, rec.word_index] == (rec.buffer, rec.bank_id, 8 * i)
    print("ACCEPTANCE 8 PASS: lossless-transform exhaustive at 8 bit, "
          "byte-identical traces, 4 px/cycle rate law, tiling and addressing "
          "bijections hold")
