from dataclasses import replace

import numpy as np
import pytest

from dbemem.engine import Engine, FaultSpec, SimConfig, _Stage, run_simulation
from dbemem.errors import ConfigError
from dbemem.geometry import Chroma, ImageGeometry, Interleave, SliceLayout
from dbemem.oracle import GoldenOracle, ycocg_frame
from dbemem.reference import ReferenceEngine
from dbemem.sched import preset_baseline, preset_by_name
from dbemem.shell import build_report, report_to_text

from test_sched import display_record

PEAKS = {"baseline": 106, "type1": 90, "type2": 25}


def cfg_for(preset_name, width=320, height=32, cols=1, rows=1, **kw):
    return SimConfig(image=ImageGeometry(width, height),
                     slices=SliceLayout(cols, rows),
                     preset=preset_by_name(preset_name), **kw)


@pytest.mark.parametrize("name", ["baseline", "type1", "type2"])
@pytest.mark.parametrize("cols", [1, 2, 4])
def test_clean_runs(name, cols):
    res = run_simulation(cfg_for(name, width=640, height=32, cols=cols))
    assert res.passed, res.violations.as_dict()
    assert max(res.peak_recon_per_column) == PEAKS[name]


def test_analytic_cycle_count():
    res = run_simulation(cfg_for("baseline", width=256, height=64))
    assert res.passed
    assert res.latency_cycles == 256 * 2 // 4
    assert res.total_cycles == 256 * 64 // 4 + res.latency_cycles


def test_slice_rows_reset_prev_line():
    for name in PEAKS:
        res = run_simulation(cfg_for(name, width=320, height=64, cols=2, rows=2))
        assert res.passed, (name, res.violations.as_dict())


def test_chroma_422_behaves_identically():
    a = run_simulation(cfg_for("type2", width=320, height=32))
    cfg = cfg_for("type2", width=320, height=32)
    cfg.image = ImageGeometry(320, 32, Chroma.C422)
    b = run_simulation(cfg)
    assert a.violations.as_dict() == b.violations.as_dict()
    assert a.total_cycles == b.total_cycles


def test_throughput_invariant_enforced():
    with pytest.raises(ConfigError):
        SimConfig(image=ImageGeometry(320, 32), slices=SliceLayout(1, 1),
                  preset=preset_baseline(), throughput_ppc=8)


def test_determinism_identical_traces():
    cfg = cfg_for("type2", collect_trace=True)
    r1 = run_simulation(cfg)
    r2 = run_simulation(cfg)
    assert r1.trace_rows == r2.trace_rows
    assert r1.violations.as_dict() == r2.violations.as_dict()


def test_seed_changes_data_not_schedule():
    a = run_simulation(cfg_for("type1", seed=0, collect_trace=True))
    b = run_simulation(cfg_for("type1", seed=77, collect_trace=True))
    assert a.passed and b.passed
    assert a.trace_rows == b.trace_rows  # schedule independent of pixel data


def test_display_stream_verifies():
    # every raster word is read once and checked against the golden frame
    eng = Engine(cfg_for("type1"))
    res = eng.run()
    assert res.passed
    assert eng._next_display_k == eng.sched.total_display_words == 320 * 32 // 8


def test_display_stream_rate_law_enforced():
    # a display read off latency - read_lead + 2k is an engine fault, in the
    # engine's check of a pass's display reads and in the reference's
    eng = Engine(cfg_for("baseline"))
    rec = display_record(eng.sched, 0)
    assert rec.cycle == eng.sched.latency - eng.sched.read_lead
    one = np.ones(1, dtype=np.int64)
    with pytest.raises(AssertionError):
        eng._check_display_word(np.array([rec.cycle + 1]),
                                np.zeros(1, dtype=bool), one, one)
    with pytest.raises(AssertionError):
        ReferenceEngine(cfg_for("baseline"))._check_display_word(
            rec._replace(cycle=rec.cycle + 1), None)


# the clipped-window total: the same for every preset, since each window
# pixel is served by exactly one route
PIXELS_SERVED = [((640, 128, 1, 1), 525100), ((640, 32, 1, 1), 128860),
                 ((320, 64, 2, 1), 119760), ((320, 64, 2, 2), 118240)]


def test_windows_served_counts():
    for (width, height, cols, rows), want in PIXELS_SERVED:
        for name in PEAKS:
            res = run_simulation(cfg_for(name, width, height, cols, rows))
            assert res.pixels_served == want, (name, width, height, cols, rows)


# -- fault injection -----------------------------------------------------------


def test_noop_fault_identical():
    cfg = cfg_for("type2")
    r1 = run_simulation(cfg)
    r2 = run_simulation(replace(cfg, faults=[FaultSpec("noop")]))
    assert r1.violations.as_dict() == r2.violations.as_dict()
    assert r1.total_cycles == r2.total_cycles


# every value each override accepts, and some it does not
OVERRIDE_VALUES = {
    "capacity_override": [0, 24, 25, 89, 90, 105, 106, 200],
    "line_buffers_override": [2, 3],
    "banks_override": [1, 2],
    "delay_override": ["one_line", "half_line"],
    "fetch_budget_override": [2, 3, 4],
}


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_every_fault_changes_the_run_or_is_rejected(name):
    """noop leaves the report text and the trace identical; every other
    fault changes one of them or raises ConfigError."""
    def outcome(*faults):
        res = run_simulation(cfg_for(name, collect_trace=True,
                                     faults=list(faults)))
        return (report_to_text(build_report(res)), res.trace_rows,
                res.violation_rows)

    base = outcome()
    assert outcome(FaultSpec("noop")) == base
    for kind, values in OVERRIDE_VALUES.items():
        for value in values:
            try:
                got = outcome(FaultSpec(kind, value=value))
            except ConfigError:
                continue
            assert got != base, (kind, value)
    assert outcome(FaultSpec("flip_word", buffer="lower0", word_index=5,
                             cycle=182)) != base
    # word 479 is used by no slice column of a 320-wide image
    with pytest.raises(ConfigError, match="no slice column"):
        outcome(FaultSpec("flip_word", buffer="lower0", word_index=479,
                          cycle=100))
    # lower0 word 39 is first written at cycle 156: no read sees a flip at
    # cycle 100, and the run rejects it
    with pytest.raises(ConfigError, match="seen by no read"):
        outcome(FaultSpec("flip_word", buffer="lower0", word_index=39,
                          cycle=100))


@pytest.mark.parametrize("name,kind,value", [
    ("baseline", "line_buffers_override", 3),
    ("baseline", "banks_override", 1),
    ("baseline", "delay_override", "one_line"),
    ("baseline", "capacity_override", 106),
    ("type1", "capacity_override", 90),
    ("type2", "capacity_override", 25),
    ("type2", "banks_override", 2),
    ("type1", "delay_override", "half_line"),
])
def test_override_to_the_current_value_rejected(name, kind, value):
    with pytest.raises(ConfigError, match="already has"):
        Engine(cfg_for(name, faults=[FaultSpec(kind, value=value)]))


def test_unknown_fault_rejected():
    with pytest.raises(ConfigError):
        FaultSpec("meltdown")


def test_flip_word_exactly_eight_mismatches():
    cfg = cfg_for("type2", width=320, height=32)
    base = run_simulation(cfg)
    # flip word 0 of the last lower line right before its display read,
    # after every prediction use of that word has passed
    k = (32 - 1) * (320 // 8)
    flip_cycle = base.latency_cycles + 2 * k - 2
    res = run_simulation(replace(cfg, faults=[FaultSpec(
        "flip_word", buffer="lower0", word_index=0, cycle=flip_cycle)]))
    assert res.violations.output_mismatches == 8
    assert res.violations.availability_misses == 0


TYPE2_ROW1_FETCH = 186  # the cycle type2 streams lower0 word 5 as row1


@pytest.mark.parametrize("name,cycle,counts", [
    # type1: lower0 word 5 is written at cycle 180 and fetched at 322 into
    # the stage that admits the next blockline's resident previous line
    ("type1", 200, {"output_mismatches": 8, "prediction_mismatches": 41}),
    # type2: the same word is streamed as row1 at 186 (through reconvert)
    # and as the previous line at 320
    ("type2", 182, {"output_mismatches": 8, "prediction_mismatches": 65}),
    # one cycle after the row1 fetch: the stage holds the word as read, so
    # only the previous-line use sees the flip
    ("type2", 187, {"output_mismatches": 8, "prediction_mismatches": 41}),
    ("type2", 188, {"output_mismatches": 8, "prediction_mismatches": 41}),
])
def test_flip_word_before_prediction_fetch(name, cycle, counts):
    res = run_simulation(cfg_for(name, width=320, height=32, faults=[
        FaultSpec("flip_word", buffer="lower0", word_index=5, cycle=cycle)]))
    want = dict.fromkeys(res.violations.as_dict(), 0)
    want.update(counts)
    assert res.violations.as_dict() == want
    sections = {s for _, s, _ in res.violations.details["prediction_mismatches"]}
    row1 = name == "type2" and cycle <= TYPE2_ROW1_FETCH
    assert sections == ({"prev", "row1"} if row1 else {"prev"})


def test_reconvert_matches_the_oracle_transform():
    # the engine's reconvert is the array transform, pinned at the corners
    # of the 12-bit cube and at one golden pixel (seed 3, pixel (17, 2))
    corners = np.array([[r, g, b] for r in (0, 4095) for g in (0, 4095)
                        for b in (0, 4095)], dtype=np.int32)
    assert ycocg_frame(corners).tolist() == [
        [0, 0, 0], [1023, -4095, -2047], [2047, 0, 4095], [3071, -4095, 2048],
        [1023, 4095, -2047], [2047, 0, -4095], [3071, 4095, 2048],
        [4095, 0, 0]]
    rgb = GoldenOracle(3, 12).golden_frame(64, 4)
    assert rgb[2, 17].tolist() == [3186, 2184, 74]
    assert ycocg_frame(rgb)[2, 17].tolist() == [1907, 3112, 554]


@pytest.mark.parametrize("seed", range(4))
def test_mismatch_equals_a_per_pixel_compare(seed):
    """`Engine._mismatch` decides a word of its place's line by its flip
    parity and gathers golden pixels only for the others: words of
    another line at the same x, the only place a word's value can come
    from.  On random words of both kinds, with parity 0 or 1, it equals a
    per-pixel compare of the golden frame.  The frame keeps only each
    component's low bit, so that words of another line match on some
    pixels and differ on others."""
    w, h = 64, 16
    eng = Engine(cfg_for("type2", width=w, height=h))
    eng._setup_passes()
    full = eng.oracle.golden_frame(w, h)
    # a fetch stage entry is decided by its parity after the reconvert
    # too (`_Stage.bad`): a flipped pixel differs in YCoCg as well
    assert (ycocg_frame(full ^ 1) != ycocg_frame(full)).any(axis=-1).all()
    rgb = full & 1
    eng.oracle.golden_frame = lambda width, height: rgb
    rng = np.random.default_rng(seed)
    n = 300
    y, x = rng.integers(0, h, n), 8 * rng.integers(0, w // 8, n)
    same = rng.random(n) < 0.5
    line = np.where(same, y, rng.integers(0, h, n))
    parity = rng.integers(0, 2, n)
    # words of their place's line alone build no frame
    eng._mismatch(y[same], parity[same], y[same], x[same])
    assert eng._rgb is None
    want = np.zeros((n, 8), dtype=bool)
    for i in range(n):
        for p in range(8):
            got = rgb[line[i], x[i] + p] ^ parity[i]
            want[i, p] = (got != rgb[y[i], x[i] + p]).any()
    assert eng._mismatch(line, parity, y, x).tolist() == want.tolist()
    far = line != y
    assert 0 < want[far].sum() < 8 * far.sum()


def test_challenge1_two_line_buffers_hazard():
    res = run_simulation(cfg_for("baseline", width=640, height=32,
                                 **_faults("line_buffers_override", 2)))
    assert res.violations.hazards >= 1


def test_type1_second_fetch_conflicts():
    res = run_simulation(cfg_for("type1", width=640, height=32,
                                 **_faults("fetch_budget_override", 2)))
    assert res.violations.conflicts >= 1


def test_challenge3_unsplit_banks_conflict():
    res = run_simulation(cfg_for("type2", width=640, height=32,
                                 **_faults("banks_override", 1)))
    assert res.violations.conflicts >= 1


def test_type1_one_line_delay_hazard():
    res = run_simulation(cfg_for("type1", width=640, height=32,
                                 **_faults("delay_override", "one_line")))
    assert res.violations.hazards >= 1


@pytest.mark.parametrize("name,cap", [("baseline", 105), ("type1", 89),
                                      ("type2", 24)])
def test_capacity_tightness(name, cap):
    res = run_simulation(cfg_for(name, width=640, height=32,
                                 **_faults("capacity_override", cap)))
    assert res.violations.availability_misses >= 1


def test_round_robin_single_column_clean():
    from dbemem.geometry import Interleave
    res = run_simulation(cfg_for("type1", interleave=Interleave.ROUND_ROBIN))
    assert res.passed


def test_round_robin_multi_column_hazards():
    # a shared raster display stream over a partitioned buffer cannot keep
    # the one/half-line delay hazard-free when slice columns interleave per
    # block slot; this documents why the engine defaults to column-major
    from dbemem.geometry import Interleave
    res = run_simulation(cfg_for("baseline", cols=4,
                                 interleave=Interleave.ROUND_ROBIN))
    assert res.violations.hazards >= 1


def test_read_latency_sensitivity():
    # registered SRAM outputs keep the one-line delay feasible but break the
    # half-line schedule's tail margin
    base = run_simulation(cfg_for("baseline", sram_read_latency=1))
    assert base.passed
    t1 = run_simulation(cfg_for("type1", sram_read_latency=1))
    assert t1.violations.total() > 0


@pytest.mark.parametrize("spans", [
    ((-8, 16), (-33, -1), (-32, -1)),
    ((-8, 30), (-17, -1), (-16, -1)),
    ((0, 24), (-25, -1), (-8, -1)),
    ((-16, 39), (-41, -1), (-40, -1)),
])
def test_custom_window_specs_run_clean(spans):
    from dbemem.predwindow import WindowSpec
    spec = WindowSpec(*spans)
    for name in PEAKS:
        cfg = cfg_for(name, width=640, height=32, window=spec)
        res = run_simulation(cfg)
        assert res.passed, (name, spans, res.violations.as_dict())
        want = preset_by_name(name).residency.resident_count(spec)
        assert max(res.peak_recon_per_column) == want


def test_stage_lookup_sees_fetches_of_the_serving_slot():
    """A window at slot t sees a word fetched within slot t; at t - 1 it
    sees the entry carried in, and other keys are untouched."""
    eng = Engine(SimConfig(ImageGeometry(320, 32), SliceLayout(1, 1),
                           preset_by_name("type2")))
    eng._setup_passes()
    key, t = 12, 5
    one = np.array([1])
    # staged: key 12 at slots 5 and 9, line 3 then line 7
    stage = _Stage(eng, (np.array([key, key]), np.array([t, 9]),
                         np.array([3, 7]), np.array([0, 1])))
    n = len(eng._stage[0])
    assert stage.at(key * one, t * one).tolist() == [n]
    assert stage.line[n] == 3
    assert stage.at(key * one, (t - 1) * one).tolist() == [key]
    assert stage.line[key] == -1
    assert stage.at(key * one, 8 * one).tolist() == [n]
    assert stage.at(key * one, 9 * one).tolist() == [n + 1]
    assert stage.at((key + 1) * one, t * one).tolist() == [key + 1]
    # the last staged entry of each key is carried out of the pass
    assert eng._stage[0][key] == 7 and eng._stage[1][key] == 1


def _faults(kind, value):
    return dict(faults=[FaultSpec(kind, value=value)])


# blocklines replayed on the benchmark's configurations, of 16 at 3840x32
# and of 64 at 640x128: a replay lost changes no report or trace, only the
# run time.  Two line buffers on the baseline and round-robin type1 display
# words from another place, whose values a replay checks again
REPLAYED = {
    "type2_3840x32_c4": (("type2", 3840, 32, 4), {}, 12),
    "baseline_640x128": (("baseline", 640, 128), {}, 59),
    "type1_640x128": (("type1", 640, 128), {}, 60),
    "type2_640x128": (("type2", 640, 128), {}, 60),
    "type2_banks1": (("type2", 640, 128), _faults("banks_override", 1), 59),
    "type1_fetch2": (("type1", 640, 128),
                     _faults("fetch_budget_override", 2), 60),
    "baseline_lb2": (("baseline", 640, 128),
                     _faults("line_buffers_override", 2), 59),
    "type1_rr_c4": (("type1", 640, 128, 4),
                    dict(interleave=Interleave.ROUND_ROBIN), 59),
}


@pytest.mark.parametrize("run", sorted(REPLAYED))
def test_blocklines_replayed_on_benchmark_configs(run):
    shape, kw, want = REPLAYED[run]
    assert run_simulation(cfg_for(*shape, **kw)).blocklines_replayed == want


def test_golden_frame_built_only_for_words_from_another_place(monkeypatch):
    """A word of its place's line needs no golden pixel, so clean
    runs of every preset build no golden frame.  A run that displays words
    from another place builds it once, at its first such compare."""
    calls = []
    frame = GoldenOracle.golden_frame

    def spy(self, width, height):
        calls.append((width, height))
        return frame(self, width, height)

    monkeypatch.setattr(GoldenOracle, "golden_frame", spy)
    for name in PEAKS:
        assert run_simulation(cfg_for(name, width=640, height=32)).passed
    assert run_simulation(cfg_for("type2", width=640, height=32,
                                  cols=4)).passed
    assert calls == []
    res = run_simulation(cfg_for("baseline", width=640, height=32,
                                 **_faults("line_buffers_override", 2)))
    assert res.violations.output_mismatches > 0
    assert calls == [(640, 32)]
