"""The engine against the per-cycle reference engine: on every config both
give the same violation counts and detail samples, pixels served, recon
peaks, trace rows and violation rows."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dbemem.engine import Engine, FaultSpec, SimConfig
from dbemem.errors import ConfigError
from dbemem.geometry import (CYCLES_PER_SLOT, ImageGeometry, Interleave,
                             SliceLayout)
from dbemem.oracle import GoldenOracle
from dbemem.predwindow import WindowSpec
from dbemem.reference import ReferenceEngine
from dbemem.sched import (BLOCK, CYCLE, PURPOSE, WRITE, Scheduler,
                          preset_by_name)
from dbemem.shell import parse_config

from test_shell import _config

PRESETS = ("baseline", "type1", "type2")
COUNTS = {"baseline": 106, "type1": 90, "type2": 25}
# per preset, every fault kind with a value that changes the run; flips
# land on either side of type2's row1 fetch of lower0 word 5 at cycle 186,
# and on upper word 3 before its display read (cycle 85 on type1 and type2)
FAULTS = {
    "noop": lambda name: FaultSpec("noop"),
    "flip_182": lambda name: FaultSpec("flip_word", buffer="lower0",
                                       word_index=5, cycle=182),
    "flip_187": lambda name: FaultSpec("flip_word", buffer="lower0",
                                       word_index=5, cycle=187),
    "flip_188": lambda name: FaultSpec("flip_word", buffer="lower0",
                                       word_index=5, cycle=188),
    "flip_upper": lambda name: FaultSpec("flip_word", buffer="upper",
                                         word_index=3, cycle=80),
    "capacity": lambda name: FaultSpec("capacity_override",
                                       value=COUNTS[name] - 1),
    "line_buffers": lambda name: FaultSpec(
        "line_buffers_override", value=2 if name == "baseline" else 3),
    "banks": lambda name: FaultSpec("banks_override",
                                    value=1 if name == "type2" else 2),
    "delay": lambda name: FaultSpec(
        "delay_override",
        value="half_line" if name == "baseline" else "one_line"),
    "fetch_budget": lambda name: FaultSpec("fetch_budget_override", value=2),
}


def outputs(res):
    return {"counts": res.violations.as_dict(),
            "details": res.violations.details,
            "pixels_served": res.pixels_served,
            "peak_recon_per_column": res.peak_recon_per_column,
            "trace_rows": res.trace_rows,
            "violation_rows": res.violation_rows}


def assert_same_run(cfg, may_reject=False):
    """The two engines give the same outputs; returns the reference's.  With
    may_reject, a config the reference rejects with a ConfigError must be
    rejected by the engine with the same message."""
    try:
        want = outputs(ReferenceEngine(cfg).run())
    except ConfigError:
        if not may_reject:
            raise
        assert_same_rejection(cfg)
        return None
    got = outputs(Engine(cfg).run())
    for key in want:
        assert got[key] == want[key], key
    return want


def assert_same_rejection(cfg):
    """Both engines reject cfg with the same ConfigError; returns its
    message."""
    messages = []
    for engine in (ReferenceEngine, Engine):
        with pytest.raises(ConfigError) as err:
            engine(cfg).run()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    return messages[0]


def assert_same_traced_and_untraced(cfg):
    """The engine with and without its trace against one traced reference
    run: equal on every output, but for the untraced run's empty rows.
    Returns the reference's outputs and the fewer blocklines either
    engine run replayed."""
    want = outputs(ReferenceEngine(cfg).run())
    replayed = []
    for trace in (True, False):
        res = Engine(replace(cfg, collect_trace=trace)).run()
        got = outputs(res)
        for key in want:
            if trace or key not in ("trace_rows", "violation_rows"):
                assert got[key] == want[key], key
            else:
                assert got[key] == [], key
        replayed.append(res.blocklines_replayed)
    return want, min(replayed)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("cols", [1, 2, 4])
@pytest.mark.parametrize("name", PRESETS)
def test_engine_matches_reference(name, cols, fault):
    if fault == "fetch_budget" and name == "type2":
        pytest.skip("streaming presets place their own fetches")
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(cols, 1),
                    preset_by_name(name), collect_trace=True,
                    faults=[FAULTS[fault](name)])
    want = assert_same_run(cfg)
    if fault == "capacity":
        assert want["counts"]["availability_misses"] > 0
    if fault == "flip_182":
        assert want["counts"]["output_mismatches"] > 0


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("shape", [
    dict(cols=2, rows=2), dict(cols=4, interleave=Interleave.ROUND_ROBIN),
    dict(sram_read_latency=1), dict(height=64, capacity=10),
    dict(window=WindowSpec((0, 24), (-25, -1), (-8, -1)))])
def test_engine_matches_reference_shapes(name, shape):
    shape = dict(shape)
    faults = []
    if "capacity" in shape:
        faults.append(FaultSpec("capacity_override", value=shape.pop("capacity")))
    cfg = SimConfig(ImageGeometry(320, shape.pop("height", 32)),
                    SliceLayout(shape.pop("cols", 1), shape.pop("rows", 1)),
                    preset_by_name(name), collect_trace=True, faults=faults,
                    **shape)
    assert_same_run(cfg)


@pytest.mark.parametrize("name,faults", [
    ("baseline", [("line_buffers_override", 2), ("banks_override", 2),
                  ("fetch_budget_override", 3)]),
    ("type1", [("banks_override", 2), ("delay_override", "one_line"),
               ("fetch_budget_override", 3)]),
])
def test_engine_matches_reference_combined_faults(name, faults):
    """Conflicts and hazards on different banks of one slot, which the
    drain logs bank by bank."""
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(1, 1),
                    preset_by_name(name), collect_trace=True,
                    faults=[FaultSpec(kind, value=v) for kind, v in faults])
    want = assert_same_run(cfg)
    assert want["counts"]["conflicts"] and want["counts"]["hazards"]


@pytest.mark.parametrize("name", PRESETS)
def test_unseen_flip_rejected_by_both_engines(name):
    """lower0 word 39 of a 320x32 frame is first written at cycle 156: a
    flip at cycle 100 is seen by no read, and both engines reject it after
    the run with one message naming the word's cycles around it."""
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(1, 1),
                    preset_by_name(name),
                    faults=[FaultSpec("flip_word", buffer="lower0",
                                      word_index=39, cycle=100)])
    assert assert_same_rejection(cfg) == (
        "flip_word lower0 word 39 at cycle 100 is seen by no read (the "
        "word's last write before it: none, last read before it: none, "
        "next write: cycle 156)")


@pytest.mark.parametrize("name", PRESETS)
def test_late_flip_matches_reference(name):
    """A flip in blockline 7 of a 320x64 frame, shifted six blocklines from
    flip_182, lands where the clean run already replays its class: a run
    with a flip checks every blockline and matches the reference."""
    cfg = SimConfig(ImageGeometry(320, 64), SliceLayout(1, 1),
                    preset_by_name(name), collect_trace=True)
    assert Engine(cfg).run().blocklines_replayed > 0
    cfg.faults = [FaultSpec("flip_word", buffer="lower0", word_index=5,
                            cycle=182 + 6 * 160)]
    want = assert_same_run(cfg)
    assert want["counts"]["output_mismatches"] > 0
    assert Engine(cfg).run().blocklines_replayed == 0


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("shape", [
    dict(cols=1), dict(cols=4), dict(cols=4, interleave=Interleave.ROUND_ROBIN),
    dict(rows=2), dict(sram_read_latency=1)],
    ids=["cols1", "cols4", "round_robin", "rows2", "latency1"])
def test_replayed_blocklines_match_reference(name, shape):
    """At 320x128 a fault-free run replays the blocklines whose carried
    state repeats, and with and without its trace gives what the reference
    gives.  Round-robin, and a registered read on the half-line presets,
    log violations in every blockline: for them only the outputs are
    compared."""
    shape = dict(shape)
    cfg = SimConfig(ImageGeometry(320, 128),
                    SliceLayout(shape.pop("cols", 1), shape.pop("rows", 1)),
                    preset_by_name(name), collect_trace=True, **shape)
    want, replayed = assert_same_traced_and_untraced(cfg)
    if not any(want["counts"].values()):
        assert replayed > 0


@pytest.mark.parametrize("name,fault", [
    ("type1", "fetch_budget"), ("type2", "banks"), ("baseline", "capacity"),
    ("type1", "capacity"), ("type2", "capacity")])
def test_blocklines_with_violations_replay(name, fault):
    """Conflicts, hazards, underflows and availability misses follow from
    the class and the carried state, so a 320x128 run that logs them in
    every blockline still replays, traced and untraced, and gives what the
    reference gives."""
    cfg = SimConfig(ImageGeometry(320, 128), SliceLayout(1, 1),
                    preset_by_name(name), collect_trace=True,
                    faults=[FAULTS[fault](name)])
    want, replayed = assert_same_traced_and_untraced(cfg)
    assert any(want["counts"].values())
    assert replayed > 0


def test_stale_fetch_stage_entries_do_not_stop_replay():
    """type2 with one bank per buffer and four columns: conflicts deny
    some fetch-stage refreshes, so entries of lines that no window reads
    again are left over.  A pass clears them first, so same-class start
    states repeat and the 320x128 run replays, traced and untraced, and
    gives what the reference gives."""
    cfg = SimConfig(ImageGeometry(320, 128), SliceLayout(4, 1),
                    preset_by_name("type2"), collect_trace=True,
                    faults=[FAULTS["banks"]("type2")])
    want, replayed = assert_same_traced_and_untraced(cfg)
    assert want["counts"]["conflicts"] > 0
    assert replayed > 0


@pytest.mark.parametrize("name,fault", [("baseline", "line_buffers"),
                                        ("type1", "delay")])
def test_foreign_word_faults_replay_matching_reference(name, fault):
    """Two line buffers on the baseline, and a one-line delay on type1,
    display foreign words: words that hold another place's pixels.
    Which words those are follows from the class and the carried state,
    so the 320x128 run still replays, traced and untraced: a replay checks
    only those words' values again, and the run gives what the reference
    gives."""
    cfg = SimConfig(ImageGeometry(320, 128), SliceLayout(1, 1),
                    preset_by_name(name), collect_trace=True,
                    faults=[FAULTS[fault](name)])
    want, replayed = assert_same_traced_and_untraced(cfg)
    assert want["counts"]["output_mismatches"] > 0
    assert replayed > 0


def test_availability_misses_replay_only_once_their_samples_are_full():
    """A miss sample names its slot, so a blockline with misses is checked
    while the 16 detail samples have room.  With no recon capacity an 8x12
    baseline frame misses in 5 slots, one per blockline after the first:
    the samples never fill, no blockline replays, and the samples equal
    the reference's."""
    cfg = SimConfig(ImageGeometry(8, 12), SliceLayout(1, 1),
                    preset_by_name("baseline"), collect_trace=True,
                    faults=[FaultSpec("capacity_override", value=0)])
    want = assert_same_run(cfg)
    assert [t for t, _, _ in want["details"]["availability_misses"]] == \
        [1, 2, 3, 4, 5]
    assert Engine(cfg).run().blocklines_replayed == 0


@pytest.mark.parametrize("name", PRESETS)
def test_replays_recheck_foreign_words_like_reference(monkeypatch, name):
    """Round-robin displays foreign words: words that a later line
    overwrote.  The engine builds its golden frame through
    `GoldenOracle.golden_frame` at the first foreign compare.  With the
    golden frame's upper half made of its first two lines repeated, those
    words hold their place's pixels there and differ in the lower half.  A
    replayed blockline checks their values again: it replays as matches
    in the upper half and as mismatches in the lower half, and the run
    gives what the reference gives, detail samples included."""
    frame = GoldenOracle.golden_frame

    def repeated(self, width, height):
        rgb = frame(self, width, height)
        rgb[:height // 2] = rgb[np.arange(height // 2) % 2]
        return rgb

    # per replayed pass that read words from another place: the half its
    # words' sources and places lie in (None: both), and the output
    # mismatches its check found
    replays, checking = [], []
    check, compare = Engine._check_display_word, Engine._compare_display

    def checked(self, *display):
        checking.append(True)
        try:
            return check(self, *display)
        finally:
            checking.pop()

    def compared(self, line, parity, k):
        before = self.log.output_mismatches
        far = compare(self, line, parity, k)
        if not checking:
            y = k // self.sched.words_per_image_line
            upper = {bool(v) for v in np.concatenate([line, y]) < 64}
            replays.append((upper.pop() if len(upper) == 1 else None,
                            self.log.output_mismatches - before))
        return far

    monkeypatch.setattr(GoldenOracle, "golden_frame", repeated)
    cfg = SimConfig(ImageGeometry(320, 128), SliceLayout(2, 1),
                    preset_by_name(name), interleave=Interleave.ROUND_ROBIN,
                    collect_trace=True)
    want = assert_same_run(cfg)
    assert want["counts"]["output_mismatches"] > 0
    monkeypatch.setattr(Engine, "_check_display_word", checked)
    monkeypatch.setattr(Engine, "_compare_display", compared)
    Engine(cfg).run()
    assert {n > 0 for upper, n in replays if upper is True} == {False}
    assert {n > 0 for upper, n in replays if upper is False} == {True}


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(data=_config, height=st.sampled_from([8, 12, 16, 24, 32]))
def test_engine_matches_reference_fuzz(data, height):
    """Configs of the CLI fuzz test that parse, with images up to 32 lines
    high, so that blocklines replay their class (d >= 2).  A config one
    engine rejects after its run, the other rejects with the same
    message."""
    data = json.loads(json.dumps(data))
    if isinstance(data["image"], dict) and \
            isinstance(data["image"].get("height"), int):
        data["image"]["height"] = height
    try:
        cfg = parse_config(json.dumps(data))
        cfg.collect_trace = True
        Engine(cfg)
    except ConfigError:
        assume(False)
    assert_same_run(cfg, may_reject=True)


# per preset: no fault, or the fault that makes passes display words from
# another place
FOREIGN_FAULTS = {
    "baseline": [None, ("line_buffers_override", 2)],
    "type1": [None, ("delay_override", "one_line")],
    "type2": [None, ("delay_override", "one_line")],
}


@st.composite
def foreign_or_flipped(draw):
    """A config whose passes read words from another place (a fault of
    `FOREIGN_FAULTS`, or round-robin over 2 or 4 columns) on images up to
    64 lines high, so that its blocklines repeat, and on some draws up to
    two flip_word faults.  A flip lands within a few cycles of a booking
    of the flip-free run's trace, on the booking's buffer and word, so it
    is valid, and seen or unseen by a read."""
    name = draw(st.sampled_from(PRESETS))
    fault = draw(st.sampled_from(FOREIGN_FAULTS[name]))
    cols = draw(st.sampled_from([1, 2, 4]))
    interleave = Interleave.COLUMN_MAJOR
    if cols > 1 and (fault is None or draw(st.booleans())):
        interleave = Interleave.ROUND_ROBIN
    assume(fault or interleave == Interleave.ROUND_ROBIN)
    cfg = SimConfig(
        ImageGeometry(cols * 8 * draw(st.integers(1, 6)),
                      draw(st.sampled_from([16, 24, 32, 48, 64]))),
        SliceLayout(cols, 1), preset_by_name(name), interleave=interleave,
        seed=draw(st.integers(0, 3)),
        sram_read_latency=draw(st.sampled_from([0, 1])), collect_trace=True,
        faults=[FaultSpec(fault[0], value=fault[1])] if fault else [])
    rows = Engine(cfg).run().trace_rows
    last = rows[-1][0]
    for _ in range(draw(st.integers(0, 2))):
        cycle, _, buffer, _, _, word, _, _ = rows[
            draw(st.integers(0, len(rows) - 1))]
        cfg.faults.append(FaultSpec(
            "flip_word", buffer=buffer, word_index=word,
            cycle=min(max(cycle + draw(st.integers(-4, 4)), 0), last)))
    return cfg


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(cfg=foreign_or_flipped())
def test_foreign_words_and_flips_match_reference_fuzz(cfg):
    """Runs that replay passes reading words from another place, and runs
    with valid flips, give what the reference gives; a flip that no read
    sees is rejected by both engines with the same message."""
    assert_same_run(cfg, may_reject=True)


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("slot", [3, 40])
def test_booking_behind_a_bank_frontier_rejected(monkeypatch, name, slot):
    """A schedule that books a bank behind a cycle the bank has already
    committed is a ConfigError with the same message in both engines:
    within a blockline (slot 3) and across blocklines (slot 40 opens
    blockline 1 at 320 pixels wide).  The slot's first write moves two
    slots back in the planner both engines read."""
    planned = Scheduler.booking_arrays

    def moved(self, bl):
        b = planned(self, bl)
        i = np.flatnonzero((b[BLOCK] == slot) & (b[PURPOSE] == WRITE))
        if i.size:
            b[CYCLE, i[0]] -= 2 * CYCLES_PER_SLOT
        return b

    monkeypatch.setattr(Scheduler, "booking_arrays", moved)
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(1, 1),
                    preset_by_name(name))
    assert "behind frontier" in assert_same_rejection(cfg)
