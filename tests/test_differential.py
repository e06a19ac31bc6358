"""The engine against the per-cycle reference engine: on every config both
give the same violation counts and detail samples, pixels served, recon
peaks and counts of trace rows and violation rows, and the engine's CSV
trace is the reference's rows written one by one in cycle order."""

import json
import os
import tempfile
from dataclasses import replace
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dbemem.engine import Engine, FaultSpec, SimConfig
from dbemem.errors import ConfigError
from dbemem.geometry import (CYCLES_PER_SLOT, ImageGeometry, Interleave,
                             SliceLayout)
from dbemem.membank import Purpose
from dbemem.oracle import GoldenOracle
from dbemem.predwindow import FETCH, RESIDENT, WindowSpec
from dbemem.reference import ReferenceEngine
from dbemem.sched import (BLOCK, CYCLE, HALF_LINE, ONE_LINE, PURPOSE, REFILL,
                          STREAMING, WORD, WRITE, ArchPreset, Scheduler,
                          preset_baseline, preset_by_name)
from dbemem.shell import TRACE_HEADER, emit_trace, parse_config

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
    """A run's outputs; of its trace, the counts of rows, which the
    benchmark's `shell.trace_rows` counter adds up (`assert_same_csv`
    compares the rows themselves)."""
    return {"counts": res.violations.as_dict(),
            "details": res.violations.details,
            "pixels_served": res.pixels_served,
            "peak_recon_per_column": res.peak_recon_per_column,
            "trace_rows": len(res.trace_rows),
            "violation_rows": len(res.violation_rows)}


# one CSV trace row, from a reference row tuple
TRACE_ROW = "%d,%d,%s,%d,%s,%d,%s,%d\n"


def csv_of_rows(ref):
    """The CSV trace of the reference's result `ref` by the row writer
    the engine's pass-by-pass writer replaced: a stable sort of the trace
    rows and then the violation rows by cycle, one `TRACE_ROW` each."""
    rows = sorted(ref.trace_rows + ref.violation_rows, key=itemgetter(0))
    return TRACE_HEADER + "\n" + "".join(TRACE_ROW % r for r in rows)


def assert_same_csv(res, ref):
    """`emit_trace` of the engine's result `res` writes the CSV of the
    reference's result `ref`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        emit_trace(res, path)
        with open(path) as fh:
            assert fh.read() == csv_of_rows(ref)


def assert_same_run(cfg, may_reject=False):
    """The two engines give the same outputs; returns the reference's.  With
    may_reject, a config the reference rejects with a ConfigError must be
    rejected by the engine with the same message."""
    try:
        ref = ReferenceEngine(cfg).run()
    except ConfigError:
        if not may_reject:
            raise
        assert_same_rejection(cfg)
        return None
    want = outputs(ref)
    res = Engine(cfg).run()
    got = outputs(res)
    for key in want:
        assert got[key] == want[key], key
    if cfg.collect_trace:
        assert_same_csv(res, ref)
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
    run: equal on every output, but for the untraced run's 0 rows.
    Returns the reference's outputs and the fewer blocklines either
    engine run replayed."""
    ref = ReferenceEngine(cfg).run()
    want = outputs(ref)
    replayed = []
    for trace in (True, False):
        res = Engine(replace(cfg, collect_trace=trace)).run()
        got = outputs(res)
        for key in want:
            if trace or key not in ("trace_rows", "violation_rows"):
                assert got[key] == want[key], key
            else:
                assert got[key] == 0, key
        if trace:
            assert_same_csv(res, ref)
        replayed.append(res.blocklines_replayed)
    return want, min(replayed)


@pytest.mark.parametrize("name, cols, fault", [
    pytest.param(name, cols, fault, id=f"{name}-{cols}-{fault}")
    for name in PRESETS for cols in (1, 2, 4) for fault in sorted(FAULTS)
    # a fetch budget only for the refill presets: a streaming preset pads
    # no fetches
    if fault != "fetch_budget" or preset_by_name(name).fetch_kind == REFILL])
def test_engine_matches_reference(name, cols, fault):
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
    dict(window=WindowSpec((0, 24), (-25, -1), (-8, -1))),
    # a previous-line span 64 px or wider, whose block 0 admits the whole
    # span from its left edge (peaks 194, 178 and 25, clean)
    dict(window=WindowSpec((-64, 64), (-33, -1), (-32, -1))),
    # type2 keeps no pixel of this window resident
    dict(window=WindowSpec((-8, 32), (-8, -1), (-32, -1)))])
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


def test_fetch_owed_reads_match_reference():
    """A refill budget of two words on 16 px slices: in each column's first
    slot the second fetch word wraps round to the slice's other word of
    line 1, which the next slot writes.  That fetch reads a never-written
    word, an underflow that pays no owed read, so the write is a hazard
    owing the fetch read and no display read."""
    cfg = parse_config(json.dumps({
        "image": {"width": 64, "height": 20}, "slices": {"columns": 4},
        "arch": {"line_delay": "half_line", "line_buffers": 2,
                 "banks_per_buffer": 1, "fetch_words_per_slot": 2},
        "faults": [{"kind": "banks_override", "value": 2}],
        "sram_read_latency": 1, "trace": True}))
    want = assert_same_run(cfg)
    assert [(h.pending_output_reads, h.pending_fetch_reads)
            for h in want["details"]["hazards"]] == [(0, 1)] * 4
    underflows = [u.purpose for u in want["details"]["underflows"]]
    assert len(underflows) == 5
    assert underflows.count(Purpose.PREDICT_FETCH) == 4


def test_fetch_stage_keeps_only_the_demanded_line():
    """A refill budget of two words on one 48 px slice: in a blockline's
    first slot the second fetch word wraps round to word 0 of the previous
    line, which that slot's block has just overwritten with its lower row.
    The stage drops such a word, so the frame passes and serves every
    window pixel."""
    cfg = parse_config(json.dumps({
        "image": {"width": 48, "height": 16},
        "arch": {"line_delay": "half_line", "line_buffers": 2,
                 "banks_per_buffer": 2, "fetch_words_per_slot": 2},
        "trace": True}))
    want = assert_same_run(cfg)
    assert not any(want["counts"].values())
    assert want["pixels_served"] == 3102


@pytest.mark.parametrize("word,cycle,block", [
    pytest.param(120, 201, 2, id="left-edge"),
    pytest.param(129, 210, 9, id="right-edge")])
def test_flipped_edge_word_served_like_reference(word, cycle, block):
    """type2 on 4 columns of 80 px, lower0 word 0 or 9 of column 1 flipped
    between its write and its fetch.  The fetched parts of the windows of
    the blocks at the slice edges clip their stage words to the slice, so
    only the word's pixels inside the slice count: the flip reaches the
    edge block `block` and the served pixels, misses, mispredictions and
    samples are the reference's."""
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(4, 1),
                    preset_by_name("type2"), collect_trace=True,
                    faults=[FaultSpec("flip_word", buffer="lower0",
                                      word_index=word, cycle=cycle)])
    want = assert_same_run(cfg)
    slots = [t for t, _, _ in want["details"]["prediction_mismatches"]]
    assert 40 + 10 + block in slots


@st.composite
def refill_budgets(draw):
    """A refill budget of 2-4 fetch words per slot, as a custom arch or as
    a refill preset's fetch_budget_override, on 1, 2 or 4 columns of 8-80
    px slices, with interleave and read latency drawn.  The extra words
    wrap round a narrow slice onto words not yet written or about to be
    overwritten: fetch underflows and hazards owing fetch reads."""
    budget = draw(st.integers(2, 4))
    faults = []
    if draw(st.booleans()):
        preset = replace(
            preset_baseline(), name="custom",
            line_delay=draw(st.sampled_from([ONE_LINE, HALF_LINE])),
            line_buffers=draw(st.sampled_from([2, 3])),
            banks_per_buffer=draw(st.sampled_from([1, 2])),
            fetch_words_per_slot=budget, forwarding=draw(st.booleans()))
    else:
        preset = preset_by_name(draw(st.sampled_from(["baseline", "type1"])))
        faults.append(FaultSpec("fetch_budget_override", value=budget))
    cols = draw(st.sampled_from([1, 2, 4]))
    return SimConfig(
        ImageGeometry(cols * 8 * draw(st.integers(1, 10)),
                      draw(st.sampled_from([8, 12, 16, 20]))),
        SliceLayout(cols, 1), preset,
        interleave=draw(st.sampled_from(list(Interleave))),
        sram_read_latency=draw(st.sampled_from([0, 1])), collect_trace=True,
        faults=faults)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(cfg=refill_budgets())
def test_refill_budgets_match_reference_fuzz(cfg):
    """Fetch words over a refill budget of one give what the reference
    gives: conflicts, underflows and hazards owing fetch reads."""
    try:
        Engine(cfg)
    except ConfigError:
        assume(False)
    assert_same_run(cfg)


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


def upper0_flips(*cycles):
    """Baseline 64x8 on one column with upper word 0 flipped at `cycles`.
    The word is written at cycles 0, 32, 64 and 96 and its value read at
    31, 63, 95 and 127."""
    return SimConfig(ImageGeometry(64, 8), SliceLayout(1, 1), preset_baseline(),
                     faults=[FaultSpec("flip_word", buffer="upper",
                                       word_index=0, cycle=c) for c in cycles])


@pytest.mark.parametrize("second", range(2, 32))
def test_cancelling_flip_pair_rejected_by_both_engines(second):
    """A flip at cycle 1 and a second one before the word's read at 31
    undo each other: the read sees both, and both engines reject the
    pair by the second flip's cycle."""
    assert assert_same_rejection(upper0_flips(1, second)) == (
        f"flip_word upper word 0 at cycle 1 is undone by its flip at cycle "
        f"{second}: no write or read of the word falls between them")


def test_flip_pair_with_a_use_between_runs_or_rejects_as_unseen():
    """Flips at 1, 31 and 40 are rejected for the 1/31 pair.  The read at
    31 and the write at 32 lie between 31 and 40, so flips at 31 and 40
    alone fail the run: each is seen by one read, 8 pixels each.  A flip
    at 32 lands before that write and is seen by no read."""
    assert "at cycle 1 is undone by its flip at cycle 31" in \
        assert_same_rejection(upper0_flips(1, 31, 40))
    want = assert_same_run(upper0_flips(31, 40))
    assert want["counts"]["output_mismatches"] == 16
    assert "at cycle 32 is seen by no read" in \
        assert_same_rejection(upper0_flips(1, 32))


@pytest.mark.parametrize("name,cols", [
    pytest.param(name, cols, id=name if cols == 1 else f"{name}-cols{cols}")
    for cols in (1, 2) for name in PRESETS])
def test_late_flip_matches_reference(monkeypatch, name, cols):
    """A flip in blockline 7 of a 320x64 frame, shifted six blocklines from
    flip_182, lands where the clean run already replays its class.  A pass
    that the flip can still reach keeps no record, so the run checks every
    blockline up to the one that rewrites the flipped word (blockline 8),
    then replays 20 of its 32 blocklines (21 with two line buffers, whose
    blockline parities share one class template), and matches the
    reference.  With 2 columns, the columns of a checked pass and the
    checked passes share admissions worked out once."""
    cfg = SimConfig(ImageGeometry(320, 64), SliceLayout(cols, 1),
                    preset_by_name(name), collect_trace=True)
    assert Engine(cfg).run().blocklines_replayed > 0
    flip = 182 + 6 * 160
    cfg.faults = [FaultSpec("flip_word", buffer="lower0", word_index=5,
                            cycle=flip)]
    want = assert_same_run(cfg)
    assert want["counts"]["output_mismatches"] > 0
    checked = []   # the blocklines served by a check, not a replay
    serve = Engine._serve_window

    def spy(self, bl, *args):
        checked.append(bl)
        return serve(self, bl, *args)

    monkeypatch.setattr(Engine, "_serve_window", spy)
    eng = Engine(cfg)
    res = eng.run()
    rewrite = min(c for c in eng._watches[0].writes if c >= flip)
    rewrite_bl = rewrite // (CYCLES_PER_SLOT * eng.sched.slots_per_blockline)
    assert rewrite_bl == 8
    assert checked[:rewrite_bl + 1] == list(range(rewrite_bl + 1))
    assert res.blocklines_replayed == (20 if name == "baseline" else 21)


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


@pytest.mark.parametrize("name,fault,cols", [
    *(pytest.param(name, fault, 1, id=f"{name}-{fault}") for name, fault in (
        ("type1", "fetch_budget"), ("type2", "banks"), ("baseline", "capacity"),
        ("type1", "capacity"), ("type2", "capacity"))),
    ("type1", "fetch_budget", 4), ("type2", "banks", 4)])
def test_blocklines_with_violations_replay(name, fault, cols):
    """Conflicts, hazards, underflows and availability misses follow from
    the class and the carried state, so a 320x128 run that logs them in
    every blockline still replays, traced and untraced, and gives what the
    reference gives.  On 4 columns every replayed pass drains its class's
    conflicts in the drain order its record keeps."""
    cfg = SimConfig(ImageGeometry(320, 128), SliceLayout(cols, 1),
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


def test_columns_of_a_pass_admit_their_own_entries():
    """A streaming arch that keeps the previous line resident, with one
    bank per buffer and a one-line delay, on 2 columns: conflicts deny
    some previous-line fetches of one column and not of the other, so the
    columns of a pass admit different entries, each looked up by its own
    entry codes.  The 320x32 run, traced and untraced, gives what the
    reference gives."""
    preset = ArchPreset("custom", ONE_LINE, 2, 1, STREAMING, 1,
                        {"prev": RESIDENT, "row0": RESIDENT, "row1": FETCH},
                        forwarding=True)
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(2, 1), preset,
                    collect_trace=True)
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


def test_availability_misses_replay_with_their_samples():
    """A miss sample names its slot from the pass start, and a record keeps
    its pass's samples, so a replay notes them at its own slots while the
    16 detail samples have room.  With no recon capacity an 8x12 baseline
    frame misses in 5 slots, one per blockline after the first: the
    samples never fill, one blockline replays, and the samples equal the
    reference's."""
    cfg = SimConfig(ImageGeometry(8, 12), SliceLayout(1, 1),
                    preset_by_name("baseline"), collect_trace=True,
                    faults=[FaultSpec("capacity_override", value=0)])
    want = assert_same_run(cfg)
    assert [t for t, _, _ in want["details"]["availability_misses"]] == \
        [1, 2, 3, 4, 5]
    assert Engine(cfg).run().blocklines_replayed == 1


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
    rows = ReferenceEngine(cfg).run().trace_rows
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


def edit_first_write(monkeypatch, slot, field, edit):
    """Make both engines' planner apply `edit` to `field` of the first
    write of the block decoded in `slot`."""
    planned = Scheduler.booking_arrays

    def edited(self, bl):
        b = planned(self, bl)
        i = np.flatnonzero((b[BLOCK] == slot) & (b[PURPOSE] == WRITE))
        if i.size:
            b[field, i[0]] = edit(b[field, i[0]])
        return b

    monkeypatch.setattr(Scheduler, "booking_arrays", edited)


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("slot", [3, 40])
def test_booking_behind_a_bank_frontier_rejected(monkeypatch, name, slot):
    """A schedule that books a bank behind a cycle the bank has already
    committed is a ConfigError with the same message in both engines:
    within a blockline (slot 3) and across blocklines (slot 40 opens
    blockline 1 at 320 pixels wide).  The slot's first write moves two
    slots back in the planner both engines read."""
    edit_first_write(monkeypatch, slot, CYCLE,
                     lambda c: c - 2 * CYCLES_PER_SLOT)
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(1, 1),
                    preset_by_name(name))
    assert "behind frontier" in assert_same_rejection(cfg)


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("slot", [3, 40])
def test_booking_ahead_puts_the_next_bookings_behind(monkeypatch, name,
                                                     slot):
    """A write moved two slots later stays in its own slot, whose cycles
    it books ahead of: the bookings of its bank in the next slots, each
    planned as usual, fall behind the frontier its commit leaves, and both
    engines reject the run with the same message."""
    edit_first_write(monkeypatch, slot, CYCLE,
                     lambda c: c + 2 * CYCLES_PER_SLOT)
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(1, 1),
                    preset_by_name(name))
    assert assert_same_rejection(cfg).endswith(
        f"behind frontier {CYCLES_PER_SLOT * (slot + 2) + 1}")


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("slot", [3, 40])
def test_booking_outside_the_buffer_rejected(monkeypatch, name, slot):
    """A write to word 480, one past a line buffer's last word, is a
    ConfigError with the same message in both engines, in a slot that is
    otherwise planned like others of its blockline (slot 3) and in the
    slot that opens blockline 1 (slot 40)."""
    edit_first_write(monkeypatch, slot, WORD, lambda w: 480)
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(1, 1),
                    preset_by_name(name))
    assert assert_same_rejection(cfg) == "word 480 outside 0..479"


@pytest.mark.parametrize("name", PRESETS)
def test_later_template_rejection_waits_for_its_class(monkeypatch, name):
    """The engine builds every class template before its first pass, but
    a template's ConfigError is raised when the run reaches the template's
    class.  The write that opens the last blockline (slot 600) leaves the
    buffer, which its template rejects; moving the write that opens
    blockline 1 (slot 40) two slots back puts it behind the frontier
    blockline 0 leaves, which blockline 1's template does not see and its
    cross-pass check rejects first.  Both engines give the same message
    each time."""
    cfg = SimConfig(ImageGeometry(320, 32), SliceLayout(1, 1),
                    preset_by_name(name))
    edit_first_write(monkeypatch, 600, WORD, lambda w: 480)
    assert assert_same_rejection(cfg) == "word 480 outside 0..479"
    edit_first_write(monkeypatch, 40, CYCLE,
                     lambda c: c - 2 * CYCLES_PER_SLOT)
    assert assert_same_rejection(cfg).startswith(
        f"access at cycle {CYCLES_PER_SLOT * 38} behind frontier ")


@pytest.mark.parametrize("name", PRESETS)
def test_engine_matches_reference_at_full_width(name):
    """The north-star width, 3840 pixels on 4 columns, over a band of 16
    blocklines: 120-word slices, whose templates hold 2,000 to 3,300
    bookings each, traced."""
    assert_same_run(SimConfig(ImageGeometry(3840, 32), SliceLayout(4, 1),
                              preset_by_name(name), collect_trace=True))


def test_recon_peak_is_the_most_any_pass_reaches():
    """A column's recon peak is the largest of all its passes, not its
    last pass's.  With one bank per lower buffer and the previous line
    resident, column 1's display reads win the cycles of the warm-up
    fetches each blockline makes for column 0 of the next one, so from
    blockline 2 on column 0 admits fewer previous-line pixels and its
    last pass peaks at 24: its peak, 32, is blockline 1's."""
    preset = replace(preset_by_name("type2"), banks_per_buffer=1,
                     residency={"prev": RESIDENT, "row0": RESIDENT,
                                "row1": FETCH})
    want = assert_same_run(SimConfig(ImageGeometry(64, 8), SliceLayout(2, 1),
                                     preset))
    assert want["peak_recon_per_column"] == [32, 32]
    assert want["counts"]["conflicts"] == 4
