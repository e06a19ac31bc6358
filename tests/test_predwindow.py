import pytest

from dbemem.engine import Engine, SimConfig
from dbemem.errors import ConfigError
from dbemem.geometry import ImageGeometry, SliceLayout
from dbemem.predwindow import ReconBufferState, WindowSpec
from dbemem.reference import ReferenceEngine
from dbemem.sched import (preset_baseline, preset_by_name, preset_type1,
                          preset_type2)

PRESETS = ("baseline", "type1", "type2")


def engine_for(name, width=640, height=64, engine=Engine):
    return engine(SimConfig(ImageGeometry(width, height), SliceLayout(1, 1),
                            preset_by_name(name)))


@pytest.fixture(scope="module")
def window_px():
    """Window pixels per block, (preset, block_x, blockline) -> count, as
    the reference engine's per-block window service accounts them on clean
    640x64 runs: every unclipped window pixel is served, missed or
    mismatched, exactly once.  The differential tests hold `Engine` to it."""
    out = {}
    for name in PRESETS:
        eng = engine_for(name, engine=ReferenceEngine)
        serve = eng._serve_window

        def record(slot, bl, c, bx, col, name=name, serve=serve):
            got = serve(slot, bl, c, bx, col)
            out[name, bx, bl] = sum(got)
            return got

        eng._serve_window = record
        assert eng.run().passed
    return out


def test_default_spec_totals():
    spec = WindowSpec()
    assert spec.total_pixels() == 106
    assert spec.span("prev") == (-8, 32)
    assert spec.span("row0") == (-33, -1)
    assert spec.span("row1") == (-32, -1)


def test_spans_validate():
    with pytest.raises(ConfigError):
        WindowSpec(cur_row0_span=(-4, 0))   # must stay left of the block
    with pytest.raises(ConfigError):
        WindowSpec(prev_line_span=(5, 2))
    # no offset at or past the widest slice's 3,840 pixels lands in a slice
    for span in ((-8, 3840), (-3840, 32), (-8, 1000000)):
        with pytest.raises(ConfigError, match="widest slice"):
            WindowSpec(prev_line_span=span)
    with pytest.raises(ConfigError, match="widest slice"):
        WindowSpec(cur_row0_span=(-3840, -1))
    WindowSpec((-3839, 3839), (-3839, -1), (-3839, -1))


def test_interior_window_is_106(window_px):
    assert WindowSpec().total_pixels() == 41 + 33 + 32 == 106
    for name in PRESETS:
        assert window_px[name, 10, 3] == 106


def test_first_blockline_drops_prev(window_px):
    for name in PRESETS:
        assert window_px[name, 10, 0] == 106 - 41


def test_leftmost_block_clipped(window_px):
    # rows entirely left of the block vanish; prev keeps [0, +32]
    for name in PRESETS:
        assert window_px[name, 0, 3] == 33


def test_rightmost_block_clipped(window_px):
    # prev keeps [left-8, slice end]: 16 px
    for name in PRESETS:
        assert window_px[name, 79, 3] == 16 + 33 + 32


def test_forwarded_set():
    # with forwarding, the previous block (the 8 px left of the block on
    # each current row) is served from the pipe and never stored
    parts = engine_for("type1")._parts
    assert parts["row0"] == [(-33, -9, "resident"), (-8, -1, "forwarded")]
    assert parts["row1"] == [(-32, -9, "resident"), (-8, -1, "forwarded")]
    assert parts["prev"] == [(-8, 32, "resident")]
    assert engine_for("type2")._parts["row1"] == [(-32, -9, "fetch"),
                                                 (-8, -1, "forwarded")]
    assert all(route != "forwarded" for p in engine_for("baseline")
               ._parts.values() for _, _, route in p)
    rows = preset_type1().resident_positions(WindowSpec())
    assert max(rows["row0"]) == max(rows["row1"]) == -9


def test_policy_resident_counts():
    spec = WindowSpec()
    assert preset_baseline().capacity_for(spec) == 106
    assert preset_type1().capacity_for(spec) == 90
    assert preset_type2().capacity_for(spec) == 25


def held(state):
    """How many positions of the buffer hold a pixel."""
    return sum(v.bit_count() for v in state.valid.values())


def test_recon_slide_and_read():
    spec = WindowSpec()
    state = ReconBufferState(spec, preset_baseline(), 106)
    assert state.admit_run("row0", -8, 0xFF) == 8
    assert held(state) == 8
    assert state.valid_at("row0", -33, 33).tolist() == [False] * 25 + [True] * 8
    state.slide()
    assert state.valid_at("row0", -16, 8).all()
    assert not state.valid_at("row0", -8, 8).any()   # slid out, nothing admitted
    assert held(state) == 8
    # only the set bits are admitted, each at rel0 + its bit index
    assert state.admit_run("row0", -8, 0b101) == 2
    assert state.valid_at("row0", -8, 3).tolist() == [True, False, True]
    assert held(state) == state.peak_occupancy == 10


def test_recon_capacity_rejects_newest():
    spec = WindowSpec()
    state = ReconBufferState(spec, preset_type2(), 24)
    # row0 resident span holds 25 positions [-33, -9]; cap 24 rejects one
    for start in (-33, -25, -17):
        state.admit_run("row0", start, 0xFF)
    assert state.admit_run("row0", -9, 0b1) == 0
    assert held(state) == 24
    assert not state.valid_at("row0", -9, 1).any()
    assert state.valid_at("row0", -33, 24).all()
    state.slide()                    # the rejected pixel stays invalid
    assert not state.valid_at("row0", -17, 1).any()
    assert held(state) == 16
    # a run that only partly fits keeps its oldest (lowest) positions
    state = ReconBufferState(spec, preset_type2(), 20)
    state.admit_run("row0", -33, 0xFF)
    state.admit_run("row0", -25, 0xFF)
    assert state.admit_run("row0", -17, 0xFF) == 4
    assert state.valid_at("row0", -17, 8).tolist() == [True] * 4 + [False] * 4


def test_streaming_policy_ignores_fetch_sections():
    spec = WindowSpec()
    state = ReconBufferState(spec, preset_type2(), 25)
    kept = state.admit_run("prev", 0, 0xFF)
    assert kept == 0
    assert held(state) == 0
