import contextlib
import io
import itertools
import json
import os
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dbemem import shell
from dbemem.cli import cli_main
from dbemem.engine import Engine, FaultSpec, SimConfig, run_simulation
from dbemem.errors import ConfigError
from dbemem.geometry import ImageGeometry, Interleave, SliceLayout
from dbemem.predwindow import WindowSpec
from dbemem.sched import (CYCLE, preset_baseline, preset_by_name,
                          preset_type1, preset_type2)
from dbemem.shell import (TRACE_HEADER, build_report, buffer_accounting,
                          emit_report, emit_trace, parse_config, parse_trace,
                          report_to_text, throughput_metrics)

from test_report_digests import NEGATIVE

CFG = {
    "image": {"width": 320, "height": 32},
    "slices": {"columns": 1, "rows": 1},
    "arch": "type2",
    "clock_mhz": 200,
    "seed": 0,
}


def trace_of(res):
    """The rows of the CSV trace `emit_trace` writes of run `res`, the
    engine's one trace output, as `parse_trace` reads them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        emit_trace(res, path)
        with open(path) as fh:
            return parse_trace(fh.read())
# type2's documented fields, spelt out as a custom arch object
TYPE2_FIELDS = {"name": "type2", "line_delay": "half_line", "line_buffers": 2,
                "banks_per_buffer": 2, "fetch_kind": "streaming",
                "fetch_words_per_slot": 1, "forwarding": True,
                "residency": {"prev": "fetch", "row0": "resident",
                              "row1": "fetch"}}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_line_buffer_accounting():
    base = buffer_accounting(preset_baseline(), 1, WindowSpec(),
                             preset_baseline().capacity_for(WindowSpec()))
    assert base["line_buffer_bits_total"] == 3 * 480 * 256 == 368640
    t1 = buffer_accounting(preset_type1(), 1, WindowSpec(),
                           preset_type1().capacity_for(WindowSpec()))
    assert t1["line_buffer_bits_total"] == 2 * 480 * 256 == 245760
    assert t1["reductions_vs_baseline"]["line_buffer_pct"] == 33.33
    assert base["line_buffer_bits_total"] - t1["line_buffer_bits_total"] == 122880


def test_recon_accounting_type2_four_slices():
    acct = buffer_accounting(preset_type2(), 4, WindowSpec(),
                             preset_type2().capacity_for(WindowSpec()))
    assert acct["recon_pixels_per_slice"] == 25
    assert acct["recon_bits_total"] == 4 * 25 * 30 == 3000
    assert acct["recon_bytes_total"] == 375.0
    assert acct["recon_bytes_per_slice_rounded"] == 94
    assert acct["reductions_vs_baseline"]["recon_pct"] == 76.42


def test_throughput_metrics():
    m = throughput_metrics(200e6, 3840, 2160)
    assert m["mpixels_per_sec"] == 800.0
    assert m["fps"] == 96.45
    assert throughput_metrics(200e6, 1920, 1080)["fps"] == 385.80
    with pytest.raises(ConfigError):
        throughput_metrics(0, 3840, 2160)


def test_report_roundtrip_and_determinism(tmp_path):
    cfg = parse_config(json.dumps(CFG))
    rep1 = build_report(run_simulation(cfg))
    rep2 = build_report(run_simulation(cfg))
    t1, t2 = report_to_text(rep1), report_to_text(rep2)
    assert t1 == t2
    parsed = json.loads(t1)
    assert parsed["recon_pixels_per_slice"] == 25
    assert parsed["passed"] is True
    p = tmp_path / "rep.json"
    emit_report(rep1, p)
    assert json.loads(p.read_text()) == parsed


def test_trace_emit_parse_replay(tmp_path):
    cfg = parse_config(json.dumps({**CFG, "trace": True}))
    res = run_simulation(cfg)
    p = tmp_path / "trace.csv"
    emit_trace(res, p)
    rows = parse_trace(p.read_text())
    assert len(rows) == len(res.trace_rows)
    cycles = [r[0] for r in rows]
    assert cycles == sorted(cycles)
    # replaying the trace reproduces the violation counts (zero here)
    assert sum(1 for r in rows if r[4] in ("conflict", "hazard", "underflow")) == 0
    # one row per granted access
    ops = {r[4] for r in rows}
    assert ops == {"read", "write"}


def test_trace_replay_reproduces_violation_counts(tmp_path):
    data = {**CFG, "arch": "type1", "trace": True,
            "faults": [{"kind": "fetch_budget_override", "value": 2}]}
    cfg = parse_config(json.dumps(data))
    res = run_simulation(cfg)
    p = tmp_path / "trace.csv"
    emit_trace(res, p)
    rows = parse_trace(p.read_text())
    replayed = sum(1 for r in rows if r[4] == "conflict")
    assert replayed == res.violations.conflicts > 0


def test_trace_format_built_once_per_template_and_drain_order(monkeypatch):
    """A flip after its word's last write stays live, so every pass is
    checked and works out a drain order of its own; the trace still builds
    one format string per template and drain order content, not per
    pass."""
    data = {"image": {"width": 640, "height": 128}, "arch": "type1",
            "trace": True, "faults": [
                {"kind": "fetch_budget_override", "value": 2},
                # lower0 word 5 is last written at 20180, displayed at 20489
                {"kind": "flip_word", "buffer": "lower0", "word_index": 5,
                 "cycle": 20200}]}
    res = run_simulation(parse_config(json.dumps(data)))
    entries = res.trace_rows.entries
    assert res.blocklines_replayed == 0 and res.violations.conflicts > 0
    built = []
    build = shell._pass_format
    monkeypatch.setattr(shell, "_pass_format", lambda tm, order: (
        built.append(tm), build(tm, order))[1])
    rows = trace_of(res)
    assert len(rows) == len(res.trace_rows) + len(res.violation_rows)
    distinct = {(tm, order and (order[1].tobytes(), order[3].tobytes()))
                for tm, _, order in entries}
    assert len(built) == len(distinct) < len(entries)


@pytest.mark.parametrize("name", ["baseline", "type1", "type2"])
def test_each_pass_books_after_every_earlier_pass(name):
    """`emit_trace` orders the file by sorting each pass on its own: every
    cycle a blockline's pass books lies after every cycle of the passes
    before it, on every column count, interleave and read latency, with
    and without a line-buffer override."""
    override = FaultSpec("line_buffers_override",
                         value=2 if name == "baseline" else 3)
    for cols, interleave, latency, faults in itertools.product(
            (1, 2, 4), Interleave, (0, 1), ([], [override])):
        sched = Engine(SimConfig(
            ImageGeometry(320, 32), SliceLayout(cols, 1),
            preset_by_name(name), interleave=interleave,
            sram_read_latency=latency, faults=faults)).sched
        spans = [(b[CYCLE].min(), b[CYCLE].max()) for b in map(
            sched.booking_arrays, range(sched.plan.total_blocklines))]
        assert all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


@pytest.mark.parametrize("name", sorted(NEGATIVE))
def test_trace_row_counts_are_the_csv_rows(tmp_path, name):
    """The benchmark counts a traced run's rows as len(trace_rows) +
    len(violation_rows): on each negative run of the digest pins that is
    the CSV's data-row count, with one violation row per conflict, hazard
    and underflow."""
    res = run_simulation(parse_config(json.dumps(NEGATIVE[name][0])))
    p = tmp_path / "trace.csv"
    emit_trace(res, p)
    text = p.read_text()
    rows = parse_trace(text)
    assert len(res.trace_rows) + len(res.violation_rows) == len(rows)
    v = res.violations
    assert len(res.violation_rows) == v.conflicts + v.hazards + v.underflows
    assert len(res.violation_rows) > 0
    # the whole file, read back a chunk at a time, gives the line-by-line
    # reader's rows, typed alike, and one object per distinct text field
    assert rows == parse_trace_by_line(text)
    assert {tuple(map(type, row)) for row in rows} == {ROW_TYPES}
    for k in (2, 4, 6):
        assert len({id(row[k]) for row in rows}) == len({row[k] for row in rows})


def test_accounting_identities_random_presets():
    import random
    from dbemem.predwindow import RESIDENT, SECTIONS
    from dbemem.sched import ArchPreset
    rng = random.Random(3)
    for _ in range(50):
        px = rng.randint(1, 200)
        cols = rng.choice([1, 2, 4])
        buffers = rng.choice([2, 3])
        preset = ArchPreset(
            name="custom", line_delay="one_line", line_buffers=buffers,
            banks_per_buffer=1, fetch_kind="refill", fetch_words_per_slot=1,
            residency=dict.fromkeys(SECTIONS, RESIDENT), forwarding=False,
            capacity_pixels=px)
        acct = buffer_accounting(preset, cols, WindowSpec(),
                                 preset.capacity_for(WindowSpec()))
        assert acct["line_buffer_bits_total"] == buffers * 480 * 256
        assert acct["recon_bits_per_slice"] == px * 30
        assert acct["recon_bits_total"] == cols * px * 30
        assert acct["recon_bytes_per_slice_rounded"] == -(-px * 30 // 8)
        lb_pct = acct["reductions_vs_baseline"]["line_buffer_pct"]
        assert lb_pct == round(100 * (1 - buffers / 3), 2)


def test_empty_trace_header_only(tmp_path):
    cfg = parse_config(json.dumps(CFG))  # trace collection off
    res = run_simulation(cfg)
    p = tmp_path / "trace.csv"
    emit_trace(res, p)
    assert p.read_text().strip() == "cycle,slice,buffer,bank,op,word,purpose,block"


@pytest.mark.parametrize("row,why", [
    ("1,2,3", "not enough values"),
    ("x,0,upper,0,read,3,display_read,-1", "invalid literal"),
])
def test_malformed_trace_row_names_its_line(row, why):
    good = "5,0,upper,0,read,3,display_read,-1"
    text = "\n".join(["cycle,slice,buffer,bank,op,word,purpose,block",
                      good, row, good])
    with pytest.raises(ConfigError, match=f"trace line 3: {why}"):
        parse_trace(text)


# -- trace read-back ------------------------------------------------------------

ROW_TYPES = (int, int, str, int, str, int, str, int)


def parse_trace_by_line(text: str):
    """The trace reader that splits the whole text into lines at once: the
    reference `parse_trace` is pinned to."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ConfigError("trace file missing the expected header")
    out = []
    for n, line in enumerate(lines[1:], start=2):
        try:
            cyc, sl, buf, bank, op, word, purpose, block = line.split(",")
            out.append((int(cyc), int(sl), buf, int(bank), op, int(word),
                        purpose, int(block)))
        except ValueError as e:
            raise ConfigError(f"trace line {n}: {e}") from None
    return out


def outcome(parse, text):
    """What `parse` makes of `text`: its rows, or its ConfigError's text."""
    try:
        return parse(text)
    except ConfigError as e:
        return str(e)


def outcome_within(text, seconds=10.0):
    """`outcome(parse_trace, text)`, which must come back within `seconds`:
    a chunk loop that makes no progress never does."""
    got = []
    worker = threading.Thread(
        target=lambda: got.append(outcome(parse_trace, text)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "parse_trace did not return"
    return got[0]


@pytest.fixture(scope="module")
def negative_csv_lines():
    """The lines of the CSV trace of each negative run of the digest pins."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, _, _) in NEGATIVE.items():
            path = os.path.join(tmp, f"{name}.csv")
            emit_trace(run_simulation(parse_config(json.dumps(config))), path)
            with open(path) as fh:
                out[name] = fh.read().splitlines()
    return out


# every line separator of str.splitlines but "\n" and "\r\n"
RARE_SEPARATORS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029")


def mutated_trace(lines, mutation, at, sep):
    """CSV text from trace `lines` (its header first) changed by
    `mutation` at data line `at`; `sep` is a rare line separator."""
    lines = list(lines)
    i = 1 + at % max(len(lines) - 1, 1)
    if mutation == "header_only":
        lines = lines[:1]
    elif len(lines) > 1:
        row = lines[i]
        edits = {
            "drop": [], "duplicate": [row, row], "blank": [""],
            "truncate": [row[:at % len(row)]],
            "extra_field": [row + ",7"],
            "non_integer": [row.replace(",", ",x", 1)],
            "float_field": ["1.5" + row[row.index(","):]],
            "rare_separator": [row + sep + row],
            "inner_space": [" " + row.replace(",", " ,", 1)],
        }
        if mutation in edits:
            lines[i:i + 1] = edits[mutation]
    text = "\r\n".join(lines) if mutation == "crlf" else "\n".join(lines)
    if mutation == "surrounding_space":
        return " \t\n" + text + "\t\x0c \n\x0c"
    return text if mutation == "no_final_newline" else text + "\n"


@pytest.mark.parametrize("mutation", [
    "none", "drop", "duplicate", "blank", "truncate", "extra_field",
    "non_integer", "float_field", "rare_separator", "inner_space", "crlf",
    "no_final_newline", "header_only", "surrounding_space"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(NEGATIVE)), start=st.integers(0, 10**5),
       length=st.integers(1, 2000), at=st.integers(0, 10**5),
       sep=st.sampled_from(RARE_SEPARATORS),
       chunk=st.sampled_from([1, 3, 50, 4096, shell._TRACE_CHUNK]))
def test_parse_trace_matches_line_by_line_reader_fuzz(
        negative_csv_lines, name, start, length, mutation, at, sep, chunk):
    """A stretch of a negative run's CSV, mutated, read a chunk at a time
    at several chunk sizes: the same rows as the line-by-line reader, or
    a ConfigError naming the same line."""
    header, *body = negative_csv_lines[name]
    start %= len(body)
    text = mutated_trace([header, *body[start:start + length]], mutation,
                         at, sep)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shell, "_TRACE_CHUNK", chunk)
        assert outcome_within(text) == outcome(parse_trace_by_line, text)


@pytest.mark.parametrize("chunk", [1, 2, 7, 40])
def test_parse_trace_chunk_boundaries(monkeypatch, chunk):
    """Chunks shorter than a line: a line longer than every chunk, a last
    line with no newline and a header alone each come back, and equal the
    line-by-line reader's."""
    rows = [f"{c},0,lower{c % 2},0,read,{c},display_read,-1"
            for c in range(20)]
    long_row = "5,0," + "lower0" * 50 + ",0,read,3,display_read,-1"
    texts = [
        "\n".join([TRACE_HEADER, *rows]),
        "\n".join([TRACE_HEADER, *rows[:5], long_row, *rows[5:]]) + "\n",
        "\n".join([TRACE_HEADER, *rows, long_row]),
        "\r\n".join([TRACE_HEADER, long_row, *rows]),
        "\n".join([TRACE_HEADER, *rows[:3], "1,2,3", *rows[3:]]),
        "\n".join([TRACE_HEADER, *rows]) + "\t\x0c \n",
        TRACE_HEADER,
        TRACE_HEADER + "\t\x0c \n",
        "  " + TRACE_HEADER + "x\n" + rows[0],
        "",
    ]
    monkeypatch.setattr(shell, "_TRACE_CHUNK", chunk)
    got = [outcome_within(text) for text in texts]
    assert got == [outcome(parse_trace_by_line, text) for text in texts]
    assert len(got[2]) == 21 and got[2][-1][2] == "lower0" * 50
    assert got[4] == "trace line 5: not enough values to unpack " \
                     "(expected 8, got 3)"
    assert len(got[5]) == 20 and got[6] == got[7] == []


def test_parse_trace_shares_text_fields(monkeypatch):
    """Rows with the same buffer, op or purpose text hold the same string
    object, across chunks too; a row holds nothing of its line."""
    monkeypatch.setattr(shell, "_TRACE_CHUNK", 16)
    rows = parse_trace("\n".join(
        [TRACE_HEADER] + [f"{c},-1,upper,0,{op},{c},{purpose},-1"
                          for c, op, purpose in ((4, "read", "display_read"),
                                                 (8, "conflict", "recon"),
                                                 (12, "read", "recon"),
                                                 (16, "conflict",
                                                  "display_read"))]))
    assert [tuple(map(type, row)) for row in rows] == [ROW_TYPES] * 4
    first, second, third, fourth = rows
    assert first[2] is second[2] is third[2] is fourth[2] == "upper"
    assert first[4] is third[4] and second[4] is fourth[4]
    assert first[6] is fourth[6] and second[6] is third[6]


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config(json.dumps({**CFG, "bogus": 1}))
    with pytest.raises(ConfigError):
        parse_config(json.dumps({**CFG, "image": {**CFG["image"], "depth": 8}}))
    with pytest.raises(ConfigError):
        parse_config("not json")


def test_config_custom_arch_and_window():
    data = {**CFG,
            "arch": dict(TYPE2_FIELDS, name="custom"),
            "window_spec": {"prev_line_span": [-8, 32],
                            "cur_row0_span": [-33, -1],
                            "cur_row1_span": [-32, -1]}}
    cfg = parse_config(json.dumps(data))
    assert cfg.preset.name == "custom"
    assert cfg.window == WindowSpec()
    res = run_simulation(cfg)
    assert res.passed
    assert max(res.peak_recon_per_column) == 25


def test_custom_arch_spelling_type2_reports_as_type2():
    """A streaming lower row implies the reconvert unit: type2's fields
    spelt out, with no key for the unit, are type2, report for report."""
    named, spelt = (parse_config(json.dumps(
        {"image": {"width": 640, "height": 128}, "arch": arch}))
        for arch in ("type2", TYPE2_FIELDS))
    assert report_to_text(build_report(run_simulation(spelt))) \
        == report_to_text(build_report(run_simulation(named)))
    assert spelt == named


def test_config_defaults():
    cfg = parse_config(json.dumps({"image": {"width": 320, "height": 32}}))
    assert cfg == SimConfig(ImageGeometry(320, 32), SliceLayout(),
                            preset_baseline(),
                            interleave=Interleave.COLUMN_MAJOR)
    assert cfg.preset.name == "baseline"
    assert cfg.clock_hz == 200e6
    assert cfg.slices.columns == 1
    # a custom arch object's omitted keys are the baseline preset's
    cfg = parse_config(json.dumps({"image": {"width": 320, "height": 32},
                                   "arch": {}}))
    assert cfg.preset == replace(preset_baseline(), name="custom")


def test_readme_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert (cfg.image.width, cfg.slices.columns, cfg.preset.name) \
        == (3840, 4, "type2")


# -- CLI -------------------------------------------------------------------------


def test_cli_fps(capsys):
    assert cli_main(["fps", "--width", "3840", "--height", "2160"]) == 0
    out = capsys.readouterr().out
    assert "800.00 Mpix/s" in out
    assert "96.45 fps" in out


@pytest.mark.parametrize("mhz", ["nan", "inf", "0"])
def test_cli_fps_non_finite_clock_exit_two(capsys, mhz):
    """A clock that is not positive and finite has no throughput."""
    assert cli_main(["fps", "--width", "3840", "--height", "2160",
                     "--mhz", mhz]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("width, height", [(0, 10), (3840, -1)])
def test_cli_fps_bad_frame_names_every_input(capsys, width, height):
    """A frame with no pixels has no frame rate; the message names the
    clock, the width and the height."""
    assert cli_main(["fps", "--width", str(width), "--height", str(height)]) \
        == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: throughput metrics need positive inputs and a finite clock, "
        f"got 200000000.0 Hz, width {width} and height {height}\n")


def test_cli_simulate_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CFG)
    rep = tmp_path / "r.json"
    trc = tmp_path / "t.csv"
    code = cli_main(["simulate", "--config", cfg, "--report", str(rep),
                     "--trace", str(trc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert rep.exists() and trc.exists()


def test_cli_simulate_fail_exit_one(tmp_path, capsys):
    data = {**CFG, "faults": [{"kind": "banks_override", "value": 1}]}
    code = cli_main(["simulate", "--config", write_cfg(tmp_path, data)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_compare(tmp_path, capsys):
    code = cli_main(["compare", "--config", write_cfg(tmp_path, CFG)])
    out = capsys.readouterr().out
    assert code == 0
    assert "33.33" in out
    for token in ("106", "90", "25"):
        assert token in out


def test_cli_explore(tmp_path, capsys):
    code = cli_main(["explore", "--config", write_cfg(tmp_path, CFG)])
    out = capsys.readouterr().out
    assert code == 0
    assert "106" in out and "90" in out and "25" in out


def test_cli_missing_file_exit_two(capsys):
    assert cli_main(["simulate", "--config", "/nonexistent.json"]) == 2


def test_cli_unknown_flag_exit_two():
    with pytest.raises(SystemExit) as e:
        cli_main(["fps", "--bogus", "1"])
    assert e.value.code == 2


def test_cli_fps_takes_no_pixels_per_cycle():
    # the decoder takes 4 pixels per cycle, which is no option
    with pytest.raises(SystemExit) as e:
        cli_main(["fps", "--width", "3840", "--height", "2160", "--ppc", "4"])
    assert e.value.code == 2


def test_cli_bad_config_exit_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"image\": {\"width\": 321, \"height\": 32}}")
    assert cli_main(["simulate", "--config", str(p)]) == 2


@pytest.mark.parametrize("content,why", [
    (b'\xff\xfe{"image": 1}', "not UTF-8"),
    (b"[" * 100000 + b"]" * 100000 + b"\n", "nests too deeply"),
], ids=["not_utf8", "nested_too_deep"])
def test_cli_unreadable_config_exit_two(tmp_path, capsys, content, why):
    """A config file that is not UTF-8 text, or JSON nested deeper than
    the parser can follow, is a config error, not a crash."""
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    assert cli_main(["simulate", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and why in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", [
    {"kind": "flip_word", "buffer": "lower0", "word_index": 0},
    {"kind": "flip_word", "buffer": "lower0", "word_index": 0, "cycle": -1},
    {"kind": "flip_word", "buffer": "lower0", "word_index": 0, "cycle": 10**9},
    {"kind": "flip_word", "buffer": "nope", "word_index": 0, "cycle": 100},
    {"kind": "flip_word", "buffer": "lower1", "word_index": 0, "cycle": 100},
    {"kind": "flip_word", "buffer": "lower0", "word_index": 9999, "cycle": 100},
    {"kind": "flip_word", "buffer": "lower0", "cycle": 100},
    {"kind": "flip_word", "buffer": "lower0", "word_index": "0", "cycle": 100},
    {"kind": "flip_word", "word_index": 0, "cycle": 100},
])
def test_cli_malformed_flip_word_exit_two(tmp_path, capsys, fault):
    """A flip_word fault that could not change the run is rejected."""
    data = dict(CFG, faults=[fault])
    assert cli_main(["simulate", "--config", write_cfg(tmp_path, data)]) == 2
    assert "flip_word" in capsys.readouterr().err


def test_cli_display_slip_exit_two(tmp_path, capsys):
    """A registered read lead longer than the display latency would read
    display word 0 before cycle 0: a config error, not a crash."""
    data = {"image": {"width": 8, "height": 4}, "arch": "type1",
            "sram_read_latency": 1}
    assert cli_main(["simulate", "--config", write_cfg(tmp_path, data)]) == 2
    assert "before the frame starts" in capsys.readouterr().err


def _fault_cfg(kind, value, arch="type2"):
    return dict(CFG, arch=arch, faults=[{"kind": kind, "value": value}])


# an integer below an open-ended range, and the message naming the bound
OPEN_RANGE = {
    "flip_cycle_negative": (
        dict(CFG, faults=[{"kind": "flip_word", "buffer": "lower0",
                           "word_index": 0, "cycle": -1}]),
        "flip_word cycle must be >= 0, got -1"),
    "capacity_override_negative": (
        _fault_cfg("capacity_override", -3),
        "capacity_override value must be >= 0, got -3"),
    "capacity_pixels_negative": (
        dict(CFG, arch=dict(TYPE2_FIELDS, capacity_pixels=-1)),
        "capacity_pixels must be >= 0, got -1"),
}


@pytest.mark.parametrize("data", [
    _fault_cfg("capacity_override", "x"),
    _fault_cfg("capacity_override", -5),
    dict(CFG, image=dict(CFG["image"], bit_depth="ten")),
    dict(CFG, image=dict(CFG["image"], chroma="420")),
    dict(CFG, interleave="bogus"),
    dict(CFG, window_spec={"prev_line_span": ["a", 3]}),
    dict(CFG, arch={"line_buffers": "x"}),
    dict(CFG, image={"width": 320}),
    _fault_cfg("fetch_budget_override", 0, arch="baseline"),
    dict(CFG, clock_mhz=float("nan")),
    # a 320-wide slice uses words 0..39: flipping word 479 changes nothing
    dict(CFG, faults=[{"kind": "flip_word", "buffer": "lower0",
                       "word_index": 479, "cycle": 100}]),
    # bool("false") is True: a flag must be a JSON boolean
    dict(CFG, arch={"forwarding": "false"}),
    dict(CFG, trace="no"),
    dict(CFG, faults=[{"value": 2}]),
    # int(True) is 1 and int(2.7) is 2: an integer field takes a JSON
    # integer only
    dict(CFG, sram_read_latency=True),
    dict(CFG, seed=2.7),
    dict(CFG, image=dict(CFG["image"], width=320.0)),
    dict(CFG, slices={"columns": 1.9}),
    dict(CFG, window_spec={"prev_line_span": [-8.0, 32]}),
    dict(CFG, clock_mhz=True),
    # a refill slot pads its fetches up to the budget on four cycles
    dict(CFG, arch={"fetch_words_per_slot": 5}),
    dict(CFG, arch={"fetch_words_per_slot": -1}),
    # lower0 word 39 is first written at cycle 156: no read sees the flip
    *(dict(CFG, arch=name, faults=[{"kind": "flip_word", "buffer": "lower0",
                                    "word_index": 39, "cycle": 100}])
      for name in ("baseline", "type1", "type2")),
    # chroma is no key (see below), whatever its value
    dict(CFG, image=dict(CFG["image"], chroma=444)),
    # an enum or string field takes a JSON string only
    dict(CFG, arch={"name": 5}),
    dict(CFG, arch={"residency": {"prev": 5}}),
    # a fault takes only its own kind's fields
    dict(CFG, faults=[{"kind": "banks_override", "value": 1,
                       "buffer": "lower0"}]),
    dict(CFG, faults=[{"kind": "flip_word", "buffer": "lower0",
                       "word_index": 5, "cycle": 182, "value": 1}]),
    dict(CFG, faults=[{"kind": "noop", "value": 1}]),
    # the decoder takes 4 pixels per cycle, which is no config key
    dict(CFG, throughput_ppc=4),
    # the model has one pixel format, 10-bit 4:4:4, and no key for it
    dict(CFG, image=dict(CFG["image"], chroma="444")),
    dict(CFG, image=dict(CFG["image"], bit_depth=10)),
    # a budget of 0 would book the fetches of 1, and a streaming slot pads
    # no fetches
    dict(CFG, arch={"fetch_words_per_slot": 0}),
    dict(CFG, arch={"fetch_kind": "streaming", "fetch_words_per_slot": 2}),
    # the reconvert unit is in use exactly when the lower row streams, so
    # it has no key
    dict(CFG, arch={"reconvert_on_fetch": True}),
    # a refill fetch serves no window section, and the streaming path
    # reaches the lower buffers' lines only: every pixel of such a route
    # would be an availability miss
    dict(CFG, arch={"residency": {"prev": "fetch"}}),
    dict(CFG, arch=dict(TYPE2_FIELDS, residency={"row0": "fetch"})),
    # an integer outside its range, and a string outside its choices
    dict(CFG, sram_read_latency=2),
    dict(CFG, slices={"rows": 0}),
    dict(CFG, arch={"fetch_kind": "bogus"}),
    dict(CFG, arch={"residency": {"prev": "bogus"}}),
    # no offset past the widest slice lands in any slice
    dict(CFG, arch="baseline", window_spec={"prev_line_span": [-8, 1000000]}),
    # a later override of a kind replaces the earlier, and a second flip
    # of a word at one cycle undoes the first
    dict(CFG, arch="baseline",
         faults=[{"kind": "line_buffers_override", "value": v}
                 for v in (2, 3)]),
    dict(CFG, arch="baseline",
         faults=[{"kind": "flip_word", "buffer": "upper", "word_index": 0,
                  "cycle": 1}] * 2),
    *(data for data, _ in OPEN_RANGE.values()),
], ids=["capacity_str", "capacity_negative", "bit_depth_str", "chroma_420",
        "interleave_bogus", "window_span_str", "line_buffers_str",
        "height_missing", "fetch_budget_0", "clock_nan", "flip_unused_word",
        "forwarding_str", "trace_str", "fault_without_kind", "latency_bool",
        "seed_float", "width_float", "columns_float", "window_span_float",
        "clock_bool", "fetch_words_over_slot", "fetch_words_negative",
        "flip_unseen_baseline", "flip_unseen_type1", "flip_unseen_type2",
        "chroma_int", "arch_name_int", "route_int", "banks_with_buffer",
        "flip_with_value", "noop_with_value", "throughput_ppc_key",
        "chroma_444", "bit_depth_10", "fetch_words_0",
        "streaming_fetch_words_2", "reconvert_on_fetch_key",
        "refill_fetches_prev", "streaming_fetches_row0", "latency_2",
        "slice_rows_0", "fetch_kind_bogus", "route_bogus",
        "window_span_too_wide", "override_kind_twice", "flip_word_twice",
        *OPEN_RANGE])
def test_cli_malformed_config_exit_two(tmp_path, capsys, data):
    assert cli_main(["simulate", "--config", write_cfg(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(OPEN_RANGE))
def test_cli_open_range_message_names_the_bound(tmp_path, capsys, name):
    """An integer below an open-ended range says which bound it breaks."""
    data, message = OPEN_RANGE[name]
    assert cli_main(["simulate", "--config", write_cfg(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mhz", [1e308, 0, -5.5])
def test_cli_clock_mhz_message_names_the_configured_value(tmp_path, capsys,
                                                          mhz):
    """A clock_mhz whose Hz value is not positive and finite exits 2 with a
    message naming the key and the value as configured, not the Hz value:
    1e308 MHz overflows to inf Hz."""
    path = write_cfg(tmp_path, dict(CFG, clock_mhz=mhz))
    assert cli_main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"error: clock_mhz must be positive and finite, got {mhz}\n")


def test_override_faults_validated_by_kind():
    from dbemem.engine import Engine, FaultSpec, SimConfig
    from dbemem.geometry import ImageGeometry, SliceLayout

    def engine(name, kind, value):
        return Engine(SimConfig(ImageGeometry(64, 8), SliceLayout(1, 1),
                                preset_by_name(name),
                                faults=[FaultSpec(kind, value=value)]))

    for kind, bad in (("capacity_override", (-1, 2.0, True, None)),
                      ("line_buffers_override", (1, 4, 2.0, "3")),
                      ("banks_override", (0, 3, True)),
                      ("delay_override", ("full_line", 1)),
                      ("fetch_budget_override", (0, 1, 5, 2.0))):
        for value in bad:
            with pytest.raises(ConfigError):
                engine("baseline", kind, value)
    # streaming presets place their own fetches, so a budget changes nothing
    with pytest.raises(ConfigError):
        engine("type2", "fetch_budget_override", 2)
    assert engine("type1", "fetch_budget_override", 4).preset \
        .fetch_words_per_slot == 4


# -- config fuzzing --------------------------------------------------------------

# wrong types, and numbers small enough to keep every image tiny
_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                  st.floats(-3, 8), st.text(max_size=4),
                  st.lists(st.integers(-3, 3), max_size=3))


def _maybe(good):
    """A well-formed value nine times in ten, junk otherwise."""
    if not isinstance(good, st.SearchStrategy):
        good = st.sampled_from(good)
    return st.integers(0, 9).flatmap(lambda i: good if i else _junk)


_span = _maybe(st.tuples(st.integers(-48, 40), st.integers(-48, 40)).map(list))
_fault = st.fixed_dictionaries({"kind": _maybe(
    ["noop", "flip_word", "capacity_override", "line_buffers_override",
     "banks_override", "delay_override", "fetch_budget_override"])},
    optional={"value": _maybe([0, 1, 2, 3, 4, 24, "one_line", "half_line"]),
              "buffer": _maybe(["upper", "lower0", "lower1"]),
              "word_index": _maybe([0, 5, 479, 480]),
              "cycle": _maybe([0, 40, 100, 10**6])})
_arch_obj = st.fixed_dictionaries({}, optional={
    "line_delay": _maybe(["one_line", "half_line"]),
    "line_buffers": _maybe([2, 3]), "banks_per_buffer": _maybe([1, 2]),
    "fetch_kind": _maybe(["refill", "streaming"]),
    "fetch_words_per_slot": _maybe([0, 1, 2]),
    "forwarding": st.booleans(),
    "residency": _maybe(st.fixed_dictionaries({}, optional={
        s: _maybe(["resident", "fetch"]) for s in ("prev", "row0", "row1")})),
    "capacity_pixels": _maybe([None, 0, 25, 90, 106])})
_config = st.fixed_dictionaries({
    "image": _maybe(st.fixed_dictionaries(
        {"width": _maybe([8, 16, 32, 48, 64]),
         "height": _maybe([2, 4, 6, 8])}))},
    optional={
        "slices": _maybe(st.fixed_dictionaries({}, optional={
            "columns": _maybe([1, 2, 4]), "rows": _maybe([1, 2])})),
        "arch": st.one_of(_maybe(["baseline", "type1", "type2"]), _arch_obj),
        "interleave": _maybe(["column_major", "round_robin"]),
        "sram_read_latency": _maybe([0, 1]),
        "clock_mhz": _maybe([200, 100.5]),
        "seed": _maybe([0, 7]),
        "trace": st.booleans(),
        "window_spec": _maybe(st.fixed_dictionaries({}, optional={
            k: _span for k in ("prev_line_span", "cur_row0_span",
                               "cur_row1_span")})),
        "faults": _maybe(st.lists(_fault, max_size=3))})


def _integers(data):
    """The values of a config that it reads as integers."""
    out = [data[k] for k in ("seed", "sram_read_latency") if k in data]
    for section, keys in (("image", ("width", "height")),
                          ("slices", ("columns", "rows")),
                          ("arch", ("line_buffers", "banks_per_buffer",
                                    "fetch_words_per_slot"))):
        if isinstance(data.get(section), dict):
            out += [data[section][k] for k in keys if k in data[section]]
    if isinstance(data.get("window_spec"), dict):
        out += [x for span in data["window_spec"].values()
                if isinstance(span, list) and len(span) == 2 for x in span]
    return out


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=_config)
def test_config_fuzz_never_tracebacks(tmp_path_factory, data):
    """Any config, well-formed or not, on images of at most 64x8: the CLI
    answers 0, 1 or 2 and never with a traceback, and 2 when an integer
    field holds a bool or a float."""
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli_main(["simulate", "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if any(isinstance(v, (bool, float)) for v in _integers(data)):
        assert code == 2
