"""Buffer/throughput accounting, report and trace serialization, config parsing.

Reports are JSON documents whose keys match the SimReport fields; traces are
CSV with the fixed header ``cycle,slice,buffer,bank,op,word,purpose,block``.
Config files are strict: unknown keys are errors.
"""

import json
import math
from dataclasses import asdict, dataclass, field, replace
from enum import EnumMeta
from types import FunctionType

import numpy as np

from .engine import EngineResult, FaultSpec, SimConfig
from .errors import ConfigError
from .geometry import (BLOCK_H, BLOCK_W, CYCLES_PER_SLOT, ImageGeometry,
                       Interleave, LINE_WORDS, SliceLayout, WORD_BITS)
from .predwindow import SECTIONS, WindowSpec
from .sched import (BANK, BLOCK, COL, CYCLE, PURPOSE, PURPOSES, WORD, WRITE,
                    ArchPreset, preset_baseline, preset_by_name)

BITS_PER_PIXEL = 30          # accounting convention: 3 x 10-bit components
# the decoder's throughput: one 16-pixel block per 4-cycle slot
PIXELS_PER_CYCLE = BLOCK_W * BLOCK_H // CYCLES_PER_SLOT
TRACE_HEADER = "cycle,slice,buffer,bank,op,word,purpose,block"
# characters of trace text that `parse_trace` splits into lines at a time
_TRACE_CHUNK = 1 << 16
# a row with the fields a shift leaves alone filled in: the format of its
# cycle, and its block or the block's format
_ROW_FORMAT = "%%d,%d,%s,%d,%s,%d,%s,%s\n"
# a row's op by its kind: a violation's class (`membank.VIOLATION_CLASSES`)
# or, counted from the end, a granted read or write
_OPS = ("conflict", "hazard", "underflow", "read", "write")


@dataclass
class SimReport:
    preset: str
    image: str
    slice_columns: int
    line_buffer_bits_total: int
    recon_pixels_per_slice: int
    recon_bits_per_slice: int
    recon_bits_total: int
    recon_bytes_total: float
    recon_bytes_per_slice_rounded: int
    violations: dict
    latency_cycles: int
    total_cycles: int
    mpixels_per_sec: float
    fps: float
    reductions_vs_baseline: dict
    passed: bool
    footnotes: dict = field(default_factory=dict)


def line_buffer_bits(preset: ArchPreset) -> int:
    return preset.line_buffers * LINE_WORDS * WORD_BITS


def buffer_accounting(preset: ArchPreset, columns: int, spec: WindowSpec,
                      px: int) -> dict:
    """Static buffer sizes, with `px` recon pixels per slice, and reductions
    versus the baseline preset under window spec `spec`."""
    base_px = spec.total_pixels()
    lb = line_buffer_bits(preset)
    lb_base = 3 * LINE_WORDS * WORD_BITS
    bits_slice = px * BITS_PER_PIXEL
    return {
        "line_buffer_bits_total": lb,
        "recon_pixels_per_slice": px,
        "recon_bits_per_slice": bits_slice,
        "recon_bits_total": columns * bits_slice,
        "recon_bytes_total": columns * bits_slice / 8,
        "recon_bytes_per_slice_rounded": math.ceil(bits_slice / 8),
        "reductions_vs_baseline": {
            "line_buffer_pct": round(100.0 * (1 - lb / lb_base), 2),
            "recon_pct": round(100.0 * (1 - px / base_px), 2),
        },
    }


def throughput_metrics(clock_hz: float, width: int, height: int) -> dict:
    # NaN fails the comparison too
    if not (0 < clock_hz < math.inf and width > 0 and height > 0):
        raise ConfigError("throughput metrics need positive inputs and a "
                          f"finite clock, got {clock_hz} Hz, width {width} "
                          f"and height {height}")
    mpix = clock_hz * PIXELS_PER_CYCLE / 1e6
    fps = clock_hz * PIXELS_PER_CYCLE / (width * height)
    return {"mpixels_per_sec": round(mpix, 2), "fps": round(fps, 2)}


def build_report(result: EngineResult) -> SimReport:
    cfg = result.config
    plan = result.plan
    cols = plan.slices.columns
    px = max(result.peak_recon_per_column)
    acct = buffer_accounting(result.preset, cols, cfg.window, px)
    thr = throughput_metrics(cfg.clock_hz, plan.image.width, plan.image.height)
    footnotes = {
        "recon_capacity_pixels": result.recon_capacity,
        "recon_extra_sign_bits_per_slice": 2 * px,
        "per_slice_byte_rounding_delta":
            cols * acct["recon_bytes_per_slice_rounded"]
            - acct["recon_bytes_total"],
        "fetch_stage_peak_pixels": result.assembly_peak_pixels,
        # the model samples every component at every pixel
        "chroma": "444",
    }
    # the accounting and throughput keys are SimReport fields
    return SimReport(
        preset=result.preset.name,
        image=f"{plan.image.width}x{plan.image.height}",
        slice_columns=cols,
        violations=result.violations.as_dict(),
        latency_cycles=result.latency_cycles,
        total_cycles=result.total_cycles,
        passed=result.passed,
        footnotes=footnotes,
        **acct, **thr,
    )


def emit_report(report: SimReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(report_to_text(report))


def report_to_text(report: SimReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def emit_trace(result: EngineResult, path) -> None:
    """One row per granted access plus one row per violation, cycle-ordered
    (a stable sort, grants before violations), so replaying the file
    reproduces the run's violation tallies.

    Written pass by pass: a pass books only cycles after every earlier
    pass's, so the file is each pass's rows (`engine.PassRows`: per pass
    its template, shift d and drain order) in stable cycle order.  A shift
    moves every cycle alike, so that order is the same in every pass of one
    template and drain order, and their rows become one format string over
    the cycles and blocks, built once, in bytes, which format faster than
    text.  The key is the drain order's content, which a checked pass
    builds anew."""
    formats = {}   # (template, drain order) -> its `_pass_format`
    with open(path, "wb") as fh:
        fh.write(TRACE_HEADER.encode() + b"\n")
        for tm, d, order in result.trace_rows.entries:
            key = tm, order and (order[1].tobytes(), order[3].tobytes())
            if key not in formats:
                formats[key] = _pass_format(tm, order)
            fmt, values, step = formats[key]
            fh.write(fmt % tuple((values + d * step).tolist()))


def _pass_format(tm, order):
    """The rows of template `tm`'s grants and of the bank violations in
    drain order `order` (`engine.Engine._drain_order`), in stable cycle
    order, as one bytes format string, with the values it takes and their
    step per blockline (`Scheduler.shift_bookings`).  The values are each
    row's cycle and then its block, unless the block has no step (a display
    read's -1, or an underflow's), which the string holds instead."""
    cls, at = (order[1], order[3]) if order else (np.empty(0, int),) * 2
    grant = np.where(tm.bookings[PURPOSE, tm.granted] == WRITE, -1, -2)
    b = tm.bookings[:, np.concatenate([tm.granted, at])]
    o = np.argsort(b[CYCLE], kind="stable")
    b, kind = b[:, o], np.concatenate([grant, cls])[o]
    buf, bank_id = zip(*tm.sched.bank_keys)
    moved = [CYCLE, BLOCK]
    values = b[moved].astype(np.int64)
    step = tm.sched.shift_bookings(b, 1)[moved] - values
    underflow = kind == 2
    values[1, underflow], step[1, underflow] = -1, 0
    # every cycle moves, and every block but a display read's or an
    # underflow's
    live = step != 0
    fmt = "".join([
        _ROW_FORMAT % (col if c < 0 else -1, buf[k], bank_id[k], _OPS[c],
                       word, PURPOSES[p].value, "%d" if moves else block)
        for c, col, k, p, word, block, moves in zip(
            kind.tolist(), *b[[COL, BANK, PURPOSE, WORD]].tolist(),
            values[1].tolist(), live[1].tolist())])
    live = live.T.ravel()
    return fmt.encode(), values.T.ravel()[live], step.T.ravel()[live]


def parse_trace(text: str):
    """The rows of CSV trace `text`, as 8-tuples (cycle, slice, buffer,
    bank, op, word, purpose, block) of int and str, after the header.
    Surrounding whitespace is ignored; a line that is not 8 fields, or an
    integer field that is not an integer, is a ConfigError naming its
    line.

    The text is split into lines a chunk at a time, each chunk cut just
    after a newline, which ends a line whatever precedes it, so the chunks
    give the lines `str.splitlines` gives the whole text; and all rows
    with one buffer, op or purpose hold one string object."""
    end = len(text)
    while end and text[end - 1].isspace():
        end -= 1
    pos = 0
    while pos < end and text[pos].isspace():
        pos += 1
    body = pos + len(TRACE_HEADER)
    # the first line, from a prefix long enough to hold the header's end
    if pos == end or \
            text[pos:min(body + 2, end)].splitlines()[0] != TRACE_HEADER:
        raise ConfigError("trace file missing the expected header")
    pos = body + 1 + text.startswith("\r\n", body)
    rows = []
    share = {}.setdefault
    n = 1
    while pos < end:
        cut = text.find("\n", pos + _TRACE_CHUNK, end) + 1 or end
        for n, line in enumerate(text[pos:cut].splitlines(), n + 1):
            try:
                cyc, sl, buf, bank, op, word, purpose, block = line.split(",")
                rows.append((int(cyc), int(sl), share(buf, buf), int(bank),
                             share(op, op), int(word),
                             share(purpose, purpose), int(block)))
            except ValueError as e:
                raise ConfigError(f"trace line {n}: {e}") from None
        pos = cut
    return rows


# -- config files ---------------------------------------------------------------


def _fields(raw, table: dict, where: str, required=()) -> dict:
    """The keys config object `raw` holds, checked against `table` and
    converted; the dataclasses supply every default.  An entry of `table`
    is a JSON type (int, float for any number, bool, str, or a union of
    them), an Enum, whose values are JSON strings, or a nested value's
    parser.  A bool is a value of a bool field only (int(True), int(2.7)
    and bool("false") all succeed).  A failure is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{where} has no {key}")
    out = {}
    for key, value in raw.items():
        kind = table[key]
        if isinstance(kind, FunctionType):
            out[key] = kind(value, key)
            continue
        json_type = (str if isinstance(kind, EnumMeta)
                     else int | float if kind is float else kind)
        try:
            if isinstance(value, bool) != (kind is bool) or \
                    not isinstance(value, json_type):
                raise TypeError(value)
            out[key] = kind(value) if isinstance(kind, type) else value
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                f"{key} in {where} must be a valid "
                f"{getattr(kind, '__name__', kind)}, got {value!r}") from None
    return out


def _span(value, what: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2
            and all(type(v) is int for v in value)):
        raise ConfigError(f"{what} must be a [lo, hi] pair of integers, "
                          f"got {value!r}")
    return tuple(value)


def _arch(raw, where: str) -> ArchPreset:
    """A preset's name, or a custom preset: the baseline preset with the
    keys the object holds, its routes over the baseline's, named custom
    unless it names itself."""
    if isinstance(raw, str):
        return preset_by_name(raw)
    given = _fields(raw, _ARCH, where)
    base = preset_baseline()
    routes = {**base.residency, **given.get("residency", {})}
    return replace(base, **{"name": "custom", **given, "residency": routes})


def _faults(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    # each named by its contents, so that a message says which it is
    return [FaultSpec(**_fields(f, _FAULT, f"fault {f!r}", ("kind",)))
            for f in value]


# per config object, each key's entry for `_fields`
_IMAGE = {"width": int, "height": int}
_ARCH = {"name": str, "line_delay": str, "line_buffers": int,
         "banks_per_buffer": int, "fetch_kind": str,
         "fetch_words_per_slot": int, "forwarding": bool,
         "residency": lambda v, key: _fields(v, dict.fromkeys(SECTIONS, str),
                                             key),
         "capacity_pixels": int | None}
_FAULT = {"kind": str, "buffer": str, "word_index": int, "cycle": int,
          "value": int | str}
_CONFIG = {
    "image": lambda v, key: ImageGeometry(**_fields(v, _IMAGE, key,
                                                    ("width", "height"))),
    "slices": lambda v, key: SliceLayout(**_fields(
        v, {"columns": int, "rows": int}, key)),
    "arch": _arch,
    "clock_mhz": float, "seed": int,
    "window_spec": lambda v, key: WindowSpec(**_fields(v, dict.fromkeys(
        ("prev_line_span", "cur_row0_span", "cur_row1_span"), _span), key)),
    "faults": _faults,
    "interleave": Interleave, "sram_read_latency": int, "trace": bool}
# the keys whose SimConfig field has another name
_SIM_FIELD = {"arch": "preset", "clock_mhz": "clock_hz",
              "window_spec": "window", "trace": "collect_trace"}


def parse_config(text: str) -> SimConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    except RecursionError:
        raise ConfigError("config nests too deeply to parse") from None
    given = _fields(raw, _CONFIG, "config", ("image",))
    if "clock_mhz" in given:
        given["clock_mhz"] *= 1e6
        if not 0 < given["clock_mhz"] < math.inf:   # NaN fails too
            raise ConfigError(f"clock_mhz must be positive and finite, "
                              f"got {raw['clock_mhz']}")
    return SimConfig(**{_SIM_FIELD.get(k, k): v for k, v in given.items()})
