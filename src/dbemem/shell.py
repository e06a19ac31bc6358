"""Buffer/throughput accounting, report and trace serialization, config parsing.

Reports are JSON documents whose keys match the SimReport fields; traces are
CSV with the fixed header ``cycle,slice,buffer,bank,op,word,purpose,block``.
Config files are strict: unknown keys are errors.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from operator import itemgetter

from .engine import EngineResult, FaultSpec, SimConfig
from .errors import ConfigError
from .geometry import (Chroma, ImageGeometry, Interleave, LINE_WORDS,
                       SliceLayout, WORD_BITS)
from .predwindow import RESIDENT, ResidencyPolicy, SECTIONS, WindowSpec
from .sched import ArchPreset, ONE_LINE, preset_by_name

BITS_PER_PIXEL = 30          # accounting convention: 3 x 10-bit components
TRACE_HEADER = "cycle,slice,buffer,bank,op,word,purpose,block"
_TRACE_ROW = "%d,%d,%s,%d,%s,%d,%s,%d\n"


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


def buffer_accounting(preset: ArchPreset, columns: int,
                      spec: WindowSpec | None = None,
                      recon_pixels: int | None = None) -> dict:
    """Static buffer sizes and reductions versus the baseline preset."""
    spec = spec or WindowSpec()
    px = recon_pixels if recon_pixels is not None else preset.capacity_for(spec)
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


def throughput_metrics(clock_hz: float, throughput_ppc: int,
                       width: int, height: int) -> dict:
    # NaN fails the comparison too
    if not (0 < clock_hz < math.inf and throughput_ppc > 0 and width > 0
            and height > 0):
        raise ConfigError("throughput metrics need positive inputs and a "
                          f"finite clock, got {clock_hz} Hz")
    mpix = clock_hz * throughput_ppc / 1e6
    fps = clock_hz * throughput_ppc / (width * height)
    return {"mpixels_per_sec": round(mpix, 2), "fps": round(fps, 2)}


def build_report(result: EngineResult) -> SimReport:
    cfg = result.config
    plan = result.plan
    cols = plan.slices.columns
    px = max(result.peak_recon_per_column)
    acct = buffer_accounting(result.preset, cols, cfg.window, recon_pixels=px)
    thr = throughput_metrics(cfg.clock_hz, cfg.throughput_ppc,
                             plan.image.width, plan.image.height)
    footnotes = {
        "recon_capacity_pixels": result.recon_capacity,
        "recon_extra_sign_bits_per_slice": 2 * px,
        "per_slice_byte_rounding_delta":
            cols * acct["recon_bytes_per_slice_rounded"]
            - acct["recon_bytes_total"],
        "fetch_stage_peak_pixels": result.assembly_peak_pixels,
        "chroma": plan.image.chroma.value,
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
    """One row per granted access plus one row per violation, cycle-ordered,
    so replaying the file reproduces the run's violation tallies."""
    rows = result.trace_rows + result.violation_rows
    rows.sort(key=itemgetter(0))
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(_TRACE_ROW % r for r in rows)


def parse_trace(text: str):
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


# -- config files ---------------------------------------------------------------

_IMAGE_KEYS = {"width", "height", "chroma", "bit_depth"}
_SLICE_KEYS = {"columns", "rows"}
_TOP_KEYS = {"image", "slices", "arch", "clock_mhz", "throughput_ppc", "seed",
             "window_spec", "faults", "interleave", "sram_read_latency",
             "trace"}
_ARCH_KEYS = {"name", "line_delay", "line_buffers", "banks_per_buffer",
              "fetch_kind", "fetch_words_per_slot", "forwarding",
              "reconvert_on_fetch", "residency", "capacity_pixels"}
_WINDOW_KEYS = {"prev_line_span", "cur_row0_span", "cur_row1_span"}
_FAULT_KEYS = {"kind", "buffer", "word_index", "cycle", "value"}


def _check_keys(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _as(kind, value, what: str):
    """`kind(value)` for an Enum, or a value of the JSON type of an int,
    float or bool field: an integer, a number, a boolean, and a bool for
    no other field (int(2.7), int(True) and bool("false") all succeed).  A
    failure is a ConfigError."""
    try:
        if kind in (int, float, bool) and (
                isinstance(value, bool) != (kind is bool) or not isinstance(
                    value, (int, float) if kind is float else kind)):
            raise TypeError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a valid {kind.__name__}, "
                          f"got {value!r}")


def parse_config(text: str) -> SimConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, _TOP_KEYS, "config")
    img_raw = raw.get("image")
    _check_keys(img_raw, _IMAGE_KEYS, "image")
    image = ImageGeometry(
        width=_as(int, img_raw.get("width"), "image.width"),
        height=_as(int, img_raw.get("height"), "image.height"),
        chroma=_as(Chroma, str(img_raw.get("chroma", "444")), "image.chroma"),
        bit_depth=_as(int, img_raw.get("bit_depth", 10), "image.bit_depth"))
    sl_raw = raw.get("slices", {"columns": 1, "rows": 1})
    _check_keys(sl_raw, _SLICE_KEYS, "slices")
    slices = SliceLayout(
        columns=_as(int, sl_raw.get("columns", 1), "slices.columns"),
        rows=_as(int, sl_raw.get("rows", 1), "slices.rows"))
    preset = _parse_arch(raw.get("arch", "baseline"))
    window = _parse_window(raw.get("window_spec"))
    faults = raw.get("faults", [])
    if not isinstance(faults, list):
        raise ConfigError(f"faults must be a list, got {faults!r}")
    return SimConfig(
        image=image, slices=slices, preset=preset, window=window,
        clock_hz=_as(float, raw.get("clock_mhz", 200.0), "clock_mhz") * 1e6,
        throughput_ppc=_as(int, raw.get("throughput_ppc", 4), "throughput_ppc"),
        seed=_as(int, raw.get("seed", 0), "seed"),
        interleave=_as(Interleave, raw.get("interleave", "column_major"),
                       "interleave"),
        sram_read_latency=_as(int, raw.get("sram_read_latency", 0),
                              "sram_read_latency"),
        collect_trace=_as(bool, raw.get("trace", False), "trace"),
        faults=[_parse_fault(f) for f in faults])


def _parse_arch(raw) -> ArchPreset:
    if isinstance(raw, str):
        return preset_by_name(raw)
    _check_keys(raw, _ARCH_KEYS, "arch")
    res_raw = raw.get("residency", {s: RESIDENT for s in SECTIONS})
    _check_keys(res_raw, set(SECTIONS), "arch.residency")
    routes = {s: res_raw.get(s, RESIDENT) for s in SECTIONS}
    policy = ResidencyPolicy(
        routes=routes,
        forwarding_enabled=_as(bool, raw.get("forwarding", False),
                               "arch.forwarding"),
        reconvert_on_fetch=_as(bool, raw.get("reconvert_on_fetch", False),
                               "arch.reconvert_on_fetch"))
    return ArchPreset(
        name=str(raw.get("name", "custom")),
        line_delay=str(raw.get("line_delay", ONE_LINE)),
        line_buffers=_as(int, raw.get("line_buffers", 3), "arch.line_buffers"),
        banks_per_buffer=_as(int, raw.get("banks_per_buffer", 1),
                             "arch.banks_per_buffer"),
        fetch_kind=str(raw.get("fetch_kind", "refill")),
        fetch_words_per_slot=_as(int, raw.get("fetch_words_per_slot", 1),
                                 "arch.fetch_words_per_slot"),
        residency=policy,
        capacity_pixels=raw.get("capacity_pixels"))


def _parse_window(raw) -> WindowSpec:
    if raw is None:
        return WindowSpec()
    _check_keys(raw, _WINDOW_KEYS, "window_spec")

    def span(key, default):
        v = raw.get(key, default)
        if not (isinstance(v, (list, tuple)) and len(v) == 2):
            raise ConfigError(f"{key} must be a [lo, hi] pair")
        return (_as(int, v[0], key), _as(int, v[1], key))

    return WindowSpec(prev_line_span=span("prev_line_span", (-8, 32)),
                      cur_row0_span=span("cur_row0_span", (-33, -1)),
                      cur_row1_span=span("cur_row1_span", (-32, -1)))


def _parse_fault(raw) -> FaultSpec:
    _check_keys(raw, _FAULT_KEYS, "fault")
    if "kind" not in raw:
        raise ConfigError(f"fault {raw!r} has no kind")
    return FaultSpec(kind=str(raw["kind"]),
                     buffer=raw.get("buffer"),
                     word_index=raw.get("word_index"),
                     cycle=raw.get("cycle"),
                     value=raw.get("value"))
