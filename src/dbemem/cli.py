"""Command-line interface.

Exit codes: 0 = simulation passed, 1 = violations present, 2 = config or
I/O error (argparse uses 2 for usage errors as well).
"""

import argparse
import sys

from .engine import run_simulation
from .errors import ConfigError
from .explore import minimal_resident_set, preset_budget
from .shell import (build_report, emit_report, emit_trace, parse_config,
                    report_to_text, throughput_metrics)
from .sched import preset_by_name


def _load_config(path):
    # JSON text is UTF-8 (RFC 8259), whatever the locale
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"config is not UTF-8 text: {e}") from None
    return parse_config(text)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.trace:
        cfg.collect_trace = True
    result = run_simulation(cfg)
    report = build_report(result)
    if args.report:
        emit_report(report, args.report)
    if args.trace:
        emit_trace(result, args.trace)
    sys.stdout.write(report_to_text(report))
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}: {report.preset} {report.image} "
          f"violations={result.violations.total()}")
    return 0 if result.passed else 1


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    rows = []
    all_pass = True
    from dataclasses import replace
    for name in ("baseline", "type1", "type2"):
        run_cfg = replace(cfg, preset=preset_by_name(name))
        result = run_simulation(run_cfg)
        rep = build_report(result)
        all_pass &= result.passed
        rows.append((name, rep))
    base = rows[0][1]
    print(f"{'preset':<10}{'line_buffer_bits':>17}{'lb_reduction%':>15}"
          f"{'recon_px/slice':>16}{'recon_reduction%':>18}{'status':>8}")
    for name, rep in rows:
        print(f"{name:<10}{rep.line_buffer_bits_total:>17}"
              f"{rep.reductions_vs_baseline['line_buffer_pct']:>15.2f}"
              f"{rep.recon_pixels_per_slice:>16}"
              f"{rep.reductions_vs_baseline['recon_pct']:>18.2f}"
              f"{'PASS' if rep.passed else 'FAIL':>8}")
    print(f"throughput: {base.mpixels_per_sec:.2f} Mpix/s, {base.fps:.2f} fps")
    return 0 if all_pass else 1


def _cmd_explore(args) -> int:
    cfg = _load_config(args.config)
    print(f"{'preset':<10}{'budget':<12}{'forwarding':<12}{'reconvert':<11}"
          f"{'resident_px':>12}  routes")
    for name in ("baseline", "type1", "type2"):
        preset = preset_by_name(name)
        budget = preset_budget(preset)
        res = minimal_resident_set(cfg.window, budget,
                                   forwarding=preset.forwarding,
                                   reconvert=preset.reconvert_on_fetch)
        routes = ",".join(f"{s}={res.routes[s][0]}" for s in
                          ("prev", "row0", "row1"))
        print(f"{name:<10}{budget.kind:<12}{str(preset.forwarding):<12}"
              f"{str(preset.reconvert_on_fetch):<11}"
              f"{res.resident_count:>12}  {routes}")
    return 0


def _cmd_fps(args) -> int:
    m = throughput_metrics(args.mhz * 1e6, args.width, args.height)
    print(f"{m['mpixels_per_sec']:.2f} Mpix/s")
    print(f"{m['fps']:.2f} fps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dbemem",
        description="Cycle-accurate decoder-back-end memory simulator")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one preset from a config file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--trace", help="write the access trace CSV here")
    sim.add_argument("--report", help="write the JSON report here")
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="run all three presets and print "
                                          "the buffer-reduction table")
    cmp_.add_argument("--config", required=True)
    cmp_.set_defaults(func=_cmd_compare)

    exp = sub.add_parser("explore", help="print the minimal resident set per "
                                         "preset budget")
    exp.add_argument("--config", required=True)
    exp.set_defaults(func=_cmd_explore)

    fps = sub.add_parser("fps", help="throughput arithmetic only")
    fps.add_argument("--width", type=int, required=True)
    fps.add_argument("--height", type=int, required=True)
    fps.add_argument("--mhz", type=float, default=200.0)
    fps.set_defaults(func=_cmd_fps)
    return p


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
