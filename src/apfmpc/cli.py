"""Command-line entry point for running and comparing scenarios."""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .geometry import corners
from .mpc import VARIANTS
from .qp import INFEASIBLE, MAX_ITERATIONS, OPTIMAL
from .simulator import NUMERICAL_FAILURE, load_scenario, metrics, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3
EXIT_NUMERICAL = 4  # a run ended with a non-finite state, obstacle pose or QP solution

# the `--plots` series, each the log's columns that its header names
SERIES = {"trajectory": "t,x,y", "heading": "t,theta", "wheel_speeds": "t,v_f,v_r",
          "inputs": "t,a_f,a_r,delta_f,delta_r", "slip": "t,slip_measure"}


def _write_summary(path: Path, values: dict) -> None:
    lines = [f"{k}: {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")


def _trajectory_svg(out_dir: Path, name: str, scenario, log) -> None:
    """Minimal self-contained vector overview: corridor, obstacles, path."""
    xs = [r.state.x for r in log.records]
    ys = [r.state.y for r in log.records]
    path = scenario.path.tolist()
    all_x = xs + [p[0] for p in path]
    all_y = ys + [p[1] for p in path]
    pad = 2.0
    x0, x1 = min(all_x) - pad, max(all_x) + pad
    y0, y1 = min(all_y) - pad, max(all_y) + pad
    scale = 800.0 / max(x1 - x0, 1e-9)
    w, h = 800, max(int((y1 - y0) * scale), 1)

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return h - (y - y0) * scale

    def polyline(pts, color, width):
        coords = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in pts)
        return (f'<polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="{width}"/>')

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>']
    for rect in scenario.corridor:
        cs = corners(rect)
        parts.append(polyline(cs + [cs[0]], "gray", 2))
    for obs in scenario.obstacles:
        cs = corners(obs.footprint)
        parts.append(polyline(cs + [cs[0]], "green", 2))
    parts.append(polyline(path, "black", 1))
    parts.append(polyline(list(zip(xs, ys)), "blue", 2))
    parts.append("</svg>")
    (out_dir / f"{name}.trajectory.svg").write_text("\n".join(parts) + "\n")


def _summary(log, path) -> dict:
    """The outcome, then the metrics and the ticks per QP status; a run that
    ends before its first tick has only an outcome."""
    summary = {"outcome": log.outcome}
    if log.records:
        summary.update(metrics(log, path))
        statuses = [r.solver_status for r in log.records]
        for status in (OPTIMAL, MAX_ITERATIONS, INFEASIBLE):
            summary[f"ticks.{status}"] = statuses.count(status)
    return summary


def cmd_run(args, scenario) -> int:
    if args.variant:
        scenario = replace(scenario, controller_variant=args.variant)
    out_dir = Path(args.out)
    log = run(scenario)
    log.to_csv(out_dir / f"{scenario.name}.log.csv")
    _write_summary(out_dir / f"{scenario.name}.summary", _summary(log, scenario.path))
    if args.plots:
        for suffix, header in SERIES.items():
            log.to_csv(out_dir / f"{scenario.name}.{suffix}.csv", header)
        _trajectory_svg(out_dir, scenario.name, scenario, log)
    return EXIT_NUMERICAL if log.outcome == NUMERICAL_FAILURE else EXIT_OK


def cmd_compare(args, scenario) -> int:
    out_dir = Path(args.out)
    results = {}
    for variant in VARIANTS:
        log = run(replace(scenario, controller_variant=variant))
        log.to_csv(out_dir / f"{scenario.name}.{variant}.log.csv")
        results[variant] = _summary(log, scenario.path)
    summary = {f"{variant}.{key}": val
               for variant, vals in results.items() for key, val in vals.items()}
    for key in ("min_clearance", "max_slip_measure", "max_heading_rate"):
        # no delta of runs without ticks, nor of infinite clearances (no obstacles)
        if all(math.isfinite(vals.get(key, math.nan)) for vals in results.values()):
            summary[f"delta.{key}"] = (results["no_customization"][key]
                                       - results["full"][key])
    _write_summary(out_dir / f"{scenario.name}.compare.summary", summary)
    failed = any(vals["outcome"] == NUMERICAL_FAILURE for vals in results.values())
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_validate(args, scenario) -> int:
    print(f"ok: {args.scenario}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="apfmpc",
                                     description="MPC + potential-field corridor "
                                                 "navigation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=".")
    p_run.add_argument("--plots", action="store_true")
    p_run.add_argument("--variant", choices=VARIANTS)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both controller variants")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--out", default=".")
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="check a scenario file without running it")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # only the scenario file is configuration: any error raised by its run is internal
    try:
        try:
            scenario = load_scenario(args.scenario)
        except FileNotFoundError as exc:
            print(f"error: scenario file not found: {exc.filename}", file=sys.stderr)
            return EXIT_CONFIG
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if hasattr(args, "out"):  # run and compare write their files there
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                print(f"error: cannot create output directory: {exc}", file=sys.stderr)
                return EXIT_USAGE
        return args.func(args, scenario)
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
