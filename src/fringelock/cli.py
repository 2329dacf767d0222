"""Command-line front end: run | keyrate | sweep.

Batch only; runs write CSV traces plus a text report into the output
directory and echo their effective configuration for reproducibility.
Exit codes: 0 success, 1 runtime fault, 2 usage or configuration error,
including a run in which no QKD slot counted a photon (its outputs are kept;
a sweep still runs and records its other values when one is rejected).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ConfigError, load_config, override_settings, write_config
from .controller import ExperimentReport, RunSettings, run_experiment
from .keyrate import KeyRateParams, error_threshold, key_rate
from .reporting import (
    CALIB_TRACE_HEADER,
    QKD_TRACE_HEADER,
    calib_trace_row,
    make_writer,
    qkd_trace_row,
    render_report,
    write_summary,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fringelock",
        description="Simulator of a 128-path variable-delay interferometer "
        "with active phase stabilization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a stabilization/QKD experiment")
    _add_run_args(run)

    kr = sub.add_parser("keyrate", help="RRDPS key rate per L-pulse train")
    kr.add_argument("L", type=int, help="pulses per train")
    kr.add_argument("v_th", type=float, help="auxiliary parameter, at most (L-1)/2")
    kr.add_argument("Q", type=float, help="valid detections per train")
    kr.add_argument("e_bit", type=float, help="bit error rate in [0, 0.5]")

    sweep = sub.add_parser("sweep", help="run one experiment per parameter value")
    _add_run_args(sweep)
    sweep.add_argument("--param", required=True, help="dotted config key, e.g. drift.path_walk_sigma")
    sweep.add_argument("--values", required=True, help="comma-separated values for the parameter")
    return parser


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="configuration file (INI sections of key = value)")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--seconds", type=int, help="override the simulated duration")
    parser.add_argument("--mode", choices=("closed-loop", "open-loop"), help="override the mode")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override any config key (repeatable)",
    )


def _settings_from_args(args: argparse.Namespace) -> tuple[RunSettings, Path]:
    settings, output_dir = load_config(args.config, args.overrides)
    settings = override_settings(
        settings, seconds=args.seconds, mode=args.mode, seed=args.seed
    )
    if args.out:
        output_dir = args.out
    return settings, Path(output_dir)


def _execute_run(settings: RunSettings, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(settings, str(out_dir), out_dir / "effective_config.ini")
    pm = settings.plant.pm
    with open(out_dir / "calib_trace.csv", "w", encoding="utf-8", newline="") as calib_f, open(
        out_dir / "qkd_trace.csv", "w", encoding="utf-8", newline=""
    ) as qkd_f:
        calib_writer = make_writer(calib_f)
        calib_writer.writerow(CALIB_TRACE_HEADER)
        qkd_writer = make_writer(qkd_f)
        qkd_writer.writerow(QKD_TRACE_HEADER)

        def write_second(second, steps, slots):
            calib_writer.writerows(calib_trace_row(second, row, pm) for row in steps.tolist())
            qkd_writer.writerows(
                qkd_trace_row(second, slot, row) for slot, row in enumerate(slots.tolist())
            )

        report = run_experiment(settings, write_second)
    write_summary(report, out_dir / "per_delay_summary.csv")
    (out_dir / "report.txt").write_text(render_report(report), encoding="utf-8")
    return report


def _require_counts(report: ExperimentReport) -> None:
    """Reject a run whose every QKD slot was dark: its figures are all NaN."""
    if math.isnan(report.global_mean_visibility):
        raise ValueError(
            "no QKD slot counted a photon, so every visibility is undefined; "
            "check detector.input_rate and detector.dark_rate"
        )


def cmd_run(args: argparse.Namespace) -> int:
    settings, out_dir = _settings_from_args(args)
    report = _execute_run(settings, out_dir)
    _require_counts(report)
    sys.stdout.write(render_report(report))
    sys.stdout.write(f"outputs written to {out_dir}\n")
    return EXIT_OK


def cmd_keyrate(args: argparse.Namespace) -> int:
    params = KeyRateParams(L=args.L, v_th=args.v_th, Q=args.Q, e_bit=args.e_bit)
    rate = key_rate(params)
    threshold = error_threshold(args.L, args.v_th)
    print(f"R = {rate:.6f}")
    print(f"e_bit threshold = {threshold:.6f}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if "." not in args.param:
        raise ConfigError(f"sweep parameter must be section.key, got {args.param!r}")
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ConfigError("sweep needs at least one value")
    base_overrides = list(args.overrides)
    _, out_default = _settings_from_args(args)  # validate base config early
    out_dir = Path(args.out) if args.out else out_default
    out_dir.mkdir(parents=True, exist_ok=True)

    failed = 0
    with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="") as handle:
        writer = make_writer(handle)
        writer.writerow(
            ("parameter", "value", "seed", "global_mean_visibility",
             "mean_calib_visibility", "fraction_delays_ge_0.96")
        )
        for raw in raw_values:
            try:
                settings, _ = load_config(args.config, base_overrides + [f"{args.param}={raw}"])
                # every value runs at the same base seed so value-to-value
                # comparisons are paired
                settings = override_settings(
                    settings, seconds=args.seconds, mode=args.mode, seed=args.seed
                )
                report = run_experiment(settings)
                _require_counts(report)
            except (ConfigError, ValueError) as exc:
                # a rejected value keeps its row, with no seed or metrics
                print(f"error: {args.param}={raw}: {exc}", file=sys.stderr)
                writer.writerow((args.param, raw, "", "", "", ""))
                failed += 1
            else:
                vis = f"{report.global_mean_visibility:.6f}"
                writer.writerow((
                    args.param, raw, settings.seed, vis,
                    f"{report.mean_calib_visibility:.6f}",
                    f"{report.fraction_delays_at_least(0.96):.6f}",
                ))
                print(f"{args.param}={raw}: global mean visibility {vis}")
            handle.flush()
    print(f"sweep results written to {out_dir / 'sweep.csv'}")
    return EXIT_USAGE if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "keyrate": cmd_keyrate, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime fault: report, do not traceback-spam
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
