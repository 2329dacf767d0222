"""Command-line front end: run | keyrate | sweep.

Batch only; runs write CSV traces plus a text report into the output
directory and echo their effective configuration for reproducibility. A run
writes each second's trace lines as ``iter_seconds`` yields it, and
``run_experiment`` folds the same seconds into report.txt and per_delay_summary.csv.
Exit codes: 0 success, 1 runtime fault, 2 usage or configuration error,
including a run in which no QKD slot counted a photon (its outputs are kept;
a sweep still runs and records its other values when one is rejected). A run
that stops on a fault keeps the files it wrote; report.txt comes last, and a
rerun first removes the earlier run's report.txt and per_delay_summary.csv,
so a directory without report.txt holds an unfinished run.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import load_config, parse_key, schema_entry, write_config
from .controller import (
    MODES, VISIBILITY_TARGET, ExperimentReport, RunSettings, iter_seconds, run_experiment,
)
from .keyrate import error_threshold, key_rate
from .reporting import (
    CALIB_TRACE_HEADER,
    QKD_TRACE_HEADER,
    calib_trace_row,
    csv_line,
    float_fields,
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
    parser.add_argument("--mode", choices=MODES, help="override the mode")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override any config key (repeatable)",
    )


def _settings_from_args(args: argparse.Namespace, *swept: str) -> RunSettings:
    """Defaults, --config, --set, then --seconds, --seed and --mode as run.*
    keys, then any swept key: each source beats those before it; --out
    beats them all, its text kept verbatim."""
    shorthands = {"seconds": args.seconds, "seed": args.seed, "mode": args.mode}
    run_keys = [f"run.{k}={v}" for k, v in shorthands.items() if v is not None]
    settings = load_config(args.config, [*args.overrides, *run_keys, *swept])
    return settings if args.out is None else replace(settings, output_dir=args.out)


def _require_utf_8(text: str, named: str, file: str) -> None:
    """A usage error unless ``text`` encodes as UTF-8, which ``file`` is written in."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{named} is not UTF-8 text, so {file} cannot hold it") from None


def _make_output_dir(args: argparse.Namespace, output_dir: str, echoed: bool = False) -> Path:
    """Create the output directory and return it; an empty name, a NUL byte,
    a file where it or a parent should be, or, for a run that echoes its
    config, a path that is not UTF-8 text or that the echo's reader would
    strip or split, is a usage error, named by the option or key that gave it."""
    source = "run.output_dir" if args.out is None else "--out"
    if not output_dir.strip():
        raise ValueError(f"{source} is empty; name an output directory")
    if "\0" in output_dir:
        raise ValueError(f"{source} {output_dir!r} holds a NUL byte, which no path can hold")
    if echoed:
        _require_utf_8(output_dir, f"{source} {output_dir}", "effective_config.ini")
        if output_dir != output_dir.strip():
            raise ValueError(
                f"{source} {output_dir!r} starts or ends with whitespace, "
                "so effective_config.ini cannot hold it"
            )
        if "\n" in output_dir or "\r" in output_dir:
            raise ValueError(
                f"{source} {output_dir!r} has a line break, so effective_config.ini cannot hold it"
            )
    out_dir = Path(output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValueError(
            f"{source} {out_dir} cannot be an output directory: {exc.strerror}"
        ) from exc
    return out_dir


def _execute_run(settings: RunSettings, out_dir: Path) -> tuple[ExperimentReport, str]:
    """Run with every output written into the existing ``out_dir``; returns
    the report and its text."""
    # an earlier run's results must not stand beside this run's files
    for name in ("report.txt", "per_delay_summary.csv"):
        (out_dir / name).unlink(missing_ok=True)
    write_config(replace(settings, output_dir=str(out_dir)), out_dir / "effective_config.ini")
    with open(out_dir / "calib_trace.csv", "w", encoding="utf-8", newline="") as calib_f, open(
        out_dir / "qkd_trace.csv", "w", encoding="utf-8", newline=""
    ) as qkd_f:
        calib_f.write(csv_line(CALIB_TRACE_HEADER))
        qkd_f.write(csv_line(QKD_TRACE_HEADER))

        def written_seconds():
            # one formatter call per file and second, read from this module's
            # globals: perfbench/child.py --trace 1 rebinds both to time them
            for second, steps, slots in iter_seconds(settings):
                calib_f.write(calib_trace_row(second, steps, settings.plant.pm))
                qkd_f.write(qkd_trace_row(second, slots))
                yield second, steps, slots

        report = run_experiment(settings, written_seconds())
    write_summary(report, out_dir / "per_delay_summary.csv")
    text = render_report(report)
    (out_dir / "report.txt").write_text(text, encoding="utf-8", newline="")
    return report, text


def _require_counts(report: ExperimentReport) -> None:
    """Reject a run whose every QKD slot was dark: its figures are all NaN."""
    if math.isnan(report.global_mean_visibility):
        raise ValueError(
            "no QKD slot counted a photon, so every visibility is undefined; "
            "check detector.input_rate and detector.dark_rate"
        )


def cmd_run(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    out_dir = _make_output_dir(args, settings.output_dir, echoed=True)
    report, text = _execute_run(settings, out_dir)
    _require_counts(report)
    sys.stdout.write(text)
    sys.stdout.write(f"outputs written to {out_dir}\n")
    return EXIT_OK


def cmd_keyrate(args: argparse.Namespace) -> int:
    rate = key_rate(args.L, args.v_th, args.Q, args.e_bit)
    threshold = error_threshold(args.L, args.v_th)
    print(f"R = {rate:.6f}")
    print(f"e_bit threshold = {threshold:.6f}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    section, key = parse_key(args.param)
    param = f"{section}.{key}"  # as parsed, so a padded key writes the same rows
    if schema_entry(section, key)[0] == "output_dir":  # an unknown key fails here
        raise ValueError("sweep cannot vary run.output_dir: its runs write no output files")
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ValueError("sweep needs at least one value")
    for raw in raw_values:
        _require_utf_8(raw, f"sweep value {raw!r}", "sweep.csv")
    out_dir = _make_output_dir(args, _settings_from_args(args).output_dir)  # base config checked

    failed = 0
    with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="") as handle:
        writer = make_writer(handle)
        writer.writerow(
            ("parameter", "value", "seed", "global_mean_visibility",
             "mean_calib_visibility", f"fraction_delays_ge_{VISIBILITY_TARGET}")
        )
        for raw in raw_values:
            try:
                # unless the seed is swept, every value runs at the same base
                # seed, so value-to-value comparisons are paired
                settings = _settings_from_args(args, f"{param}={raw}")
                report = run_experiment(settings)
                _require_counts(report)
            except ValueError as exc:
                # a rejected value keeps its row, with no seed or metrics
                print(f"error: {param}={raw}: {exc}", file=sys.stderr)
                writer.writerow((param, raw, "", "", "", ""))
                failed += 1
            else:
                metrics = float_fields(np.array([
                    report.global_mean_visibility, report.mean_calib_visibility,
                    report.delays_at_target / len(report.per_delay),
                ]))
                writer.writerow((param, raw, settings.seed, *metrics))
                print(f"{param}={raw}: global mean visibility {metrics[0]}")
            handle.flush()
    print(f"sweep results written to {out_dir / 'sweep.csv'}")
    return EXIT_USAGE if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "keyrate": cmd_keyrate, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime fault: report, do not traceback-spam
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
