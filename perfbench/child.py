"""Run one fringelock CLI invocation in this fresh interpreter and time it.

Usage: python3 child.py RESULT_JSON TRACE(0|1) -- <fringelock CLI args>

The parent puts the checkout's ``src`` first on PYTHONPATH and records the
monotonic time just before starting this process; every timestamp here uses
the same system-wide monotonic clock, so the parent can subtract across the
two processes. With TRACE=1 the public functions of each module are wrapped
from outside (no source file changes) and their calls, total time and self
time are written beside the timings.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


class Tracer:
    """Call count, total and self seconds per wrapped name.

    Self time is total minus the time covered by wrapped callees, kept with a
    stack of per-span child-time accumulators (the program is single-threaded).
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self.calibrations_accepted = 0
        self.calibrations_aborted = 0
        self.qkd_slots = 0

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced


class _TimedWriter:
    """csv writer whose writerow is a traced span (the C writer cannot be patched)."""

    def __init__(self, writer, tracer: Tracer) -> None:
        self._writer = writer
        self.writerow = tracer.wrap("reporting.writerow", writer.writerow)

    def __getattr__(self, name: str):
        return getattr(self._writer, name)


def install_tracing(tracer: Tracer, cli) -> None:
    """Wrap each layer's functions where the package binds the name."""
    from fringelock import calibration, controller, drift, plant

    wrap = tracer.wrap

    run_calibration = controller.run_calibration

    def counted_calibration(*args, **kwargs):
        try:
            result = run_calibration(*args, **kwargs)
        except calibration.CalibrationAborted:
            tracer.calibrations_aborted += 1
            raise
        tracer.calibrations_accepted += bool(result.accepted)
        return result

    run_qkd_stage = controller.run_qkd_stage

    def counted_qkd_stage(*args, **kwargs):
        records = run_qkd_stage(*args, **kwargs)
        tracer.qkd_slots += len(records)
        return records

    controller.run_stabilization_stage = wrap(
        "controller.stabilization_stage", controller.run_stabilization_stage
    )
    controller.run_qkd_stage = wrap("controller.qkd_stage", counted_qkd_stage)
    controller.run_calibration = wrap("calibration", counted_calibration)
    controller.select_delay = wrap("hardware.select_delay", controller.select_delay)
    plant.Plant.measure = wrap("plant.measure", plant.Plant.measure)
    plant.Plant.idle = wrap("plant.idle", plant.Plant.idle)
    drift.advance = wrap("drift.advance", drift.advance)
    drift.true_phase = wrap("drift.true_phase", drift.true_phase)
    plant.sample_counts = wrap("hardware.sample_counts", plant.sample_counts)
    plant.port_intensities = wrap("optics.port_intensities", plant.port_intensities)
    for name in ("calib_trace_row", "qkd_trace_row", "write_summary"):
        setattr(cli, name, wrap(f"reporting.{name}", getattr(cli, name)))
    make_writer = cli.make_writer
    cli.make_writer = lambda handle: _TimedWriter(make_writer(handle), tracer)
    cli.load_config = wrap("config.load_config", cli.load_config)
    cli.write_config = wrap("config.write_config", cli.write_config)
    cli.run_experiment = wrap("controller.run_experiment", cli.run_experiment)


def main(argv: list[str]) -> int:
    result_path, trace_flag, sep, *cli_args = argv
    if sep != "--" or trace_flag not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    t_import_start = time.monotonic()
    import numpy

    import fringelock
    import fringelock.cli as cli

    t_import_end = time.monotonic()
    src = Path("src").resolve()
    if not Path(fringelock.__file__).resolve().is_relative_to(src):
        print(f"fringelock imported from {fringelock.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer()
    if trace_flag == "1":
        install_tracing(tracer, cli)

    # one outer wrapper in both modes: marks the end of set-up and keeps the
    # numbers sweep prints but does not write
    reports: list[dict] = []
    first_call: list[float] = []
    run_experiment = cli.run_experiment

    def observed_run_experiment(*args, **kwargs):
        if not first_call:
            first_call.append(time.monotonic())
        report = run_experiment(*args, **kwargs)
        reports.append({"simulated_us": report.simulated_us, "e_bit": report.e_bit_overall})
        return report

    cli.run_experiment = observed_run_experiment

    t_main_entry = time.monotonic()
    exit_code = cli.main(cli_args)
    t_main_return = time.monotonic()
    sys.stdout.flush()

    result = {
        "exit_code": exit_code,
        "t_import_start": t_import_start,
        "t_import_end": t_import_end,
        "t_first_run": first_call[0] if first_call else None,
        "t_main_entry": t_main_entry,
        "t_main_return": t_main_return,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "reports": reports,
    }
    if trace_flag == "1":
        result["trace"] = {
            "spans": tracer.stats,
            "calibrations_accepted": tracer.calibrations_accepted,
            "calibrations_aborted": tracer.calibrations_aborted,
            "qkd_slots": tracer.qkd_slots,
        }
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
