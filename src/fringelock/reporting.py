"""CSV trace emission and the human-readable run report.

Column layouts are the stable external contract (schema v1):

* calib_trace.csv:      second, delay_index, step_index, dac_code, voltage, c1, c2, visibility
* qkd_trace.csv:        second, slot, delay_index, c1, c2, visibility
* per_delay_summary.csv: delay_index, delay_ns, mean_visibility, min_visibility,
                         e_bit_proxy, accepted_fraction

Floats are written with fixed precision and a fixed line terminator so
identical (config, seed) runs produce byte-identical files; NaN is written
as an empty field. Trace rows are built one per row of a second's
``CALIB_STEP`` and ``QKD_SLOT`` arrays.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import IO, Sequence

from .controller import ExperimentReport
from .hardware import PmConfig, dac_to_voltage

CALIB_TRACE_HEADER = (
    "second", "delay_index", "step_index", "dac_code", "voltage", "c1", "c2", "visibility",
)
QKD_TRACE_HEADER = ("second", "slot", "delay_index", "c1", "c2", "visibility")
PER_DELAY_HEADER = (
    "delay_index", "delay_ns", "mean_visibility", "min_visibility",
    "e_bit_proxy", "accepted_fraction",
)


def _fmt(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.6f}"


def make_writer(handle: IO[str]):
    # fixed line terminator keeps outputs byte-identical across platforms
    return csv.writer(handle, lineterminator="\n")


def calib_trace_row(second: int, row: Sequence, pm: PmConfig) -> tuple:
    """One calib_trace line from a ``CALIB_STEP`` row (or the same fields as a tuple)."""
    delay_index, step_index, code, c1, c2, vis = row
    voltage = _fmt(dac_to_voltage(code, pm))
    return (second, delay_index, step_index, code, voltage, c1, c2, _fmt(vis))


def qkd_trace_row(second: int, slot: int, row: Sequence) -> tuple:
    """One qkd_trace line from a ``QKD_SLOT`` row (or the same fields as a tuple)."""
    delay_index, c1, c2, vis = row
    return (second, slot, delay_index, c1, c2, _fmt(vis))


def write_summary(report: ExperimentReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = make_writer(handle)
        writer.writerow(PER_DELAY_HEADER)
        for d in report.per_delay:
            writer.writerow(
                (
                    d.delay_index,
                    d.delay_ns,
                    _fmt(d.mean_visibility),
                    _fmt(d.min_visibility),
                    _fmt(d.e_bit_proxy),
                    _fmt(d.accepted_fraction),
                )
            )


def render_report(report: ExperimentReport, threshold: float = 0.96) -> str:
    """Plain-text summary; the fraction of delays holding the visibility
    target is the headline number."""
    frac = report.fraction_delays_at_least(threshold)
    count = sum(1 for d in report.per_delay if d.mean_visibility >= threshold)
    worst = min(
        (d for d in report.per_delay if not math.isnan(d.mean_visibility)),
        key=lambda d: d.mean_visibility,
        default=None,
    )
    accepted = [d.accepted_fraction for d in report.per_delay]
    lines = [
        f"run: {report.seconds} s, mode={report.mode}, seed={report.seed}",
        f"global mean visibility: {report.global_mean_visibility:.6f}",
        f"delays with mean visibility >= {threshold:.2f}: {count}/{len(report.per_delay)}"
        f" ({100.0 * frac:.1f}%)",
    ]
    if worst is not None:
        lines.append(
            f"lowest per-delay mean visibility: {worst.mean_visibility:.6f}"
            f" (delay index {worst.delay_index}, {worst.delay_ns} ns)"
        )
    if not math.isnan(report.mean_calib_visibility):
        lines.append(f"mean calibration visibility: {report.mean_calib_visibility:.6f}")
    lines.append(
        f"calibration acceptance: {100.0 * sum(accepted) / len(accepted):.1f}% of refreshes"
    )
    if not math.isnan(report.e_bit_overall):
        lines.append(f"e_bit proxy (delays r > 0): {report.e_bit_overall:.6f}")
        lines.append(
            "key rate per 128-pulse train at Q=1, v_th=1: "
            f"{report.key_rate_per_train():.6f}"
        )
    lines.append(f"simulated time: {report.simulated_us} us")
    return "\n".join(lines) + "\n"
