"""CSV trace emission and the human-readable run report.

Column layouts are the stable external contract (schema v1):

* calib_trace.csv:      second, delay_index, step_index, dac_code, voltage, c1, c2, visibility
* qkd_trace.csv:        second, slot, delay_index, c1, c2, visibility
* per_delay_summary.csv: delay_index, delay_ns, mean_visibility, min_visibility,
                         e_bit_proxy, accepted_fraction

Each trace line is one f-string over the ``tolist()`` columns of a second's
``CALIB_STEP`` or ``QKD_SLOT`` array, and each file gets one ``write`` per
second; a summary line is the run's ``DELAY_SUMMARY`` columns joined with
commas. Every field is numeric, so CSV quoting never applies and
plain formatting gives the bytes ``csv.writer`` would. Floats are written
with six decimals and NaN as an empty field. A float column formats each
distinct bit pattern once and maps the strings back to its rows; bits, not
values, key the strings, so ``-0.0`` keeps its sign. Each distinct DAC
code's voltage is computed once per second, all of them as one
``hardware.dac_to_voltages`` array, and formatted once. The line
terminator is fixed, so identical (config, seed) runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .controller import VISIBILITY_TARGET, ExperimentReport
from .hardware import NUM_DELAYS, PmConfig, dac_to_voltages
from .keyrate import KeyRateParams, key_rate

CALIB_TRACE_HEADER = (
    "second", "delay_index", "step_index", "dac_code", "voltage", "c1", "c2", "visibility",
)
QKD_TRACE_HEADER = ("second", "slot", "delay_index", "c1", "c2", "visibility")
PER_DELAY_HEADER = (
    "delay_index", "delay_ns", "mean_visibility", "min_visibility",
    "e_bit_proxy", "accepted_fraction",
)


def float_fields(column: np.ndarray) -> list[str]:
    """A float column's fields: six decimals, NaN as an empty field, each
    distinct bit pattern formatted once."""
    # a value key (np.unique on floats, a dict) would merge -0.0 into 0.0
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    fields = ["" if v != v else f"{v:.6f}" for v in bits.view(np.float64).tolist()]
    return np.array(fields, dtype=object)[inverse].tolist()


def voltage_fields(codes: np.ndarray, pm: PmConfig) -> list[str]:
    """The voltage fields of a DAC code column, each distinct code's voltage
    converted and formatted once. A code in range has a finite voltage, so
    no field is empty."""
    # the distinct codes are about two thirds of a second's codes; few recur
    # the next second, so a run-wide memo would grow and rarely hit
    distinct, inverse = np.unique(codes, return_inverse=True)
    fields = [f"{v:.6f}" for v in dac_to_voltages(distinct, pm).tolist()]
    return np.array(fields, dtype=object)[inverse].tolist()


def csv_line(fields: Iterable) -> str:
    """One line of plain fields (a header, a summary row)."""
    return ",".join(map(str, fields)) + "\n"


def make_writer(handle: IO[str]):
    # fixed line terminator keeps outputs byte-identical across platforms
    return csv.writer(handle, lineterminator="\n")


def calib_trace_columns(steps: np.ndarray, pm: PmConfig) -> list[list]:
    """The calib_trace fields after ``second`` of a second's ``CALIB_STEP`` rows, by column."""
    codes = steps["dac_code"]
    return [
        steps["delay_index"].tolist(), steps["step_index"].tolist(), codes.tolist(),
        voltage_fields(codes, pm), steps["c1"].tolist(), steps["c2"].tolist(),
        float_fields(steps["visibility"]),
    ]


def qkd_trace_columns(slots: np.ndarray) -> list[list]:
    """The qkd_trace fields after ``second`` and ``slot`` of a ``QKD_SLOT`` array, by column."""
    return [
        slots["delay_index"].tolist(), slots["c1"].tolist(), slots["c2"].tolist(),
        float_fields(slots["visibility"]),
    ]


def calib_trace_row(
    second: int, delay_index: int, step_index: int, dac_code: int, voltage: str,
    c1: int, c2: int, visibility: str,
) -> str:
    """One calib_trace line; ``voltage`` and ``visibility`` come as formatted fields."""
    return f"{second},{delay_index},{step_index},{dac_code},{voltage},{c1},{c2},{visibility}\n"


def qkd_trace_row(
    second: int, slot: int, delay_index: int, c1: int, c2: int, visibility: str
) -> str:
    """One qkd_trace line; ``visibility`` comes as a formatted field."""
    return f"{second},{slot},{delay_index},{c1},{c2},{visibility}\n"


def write_summary(report: ExperimentReport, path: str | Path) -> None:
    # the header names DELAY_SUMMARY columns; those after the two ints are floats
    per_delay = report.per_delay
    columns = [per_delay[name].tolist() for name in PER_DELAY_HEADER[:2]]
    columns += [float_fields(per_delay[name]) for name in PER_DELAY_HEADER[2:]]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(csv_line(PER_DELAY_HEADER) + "".join(map(csv_line, zip(*columns))))


def render_report(report: ExperimentReport) -> str:
    """Plain-text summary; the fraction of delays holding the visibility
    target is the headline number."""
    mean_vis = report.per_delay["mean_visibility"]
    count = int(np.count_nonzero(mean_vis >= VISIBILITY_TARGET))
    accepted = report.per_delay["accepted_fraction"]
    lines = [
        f"run: {report.seconds} s, mode={report.mode}, seed={report.seed}",
        f"global mean visibility: {report.global_mean_visibility:.6f}",
        f"delays with mean visibility >= {VISIBILITY_TARGET:.2f}: {count}/{len(report.per_delay)}"
        f" ({100.0 * count / len(report.per_delay):.1f}%)",
    ]
    if not np.isnan(mean_vis).all():
        # the first of equal minima, as a scan in delay order finds it
        worst = report.per_delay[np.nanargmin(mean_vis)]
        lines.append(
            f"lowest per-delay mean visibility: {worst['mean_visibility']:.6f}"
            f" (delay index {worst['delay_index']}, {worst['delay_ns']} ns)"
        )
    if not math.isnan(report.mean_calib_visibility):
        lines.append(f"mean calibration visibility: {report.mean_calib_visibility:.6f}")
    # sum() adds in delay order, one element at a time, as the pinned report needs
    lines.append(
        f"calibration acceptance: {100.0 * sum(accepted) / len(accepted):.1f}% of refreshes"
    )
    if not math.isnan(report.e_bit_overall):
        lines.append(f"e_bit proxy (delays r > 0): {report.e_bit_overall:.6f}")
        e_bit = min(0.5, max(0.0, report.e_bit_overall))
        rate = key_rate(KeyRateParams(L=NUM_DELAYS, v_th=1.0, Q=1.0, e_bit=e_bit))
        lines.append(f"key rate per {NUM_DELAYS}-pulse train at Q=1, v_th=1: {rate:.6f}")
    lines.append(f"simulated time: {report.simulated_us} us")
    return "\n".join(lines) + "\n"
