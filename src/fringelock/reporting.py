"""CSV trace emission and the human-readable run report.

Column layouts are the stable external contract (schema v1):

* calib_trace.csv:      second, delay_index, step_index, dac_code, voltage, c1, c2, visibility
* qkd_trace.csv:        second, slot, delay_index, c1, c2, visibility
* per_delay_summary.csv: delay_index, delay_ns, mean_visibility, min_visibility,
                         e_bit_proxy, accepted_fraction

Each trace file gets one ``calib_trace_row`` or ``qkd_trace_row`` call and
one ``write`` per second, which joins a second's field columns into lines; a
summary line is the run's ``DELAY_SUMMARY`` columns joined with commas. Every
field is numeric, so CSV quoting never applies and plain formatting gives the
bytes ``csv.writer`` would. A trace column formats each distinct value once
(an integer as ``str`` does, a float with six decimals and NaN as an empty
field) and maps the strings back to its rows through ``np.unique``'s inverse.
Floats are keyed by bits, not values, so ``-0.0`` keeps its sign; voltages by
DAC code; slot numbers are formatted once per run. The line terminator is
fixed, so identical (config, seed) runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
from functools import lru_cache
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .controller import VISIBILITY_TARGET, ExperimentReport
from .hardware import NUM_DELAYS, PmConfig, dac_to_voltages
from .keyrate import key_rate

CALIB_TRACE_HEADER = (
    "second", "delay_index", "step_index", "dac_code", "voltage", "c1", "c2", "visibility",
)
QKD_TRACE_HEADER = ("second", "slot", "delay_index", "c1", "c2", "visibility")
PER_DELAY_HEADER = (
    "delay_index", "delay_ns", "mean_visibility", "min_visibility",
    "e_bit_proxy", "accepted_fraction",
)


def _int_strings(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


def _float_strings(values: np.ndarray) -> list[str]:
    return ["" if v != v else f"{v:.6f}" for v in values.tolist()]


def _fields(keys: np.ndarray, strings=_int_strings) -> list[str]:
    """A column's fields: ``strings`` formats each distinct key once, and the
    rows take theirs through ``np.unique``'s inverse."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array(strings(distinct), dtype=object)[inverse].tolist()


def float_fields(column: np.ndarray) -> list[str]:
    """A float column's fields: six decimals, NaN as an empty field, each
    distinct bit pattern formatted once (a value key would merge -0.0 into 0.0)."""
    return _fields(column.view(np.int64), lambda bits: _float_strings(bits.view(np.float64)))


@lru_cache(maxsize=1)
def _slot_fields(slots: int) -> tuple[str, ...]:
    """The slot numbers of a QKD stage of ``slots`` slots, built once per run."""
    return tuple(map(str, range(slots)))


def csv_line(fields: Iterable) -> str:
    """One line of plain fields (a header, a summary row)."""
    return ",".join(map(str, fields)) + "\n"


def make_writer(handle: IO[str]):
    # fixed line terminator keeps outputs byte-identical across platforms
    return csv.writer(handle, lineterminator="\n")


def calib_trace_row(second: int, steps: np.ndarray, pm: PmConfig) -> str:
    """The calib_trace lines of a second's ``CALIB_STEP`` rows, ``""`` for none."""
    columns = [
        repeat(str(second)), *(_fields(steps[name]) for name in CALIB_TRACE_HEADER[1:4]),
        _fields(steps["dac_code"], lambda codes: _float_strings(dac_to_voltages(codes, pm))),
        _fields(steps["c1"]), _fields(steps["c2"]), float_fields(steps["visibility"]),
    ]
    # the empty last line ends the last row, and is all there is without rows
    return "\n".join(chain(map(",".join, zip(*columns)), ("",)))


def qkd_trace_row(second: int, slots: np.ndarray) -> str:
    """The qkd_trace lines of a second's ``QKD_SLOT`` array, ``""`` for none."""
    ints = (_fields(slots[name]) for name in QKD_TRACE_HEADER[2:5])
    columns = [
        repeat(str(second)), _slot_fields(len(slots)), *ints, float_fields(slots["visibility"])
    ]
    return "\n".join(chain(map(",".join, zip(*columns)), ("",)))


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
    count = report.delays_at_target
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
        e_bit = min(0.5, report.e_bit_overall)
        rate = key_rate(NUM_DELAYS, 1.0, 1.0, e_bit)
        lines.append(f"key rate per {NUM_DELAYS}-pulse train at Q=1, v_th=1: {rate:.6f}")
    lines.append(f"simulated time: {report.simulated_us} us")
    return "\n".join(lines) + "\n"
