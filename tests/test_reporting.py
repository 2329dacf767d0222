import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fringelock import cli
from fringelock.calibration import CALIB_STEP
from fringelock.controller import (
    DELAY_SUMMARY,
    QKD_SLOT,
    ExperimentReport,
    RunSettings,
    run_experiment,
)
from fringelock.hardware import NUM_DELAYS, PmConfig, dac_to_voltage
from fringelock.plant import PlantConfig
from fringelock.reporting import (
    CALIB_TRACE_HEADER,
    PER_DELAY_HEADER,
    QKD_TRACE_HEADER,
    calib_trace_columns,
    float_fields,
    qkd_trace_columns,
    qkd_trace_row,
    render_report,
    write_summary,
)

from conftest import zero_noise_settings


# The row-tuple form the files were first written in, through csv.writer:
# the reference the f-string lines must match byte for byte.
def _reference_field(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.6f}"


def _reference_calib_row(second: int, row: tuple, pm: PmConfig) -> tuple:
    delay_index, step_index, code, c1, c2, vis = row
    voltage = _reference_field(dac_to_voltage(code, pm))
    return (second, delay_index, step_index, code, voltage, c1, c2, _reference_field(vis))


def _reference_qkd_row(second: int, slot: int, row: tuple) -> tuple:
    delay_index, c1, c2, vis = row
    return (second, slot, delay_index, c1, c2, _reference_field(vis))


def _reference_summary_rows(per_delay: np.ndarray) -> list[tuple]:
    columns = [per_delay[name].tolist() for name in PER_DELAY_HEADER]
    columns[2:] = [[_reference_field(v) for v in column] for column in columns[2:]]
    return list(zip(*columns))


def _reference_csv(header: tuple, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def test_missing_visibility_serializes_empty():
    slots = np.array([(9, 0, 0, math.nan)], dtype=QKD_SLOT)
    line = qkd_trace_row(0, 3, *(column[0] for column in qkd_trace_columns(slots)))
    assert line == "0,3,9,0,0,\n"
    assert line.rstrip("\n").split(",")[-1] == ""


UNIT_FLOATS = st.one_of(st.sampled_from([math.nan, 1.0, -1.0, 0.0, -0.0]), st.floats(-1.0, 1.0))
# any float, infinities too, is formatted the same way; the summary columns
# stay in [-1, 1] because the report adds them up
VISIBILITIES = st.one_of(UNIT_FLOATS, st.floats())
# counts up to the int64 limit, with the values near 2**62 drawn often
COUNTS = st.one_of(st.integers(2**62 - 4, 2**62 + 4), st.integers(0, 2**63 - 1))


@st.composite
def pm_configs(draw):
    """A drive chain with 1-, 16- or 63-bit codes, on the default 0-10 V span
    or on a drawn one with span >= 2*v_pi."""
    dac_bits = draw(st.sampled_from([1, 16, 63]))
    if draw(st.booleans()):
        return PmConfig(dac_bits=dac_bits)
    v_min = draw(st.floats(-100.0, 100.0))
    v_max = v_min + draw(st.floats(0.01, 100.0))
    half_span = (v_max - v_min) / 2.0
    v_pi = draw(st.floats(half_span / 100.0, half_span))
    return PmConfig(v_min=v_min, v_max=v_max, v_pi=v_pi, dac_bits=dac_bits)


@st.composite
def run_columns(draw):
    """A pm, one to three seconds of trace arrays and a summary."""
    pm = draw(pm_configs())
    codes = st.one_of(st.sampled_from([0, pm.max_code]), st.integers(0, pm.max_code))
    step = st.tuples(
        st.integers(0, NUM_DELAYS - 1), st.integers(1, 23), codes, COUNTS, COUNTS, VISIBILITIES
    )
    slot = st.tuples(st.integers(0, NUM_DELAYS - 1), COUNTS, COUNTS, VISIBILITIES)
    seconds = draw(st.lists(
        st.tuples(st.lists(step, max_size=12), st.lists(slot, max_size=12)),
        min_size=1, max_size=3,
    ))
    per_delay = np.zeros(NUM_DELAYS, dtype=DELAY_SUMMARY)
    per_delay["delay_index"] = np.arange(NUM_DELAYS)
    per_delay["delay_ns"] = 2 * np.arange(NUM_DELAYS)
    for name in PER_DELAY_HEADER[2:]:
        # a few values repeated down the column; a dark run's column is all NaN
        values = draw(st.one_of(
            st.just([math.nan]), st.lists(UNIT_FLOATS, min_size=1, max_size=8)
        ))
        per_delay[name] = np.resize(values, NUM_DELAYS)
    return pm, seconds, per_delay


class TestLinesMatchCsvWriter:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=run_columns())
    def test_run_outputs_match_the_row_tuples(self, tmp_path_factory, case):
        pm, seconds, per_delay = case
        report = ExperimentReport(
            seconds=len(seconds), mode="closed-loop", seed=0, per_delay=per_delay,
            global_mean_visibility=0.98, mean_calib_visibility=0.99,
            e_bit_overall=0.01, simulated_us=1_000_000 * len(seconds),
        )

        def fake_run(settings, sink):
            for second, (steps, slots) in enumerate(seconds):
                sink(second, np.array(steps, dtype=CALIB_STEP), np.array(slots, dtype=QKD_SLOT))
            return report

        out = tmp_path_factory.mktemp("lines")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "run_experiment", fake_run)
            cli._execute_run(RunSettings(plant=PlantConfig(pm=pm)), out)
        calib_rows = [
            _reference_calib_row(second, row, pm)
            for second, (steps, _) in enumerate(seconds) for row in steps
        ]
        qkd_rows = [
            _reference_qkd_row(second, slot, row)
            for second, (_, slots) in enumerate(seconds) for slot, row in enumerate(slots)
        ]
        expected = {
            "calib_trace.csv": _reference_csv(CALIB_TRACE_HEADER, calib_rows),
            "qkd_trace.csv": _reference_csv(QKD_TRACE_HEADER, qkd_rows),
            "per_delay_summary.csv": _reference_csv(
                PER_DELAY_HEADER, _reference_summary_rows(per_delay)
            ),
        }
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode("utf-8"), name


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, 0.0, -0.0],
        [math.nan, 0.5, math.nan, -0.0, 0.5, 0.0, -0.5, 0.5],
        [math.nan, -math.nan, math.nan],  # two NaN bit patterns, both empty
        [],
        [0.1234565, 1.0, 0.1234565, -1.0, 1e300, -math.inf, math.inf, -1e-7, 1e-7],
    ],
)
def test_float_fields_formats_by_bit_pattern(values):
    # the trace's visibility column is a strided view of a QKD_SLOT array
    slots = np.zeros(len(values), dtype=QKD_SLOT)
    slots["visibility"] = values
    expected = [_reference_field(v) for v in values]
    assert float_fields(slots["visibility"]) == expected
    assert float_fields(np.array(values, dtype=np.float64)) == expected


def test_idle_second_has_no_calib_fields():
    # an open-loop second that did not calibrate hands the sink no CALIB_STEP rows
    columns = calib_trace_columns(np.zeros(0, dtype=CALIB_STEP), PmConfig())
    assert columns == [[]] * len(CALIB_TRACE_HEADER[1:])


def test_summary_handles_dark_run(tmp_path):
    settings = zero_noise_settings()
    dead = replace(settings.plant.detector, input_rate=0.0, dark_rate=0.0)
    report = run_experiment(replace(settings, plant=replace(settings.plant, detector=dead)))
    assert math.isnan(report.global_mean_visibility)
    path = tmp_path / "summary.csv"
    write_summary(report, path)
    text = path.read_text()
    assert text == _reference_csv(PER_DELAY_HEADER, _reference_summary_rows(report.per_delay))
    lines = text.splitlines()
    assert len(lines) == 129
    # all-dark run: means, minima and error proxies are all missing
    assert lines[1].startswith("0,0,,,")
    text = render_report(report)
    assert "delays with mean visibility >= 0.96: 0/128" in text


def test_report_mentions_headline_fraction():
    report = run_experiment(RunSettings(seconds=1, seed=2))
    text = render_report(report)
    assert "delays with mean visibility >= 0.96" in text
    assert f"seed={report.seed}" in text
    assert "e_bit proxy" in text


def test_worst_delay_is_the_first_of_equal_minima():
    per_delay = np.zeros(128, dtype=DELAY_SUMMARY)
    per_delay["delay_index"] = np.arange(128)
    per_delay["delay_ns"] = 2 * np.arange(128)
    per_delay["mean_visibility"] = 0.99
    per_delay["mean_visibility"][[3, 40, 41]] = (math.nan, 0.5, 0.5)
    report = ExperimentReport(
        seconds=1, mode="closed-loop", seed=0, per_delay=per_delay,
        global_mean_visibility=0.98, mean_calib_visibility=0.99,
        e_bit_overall=0.01, simulated_us=1_000_000,
    )
    text = render_report(report)
    assert "lowest per-delay mean visibility: 0.500000 (delay index 40, 80 ns)" in text
    assert "delays with mean visibility >= 0.96: 125/128" in text
