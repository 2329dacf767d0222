import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fringelock import cli
from fringelock.calibration import CALIB_STEP
from fringelock.controller import (
    DELAY_SUMMARY,
    QKD_SLOT,
    VISIBILITY_TARGET,
    ExperimentReport,
    RunSettings,
    run_experiment,
)
from fringelock.hardware import NUM_DELAYS, PmConfig
from fringelock.plant import PlantConfig
from fringelock.reporting import (
    CALIB_TRACE_HEADER,
    PER_DELAY_HEADER,
    QKD_TRACE_HEADER,
    calib_trace_row,
    float_fields,
    qkd_trace_row,
    render_report,
    write_summary,
)

from conftest import pm_configs, zero_noise_settings
from reference_model import calib_row, csv_field, csv_text, qkd_row, summary_rows


def test_missing_visibility_serializes_empty():
    slots = np.array([(9, 0, 0, math.nan)], dtype=QKD_SLOT)
    line = qkd_trace_row(0, slots)
    assert line == "0,0,9,0,0,\n"
    assert line.rstrip("\n").split(",")[-1] == ""


UNIT_FLOATS = st.one_of(st.sampled_from([math.nan, 1.0, -1.0, 0.0, -0.0]), st.floats(-1.0, 1.0))
# any float, infinities too, is formatted the same way; the summary columns
# stay in [-1, 1] because the report adds them up
VISIBILITIES = st.one_of(UNIT_FLOATS, st.floats())
# counts up to the int64 limit, with the values near 2**62 drawn often
COUNTS = st.one_of(st.integers(2**62 - 4, 2**62 + 4), st.integers(0, 2**63 - 1))


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
    # a few values repeated down each column; a dark run's column is all NaN
    columns = [
        draw(st.one_of(st.just([math.nan]), st.lists(UNIT_FLOATS, min_size=1, max_size=8)))
        for _ in PER_DELAY_HEADER[2:]
    ]
    return pm, seconds, summary_of(columns)


def summary_of(columns):
    """A ``DELAY_SUMMARY`` array whose float columns repeat the given values."""
    per_delay = np.zeros(NUM_DELAYS, dtype=DELAY_SUMMARY)
    per_delay["delay_index"] = np.arange(NUM_DELAYS)
    per_delay["delay_ns"] = 2 * np.arange(NUM_DELAYS)
    for name, values in zip(PER_DELAY_HEADER[2:], columns):
        per_delay[name] = np.resize(values, NUM_DELAYS)
    return per_delay


LARGEST_COUNT = 2**63 - 1


class TestLinesMatchCsvWriter:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=run_columns())
    # a second with no steps and no slots, between two that have rows; a
    # slot with no counts, whose NaN visibility is an empty field
    @example(case=(PmConfig(), [
        ([(4, 1, 9, 5, 6, 0.5)], [(4, 5, 6, 0.5), (9, 0, 0, math.nan)]), ([], []),
        ([(3, 2, 0, 1, 0, 1.0)], []),
    ], summary_of([[math.nan]] * 4)))
    # codes, counts and delays that repeat, so rows share distinct values
    @example(case=(PmConfig(dac_bits=4), [(
        [(7, 1, 15, 100, 3, 0.5), (7, 2, 15, 3, 100, -0.5), (8, 1, 15, 100, 100, 0.0)],
        [(7, 100, 3, 0.5), (8, 3, 100, -0.5), (7, 100, 3, 0.5)],
    )], summary_of([[0.5, -0.0]] * 4)))
    # the largest counts an int64 column holds
    @example(case=(PmConfig(), [(
        [(127, 23, 0, LARGEST_COUNT, LARGEST_COUNT, 0.0)], [(0, LARGEST_COUNT, 0, 1.0)],
    )], summary_of([[1.0]] * 4)))
    def test_run_outputs_match_the_row_tuples(self, tmp_path_factory, case):
        pm, seconds, per_delay = case
        report = ExperimentReport(
            seconds=len(seconds), mode="closed-loop", seed=0, per_delay=per_delay,
            global_mean_visibility=0.98, mean_calib_visibility=0.99,
            e_bit_overall=0.01, simulated_us=1_000_000 * len(seconds),
        )

        def fake_seconds(settings):
            for second, (steps, slots) in enumerate(seconds):
                yield second, np.array(steps, dtype=CALIB_STEP), np.array(slots, dtype=QKD_SLOT)

        def fake_run(settings, records):
            assert len(list(records)) == len(seconds)
            return report

        out = tmp_path_factory.mktemp("lines")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "iter_seconds", fake_seconds)
            patch.setattr(cli, "run_experiment", fake_run)
            cli._execute_run(RunSettings(plant=PlantConfig(pm=pm)), out)
        # the row-tuple form the files were first written in, through
        # csv.writer: the lines must match it byte for byte
        calib_rows = [
            calib_row(second, row, pm)
            for second, (steps, _) in enumerate(seconds) for row in steps
        ]
        qkd_rows = [
            qkd_row(second, slot, row)
            for second, (_, slots) in enumerate(seconds) for slot, row in enumerate(slots)
        ]
        expected = {
            "calib_trace.csv": csv_text(CALIB_TRACE_HEADER, calib_rows),
            "qkd_trace.csv": csv_text(QKD_TRACE_HEADER, qkd_rows),
            "per_delay_summary.csv": csv_text(PER_DELAY_HEADER, summary_rows(per_delay)),
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
    expected = [csv_field(v) for v in values]
    assert float_fields(slots["visibility"]) == expected
    assert float_fields(np.array(values, dtype=np.float64)) == expected


def test_empty_second_has_no_lines():
    # an open-loop second that did not calibrate has no CALIB_STEP rows
    assert calib_trace_row(0, np.zeros(0, dtype=CALIB_STEP), PmConfig()) == ""
    assert qkd_trace_row(0, np.zeros(0, dtype=QKD_SLOT)) == ""


def test_summary_handles_dark_run(tmp_path):
    settings = zero_noise_settings()
    dead = replace(settings.plant.detector, input_rate=0.0, dark_rate=0.0)
    report = run_experiment(replace(settings, plant=replace(settings.plant, detector=dead)))
    assert math.isnan(report.global_mean_visibility)
    path = tmp_path / "summary.csv"
    write_summary(report, path)
    text = path.read_text()
    assert text == csv_text(PER_DELAY_HEADER, summary_rows(report.per_delay))
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


def test_headline_counts_a_delay_at_exactly_the_target():
    per_delay = np.zeros(128, dtype=DELAY_SUMMARY)
    per_delay["mean_visibility"] = VISIBILITY_TARGET
    per_delay["mean_visibility"][:3] = (math.nextafter(VISIBILITY_TARGET, 0.0), math.nan, 0.0)
    report = ExperimentReport(
        seconds=1, mode="closed-loop", seed=0, per_delay=per_delay,
        global_mean_visibility=0.98, mean_calib_visibility=0.99,
        e_bit_overall=0.01, simulated_us=1_000_000,
    )
    assert report.delays_at_target == 125
    assert "delays with mean visibility >= 0.96: 125/128 (97.7%)" in render_report(report)


def test_key_rate_line_clamps_an_error_proxy_past_one_half():
    # a table locked on the wrong fringe leaves a negative QKD visibility, so
    # the proxy passes 0.5, where key_rate's domain ends
    per_delay = np.zeros(128, dtype=DELAY_SUMMARY)
    per_delay["mean_visibility"] = -0.4
    report = ExperimentReport(
        seconds=1, mode="open-loop", seed=0, per_delay=per_delay,
        global_mean_visibility=-0.4, mean_calib_visibility=0.99,
        e_bit_overall=0.7, simulated_us=1_000_000,
    )
    text = render_report(report)
    assert "e_bit proxy (delays r > 0): 0.700000\n" in text
    assert "key rate per 128-pulse train at Q=1, v_th=1: -0.066344\n" in text
