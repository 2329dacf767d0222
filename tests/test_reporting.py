import math
from dataclasses import replace

import numpy as np

from fringelock.controller import (
    DELAY_SUMMARY,
    QKD_SLOT,
    ExperimentReport,
    RunSettings,
    run_experiment,
)
from fringelock.reporting import qkd_trace_row, render_report, write_summary

from conftest import zero_noise_settings


def test_missing_visibility_serializes_empty():
    slot = np.array([(9, 0, 0, math.nan)], dtype=QKD_SLOT)[0]
    row = qkd_trace_row(0, 3, slot)
    assert row == (0, 3, 9, 0, 0, "")


def test_summary_handles_dark_run(tmp_path):
    settings = zero_noise_settings()
    dead = replace(settings.plant.detector, input_rate=0.0, dark_rate=0.0)
    report = run_experiment(replace(settings, plant=replace(settings.plant, detector=dead)))
    assert math.isnan(report.global_mean_visibility)
    path = tmp_path / "summary.csv"
    write_summary(report, path)
    lines = path.read_text().splitlines()
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
