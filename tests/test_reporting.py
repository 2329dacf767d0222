import math
from dataclasses import replace

import numpy as np

from fringelock.controller import QKD_SLOT, RunSettings, run_experiment
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
