from dataclasses import replace

import numpy as np
import pytest

from fringelock import controller
from fringelock.calibration import CALIB_STEP, CalibrationConfig
from fringelock.controller import (
    CLOSED_LOOP,
    OPEN_LOOP,
    QKD_SLOT,
    TABLE_ENTRY,
    FrameSchedule,
    RunSettings,
    bootstrap_table,
    run_experiment,
    run_qkd_stage,
    run_stabilization_stage,
)
from fringelock.drift import DriftConfig
from fringelock.hardware import DetectorConfig, select_delay
from fringelock.plant import Plant, PlantConfig

from conftest import zero_noise_settings


class TestFrameSchedule:
    def test_defaults(self):
        s = FrameSchedule()
        assert s.qkd_slot_us == 100
        assert s.qkd_slots == 6600
        assert 128 * s.perm_slot_us == 320_000 <= s.stab_duration_us

    def test_slots_must_fit(self):
        with pytest.raises(ValueError):
            FrameSchedule(stab_duration_us=300_000, qkd_duration_us=700_000)

    def test_stages_must_fill_the_second(self):
        with pytest.raises(ValueError):
            FrameSchedule(stab_duration_us=340_000, qkd_duration_us=600_000)

    def test_rate_must_divide_evenly(self):
        with pytest.raises(ValueError):
            FrameSchedule(switch_rate_hz=9_999)


class TestStabilizationStage:
    def test_zero_noise_all_accepted_at_unity(self):
        settings = zero_noise_settings()
        # random static offsets: the search must still land every path at 1.0
        drift = replace(settings.plant.drift, static_offsets="random")
        plant = Plant(replace(settings.plant, drift=drift), entropy=21)
        table, steps = run_stabilization_stage(
            0, plant, settings.calibration, settings.schedule, bootstrap_table(plant.config)
        )
        assert table.dtype == TABLE_ENTRY
        assert len(table) == 128
        assert table["accepted"].all()
        assert (table["calib_visibility"] == 1.0).all()
        assert (table["refreshed_at"] == 0).all()
        assert plant.elapsed_us == 340_000
        # 23 steps for each of the 128 delays, in delay order
        assert steps.dtype == CALIB_STEP
        assert steps["delay_index"].tolist() == [i for i in range(128) for _ in range(23)]

    def test_default_noise_acceptance_over_sixty_seconds(self):
        # frozen threshold: at least 120 of 128 refreshes accepted each second
        plant = Plant(PlantConfig(), entropy=22)
        calib = CalibrationConfig()
        schedule = FrameSchedule()
        table = bootstrap_table(plant.config)
        worst = 128
        for second in range(60):
            table, _ = run_stabilization_stage(second, plant, calib, schedule, table)
            worst = min(worst, int(table["accepted"].sum()))
            plant.idle(schedule.qkd_duration_us)  # stand in for the QKD stage
        assert worst >= 120

    def test_aborted_entry_keeps_previous_code(self):
        settings = zero_noise_settings()
        dead = replace(settings.plant.detector, input_rate=0.0, dark_rate=0.0)
        plant = Plant(replace(settings.plant, detector=dead), entropy=23)
        previous = bootstrap_table(plant.config)
        table, _ = run_stabilization_stage(
            0, plant, settings.calibration, settings.schedule, previous
        )
        assert not table["accepted"].any()
        assert (table["code"] == previous["code"]).all()
        assert np.isnan(table["calib_visibility"]).all()
        # aborted slots still consume their full permutation slot
        assert plant.elapsed_us == 340_000

    def test_steps_must_fit_permutation_slot(self):
        settings = zero_noise_settings()
        plant = Plant(settings.plant)
        calib = replace(settings.calibration, step_window_us=200)
        with pytest.raises(ValueError):
            run_stabilization_stage(0, plant, calib, settings.schedule, bootstrap_table(plant.config))


class _SpyPlant(Plant):
    """Records every (delay index, code) the controller applies."""

    def __init__(self, config, entropy=0):
        super().__init__(config, entropy)
        self.applied = []

    def measure(self, delay, code, window_us):
        self.applied.append((delay.index, code))
        return super().measure(delay, code, window_us)


class TestQkdStage:
    def test_slot_count_and_lookup_correctness(self):
        settings = zero_noise_settings()
        plant = _SpyPlant(settings.plant, entropy=24)
        table, _ = run_stabilization_stage(
            0, plant, settings.calibration, settings.schedule, bootstrap_table(plant.config)
        )
        plant.applied.clear()
        slots = run_qkd_stage(table, plant, settings.schedule, np.random.default_rng(25))
        assert slots.dtype == QKD_SLOT
        assert len(slots) == 6600
        assert plant.elapsed_us == 1_000_000
        assert slots["delay_index"].tolist() == [index for index, _ in plant.applied]
        for index, code in plant.applied:
            assert type(code) is int and code == table["code"][index]

    def test_zero_count_slots_retained_as_missing(self):
        settings = zero_noise_settings()
        dead = replace(settings.plant.detector, input_rate=0.0, dark_rate=0.0)
        plant = Plant(replace(settings.plant, detector=dead), entropy=26)
        table = bootstrap_table(plant.config)
        slots = run_qkd_stage(table, plant, settings.schedule, np.random.default_rng(27))
        assert len(slots) == 6600
        assert not slots["c1"].any() and not slots["c2"].any()
        assert np.isnan(slots["visibility"]).all()

    def test_delay_draws_are_uniform_chi_square(self):
        # the exact stream run_experiment(seed=0) consumes; statistic frozen
        _, delay_ss = np.random.SeedSequence(0).spawn(2)
        draws = np.random.default_rng(delay_ss).integers(0, 128, size=128_000)
        counts = np.bincount(draws, minlength=128)
        expected = draws.size / 128
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat == pytest.approx(125.926, abs=1e-3)
        assert stat < 181.993  # chi-square critical value, p=0.001, 127 dof


class TestRunExperiment:
    def test_zero_noise_single_second(self):
        report = run_experiment(zero_noise_settings())
        assert len(report.per_delay) == 128
        assert all(d.mean_visibility == 1.0 for d in report.per_delay)
        assert all(d.e_bit_proxy == 0.0 for d in report.per_delay)
        assert report.global_mean_visibility == 1.0
        assert report.simulated_us == 1_000_000

    def test_deterministic_reports(self):
        settings = RunSettings(seconds=2, seed=31)
        a, b = run_experiment(settings), run_experiment(settings)
        assert a == b

    def test_slot_records_and_calib_traces_via_sinks(self):
        settings = RunSettings(seconds=2, seed=32)
        calls = []
        run_experiment(settings, lambda *args: calls.append(args))
        assert [second for second, _, _ in calls] == [0, 1]
        assert sum(len(slots) for _, _, slots in calls) == 2 * 6600
        calib_rows = [(second, row) for second, steps, _ in calls for row in steps]
        assert len(calib_rows) == 2 * 128 * 23
        seconds = {row[0] for row in calib_rows}
        assert seconds == {0, 1}

    def test_open_loop_calibrates_only_once(self):
        settings = RunSettings(seconds=3, seed=33, mode=OPEN_LOOP)
        calib_rows = []
        report = run_experiment(
            settings,
            lambda second, steps, slots: calib_rows.extend([second] * len(steps)),
        )
        assert set(calib_rows) == {0}
        assert report.mode == OPEN_LOOP
        assert report.simulated_us == 3_000_000
        # a single calibration means acceptance is counted against one refresh
        assert all(d.accepted_fraction in (0.0, 1.0) for d in report.per_delay)

    def test_e_bit_excludes_balanced_delay(self):
        report = run_experiment(RunSettings(seconds=1, seed=34))
        tail = [d for d in report.per_delay if d.delay_index > 0 and d.slots > 0]
        weighted = sum(d.mean_visibility * d.slots for d in tail) / sum(d.slots for d in tail)
        assert report.e_bit_overall == pytest.approx((1.0 - weighted) / 2.0, abs=1e-12)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RunSettings(mode="flywheel")
        with pytest.raises(ValueError):
            RunSettings(seconds=0)


class TestTimingInvariants:
    """The timing contract holds under ``python -O`` too: real exceptions."""

    def test_stale_table_raises(self, monkeypatch):
        monkeypatch.setattr(
            controller,
            "run_stabilization_stage",
            lambda second, plant, calib, schedule, previous: (previous, []),
        )
        with pytest.raises(RuntimeError, match="table must be refreshed this second"):
            run_experiment(zero_noise_settings())

    def test_clock_skew_raises(self, monkeypatch):
        monkeypatch.setattr(controller, "run_qkd_stage", lambda *args: np.zeros(0, QKD_SLOT))
        with pytest.raises(RuntimeError, match="clock skew: 340000 us after second 0"):
            run_experiment(zero_noise_settings())
