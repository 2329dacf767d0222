import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fringelock.calibration import (
    CALIB_STEP,
    QUADRATURE_PHASES,
    TOTAL_STEPS,
    CalibrationAborted,
    CalibrationConfig,
    _scan_codes,
    _wrap_into_span,
    least_squares_phase,
    phase_to_compensation_code,
    preset_codes,
    run_calibration,
)
from fringelock.hardware import V_PI, PmConfig, dac_to_voltage, voltage_for_phase, voltage_to_code
from fringelock.plant import Plant, PlantConfig

from conftest import circular_diff, noiseless_plant, pm_configs
from reference_model import voltage_to_phase

PM = PmConfig()
TWO_PI = 2.0 * math.pi


class TestLeastSquaresPhase:
    def test_zero_phase_fringe(self):
        assert least_squares_phase([1.0, 0.5, 0.0, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_half_fringe_shift(self):
        assert least_squares_phase([0.0, 0.5, 1.0, 0.5]) == pytest.approx(math.pi, abs=1e-12)

    def test_third_fringe_inversion(self):
        # forward-evaluated fringe at pi/3, rounded to 6 decimals
        est = least_squares_phase([0.75, 0.066987, 0.25, 0.933013])
        assert abs(circular_diff(est, math.pi / 3)) <= TWO_PI / 4096

    def test_closed_form_matches_grid_oracle(self):
        # an independent dense-grid minimizer of the step-fit residual
        grid = np.arange(4096) * (TWO_PI / 4096)
        rng = np.random.default_rng(30)
        for alpha in rng.uniform(0.0, TWO_PI, size=100):
            f = [0.5 * (1.0 + math.cos(alpha + e)) for e in QUADRATURE_PHASES]
            residual = sum((0.5 * (1.0 + np.cos(grid + e)) - fk) ** 2
                           for fk, e in zip(f, QUADRATURE_PHASES))
            oracle = float(grid[int(np.argmin(residual))])
            assert abs(circular_diff(least_squares_phase(f), oracle)) <= TWO_PI / 4096

    def test_ambiguous_measurements(self):
        with pytest.raises(CalibrationAborted, match="coincide"):
            least_squares_phase([0.5, 0.5, 0.5, 0.5])


class TestPhaseToCompensationCode:
    @given(pm_configs())
    def test_zero_phase_maps_to_lower_rail(self, pm):
        # so the cold-start table of controller.iter_seconds is code 0 for every DAC
        assert phase_to_compensation_code(0.0, pm) == 0

    def test_half_wave(self):
        v = dac_to_voltage(phase_to_compensation_code(math.pi, PM), PM)
        assert v == pytest.approx(4.0, abs=PM.v_max / 65535)

    def test_modular_identity(self):
        # -3*pi/2 is pi/2 mod 2*pi, realized at half of V_PI
        v = dac_to_voltage(phase_to_compensation_code(1.5 * math.pi, PM), PM)
        assert v == pytest.approx(2.0, abs=PM.v_max / 65535)

    def test_cancels_phase(self):
        rng = np.random.default_rng(32)
        for alpha in rng.uniform(0.0, TWO_PI, size=200):
            code = phase_to_compensation_code(float(alpha), PM)
            phi = voltage_to_phase(dac_to_voltage(code, PM), PM)
            assert abs(circular_diff(alpha + phi, 0.0)) < 1e-4  # within DAC quantization


class _ScriptedCount:
    """Count function stub that replays a fixed counts schedule."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.calls = 0

    def __call__(self, code):
        counts = self.schedule[min(self.calls, len(self.schedule) - 1)]
        self.calls += 1
        return counts


def _count(plant, delay=0, cfg=CalibrationConfig()):
    """The plant's counting function for one search on ``delay``: a slot of
    its 23 windows, no pad."""
    window_us = cfg.step_window_us
    return plant.counters([delay], window_us, TOTAL_STEPS, TOTAL_STEPS * window_us)[0]


class TestRunCalibration:
    def test_noiseless_zero_phase(self):
        plant = noiseless_plant(input_rate=2.5e7)
        rows = []
        result = run_calibration(0, _count(plant), CalibrationConfig(), PM, rows)
        trace = np.array(rows, dtype=CALIB_STEP)
        assert result.final_visibility == 1.0
        assert result.accepted
        assert len(trace) == 23
        assert trace["step_index"].tolist() == list(range(1, 24))
        # steps 1-4 applied the preset phases as voltages
        for code, ext in zip(trace["dac_code"][:4].tolist(), QUADRATURE_PHASES):
            applied = voltage_to_phase(dac_to_voltage(code, PM), PM)
            assert abs(circular_diff(applied, ext)) < 1e-4
        assert trace["dac_code"][-1] == result.optimal_code
        assert trace["visibility"][-1] == result.final_visibility

    def test_first_four_steps_apply_the_preset_codes(self):
        presets = preset_codes(PM)
        assert presets == tuple(
            voltage_to_code(voltage_for_phase(p), PM) for p in QUADRATURE_PHASES
        )
        rows = []
        count = _count(Plant(PlantConfig(), 70), 7)
        run_calibration(7, count, CalibrationConfig(), PM, rows)
        assert [row[2] for row in rows[:4]] == list(presets)

    def test_appends_after_the_callers_rows(self):
        # the stage shares one list across delays: earlier rows stay as they
        # are, and the estimate reads only this search's steps 1-4
        plant_a, plant_b = noiseless_plant(input_rate=2.5e7), noiseless_plant(input_rate=2.5e7)
        fresh, shared = [], [(9, 1, 0, 1, 0, 1.0)] * 5
        expected = run_calibration(4, _count(plant_a, 4), CalibrationConfig(), PM, fresh)
        assert run_calibration(4, _count(plant_b, 4), CalibrationConfig(), PM, shared) == expected
        assert shared[:5] == [(9, 1, 0, 1, 0, 1.0)] * 5
        assert shared[5:] == fresh

    def test_staged_search_tracks_exhaustive_optimum(self):
        cfg = CalibrationConfig()
        fine_step_phase = math.pi * cfg.fine_interval / V_PI
        bound = fine_step_phase + math.pi / 4096
        rng = np.random.default_rng(33)
        for alpha in rng.uniform(0.0, TWO_PI, size=16):
            offsets = tuple([float(alpha)] + [0.0] * 127)
            plant = noiseless_plant(offsets=offsets)
            result = run_calibration(0, _count(plant), cfg, PM, [])
            phi = voltage_to_phase(dac_to_voltage(result.optimal_code, PM), PM)
            residual = abs(circular_diff(alpha + phi, 0.0))
            assert residual <= bound

    def test_monotone_improvement_noiseless(self):
        rng = np.random.default_rng(34)
        for alpha in rng.uniform(0.0, TWO_PI, size=8):
            offsets = tuple([float(alpha)] + [0.0] * 127)
            plant = noiseless_plant(offsets=offsets, input_rate=2.5e7)
            rows = []
            result = run_calibration(0, _count(plant), CalibrationConfig(), PM, rows)
            by_step = {step: vis for _, step, *_, vis in rows}
            candidates = [by_step[i] for i in range(5, 23)]
            # the double-check step re-measures the best candidate seen
            assert result.final_visibility == max(candidates)
            assert result.final_visibility >= by_step[5]

    def test_default_noise_final_visibility_quantile(self):
        # frozen Monte Carlo outcome: 976/1000 seeded trials reach 0.98
        cfg = CalibrationConfig()
        delay = 0
        offsets = tuple([math.pi / 3] + [0.0] * 127)
        from fringelock.drift import DriftConfig

        hits = 0
        for trial in range(1000):
            plant = Plant(
                PlantConfig(
                    drift=DriftConfig(
                        laser_ou_sigma=0.0, path_walk_sigma=0.0, static_offsets=offsets
                    ),
                ),
                entropy=10_000 + trial,
            )
            result = run_calibration(delay, _count(plant, delay), cfg, plant.config.pm, [])
            hits += result.final_visibility >= 0.98
        assert hits >= 950

    def test_abort_on_dark_plant(self):
        count = _ScriptedCount([(900, 100), (500, 500), (100, 900), (500, 500), (0, 0)])
        rows = []
        with pytest.raises(CalibrationAborted):
            run_calibration(3, count, CalibrationConfig(), PM, rows)
        assert len(rows) == 4  # steps before the fault are kept

    def test_ambiguous_initial_steps_abort(self):
        count = _ScriptedCount([(500, 500)])
        rows = []
        with pytest.raises(CalibrationAborted):
            run_calibration(3, count, CalibrationConfig(), PM, rows)
        assert len(rows) == 4  # the four flat steps are kept

    def test_tie_break_earliest_measurement(self):
        # distinct first four steps pin the estimate at 0, then every
        # candidate measures the same visibility: PT1 (step 5) must win
        schedule = [(900, 100), (500, 500), (100, 900), (500, 500)] + [(60, 40)] * 19
        count = _ScriptedCount(schedule)
        result = run_calibration(3, count, CalibrationConfig(), PM, [])
        assert result.optimal_code == 0  # PT1's code for phase 0
        assert result.final_visibility == pytest.approx(0.2)
        assert not result.accepted
        assert count.calls == 23

    def test_estimator_consistency_with_counts(self):
        # errors shrink ~x10 when per-step counts scale x100
        rng = np.random.default_rng(35)

        def rmse(lam_total):
            errs = []
            for _ in range(400):
                alpha = rng.uniform(0.0, TWO_PI)
                f = []
                for ext in QUADRATURE_PHASES:
                    lam1 = 0.5 * lam_total * (1.0 + math.cos(alpha + ext))
                    lam2 = lam_total - lam1
                    c1 = rng.poisson(lam1)
                    c2 = rng.poisson(lam2)
                    total = max(1, c1 + c2)
                    f.append(c1 / total)
                est = least_squares_phase(f)
                errs.append(circular_diff(est, alpha) ** 2)
            return math.sqrt(float(np.mean(errs)))

        low, high = rmse(200.0), rmse(20_000.0)
        assert high < low / 5.0
        assert low / high < 25.0


class TestWrapIntoSpan:
    PERIOD = 2.0 * V_PI

    @pytest.mark.parametrize("v", [1e9 + 1.3, -1e9 - 1.3])
    def test_huge_offset_wraps_and_keeps_phase(self, v):
        w = _wrap_into_span(v, PM)
        assert 0.0 <= w <= PM.v_max
        assert math.remainder(w - v, self.PERIOD) == 0.0

    def test_single_period_shift_is_one_addition(self):
        assert _wrap_into_span(-0.3, PM) == -0.3 + self.PERIOD
        assert _wrap_into_span(10.4, PM) == 10.4 - self.PERIOD
        assert _wrap_into_span(10.0, PM) == 10.0

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_voltage_rejected(self, v):
        with pytest.raises(ValueError, match="cannot wrap"):
            _wrap_into_span(v, PM)

    def test_huge_scan_interval_completes(self):
        cfg = CalibrationConfig(coarse_interval=1e9, fine_interval=1e9)
        rows = []
        run_calibration(0, _count(noiseless_plant(), cfg=cfg), cfg, PM, rows)
        assert len(rows) == 23

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_voltage_lands_in_span_with_its_phase(self, v):
        w = _wrap_into_span(v, PM)
        assert 0.0 <= w <= PM.v_max
        assert abs(math.remainder(w - v, self.PERIOD)) <= 1e-9 * max(1.0, abs(v))


class TestScanCodes:
    def test_offsets_are_computed_once_per_config(self):
        cfg = CalibrationConfig(coarse_interval=0.1, fine_interval=0.025)
        assert cfg.coarse_offsets == tuple((j - 4) * 0.1 for j in range(9))
        assert cfg.fine_offsets == tuple(j * 0.025 for j in (-4, -3, -2, -1, 1, 2, 3, 4))
        assert cfg.coarse_offsets is cfg.coarse_offsets
        assert cfg.fine_offsets is cfg.fine_offsets

    @given(pm=pm_configs(), interval=st.floats(1e-9, 1e3), data=st.data())
    def test_matches_voltage_to_code_per_point(self, pm, interval, data):
        # rail centers and wide intervals put points off the span, to wrap
        center = data.draw(st.sampled_from([0, pm.max_code]) | st.integers(0, pm.max_code))
        center_v = dac_to_voltage(center, pm)
        for offsets in (
            CalibrationConfig(coarse_interval=interval).coarse_offsets,
            CalibrationConfig(fine_interval=interval).fine_offsets,
        ):
            expected = [voltage_to_code(_wrap_into_span(center_v + off, pm), pm) for off in offsets]
            assert _scan_codes(center, offsets, pm) == expected
