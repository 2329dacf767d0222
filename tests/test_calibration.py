import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fringelock.calibration import (
    AmbiguousPhaseError,
    CalibrationAborted,
    CalibrationConfig,
    InitialStepPlan,
    _wrap_into_span,
    least_squares_phase,
    phase_to_compensation_code,
    run_calibration,
)
from fringelock.hardware import (
    DetectorCounts,
    PmConfig,
    dac_to_voltage,
    select_delay,
    voltage_to_phase,
)
from fringelock.optics import canonical_phase

from conftest import circular_diff, noiseless_plant

PM = PmConfig()
PLAN = InitialStepPlan()
TWO_PI = 2.0 * math.pi


def exact_fractions(alpha, ext_phases):
    return [0.5 * (1.0 + math.cos(alpha + e)) for e in ext_phases]


def grid_oracle(fractions, ext_phases, points=4096):
    """Independent dense-grid minimizer of the step-fit residual."""
    grid = np.arange(points) * (TWO_PI / points)
    s = np.zeros(points)
    for f, e in zip(fractions, ext_phases):
        s += (0.5 * (1.0 + np.cos(grid + e)) - f) ** 2
    return float(grid[int(np.argmin(s))])


class TestLeastSquaresPhase:
    def test_zero_phase_fringe(self):
        assert least_squares_phase([1.0, 0.5, 0.0, 0.5], PLAN) == pytest.approx(0.0, abs=1e-12)

    def test_half_fringe_shift(self):
        assert least_squares_phase([0.0, 0.5, 1.0, 0.5], PLAN) == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_third_fringe_inversion(self):
        # forward-evaluated fringe at pi/3, rounded to 6 decimals
        est = least_squares_phase([0.75, 0.066987, 0.25, 0.933013], PLAN)
        assert abs(circular_diff(est, math.pi / 3)) <= TWO_PI / 4096

    def test_closed_form_matches_grid_oracle(self):
        rng = np.random.default_rng(30)
        for alpha in rng.uniform(0.0, TWO_PI, size=100):
            f = exact_fractions(alpha, PLAN.ext_phases)
            closed = least_squares_phase(f, PLAN)
            grid = grid_oracle(f, PLAN.ext_phases)
            assert abs(circular_diff(closed, grid)) <= TWO_PI / 4096

    def test_grid_fallback_for_general_plan(self):
        plan = InitialStepPlan(ext_phases=(0.0, 2.0 * math.pi / 3, math.pi, 5.0 * math.pi / 3))
        assert not plan.is_quadrature
        rng = np.random.default_rng(31)
        for alpha in rng.uniform(0.0, TWO_PI, size=50):
            f = exact_fractions(alpha, plan.ext_phases)
            est = least_squares_phase(f, plan)
            assert abs(circular_diff(est, alpha)) <= 1.5 * TWO_PI / 4096

    def test_ambiguous_measurements(self):
        with pytest.raises(AmbiguousPhaseError):
            least_squares_phase([0.5, 0.5, 0.5, 0.5], PLAN)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            InitialStepPlan(ext_phases=(0.0, 0.0, math.pi, 1.5 * math.pi))
        with pytest.raises(ValueError):
            InitialStepPlan(ext_phases=(0.0, 0.1, 0.2, 0.3))  # span below pi
        with pytest.raises(ValueError):
            InitialStepPlan(ext_phases=(0.0, math.pi))


class TestPhaseToCompensationCode:
    def test_zero_phase_maps_to_lower_rail(self):
        assert phase_to_compensation_code(0.0, PM) == 0

    def test_half_wave(self):
        v = dac_to_voltage(phase_to_compensation_code(math.pi, PM), PM)
        assert v == pytest.approx(4.0, abs=PM.span / 65535)

    def test_modular_identity(self):
        # -3*pi/2 is pi/2 mod 2*pi, realized at half of v_pi
        v = dac_to_voltage(phase_to_compensation_code(1.5 * math.pi, PM), PM)
        assert v == pytest.approx(2.0, abs=PM.span / 65535)

    def test_cancels_phase(self):
        rng = np.random.default_rng(32)
        for alpha in rng.uniform(0.0, TWO_PI, size=200):
            code = phase_to_compensation_code(float(alpha), PM)
            phi = voltage_to_phase(dac_to_voltage(code, PM), PM)
            assert abs(circular_diff(alpha + phi, 0.0)) < 1e-4  # within DAC quantization


class _ScriptedPlant:
    """Plant stub that replays a fixed counts schedule."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.calls = 0

    def measure(self, delay, code, window_us):
        counts = self.schedule[min(self.calls, len(self.schedule) - 1)]
        self.calls += 1
        return DetectorCounts(c1=counts[0], c2=counts[1], window=window_us * 1e-6)


class TestRunCalibration:
    def test_noiseless_zero_phase(self):
        plant = noiseless_plant(input_rate=2.5e7)
        result = run_calibration(select_delay(0), plant, CalibrationConfig(), PM)
        assert result.final_visibility == 1.0
        assert result.accepted
        assert len(result.trace) == 23
        assert result.trace["step_index"].tolist() == list(range(1, 24))
        # steps 1-4 applied the plan phases as voltages
        for code, ext in zip(result.trace["dac_code"][:4].tolist(), PLAN.ext_phases):
            applied = voltage_to_phase(dac_to_voltage(code, PM), PM)
            assert abs(circular_diff(applied, ext)) < 1e-4
        assert result.trace["dac_code"][-1] == result.optimal_code

    def test_staged_search_tracks_exhaustive_optimum(self):
        cfg = CalibrationConfig()
        fine_step_phase = math.pi * cfg.fine_interval / PM.v_pi
        bound = fine_step_phase + math.pi / 4096
        rng = np.random.default_rng(33)
        for alpha in rng.uniform(0.0, TWO_PI, size=16):
            offsets = tuple([float(alpha)] + [0.0] * 127)
            plant = noiseless_plant(offsets=offsets)
            result = run_calibration(select_delay(0), plant, cfg, PM)
            phi = voltage_to_phase(dac_to_voltage(result.optimal_code, PM), PM)
            residual = abs(circular_diff(alpha + phi, 0.0))
            assert residual <= bound

    def test_monotone_improvement_noiseless(self):
        rng = np.random.default_rng(34)
        for alpha in rng.uniform(0.0, TWO_PI, size=8):
            offsets = tuple([float(alpha)] + [0.0] * 127)
            plant = noiseless_plant(offsets=offsets, input_rate=2.5e7)
            result = run_calibration(select_delay(0), plant, CalibrationConfig(), PM)
            by_step = dict(zip(result.trace["step_index"].tolist(),
                               result.trace["visibility"].tolist()))
            candidates = [by_step[i] for i in range(5, 23)]
            # the double-check step re-measures the best candidate seen
            assert result.final_visibility == max(candidates)
            assert result.final_visibility >= by_step[5]

    def test_default_noise_final_visibility_quantile(self):
        # frozen Monte Carlo outcome: 976/1000 seeded trials reach 0.98
        cfg = CalibrationConfig()
        delay = select_delay(0)
        offsets = tuple([math.pi / 3] + [0.0] * 127)
        from fringelock.drift import DriftConfig
        from fringelock.plant import Plant, PlantConfig

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
            result = run_calibration(delay, plant, cfg, plant.config.pm)
            hits += result.final_visibility >= 0.98
        assert hits >= 950

    def test_abort_on_dark_plant(self):
        plant = _ScriptedPlant([(900, 100), (500, 500), (100, 900), (500, 500), (0, 0)])
        with pytest.raises(CalibrationAborted) as excinfo:
            run_calibration(select_delay(3), plant, CalibrationConfig(), PM)
        assert len(excinfo.value.trace) == 4  # steps before the fault are kept

    def test_ambiguous_initial_steps_abort(self):
        plant = _ScriptedPlant([(500, 500)])
        with pytest.raises(CalibrationAborted):
            run_calibration(select_delay(3), plant, CalibrationConfig(), PM)

    def test_tie_break_earliest_measurement(self):
        # distinct first four steps pin the estimate at 0, then every
        # candidate measures the same visibility: PT1 (step 5) must win
        schedule = [(900, 100), (500, 500), (100, 900), (500, 500)] + [(60, 40)] * 19
        plant = _ScriptedPlant(schedule)
        result = run_calibration(select_delay(3), plant, CalibrationConfig(), PM)
        assert result.optimal_code == 0  # PT1's code for phase 0
        assert result.final_visibility == pytest.approx(0.2)
        assert not result.accepted
        assert plant.calls == 23

    def test_estimator_consistency_with_counts(self):
        # errors shrink ~x10 when per-step counts scale x100
        rng = np.random.default_rng(35)

        def rmse(lam_total, trials=400):
            errs = []
            for _ in range(trials):
                alpha = rng.uniform(0.0, TWO_PI)
                f = []
                for ext in PLAN.ext_phases:
                    lam1 = 0.5 * lam_total * (1.0 + math.cos(alpha + ext))
                    lam2 = lam_total - lam1
                    c1 = rng.poisson(lam1)
                    c2 = rng.poisson(lam2)
                    total = max(1, c1 + c2)
                    f.append(c1 / total)
                est = least_squares_phase(f, PLAN)
                errs.append(circular_diff(est, alpha) ** 2)
            return math.sqrt(float(np.mean(errs)))

        low, high = rmse(200.0), rmse(20_000.0)
        assert high < low / 5.0
        assert low / high < 25.0


class TestWrapIntoSpan:
    PERIOD = 2.0 * PM.v_pi

    @pytest.mark.parametrize("v", [1e9 + 1.3, -1e9 - 1.3])
    def test_huge_offset_wraps_and_keeps_phase(self, v):
        w = _wrap_into_span(v, PM)
        assert PM.v_min <= w <= PM.v_max
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
        result = run_calibration(select_delay(0), noiseless_plant(), cfg, PM)
        assert len(result.trace) == 23

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_voltage_lands_in_span_with_its_phase(self, v):
        w = _wrap_into_span(v, PM)
        assert PM.v_min <= w <= PM.v_max
        assert abs(math.remainder(w - v, self.PERIOD)) <= 1e-9 * max(1.0, abs(v))
