"""Acceptance suite: every criterion at its stated tolerance.

Each criterion's test prints one `[A#] PASS/FAIL` line (run with `pytest -s`
to see them); the calibration-acceptance check beside A1 reads A1's run and
prints none. The three 60-second simulations are session-scoped so the
suite pays for each run once.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from fringelock.calibration import (
    ACCEPT_THRESHOLD,
    QUADRATURE_PHASES,
    TOTAL_STEPS,
    CalibrationConfig,
    least_squares_phase,
    run_calibration,
)
from fringelock.cli import main
from fringelock.controller import RunSettings, iter_seconds, run_experiment
from fringelock.hardware import (
    V_PI,
    DetectorConfig,
    PmConfig,
    dac_to_voltage,
    voltage_for_phase,
    voltage_to_code,
)
from fringelock.keyrate import binary_entropy, error_threshold
from fringelock.plant import Plant, PlantConfig

from conftest import PINNED_RUNS, circular_diff, noiseless_plant, pinned_run_faults, quiet_drift
from reference_model import voltage_to_phase

SEED = 1


def check(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}", flush=True)
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def closed_loop_run():
    """The report, the wall time and each second's accepted refreshes: the
    step-23 visibilities at or above ACCEPT_THRESHOLD."""
    accepted: list[int] = []

    def counted(records):
        for second, steps, slots in records:
            final = steps["visibility"][steps["step_index"] == TOTAL_STEPS]
            accepted.append(int((final >= ACCEPT_THRESHOLD).sum()))
            yield second, steps, slots

    settings = RunSettings(seconds=60, seed=SEED)
    start = time.perf_counter()
    report = run_experiment(settings, counted(iter_seconds(settings)))
    wall = time.perf_counter() - start
    return report, wall, accepted


@pytest.fixture(scope="session")
def laser_only_run():
    base = RunSettings(seconds=60, seed=SEED)
    drift = replace(base.plant.drift, path_walk_sigma=0.0)
    settings = replace(base, plant=replace(base.plant, drift=drift))
    return run_experiment(settings)


@pytest.fixture(scope="session")
def open_loop_run():
    return run_experiment(RunSettings(seconds=60, seed=SEED, mode="open-loop"))


def test_a1_visibility_stability(closed_loop_run):
    report, wall, _ = closed_loop_run
    vis = report.per_delay["mean_visibility"]
    count = int((vis >= 0.96).sum())
    frac = count / 128
    ok = frac >= 0.90 and vis.min() >= 0.90 and wall < 60.0
    check(
        "A1",
        ok,
        f"{count}/128 delays >= 0.96 ({100 * frac:.1f}%), "
        f"min {vis.min():.4f} (>= 0.90), wall {wall:.1f} s (< 60 s)",
    )


def test_default_noise_acceptance_over_sixty_seconds(closed_loop_run):
    # frozen threshold: at least 120 of 128 refreshes accepted each second
    _, _, accepted = closed_loop_run
    assert len(accepted) == 60
    assert min(accepted) >= 120


def test_a2_downward_trend_with_delay(laser_only_run):
    report = laser_only_run
    rho, _ = spearmanr(
        report.per_delay["delay_ns"],
        report.per_delay["mean_visibility"],
    )
    check("A2", rho < 0.0, f"spearman(delay_ns, mean visibility) = {rho:.3f} (< 0)")


def test_a3_closed_loop_beats_open_loop(closed_loop_run, open_loop_run):
    closed, _, _ = closed_loop_run
    gap = closed.global_mean_visibility - open_loop_run.global_mean_visibility
    check(
        "A3",
        gap >= 0.05,
        f"closed {closed.global_mean_visibility:.4f} - open "
        f"{open_loop_run.global_mean_visibility:.4f} = {gap:.4f} (>= 0.05)",
    )


def test_a4_staged_search_matches_exhaustive_oracle():
    pm = PmConfig()
    calib = CalibrationConfig()
    # exhaustive oracle: true visibility over the whole DAC code space
    codes = np.arange(2**pm.dac_bits)
    volts = codes * (pm.v_max / (2**pm.dac_bits - 1))
    phases = np.mod(math.pi * volts / V_PI, 2.0 * math.pi)
    fine_step_phase = math.pi * calib.fine_interval / V_PI
    estimator_bound = 2.0 * math.pi / 4096 + fine_step_phase
    window_us = calib.step_window_us
    slot_us = TOTAL_STEPS * window_us  # one search's windows, no pad

    worst_gap = 0.0
    worst_est = 0.0
    for alpha in np.arange(256) * (2.0 * math.pi / 256):
        offsets = tuple([float(alpha)] + [0.0] * 127)
        [count] = noiseless_plant(offsets=offsets).counters([0], window_us, TOTAL_STEPS, slot_us)
        result = run_calibration(0, count, calib, pm, [])
        phi = voltage_to_phase(dac_to_voltage(result.optimal_code, pm), pm)
        staged = math.cos(alpha + phi)
        oracle = float(np.max(np.cos(alpha + phases)))
        worst_gap = max(worst_gap, oracle - staged)

        estimator_plant = noiseless_plant(offsets=offsets)
        fractions = []
        for ext in QUADRATURE_PHASES:
            c1, c2 = estimator_plant.measure(
                0, voltage_to_code(voltage_for_phase(ext), pm), 100
            )
            fractions.append(c1 / (c1 + c2))
        alpha_hat = least_squares_phase(fractions)
        worst_est = max(worst_est, abs(circular_diff(alpha_hat, alpha)))

    ok = worst_gap <= 1e-3 and worst_est <= estimator_bound
    check(
        "A4",
        ok,
        f"worst oracle gap {worst_gap:.2e} (<= 1e-3), worst estimator error "
        f"{worst_est:.2e} (<= {estimator_bound:.2e}) over 256 phases",
    )


def test_a5_key_rate_numerics():
    h = binary_entropy(1.0 / 127.0)
    thr = error_threshold(128, 1)
    thresholds = [error_threshold(L, 1) for L in (8, 16, 32, 64, 128)]
    increasing = all(a < b for a, b in zip(thresholds, thresholds[1:]))
    ok = abs(h - 0.066343) <= 1e-6 and 0.349 <= thr <= 0.350 and increasing
    check(
        "A5",
        ok,
        f"h(1/127) = {h:.7f} (0.066343 +/- 1e-6), threshold(128,1) = {thr:.6f} "
        f"(in [0.349, 0.350]), thresholds strictly increasing over L: {increasing}",
    )


def test_a6_timing_invariants():
    settings = RunSettings(seconds=3, seed=SEED)
    schedule = settings.schedule
    calib_steps: dict[tuple[int, int], list[int]] = {}
    slots_per_second: dict[int, int] = {}
    records = list(iter_seconds(settings))
    for second, steps, slots in records:
        for delay, step in zip(steps["delay_index"].tolist(), steps["step_index"].tolist()):
            calib_steps.setdefault((second, delay), []).append(step)
        slots_per_second[second] = len(slots)

    report = run_experiment(settings, records)
    step_ok = len(calib_steps) == 3 * 128 and all(
        steps == list(range(1, 24)) for steps in calib_steps.values()
    )
    slot_ok = all(slots_per_second[s] == 6600 for s in range(3))
    budget_ok = 128 * schedule.perm_slot_us == 320_000 <= schedule.stab_duration_us
    clock_ok = report.simulated_us == 3_000_000
    ok = step_ok and slot_ok and budget_ok and clock_ok
    check(
        "A6",
        ok,
        f"23 steps x {len(calib_steps)} calibrations: {step_ok}, "
        f"6600 slots/s: {slot_ok}, 128 x 2.5 ms = 320 ms <= 340 ms: {budget_ok}, "
        f"clock exact at {report.simulated_us} us: {clock_ok}",
    )


def test_a7_statistical_sanity():
    # the QKD stage's counting path: delay 0 at code 0 sits at quadrature
    # behind its pi/2 offset, so port 1 expects 500 counts per 100 us window
    config = PlantConfig(
        detector=DetectorConfig(input_rate=5e7, dark_rate=0.0),
        drift=quiet_drift((math.pi / 2,) + (0.0,) * 127), contrast=1.0,
    )
    draws, _ = Plant(config, entropy=2024).measure_slots(np.zeros(100_000, int), [0] * 128, 100)
    mean_err = abs(draws.mean() - 500.0) / 500.0
    var_err = abs(draws.var() - 500.0) / 500.0

    _, delay_ss = np.random.SeedSequence(0).spawn(2)
    sample = np.random.default_rng(delay_ss).integers(0, 128, size=128_000)
    counts = np.bincount(sample, minlength=128)
    expected = sample.size / 128
    stat = float(((counts - expected) ** 2 / expected).sum())
    chi_ok = abs(stat - 125.926) < 1e-3 and stat < 181.993

    ok = mean_err < 0.01 and var_err < 0.05 and chi_ok
    check(
        "A7",
        ok,
        f"poisson mean err {100 * mean_err:.3f}% (< 1%), var err {100 * var_err:.2f}% "
        f"(< 5%), chi-square {stat:.3f} (pinned 125.926, critical 181.993)",
    )


def test_a8_byte_identical_outputs(tmp_path):
    out, args = tmp_path / "run", PINNED_RUNS["default"]["args"]
    assert main([*args, "--out", str(out)]) == 0
    faults = pinned_run_faults(out, "default")
    held = (f"the pinned SHA-256 of {', '.join(PINNED_RUNS['default']['files'])}, each second's "
            "traces, the summaries rebuilt from its traces and a rerun from its echo held")
    check("A8", not faults, f"{' '.join(args)}: {'; '.join(faults) or held}")
