import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from fringelock import controller
from fringelock.calibration import CALIB_STEP, CalibrationAborted, CalibrationConfig
from fringelock.calibration import run_calibration
from fringelock.controller import (
    DELAY_SUMMARY,
    OPEN_LOOP,
    QKD_SLOT,
    FrameSchedule,
    RunSettings,
    iter_seconds,
    run_experiment,
    run_qkd_stage,
    run_stabilization_stage,
)
from fringelock.drift import DriftConfig
from fringelock.hardware import NUM_DELAYS, DetectorConfig, PmConfig
from fringelock.plant import Plant, PlantConfig

from conftest import zero_noise_settings
from reference_model import Stepper, assert_same_plant, qkd_stage, stabilization_stage


class TestStabilizationStage:
    def test_zero_noise_all_accepted_at_unity(self):
        settings = zero_noise_settings()
        # random static offsets: the search must still land every path at 1.0
        drift = replace(settings.plant.drift, static_offsets="random")
        plant = Plant(replace(settings.plant, drift=drift), entropy=21)
        codes, steps = run_stabilization_stage(
            plant, settings.calibration, settings.schedule, [0] * NUM_DELAYS
        )
        assert len(codes) == 128 and all(type(code) is int for code in codes)
        assert plant.elapsed_us == 340_000
        # 23 steps for each of the 128 delays, in delay order
        assert steps.dtype == CALIB_STEP
        assert steps["delay_index"].tolist() == [i for i in range(128) for _ in range(23)]
        assert (steps[steps["step_index"] == 23]["visibility"] == 1.0).all()

    def test_aborted_entry_keeps_previous_code(self):
        settings = zero_noise_settings()
        dead = replace(settings.plant.detector, input_rate=0.0, dark_rate=0.0)
        plant = Plant(replace(settings.plant, detector=dead), entropy=23)
        previous = list(range(0, 7 * NUM_DELAYS, 7))
        codes, steps = run_stabilization_stage(
            plant, settings.calibration, settings.schedule, previous
        )
        assert codes == previous == list(range(0, 7 * NUM_DELAYS, 7))
        assert steps.dtype == CALIB_STEP and len(steps) == 0
        # aborted slots still consume their full permutation slot
        assert plant.elapsed_us == 340_000

    def test_steps_must_fit_permutation_slot(self):
        settings = zero_noise_settings()
        plant = Plant(settings.plant)
        calib = replace(settings.calibration, step_window_us=200)
        # 23 steps of 200 us overrun the 2500 us slot: its pad would be
        # negative, and the drift law rejects it before any draw or count
        with pytest.raises(ValueError, match="^dt must be positive, got -0.0021$"):
            run_stabilization_stage(plant, calib, settings.schedule, [0] * NUM_DELAYS)
        assert plant.elapsed_us == 0


_NOISELESS = zero_noise_settings().plant
_LOW_LIGHT = PlantConfig(detector=DetectorConfig(input_rate=100_000.0, dark_rate=0.0))
_DARK = PlantConfig(detector=DetectorConfig(input_rate=0.0, dark_rate=0.0))
_FLAT = PlantConfig(detector=DetectorConfig(shot_noise=False), contrast=0.0)
_NO_SHOT_NOISE = PlantConfig(detector=DetectorConfig(shot_noise=False))
_RAILS = PlantConfig(pm=PmConfig(v_max=8.0))


class TestStabilizationStageAgainstModel:
    """``run_stabilization_stage`` against the step-by-step stage, bit for bit."""

    @pytest.mark.parametrize(
        "plant_cfg, calib_cfg, schedule, seed, expect",
        [
            (PlantConfig(), CalibrationConfig(), FrameSchedule(), 60, "complete"),
            (PlantConfig(), CalibrationConfig(), FrameSchedule(), 61, "complete"),
            (_NOISELESS, CalibrationConfig(), FrameSchedule(), 62, "complete"),
            # about 2 counts per step: zero-count and ambiguous-phase aborts
            (_LOW_LIGHT, CalibrationConfig(), FrameSchedule(), 73, "low-light"),
            # 23 steps of 100 us fill a 2300 us slot: no pad window
            (PlantConfig(), CalibrationConfig(), FrameSchedule(perm_slot_us=2_300), 66, "complete"),
            # 23 steps of 108 us leave a 16 us pad
            (PlantConfig(), CalibrationConfig(step_window_us=108), FrameSchedule(), 65, "complete"),
            # 128 slots of 2500 us fill a 320 ms stage: no tail
            (PlantConfig(), CalibrationConfig(), FrameSchedule(stab_duration_us=320_000), 69,
             "complete"),
            # no light at all: every search aborts at step 1
            (_DARK, CalibrationConfig(), FrameSchedule(), 67, "dark"),
            # no fringe and no shot noise: four equal fractions, no phase
            (_FLAT, CalibrationConfig(), FrameSchedule(), 68, "flat"),
            # a span of exactly 2*V_PI: scan points wrap off a rail
            (_RAILS, CalibrationConfig(), FrameSchedule(), 70, "wraps"),
            (_NO_SHOT_NOISE, CalibrationConfig(), FrameSchedule(), 71, "complete"),
        ],
        ids=["seed-60", "seed-61", "noiseless", "low-light-aborts", "no-pad", "108-us-windows",
             "no-tail", "dark", "flat-fringe", "rail-wraps", "no-shot-noise"],
    )
    def test_matches_step_by_step_stage(self, plant_cfg, calib_cfg, schedule, seed, expect):
        reference, plant = Stepper(plant_cfg, seed), Plant(plant_cfg, seed)
        expected_codes = codes = [0] * NUM_DELAYS
        for _ in range(2):
            expected_codes, expected_steps = stabilization_stage(
                reference, calib_cfg, schedule, expected_codes
            )
            codes, steps = run_stabilization_stage(plant, calib_cfg, schedule, codes)
            assert codes == expected_codes
            assert steps.tobytes() == expected_steps.tobytes()
            assert_same_plant(plant, reference)
            for p in (reference, plant):
                p.idle(schedule.qkd_duration_us)  # stand in for the QKD stage
        aborts = [e for e in reference.events if e != "wrap"]
        if expect == "low-light":
            assert any(a.startswith("zero total counts") for a in aborts)
            assert any("coincide" in a for a in aborts)
        elif expect == "dark":
            assert len(steps) == 0
            assert aborts == [
                f"zero total counts at calibration step 1 of delay {i}" for i in range(128)
            ] * 2
        elif expect == "flat":
            assert len(steps) == NUM_DELAYS * 4
            assert len(aborts) == 2 * NUM_DELAYS and all("coincide" in a for a in aborts)
        else:
            assert not aborts
            assert len(steps) == NUM_DELAYS * 23
            if expect == "wraps":
                assert "wrap" in reference.events

    def test_non_finite_phase_raises_before_the_stage_counts(self):
        # a fast OU detuning near the float range: the laser term of delay 4
        # overflows at its 20th step
        plant_cfg = PlantConfig(drift=DriftConfig(laser_ou_sigma=1e301, laser_ou_tau=1e-4))
        calib_cfg, schedule = CalibrationConfig(), FrameSchedule()
        reference, plant = Stepper(plant_cfg, 51), Plant(plant_cfg, 51)
        with pytest.raises(ValueError) as expected:
            stabilization_stage(reference, calib_cfg, schedule, [0] * NUM_DELAYS)
        assert reference.elapsed_us == 4 * 2_500 + 19 * 100
        with pytest.raises(ValueError, match="^true phase of delay 4 ") as raised:
            run_stabilization_stage(plant, calib_cfg, schedule, [0] * NUM_DELAYS)
        assert str(raised.value) == str(expected.value)
        # the plant spends the whole stage's drift before any search counts:
        # clock, detector stream and drift state are those of a fresh plant
        fresh = Plant(plant_cfg, 51)
        assert plant.elapsed_us == 0
        state = plant._rng_detector.bit_generator.state
        assert state == fresh._rng_detector.bit_generator.state
        assert plant.state.laser_eps.hex() == fresh.state.laser_eps.hex()
        assert plant.state.path_phases.tobytes() == fresh.state.path_phases.tobytes()


def _assert_drift_law(plants, drift, t):
    """However the plants spent the t seconds from a zero state, each walk
    ends N(0, sigma_w^2 t) and the detuning N(0, sigma^2 (1 - e^(-2t/tau))):
    the OU step is exact. KS p-values of the walks and detunings, bound at 1e-3."""
    walks = np.concatenate([plant.state.path_phases for plant in plants])
    walk = kstest(walks / (drift.path_walk_sigma * math.sqrt(t)), "norm")
    ou_sd = drift.laser_ou_sigma * math.sqrt(-math.expm1(-2.0 * t / drift.laser_ou_tau))
    detuning = kstest(np.array([plant.state.laser_eps for plant in plants]) / ou_sd, "norm")
    assert walk.pvalue > 1e-3 and detuning.pvalue > 1e-3, (walk, detuning)


class TestDriftLaw:
    def test_dark_stage_follows_the_drift_law(self):
        # a dark plant aborts every search at step 1, so each slot spends 23
        # uncounted windows, then its pad: one stage, T = 0.34 s, 32 seeds
        calib_cfg, schedule = CalibrationConfig(), FrameSchedule()
        plants = [Plant(_DARK, seed) for seed in range(32)]
        for plant in plants:
            run_stabilization_stage(plant, calib_cfg, schedule, [0] * NUM_DELAYS)
        _assert_drift_law(plants, _DARK.drift, schedule.stab_duration_us * 1e-6)

    def test_closed_loop_second_follows_the_drift_law(self):
        # one stabilisation stage whose searches count their windows, then a
        # default-rate QKD stage: one whole second, T = 1 s, 24 seeds
        plant_cfg, calib_cfg, schedule = PlantConfig(), CalibrationConfig(), FrameSchedule()
        plants = [Plant(plant_cfg, seed) for seed in range(24)]
        for seed, plant in enumerate(plants):
            codes, _ = run_stabilization_stage(plant, calib_cfg, schedule, [0] * NUM_DELAYS)
            run_qkd_stage(codes, plant, schedule, np.random.default_rng(seed))
            assert plant.elapsed_us == 1_000_000
        _assert_drift_law(plants, plant_cfg.drift, 1.0)


class _SpyPlant(Plant):
    """Records the (delay indices, codes) of every batched measurement."""

    def __init__(self, config, entropy):
        super().__init__(config, entropy)
        self.applied = []

    def measure_slots(self, index, codes, window_us):
        self.applied.append((index.copy(), codes))
        return super().measure_slots(index, codes, window_us)


class TestQkdStage:
    def test_slot_count_and_lookup_correctness(self):
        settings = zero_noise_settings()
        plant = _SpyPlant(settings.plant, entropy=24)
        table, _ = run_stabilization_stage(
            plant, settings.calibration, settings.schedule, [0] * NUM_DELAYS
        )
        slots = run_qkd_stage(table, plant, settings.schedule, np.random.default_rng(25))
        assert slots.dtype == QKD_SLOT
        assert len(slots) == 6600
        assert plant.elapsed_us == 1_000_000
        [(index, codes)] = plant.applied
        assert slots["delay_index"].tolist() == index.tolist()
        assert codes == table and all(type(code) is int for code in codes)

    def test_zero_count_slots_retained_as_missing(self):
        settings = zero_noise_settings()
        dead = replace(settings.plant.detector, input_rate=0.0, dark_rate=0.0)
        plant = Plant(replace(settings.plant, detector=dead), entropy=26)
        slots = run_qkd_stage([0] * NUM_DELAYS, plant, settings.schedule, np.random.default_rng(27))
        assert len(slots) == 6600
        assert not slots["c1"].any() and not slots["c2"].any()
        assert np.isnan(slots["visibility"]).all()


class TestBatchedQkdStage:
    """``run_qkd_stage`` against the slot-by-slot loop, bit for bit."""

    @pytest.mark.parametrize(
        "plant_cfg, schedule, seed",
        [
            (PlantConfig(), FrameSchedule(), 40),
            (PlantConfig(), FrameSchedule(), 41),
            (PlantConfig(detector=DetectorConfig(shot_noise=False)), FrameSchedule(), 42),
            # dark counts alone: every expectation is 2.5, a rounding tie
            (PlantConfig(detector=DetectorConfig(input_rate=0.0, dark_rate=25_000.0,
                                                 shot_noise=False)), FrameSchedule(), 48),
            # 66 and 660 slots: a short stage and one that ends mid-block
            (PlantConfig(), FrameSchedule(switch_rate_hz=100), 43),
            (PlantConfig(), FrameSchedule(switch_rate_hz=1000), 44),
            (PlantConfig(detector=DetectorConfig(input_rate=0.0, dark_rate=0.0)),
             FrameSchedule(), 45),
        ],
        ids=["seed-40", "seed-41", "no-shot-noise", "rounding-ties", "100-hz", "1000-hz",
             "dark"],
    )
    def test_matches_slot_by_slot_loop(self, plant_cfg, schedule, seed):
        codes = np.random.default_rng(seed).integers(0, plant_cfg.pm.max_code + 1, 128).tolist()
        reference, plant = Stepper(plant_cfg, seed), Plant(plant_cfg, seed)
        reference_rng, rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for p in (reference, plant):
            p.idle(schedule.stab_duration_us)  # start from a drifted state
        expected = qkd_stage(codes, reference, schedule, reference_rng)
        slots = run_qkd_stage(codes, plant, schedule, rng)
        for name in QKD_SLOT.names:
            assert slots[name].tobytes() == expected[name].tobytes(), name
        # every stream stands where the loop left it, so later stages agree too
        assert_same_plant(plant, reference)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_non_finite_phase_names_the_drift_keys(self):
        # eps is 0 in the first slot; the first OU step then pushes the laser
        # term of every delay but 0 past the float range
        plant_cfg = PlantConfig(drift=DriftConfig(laser_ou_sigma=1e308))
        codes, schedule = [0] * NUM_DELAYS, FrameSchedule()
        reference, plant = Stepper(plant_cfg, 46), Plant(plant_cfg, 46)
        with pytest.raises(ValueError) as expected:
            qkd_stage(codes, reference, schedule, np.random.default_rng(47))
        assert reference.elapsed_us > 0  # the phase turned non-finite mid-stage
        with pytest.raises(ValueError, match="^true phase of delay") as raised:
            run_qkd_stage(codes, plant, schedule, np.random.default_rng(47))
        assert str(raised.value) == str(expected.value)
        assert "drift.laser_ou_sigma and drift.path_walk_sigma" in str(raised.value)


class TestRunExperiment:
    def test_zero_noise_single_second(self):
        report = run_experiment(zero_noise_settings())
        assert report.per_delay.dtype == DELAY_SUMMARY
        assert len(report.per_delay) == 128
        assert report.per_delay["delay_index"].tolist() == list(range(128))
        assert report.per_delay["delay_ns"].tolist() == [2 * i for i in range(128)]
        assert (report.per_delay["mean_visibility"] == 1.0).all()
        assert (report.per_delay["e_bit_proxy"] == 0.0).all()
        assert report.global_mean_visibility == 1.0
        assert report.simulated_us == 1_000_000

    def test_seconds_yield_slot_records_and_calib_steps(self):
        records = list(iter_seconds(RunSettings(seconds=2, seed=32)))
        assert [second for second, _, _ in records] == [0, 1]
        assert sum(len(slots) for _, _, slots in records) == 2 * 6600
        calib_rows = [(second, row) for second, steps, _ in records for row in steps]
        assert len(calib_rows) == 2 * 128 * 23
        seconds = {row[0] for row in calib_rows}
        assert seconds == {0, 1}

    def test_open_loop_calibrates_only_once(self):
        settings = RunSettings(seconds=3, seed=33, mode=OPEN_LOOP)
        records = list(iter_seconds(settings))
        report = run_experiment(settings, records)
        assert [len(steps) for _, steps, _ in records] == [128 * 23, 0, 0]
        # the idle seconds yield empty CALIB_STEP arrays
        assert {steps.dtype for _, steps, _ in records} == {CALIB_STEP}
        assert report.mode == OPEN_LOOP
        assert report.simulated_us == 3_000_000
        # a single calibration means acceptance is counted against one refresh
        assert set(report.per_delay["accepted_fraction"].tolist()) <= {0.0, 1.0}

    def test_accepted_fraction_counts_step_23_rows_at_the_threshold(self, monkeypatch):
        # at 3e5 photons/s each second has accepted, rejected and aborted
        # searches; the results the searches return are the independent source
        plant = replace(PlantConfig(), detector=DetectorConfig(input_rate=3e5))
        settings = RunSettings(plant=plant, seconds=2, seed=3)
        results = []  # a CalibResult per search, None for an abort

        def kept_result(*args):
            try:
                results.append(run_calibration(*args))
            except CalibrationAborted:
                results.append(None)
                raise
            return results[-1]

        monkeypatch.setattr(controller, "run_calibration", kept_result)
        records = list(iter_seconds(settings))
        report = run_experiment(settings, records)
        assert len(results) == 2 * NUM_DELAYS
        accepted = np.zeros(NUM_DELAYS, dtype=np.int64)
        calib_vis_sum = np.zeros(NUM_DELAYS)
        for second, (_, steps, _) in enumerate(records):
            searches = results[second * NUM_DELAYS:(second + 1) * NUM_DELAYS]
            completed = [i for i, result in enumerate(searches) if result is not None]
            vis = np.array([searches[i].final_visibility for i in completed])
            passed = [searches[i].accepted for i in completed]
            assert 0 < sum(passed) < len(completed) < NUM_DELAYS
            # the fold's invariant: a search completed exactly when it has a
            # step-23 row, whose visibility is the search's, bit for bit
            final = steps[steps["step_index"] == 23]
            assert final["delay_index"].tolist() == completed
            assert final["visibility"].tobytes() == vis.tobytes()
            accepted[completed] += passed
            calib_vis_sum[completed] += vis
        assert report.per_delay["accepted_fraction"].tolist() == (accepted / 2).tolist()
        completed_searches = sum(result is not None for result in results)
        assert report.mean_calib_visibility == sum(calib_vis_sum) / completed_searches

    def test_e_bit_excludes_balanced_delay(self):
        report = run_experiment(RunSettings(seconds=1, seed=34))
        d = report.per_delay
        tail = d[(d["delay_index"] > 0) & (d["slots"] > 0)]
        weighted = (tail["mean_visibility"] * tail["slots"]).sum() / tail["slots"].sum()
        assert report.e_bit_overall == pytest.approx((1.0 - weighted) / 2.0, abs=1e-12)


class TestTimingInvariants:
    """The timing contract holds under ``python -O`` too: real exceptions."""

    def test_clock_skew_raises(self, monkeypatch):
        monkeypatch.setattr(controller, "run_qkd_stage", lambda *args: np.zeros(0, QKD_SLOT))
        # test_cli's runtime-fault test reads the whole message through main
        with pytest.raises(RuntimeError):
            run_experiment(zero_noise_settings())
