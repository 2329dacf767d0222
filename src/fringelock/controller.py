"""One-second duty cycle: stabilization preparation, then key distribution.

Every second splits into a 340 ms stabilization stage (all 128 delays
recalibrated, one 2.5 ms permutation slot each, 20 ms slack) and a 660 ms
QKD stage (delay switching at 10 kHz with table-lookup compensation). A
permutation slot is one delay's 23 calibration windows, then a pad to the
slot end; the plant spends all 128 slots at once. The clock is integer
microseconds throughout, so the timing arithmetic is exact and checkable
from traces.

Stage results are columnar: the stabilization stage returns the refreshed
table, a list of 128 DAC codes (plain ints, one per delay), and one
``CALIB_STEP`` array of its 128 calibrations' steps; the QKD stage returns
one ``QKD_SLOT`` array with a row per switch slot. ``iter_seconds`` yields
each second's ``CALIB_STEP`` and ``QKD_SLOT`` arrays, which the traces hold
in full, and ``run_experiment`` folds seconds, simulated or read back, into
a report of ``DELAY_SUMMARY`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .calibration import (
    ACCEPT_THRESHOLD,
    CALIB_STEP,
    COARSE_POINTS,
    FINE_POINTS,
    CalibrationAborted,
    CalibrationConfig,
    TOTAL_STEPS,
    run_calibration,
)
from .hardware import DELAY_NS, NUM_DELAYS
from .hardware import select_delay  # unused here; perfbench/child.py --trace 1 wraps this name
from .plant import Plant, PlantConfig

US_PER_SECOND = 1_000_000

CLOSED_LOOP = "closed-loop"
OPEN_LOOP = "open-loop"
MODES = (CLOSED_LOOP, OPEN_LOOP)

#: Mean visibility a delay must hold, the paper's 96% headline figure.
VISIBILITY_TARGET = 0.96


@dataclass(frozen=True)
class FrameSchedule:
    """Timing of the one-second frame. All durations in integer microseconds."""

    stab_duration_us: int = 340_000
    perm_slot_us: int = 2_500
    switch_rate_hz: int = 10_000

    def __post_init__(self) -> None:
        for key in ("stab_duration_us", "perm_slot_us"):
            if getattr(self, key) <= 0:
                raise ValueError(f"schedule.{key} must be positive, got {getattr(self, key)} us")
        if self.stab_duration_us >= US_PER_SECOND:
            raise ValueError(
                f"schedule.stab_duration_us = {self.stab_duration_us} us leaves no QKD "
                f"stage in the one-second ({US_PER_SECOND} us) frame"
            )
        if NUM_DELAYS * self.perm_slot_us > self.stab_duration_us:
            raise ValueError(
                f"schedule.perm_slot_us = {self.perm_slot_us} us: {NUM_DELAYS} slots do not fit "
                f"the schedule.stab_duration_us = {self.stab_duration_us} us stabilization stage"
            )
        if self.switch_rate_hz <= 0 or US_PER_SECOND % self.switch_rate_hz != 0:
            raise ValueError(
                f"schedule.switch_rate_hz = {self.switch_rate_hz} Hz must divide one second "
                "into whole-us slots"
            )
        if (self.qkd_duration_us * self.switch_rate_hz) % US_PER_SECOND != 0:
            raise ValueError(
                f"schedule.stab_duration_us = {self.stab_duration_us} us leaves "
                f"{self.qkd_duration_us} us, not a whole number of "
                f"schedule.switch_rate_hz = {self.switch_rate_hz} Hz slots"
            )

    @property
    def qkd_duration_us(self) -> int:
        """The rest of the second after the stabilization stage."""
        return US_PER_SECOND - self.stab_duration_us

    @property
    def qkd_slot_us(self) -> int:
        return US_PER_SECOND // self.switch_rate_hz

    @property
    def qkd_slots(self) -> int:
        return self.qkd_duration_us // self.qkd_slot_us


#: One QKD switch slot: the drawn delay, its two port counts and the slot
#: visibility (c1 - c2) / (c1 + c2), NaN when the slot saw no counts.
QKD_SLOT = np.dtype(
    [("delay_index", np.int64), ("c1", np.int64), ("c2", np.int64), ("visibility", np.float64)]
)


def run_stabilization_stage(
    plant: Plant,
    calib_cfg: CalibrationConfig,
    schedule: FrameSchedule,
    previous: list[int],
) -> tuple[list[int], np.ndarray]:
    """Recalibrate all 128 delays in order, one permutation slot each.

    Returns the refreshed table of 128 DAC codes and one ``CALIB_STEP``
    array of all 128 searches' steps in delay order. An aborted calibration
    leaves a partial trace with no step-23 row, and its delay keeps the
    previous code. No drift draw depends on a count, so one ``Plant.counters``
    call spends all 128 slots before the first search counts, whether or not
    it counts all its 23 windows. Every search reads its step 1-4 codes from
    the memoised ``preset_codes``.
    """
    pm = plant.config.pm
    start_us = plant.elapsed_us
    counts = plant.counters(
        range(NUM_DELAYS), calib_cfg.step_window_us, TOTAL_STEPS, schedule.perm_slot_us
    )
    codes, rows = list(previous), []
    for index, count in enumerate(counts):
        try:
            codes[index] = run_calibration(index, count, calib_cfg, pm, rows).optimal_code
        except CalibrationAborted:
            pass  # the previous code stays
    plant.idle(start_us + schedule.stab_duration_us - plant.elapsed_us)
    return codes, np.fromiter(rows, dtype=CALIB_STEP, count=len(rows))


def run_qkd_stage(
    codes: list[int],
    plant: Plant,
    schedule: FrameSchedule,
    rng_delay: np.random.Generator,
) -> np.ndarray:
    """Switch delays at the configured rate, compensating from the table.

    Each slot draws a fresh 7-bit random delay, applies that entry's DAC
    code immediately, and integrates counts for the slot. The table is
    fixed for the stage and no draw depends on a count, so the stage runs
    in one pass: one draw of every slot's delay, then one
    ``Plant.measure_slots`` call, with the numbers a slot-by-slot loop of
    ``Plant.measure`` would give. Returns one ``QKD_SLOT`` row per slot in
    switching order; zero-count slots are retained with NaN visibility.
    """
    n = schedule.qkd_slots
    index = rng_delay.integers(0, NUM_DELAYS, size=n)
    c1, c2 = plant.measure_slots(index, codes, schedule.qkd_slot_us)
    slots = np.empty(n, dtype=QKD_SLOT)
    slots["delay_index"] = index
    slots["c1"] = c1
    slots["c2"] = c2
    total = c1 + c2
    slots["visibility"] = np.divide(c1 - c2, total, out=np.full(n, math.nan), where=total > 0)
    return slots


#: One delay's aggregate over a run, NaN where no slot counted; min_visibility
#: is the worst per-second mean, not the worst single slot.
DELAY_SUMMARY = np.dtype(
    [("delay_index", np.int64), ("delay_ns", np.int64), ("mean_visibility", np.float64),
     ("min_visibility", np.float64), ("e_bit_proxy", np.float64),
     ("accepted_fraction", np.float64), ("slots", np.int64)]
)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    seconds: int
    mode: str
    seed: int
    per_delay: np.ndarray  # DELAY_SUMMARY, a row per delay
    global_mean_visibility: float
    mean_calib_visibility: float
    e_bit_overall: float
    simulated_us: int

    @property
    def delays_at_target(self) -> int:
        """Delays whose mean visibility reaches ``VISIBILITY_TARGET``, the headline count."""
        return int(np.count_nonzero(self.per_delay["mean_visibility"] >= VISIBILITY_TARGET))


def iter_seconds(config: "RunSettings") -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Alternate stabilization and QKD stages for the configured seconds,
    yielding each as (second, its ``CALIB_STEP`` rows, empty if it did not
    calibrate, its ``QKD_SLOT`` rows).

    Deterministic for a given (config, seed): the single seed spawns the
    plant's streams and the delay-draw stream through a fixed recipe. In
    open-loop mode only the first second calibrates; later stabilization
    windows idle with the stale table, which is what the mode is for. A
    second is yielded before its clock is checked, so a consumer has it
    when the check raises.
    """
    plant_ss, delay_ss = np.random.SeedSequence(config.seed).spawn(2)
    plant = Plant(config.plant, entropy=plant_ss)
    rng_delay = np.random.default_rng(delay_ss)
    schedule = config.schedule
    codes = [0] * NUM_DELAYS  # phase_to_compensation_code(0.0, pm) for every DAC
    for second in range(config.seconds):
        if config.mode == CLOSED_LOOP or second == 0:
            codes, steps = run_stabilization_stage(plant, config.calibration, schedule, codes)
        else:
            plant.idle(schedule.stab_duration_us)
            steps = np.empty(0, dtype=CALIB_STEP)
        slots = run_qkd_stage(codes, plant, schedule, rng_delay)
        yield second, steps, slots
        if plant.elapsed_us != (second + 1) * US_PER_SECOND:
            raise RuntimeError(f"clock skew: {plant.elapsed_us} us after second {second}")


def run_experiment(config: "RunSettings", records: Iterable | None = None) -> ExperimentReport:
    """Fold a run's seconds, by default ``iter_seconds(config)``, into its report.

    A search completed when it has a step-23 row, and was accepted when that
    row's visibility reaches ``ACCEPT_THRESHOLD``; an aborted search has
    none. Per-delay statistics accumulate in arrays, one element per delay.
    """
    accepted = np.zeros(NUM_DELAYS, dtype=np.int64)
    calib_vis_sum = np.zeros(NUM_DELAYS)
    vis_sum = np.zeros(NUM_DELAYS)
    vis_slots = np.zeros(NUM_DELAYS, dtype=np.int64)
    # worst per-second mean; NaN until a delay has a counted slot
    min_second_mean = np.full(NUM_DELAYS, math.nan)
    calib_n = simulated_us = 0

    for _, steps, slots in iter_seconds(config) if records is None else records:
        simulated_us += US_PER_SECOND
        # one step-23 row per completed search, in delay order
        final = steps[steps["step_index"] == TOTAL_STEPS]
        completed = final["delay_index"]
        accepted[completed] += final["visibility"] >= ACCEPT_THRESHOLD
        calib_vis_sum[completed] += final["visibility"]
        calib_n += len(completed)

        counted = slots[~np.isnan(slots["visibility"])]
        # bincount adds in slot order, so each per-delay sum is sequential
        sums = np.bincount(
            counted["delay_index"], weights=counted["visibility"], minlength=NUM_DELAYS
        )
        counts = np.bincount(counted["delay_index"], minlength=NUM_DELAYS)
        vis_sum += sums
        vis_slots += counts
        second_mean = np.divide(sums, counts, out=np.full(NUM_DELAYS, math.nan), where=counts > 0)
        min_second_mean = np.fmin(min_second_mean, second_mean)

    per_delay = np.empty(NUM_DELAYS, dtype=DELAY_SUMMARY)
    per_delay["delay_index"] = np.arange(NUM_DELAYS)
    per_delay["delay_ns"] = DELAY_NS
    mean_vis = np.divide(vis_sum, vis_slots, out=np.full(NUM_DELAYS, math.nan), where=vis_slots > 0)
    per_delay["mean_visibility"] = mean_vis
    per_delay["min_visibility"] = min_second_mean
    per_delay["e_bit_proxy"] = (1.0 - mean_vis) / 2.0
    # open loop calibrates in its first second only
    per_delay["accepted_fraction"] = accepted / (config.seconds if config.mode == CLOSED_LOOP else 1)
    per_delay["slots"] = vis_slots
    # sum() adds the np.float64 elements one by one in delay order, as the
    # pinned outputs need; np.sum's pairwise order would change the bits
    total_slots = int(vis_slots.sum())
    # delay 0 interferes a train with itself (r=0 is not a valid protocol
    # shift), so it is switched but excluded from the error-rate aggregate
    rr_vis = sum(vis_sum[1:])
    rr_slots = int(vis_slots[1:].sum())
    return ExperimentReport(
        seconds=config.seconds,
        mode=config.mode,
        seed=config.seed,
        per_delay=per_delay,
        global_mean_visibility=sum(vis_sum) / total_slots if total_slots else math.nan,
        mean_calib_visibility=sum(calib_vis_sum) / calib_n if calib_n else math.nan,
        e_bit_overall=(1.0 - rr_vis / rr_slots) / 2.0 if rr_slots else math.nan,
        simulated_us=simulated_us,
    )


@dataclass(frozen=True)
class RunSettings:
    """Every setting of a run, the output directory too; the CLI builds this from files."""

    plant: PlantConfig = field(default_factory=PlantConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    schedule: FrameSchedule = field(default_factory=FrameSchedule)
    seconds: int = 1
    mode: str = CLOSED_LOOP
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if self.seconds < 1:
            raise ValueError(f"run.seconds must be >= 1, got {self.seconds}")
        if self.mode not in MODES:
            raise ValueError(f"run.mode must be one of {MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ValueError(f"run.seed must be a non-negative integer, got {self.seed}")
        steps_us = TOTAL_STEPS * self.calibration.step_window_us
        if steps_us > self.schedule.perm_slot_us:
            raise ValueError(
                f"{TOTAL_STEPS} calibration steps of calibration.step_window_us = "
                f"{self.calibration.step_window_us} us take {steps_us} us, more than the "
                f"schedule.perm_slot_us = {self.schedule.perm_slot_us} us permutation slot"
            )
        # a scan point lies up to points // 2 intervals from an in-span voltage
        v_max, calib = self.plant.pm.v_max, self.calibration
        for key, interval, points in (
            ("coarse_interval", calib.coarse_interval, COARSE_POINTS),
            ("fine_interval", calib.fine_interval, FINE_POINTS),
        ):
            if not math.isfinite(v_max + (points // 2) * interval):
                raise ValueError(
                    f"calibration.{key} = {interval} V puts scan points past the float "
                    f"range around the DAC span [0, {v_max}] V"
                )
        # both ports' counts and their sum must fit the int64 count columns
        det = self.plant.detector
        window_us = max(self.calibration.step_window_us, self.schedule.qkd_slot_us)
        expected = (det.signal_rate + 2 * det.dark_rate) * window_us * 1e-6
        if expected > 2**62:
            raise ValueError(
                f"{expected:.3g} expected counts per {window_us} us window exceed 2**62; "
                "lower detector.input_rate or detector.dark_rate"
            )
