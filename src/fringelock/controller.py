"""One-second duty cycle: stabilization preparation, then key distribution.

Every second splits into a 340 ms stabilization stage (all 128 delays
recalibrated, one 2.5 ms permutation slot each, 20 ms slack) and a 660 ms
QKD stage (delay switching at 10 kHz with table-lookup compensation). The
clock is integer microseconds throughout, so the timing arithmetic is exact
and checkable from traces.

Stage results are columnar: the stabilization stage returns the refreshed
table as one ``TABLE_ENTRY`` array (a row per delay, its DAC code a plain
int) plus one ``CALIB_STEP`` array of every step it ran, and the QKD stage
returns one ``QKD_SLOT`` array with a row per switch slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calibration import (
    CALIB_STEP,
    CalibrationAborted,
    CalibrationConfig,
    TOTAL_STEPS,
    phase_to_compensation_code,
    run_calibration,
)
from .hardware import NUM_DELAYS, select_delay
from .keyrate import KeyRateParams, key_rate
from .plant import Plant, PlantConfig

US_PER_SECOND = 1_000_000

#: The 128 gate patterns, decoded once; both stages index this table.
DELAYS = tuple(select_delay(i) for i in range(NUM_DELAYS))

CLOSED_LOOP = "closed-loop"
OPEN_LOOP = "open-loop"
MODES = (CLOSED_LOOP, OPEN_LOOP)


@dataclass(frozen=True)
class FrameSchedule:
    """Timing of the one-second frame. All durations in integer microseconds."""

    stab_duration_us: int = 340_000
    perm_slot_us: int = 2_500
    qkd_duration_us: int = 660_000
    switch_rate_hz: int = 10_000

    def __post_init__(self) -> None:
        if min(self.stab_duration_us, self.perm_slot_us, self.qkd_duration_us) <= 0:
            raise ValueError("schedule durations must be positive")
        if NUM_DELAYS * self.perm_slot_us > self.stab_duration_us:
            raise ValueError(
                f"{NUM_DELAYS} permutation slots of {self.perm_slot_us} us do not "
                f"fit the {self.stab_duration_us} us stabilization stage"
            )
        if self.stab_duration_us + self.qkd_duration_us != US_PER_SECOND:
            raise ValueError("stabilization and QKD stages must sum to one second")
        if self.switch_rate_hz <= 0 or US_PER_SECOND % self.switch_rate_hz != 0:
            raise ValueError("switch rate must divide one second into whole-us slots")
        if (self.qkd_duration_us * self.switch_rate_hz) % US_PER_SECOND != 0:
            raise ValueError("QKD stage must hold an integer number of switch slots")

    @property
    def qkd_slot_us(self) -> int:
        return US_PER_SECOND // self.switch_rate_hz

    @property
    def qkd_slots(self) -> int:
        return self.qkd_duration_us // self.qkd_slot_us


#: One compensation-table row per delay: the optimal DAC code, the final
#: calibration visibility (NaN if aborted), whether it passed the accept
#: threshold, and the second it was refreshed (-1 before the first).
TABLE_ENTRY = np.dtype(
    [("code", np.int64), ("calib_visibility", np.float64), ("accepted", np.bool_),
     ("refreshed_at", np.int64)]
)

#: One QKD switch slot: the drawn delay, its two port counts and the slot
#: visibility (c1 - c2) / (c1 + c2), NaN when the slot saw no counts.
QKD_SLOT = np.dtype(
    [("delay_index", np.int64), ("c1", np.int64), ("c2", np.int64), ("visibility", np.float64)]
)


def bootstrap_table(plant_cfg: PlantConfig) -> np.ndarray:
    """Cold-start table: phase-0 compensation codes, nothing accepted yet."""
    code = phase_to_compensation_code(0.0, plant_cfg.pm)
    return np.array([(code, math.nan, False, -1)] * NUM_DELAYS, dtype=TABLE_ENTRY)


def run_stabilization_stage(
    second: int,
    plant: Plant,
    calib_cfg: CalibrationConfig,
    schedule: FrameSchedule,
    previous: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Recalibrate all 128 delays in order, one permutation slot each.

    Returns the refreshed ``TABLE_ENTRY`` table plus the ``CALIB_STEP``
    rows of all 128 searches in delay order. An aborted calibration leaves
    a partial trace, and its entry keeps the previous second's code with
    NaN visibility and is marked not accepted.
    """
    if TOTAL_STEPS * calib_cfg.step_window_us > schedule.perm_slot_us:
        raise ValueError(
            f"{TOTAL_STEPS} steps of {calib_cfg.step_window_us} us exceed the "
            f"{schedule.perm_slot_us} us permutation slot"
        )
    start_us = plant.elapsed_us
    entries: list[tuple] = []
    traces: list[np.ndarray] = []
    for index in range(NUM_DELAYS):
        slot_start = plant.elapsed_us
        try:
            result = run_calibration(DELAYS[index], plant, calib_cfg, plant.config.pm)
            entries.append((result.optimal_code, result.final_visibility, result.accepted, second))
            traces.append(result.trace)
        except CalibrationAborted as fault:
            entries.append((previous["code"][index], math.nan, False, second))
            traces.append(fault.trace)
        plant.idle(slot_start + schedule.perm_slot_us - plant.elapsed_us)
    plant.idle(start_us + schedule.stab_duration_us - plant.elapsed_us)
    return np.array(entries, dtype=TABLE_ENTRY), np.concatenate(traces)


def run_qkd_stage(
    table: np.ndarray,
    plant: Plant,
    schedule: FrameSchedule,
    rng_delay: np.random.Generator,
) -> np.ndarray:
    """Switch delays at the configured rate, compensating from the table.

    Each slot draws a fresh 7-bit random delay, applies that entry's DAC
    code immediately, and integrates counts for the slot. Returns one
    ``QKD_SLOT`` row per slot in switching order; zero-count slots are
    retained with NaN visibility.
    """
    codes = table["code"].tolist()
    rows = []
    for _ in range(schedule.qkd_slots):
        index = int(rng_delay.integers(0, NUM_DELAYS))
        counts = plant.measure(DELAYS[index], codes[index], schedule.qkd_slot_us)
        vis = (counts.c1 - counts.c2) / counts.total if counts.total > 0 else math.nan
        rows.append((index, counts.c1, counts.c2, vis))
    return np.array(rows, dtype=QKD_SLOT)


@dataclass(frozen=True)
class DelaySummary:
    """Per-delay aggregate over a run; min_visibility is the worst
    per-second mean, not the worst single slot."""

    delay_index: int
    delay_ns: int
    mean_visibility: float
    min_visibility: float
    e_bit_proxy: float
    accepted_fraction: float
    slots: int


@dataclass(frozen=True)
class ExperimentReport:
    seconds: int
    mode: str
    seed: int
    per_delay: tuple[DelaySummary, ...]
    global_mean_visibility: float
    mean_calib_visibility: float
    e_bit_overall: float
    simulated_us: int

    def fraction_delays_at_least(self, threshold: float) -> float:
        ok = sum(1 for d in self.per_delay if d.mean_visibility >= threshold)
        return ok / len(self.per_delay)

    def key_rate_per_train(self, L: int = 128, v_th: float = 1.0, q: float = 1.0) -> float:
        """Key rate from the run's aggregate error rate at a given Q."""
        e = min(0.5, max(0.0, self.e_bit_overall))
        return key_rate(KeyRateParams(L=L, v_th=v_th, Q=q, e_bit=e))


#: Gets (second, its ``CALIB_STEP`` rows, empty if it did not calibrate,
#: and its ``QKD_SLOT`` rows).
SecondSink = Callable[[int, np.ndarray, np.ndarray], None]


def run_experiment(config: "RunSettings", sink: SecondSink | None = None) -> ExperimentReport:
    """Alternate stabilization and QKD stages for the configured seconds.

    Deterministic for a given (config, seed): the single seed spawns the
    plant's streams and the delay-draw stream through a fixed recipe. In
    open-loop mode only the first second calibrates; later stabilization
    windows idle with the stale table, which is what the mode is for.
    Per-delay statistics accumulate in arrays, one element per delay, and
    ``sink`` receives each second's stage results once.
    """
    plant_ss, delay_ss = np.random.SeedSequence(config.seed).spawn(2)
    plant = Plant(config.plant, entropy=plant_ss)
    rng_delay = np.random.default_rng(delay_ss)
    schedule = config.schedule
    table = bootstrap_table(config.plant)
    calibrated_seconds = 0
    accepted = np.zeros(NUM_DELAYS, dtype=np.int64)
    calib_vis_sum = np.zeros(NUM_DELAYS)
    calib_vis_count = np.zeros(NUM_DELAYS, dtype=np.int64)
    vis_sum = np.zeros(NUM_DELAYS)
    vis_slots = np.zeros(NUM_DELAYS, dtype=np.int64)
    # worst per-second mean; NaN until a delay has a counted slot
    min_second_mean = np.full(NUM_DELAYS, math.nan)

    for second in range(config.seconds):
        steps = np.zeros(0, dtype=CALIB_STEP)
        if config.mode == CLOSED_LOOP or second == 0:
            table, steps = run_stabilization_stage(
                second, plant, config.calibration, schedule, table
            )
            if (table["refreshed_at"] != second).any():
                raise RuntimeError("table must be refreshed this second")
            calibrated_seconds += 1
            accepted += table["accepted"]
            calib_vis = table["calib_visibility"]
            completed = ~np.isnan(calib_vis)
            calib_vis_sum[completed] += calib_vis[completed]
            calib_vis_count += completed
        else:
            plant.idle(schedule.stab_duration_us)

        slots = run_qkd_stage(table, plant, schedule, rng_delay)
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
        if sink is not None:
            sink(second, steps, slots)

        if plant.elapsed_us != (second + 1) * US_PER_SECOND:
            raise RuntimeError(f"clock skew: {plant.elapsed_us} us after second {second}")

    mean_vis = np.divide(vis_sum, vis_slots, out=np.full(NUM_DELAYS, math.nan), where=vis_slots > 0)
    # columns in DelaySummary field order, after delay_index and delay_ns
    columns = zip(
        mean_vis.tolist(),
        min_second_mean.tolist(),
        ((1.0 - mean_vis) / 2.0).tolist(),
        (accepted / calibrated_seconds).tolist(),
        vis_slots.tolist(),
    )
    per_delay = tuple(DelaySummary(i, 2 * i, *row) for i, row in enumerate(columns))
    # sum() adds the np.float64 elements one by one in delay order, as the
    # pinned outputs need; np.sum's pairwise order would change the bits
    total_slots = int(vis_slots.sum())
    calib_n = int(calib_vis_count.sum())
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
        simulated_us=plant.elapsed_us,
    )


@dataclass(frozen=True)
class RunSettings:
    """Everything run_experiment needs; the CLI layer builds this from files."""

    plant: PlantConfig = field(default_factory=PlantConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    schedule: FrameSchedule = field(default_factory=FrameSchedule)
    seconds: int = 1
    mode: str = CLOSED_LOOP
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seconds < 1:
            raise ValueError("seconds must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if TOTAL_STEPS * self.calibration.step_window_us > self.schedule.perm_slot_us:
            raise ValueError("calibration steps do not fit the permutation slot")
