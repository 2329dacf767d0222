"""One-second duty cycle: stabilization preparation, then key distribution.

Every second splits into a 340 ms stabilization stage (all 128 delays
recalibrated, one 2.5 ms permutation slot each, 20 ms slack) and a 660 ms
QKD stage (delay switching at 10 kHz with table-lookup compensation). The
clock is integer microseconds throughout, so the timing arithmetic is exact
and checkable from traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calibration import (
    CalibrationAborted,
    CalibrationConfig,
    CalibResult,
    CalibStepRecord,
    TOTAL_STEPS,
    phase_to_compensation_code,
    run_calibration,
)
from .hardware import NUM_DELAYS, DacCode, DetectorCounts, select_delay
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


@dataclass
class TableEntry:
    code: DacCode
    calib_visibility: float
    accepted: bool
    refreshed_at: int


@dataclass
class CompensationTable:
    """Per-delay optimal DAC codes measured during the stabilization stage."""

    entries: list[TableEntry]

    def __post_init__(self) -> None:
        if len(self.entries) != NUM_DELAYS:
            raise ValueError(f"compensation table needs exactly {NUM_DELAYS} entries")

    def __getitem__(self, delay_index: int) -> TableEntry:
        return self.entries[delay_index]


@dataclass(frozen=True)
class QkdSlotRecord:
    second: int
    slot: int
    delay_index: int
    counts: DetectorCounts
    visibility: float | None


def bootstrap_table(plant_cfg: PlantConfig) -> CompensationTable:
    """Cold-start table: phase-0 compensation codes, nothing accepted yet."""
    code = phase_to_compensation_code(0.0, plant_cfg.pm)
    return CompensationTable(
        [TableEntry(code=code, calib_visibility=math.nan, accepted=False, refreshed_at=-1)
         for _ in range(NUM_DELAYS)]
    )


def run_stabilization_stage(
    second: int,
    plant: Plant,
    calib_cfg: CalibrationConfig,
    schedule: FrameSchedule,
    previous: CompensationTable,
) -> tuple[CompensationTable, list[tuple[int, CalibResult | None, list[CalibStepRecord]]]]:
    """Recalibrate all 128 delays in order, one permutation slot each.

    Returns the refreshed table plus, per delay, the calibration outcome and
    its step trace (partial when a calibration aborted; the aborted entry
    keeps the previous second's code and is marked not accepted).
    """
    if TOTAL_STEPS * calib_cfg.step_window_us > schedule.perm_slot_us:
        raise ValueError(
            f"{TOTAL_STEPS} steps of {calib_cfg.step_window_us} us exceed the "
            f"{schedule.perm_slot_us} us permutation slot"
        )
    start_us = plant.elapsed_us
    entries: list[TableEntry] = []
    outcomes: list[tuple[int, CalibResult | None, list[CalibStepRecord]]] = []
    for index in range(NUM_DELAYS):
        slot_start = plant.elapsed_us
        try:
            result = run_calibration(DELAYS[index], plant, calib_cfg, plant.config.pm)
            entries.append(
                TableEntry(result.optimal_code, result.final_visibility, result.accepted, second)
            )
            outcomes.append((index, result, list(result.trace)))
        except CalibrationAborted as fault:
            entries.append(
                TableEntry(previous[index].code, math.nan, False, second)
            )
            outcomes.append((index, None, fault.trace))
        plant.idle(slot_start + schedule.perm_slot_us - plant.elapsed_us)
    plant.idle(start_us + schedule.stab_duration_us - plant.elapsed_us)
    return CompensationTable(entries), outcomes


def run_qkd_stage(
    second: int,
    table: CompensationTable,
    plant: Plant,
    schedule: FrameSchedule,
    rng_delay: np.random.Generator,
) -> list[QkdSlotRecord]:
    """Switch delays at the configured rate, compensating from the table.

    Each slot draws a fresh 7-bit random delay, applies that entry's DAC
    code immediately, and integrates counts for the slot. Zero-count slots
    are retained with missing visibility.
    """
    records: list[QkdSlotRecord] = []
    for slot in range(schedule.qkd_slots):
        index = int(rng_delay.integers(0, NUM_DELAYS))
        counts = plant.measure(DELAYS[index], table[index].code, schedule.qkd_slot_us)
        vis = (counts.c1 - counts.c2) / counts.total if counts.total > 0 else None
        records.append(QkdSlotRecord(second, slot, index, counts, vis))
    return records


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


CalibSink = Callable[[int, int, CalibStepRecord], None]
QkdSink = Callable[[QkdSlotRecord], None]


@dataclass
class _DelayAccumulator:
    vis_sum: float = 0.0
    vis_slots: int = 0
    second_means: list[float] = field(default_factory=list)
    accepted: int = 0
    calibrations: int = 0
    calib_vis_sum: float = 0.0
    calib_vis_count: int = 0


def run_experiment(
    config: "RunSettings",
    calib_sink: CalibSink | None = None,
    qkd_sink: QkdSink | None = None,
) -> ExperimentReport:
    """Alternate stabilization and QKD stages for the configured seconds.

    Deterministic for a given (config, seed): the single seed spawns the
    plant's streams and the delay-draw stream through a fixed recipe. In
    open-loop mode only the first second calibrates; later stabilization
    windows idle with the stale table, which is what the mode is for.
    """
    if config.seconds < 1:
        raise ValueError(f"experiment needs at least one second, got {config.seconds}")
    if config.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {config.mode!r}")
    plant_ss, delay_ss = np.random.SeedSequence(config.seed).spawn(2)
    plant = Plant(config.plant, entropy=plant_ss)
    rng_delay = np.random.default_rng(delay_ss)
    schedule = config.schedule
    table = bootstrap_table(config.plant)
    acc = [_DelayAccumulator() for _ in range(NUM_DELAYS)]

    for second in range(config.seconds):
        calibrate = config.mode == CLOSED_LOOP or second == 0
        if calibrate:
            table, outcomes = run_stabilization_stage(
                second, plant, config.calibration, schedule, table
            )
            for index, result, trace in outcomes:
                a = acc[index]
                a.calibrations += 1
                if result is not None:
                    a.calib_vis_sum += result.final_visibility
                    a.calib_vis_count += 1
                    if result.accepted:
                        a.accepted += 1
                if calib_sink is not None:
                    for record in trace:
                        calib_sink(second, index, record)
            if any(entry.refreshed_at != second for entry in table.entries):
                raise RuntimeError("table must be refreshed this second")
        else:
            plant.idle(schedule.stab_duration_us)

        slot_sums = np.zeros(NUM_DELAYS)
        slot_counts = np.zeros(NUM_DELAYS, dtype=int)
        for record in run_qkd_stage(second, table, plant, schedule, rng_delay):
            if record.visibility is not None:
                slot_sums[record.delay_index] += record.visibility
                slot_counts[record.delay_index] += 1
            if qkd_sink is not None:
                qkd_sink(record)
        for index in range(NUM_DELAYS):
            if slot_counts[index]:
                a = acc[index]
                a.vis_sum += slot_sums[index]
                a.vis_slots += int(slot_counts[index])
                a.second_means.append(slot_sums[index] / slot_counts[index])

        if plant.elapsed_us != (second + 1) * US_PER_SECOND:
            raise RuntimeError(f"clock skew: {plant.elapsed_us} us after second {second}")

    per_delay = []
    for index, a in enumerate(acc):
        mean_vis = a.vis_sum / a.vis_slots if a.vis_slots else math.nan
        per_delay.append(
            DelaySummary(
                delay_index=index,
                delay_ns=2 * index,
                mean_visibility=mean_vis,
                min_visibility=min(a.second_means) if a.second_means else math.nan,
                e_bit_proxy=(1.0 - mean_vis) / 2.0 if a.vis_slots else math.nan,
                accepted_fraction=a.accepted / a.calibrations if a.calibrations else 0.0,
                slots=a.vis_slots,
            )
        )
    total_vis = sum(a.vis_sum for a in acc)
    total_slots = sum(a.vis_slots for a in acc)
    calib_vis = [a.calib_vis_sum for a in acc]
    calib_n = sum(a.calib_vis_count for a in acc)
    # delay 0 interferes a train with itself (r=0 is not a valid protocol
    # shift), so it is switched but excluded from the error-rate aggregate
    rr_vis = sum(a.vis_sum for a in acc[1:])
    rr_slots = sum(a.vis_slots for a in acc[1:])
    return ExperimentReport(
        seconds=config.seconds,
        mode=config.mode,
        seed=config.seed,
        per_delay=tuple(per_delay),
        global_mean_visibility=total_vis / total_slots if total_slots else math.nan,
        mean_calib_visibility=sum(calib_vis) / calib_n if calib_n else math.nan,
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
