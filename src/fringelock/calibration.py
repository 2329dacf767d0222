"""Per-delay stabilization preparation: the 23-step optimal-voltage search.

Each delay path gets one 2.5 ms permutation slot per second, spent as a
fixed 23-step schedule:

* steps 1-4   measure at four preset modulator phases,
* step 5      apply the least-squares phase estimate (working point PT1),
* steps 6-14  coarse scan, 9 voltages at 0.1 V spacing centered on PT1,
* steps 15-22 fine scan, 8 voltages at a smaller spacing around the coarse
              best (PT3),
* step 23     re-apply the winner (PT5) to double-check its visibility.

The steps of one search come back as one ``CALIB_STEP`` array, a row per
step; DAC codes are plain ints.

The estimator inverts the fringe model f_k = (1 + cos(alpha + ext_k)) / 2,
i.e. the preset phases add to the path phase inside the cosine (the only
form a two-port split can realize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol, Sequence

import numpy as np

from .hardware import (
    DelaySelector,
    DetectorCounts,
    PmConfig,
    dac_to_voltage,
    voltage_for_phase,
    voltage_to_code,
)
from .optics import canonical_phase, visibility

TOTAL_STEPS = 23
COARSE_POINTS = 9
FINE_POINTS = 8
#: Phase-estimate grid used when the step plan is not the quadrature set.
GRID_POINTS = 4096

QUADRATURE_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)

#: One calibration step: the delay, the step number 1-23, the applied DAC
#: code, the two port counts and their visibility (c1 - c2) / (c1 + c2).
CALIB_STEP = np.dtype(
    [("delay_index", np.int64), ("step_index", np.int64), ("dac_code", np.int64),
     ("c1", np.int64), ("c2", np.int64), ("visibility", np.float64)]
)


class AmbiguousPhaseError(ValueError):
    """The four step measurements carry no phase information (flat residual)."""


class CalibrationAborted(RuntimeError):
    """A calibration step produced unusable data (e.g. zero total counts).

    Carries the partial ``CALIB_STEP`` trace recorded before the fault.
    """

    def __init__(self, message: str, trace: np.ndarray):
        super().__init__(message)
        self.trace = trace


class Plantlike(Protocol):
    def measure(self, delay: DelaySelector, code: int, window_us: int) -> DetectorCounts: ...


@dataclass(frozen=True)
class InitialStepPlan:
    """The four preset modulator phases applied in steps 1-4.

    Quadrature presets {0, pi/2, pi, 3pi/2} keep the least-squares problem
    well conditioned and admit a closed form; they are an assumption, not a
    given.
    """

    ext_phases: tuple[float, ...] = QUADRATURE_PHASES

    def __post_init__(self) -> None:
        if len(self.ext_phases) != 4:
            raise ValueError("the initial estimate uses exactly 4 step phases")
        canon = [canonical_phase(p) for p in self.ext_phases]
        if len({round(p, 12) for p in canon}) != 4:
            raise ValueError("step phases must be pairwise distinct")
        if max(canon) - min(canon) < math.pi:
            raise ValueError("step phases must span at least pi")

    @property
    def is_quadrature(self) -> bool:
        return all(
            abs(canonical_phase(p) - q) < 1e-12
            for p, q in zip(self.ext_phases, QUADRATURE_PHASES)
        )


@dataclass(frozen=True)
class CalibrationConfig:
    plan: InitialStepPlan = field(default_factory=InitialStepPlan)
    coarse_interval: float = 0.1
    fine_interval: float = 0.025
    step_window_us: int = 100
    accept_threshold: float = 0.90

    def __post_init__(self) -> None:
        if self.coarse_interval <= 0 or self.fine_interval <= 0:
            raise ValueError("scan intervals must be positive")
        if self.step_window_us <= 0:
            raise ValueError("step window must be positive")
        if not -1.0 <= self.accept_threshold <= 1.0:
            raise ValueError("accept threshold must lie in [-1, 1]")


@dataclass(frozen=True)
class CalibResult:
    optimal_code: int
    final_visibility: float
    trace: np.ndarray  # CALIB_STEP rows, one per step
    accepted: bool

    def __post_init__(self) -> None:
        if len(self.trace) != TOTAL_STEPS:
            raise ValueError(f"complete calibration trace has {TOTAL_STEPS} steps")
        if self.final_visibility != self.trace["visibility"][-1]:
            raise ValueError("final visibility must come from the last step")


def least_squares_phase(observed: Sequence[float], plan: InitialStepPlan) -> float:
    """Phase minimizing sum_k ((1 + cos(a + ext_k))/2 - f_k)^2 over a.

    ``observed`` are the four normalized port-1 fractions c1/(c1+c2). For the
    quadrature plan the minimizer is atan2(f3 - f1, f0 - f2) exactly; any
    other plan falls back to a dense 4096-point grid. Both paths agree (to
    grid resolution) where the closed form applies.
    """
    if len(observed) != len(plan.ext_phases):
        raise ValueError("need one observation per planned step phase")
    f = [float(x) for x in observed]
    if plan.is_quadrature:
        cos_term = f[0] - f[2]
        sin_term = f[3] - f[1]
        if math.hypot(cos_term, sin_term) < 1e-12:
            raise AmbiguousPhaseError(
                "all four step fractions coincide; the fringe phase is unconstrained"
            )
        return canonical_phase(math.atan2(sin_term, cos_term))
    grid = np.arange(GRID_POINTS) * (2.0 * math.pi / GRID_POINTS)
    residual = np.zeros(GRID_POINTS)
    for fk, ext in zip(f, plan.ext_phases):
        residual += (0.5 * (1.0 + np.cos(grid + ext)) - fk) ** 2
    if float(residual.max() - residual.min()) < 1e-12:
        raise AmbiguousPhaseError("residual landscape is flat; phase is unconstrained")
    # ties resolve to the lowest grid index, keeping the estimate deterministic
    return float(grid[int(np.argmin(residual))])


def phase_to_compensation_code(alpha_hat: float, cfg: PmConfig) -> int:
    """DAC code driving the modulator to cancel ``alpha_hat``.

    Targets total phase alpha + phi = 0 (mod 2*pi), i.e. +1 visibility at
    port 1, picking the lowest in-span voltage among the candidates.
    """
    target = canonical_phase(-canonical_phase(alpha_hat))
    return voltage_to_code(voltage_for_phase(target, cfg), cfg)


def _wrap_into_span(v: float, cfg: PmConfig) -> float:
    """Shift a voltage by the fewest multiples of 2*v_pi that fit the DAC span.

    A 2*v_pi shift leaves the modulator phase unchanged, so scan points that
    fall off a rail keep their place on the phase grid. The shift is computed
    in exact rationals and rounded once, so any finite voltage lands in the
    span, and a one-period shift rounds exactly like ``v +/- 2*v_pi``.
    """
    if cfg.v_min <= v <= cfg.v_max:
        return v
    if not math.isfinite(v):
        raise ValueError(f"cannot wrap {v} V into span [{cfg.v_min}, {cfg.v_max}]")
    exact, period = Fraction(v), Fraction(2.0 * cfg.v_pi)
    if v < cfg.v_min:
        exact += math.ceil((Fraction(cfg.v_min) - exact) / period) * period
    else:
        exact -= math.ceil((exact - Fraction(cfg.v_max)) / period) * period
    return float(exact)


def run_calibration(
    delay: DelaySelector,
    plant: Plantlike,
    cfg: CalibrationConfig,
    pm: PmConfig,
) -> CalibResult:
    """Execute the fixed 23-step search for one delay path.

    Ties on visibility resolve to the earliest step, so traces are
    reproducible. The fine-scan winner competes against the coarse best it
    is centered on: a scan point can only replace PT3 by strictly beating
    it.
    """
    rows: list[tuple] = []

    def step(index: int, code: int) -> float:
        counts = plant.measure(delay, code, cfg.step_window_us)
        if counts.total == 0:
            raise CalibrationAborted(
                f"zero total counts at calibration step {index} of delay {delay.index}",
                np.array(rows, dtype=CALIB_STEP),
            )
        vis = visibility(counts.c1, counts.c2)
        rows.append((delay.index, index, code, counts.c1, counts.c2, vis))
        return vis

    # steps 1-4: preset phases for the least-squares estimate
    for k, ext in enumerate(cfg.plan.ext_phases):
        step(k + 1, voltage_to_code(voltage_for_phase(ext, pm), pm))
    fractions = [c1 / (c1 + c2) for *_, c1, c2, _ in rows]
    try:
        alpha_hat = least_squares_phase(fractions, cfg.plan)
    except AmbiguousPhaseError as exc:
        # no usable fringe information: treat like a plant fault
        raise CalibrationAborted(str(exc), np.array(rows, dtype=CALIB_STEP)) from exc

    # step 5: apply the estimate so PT1's visibility is itself observable
    pt1_code = phase_to_compensation_code(alpha_hat, pm)
    pt1_visibility = step(5, pt1_code)

    def scan(
        first_step: int, center_code: int, offsets: Sequence[float], incumbent: tuple[float, int]
    ) -> tuple[float, int]:
        # a (visibility, code) incumbent is replaced only by a strictly
        # higher visibility, so ties resolve to the earliest measurement
        best_visibility, best_code = incumbent
        center_v = dac_to_voltage(center_code, pm)
        for j, off in enumerate(offsets):
            code = voltage_to_code(_wrap_into_span(center_v + off, pm), pm)
            vis = step(first_step + j, code)
            if vis > best_visibility:
                best_visibility, best_code = vis, code
        return best_visibility, best_code

    # steps 6-14: coarse scan around PT2 (same voltage as PT1)
    coarse_offsets = [(j - COARSE_POINTS // 2) * cfg.coarse_interval for j in range(COARSE_POINTS)]
    pt3 = scan(6, pt1_code, coarse_offsets, incumbent=(pt1_visibility, pt1_code))

    # steps 15-22: fine scan around PT4 (same voltage as PT3); PT3's own
    # point was already measured, so the scan covers its neighborhood only
    half = FINE_POINTS // 2
    fine_offsets = [j * cfg.fine_interval for j in range(-half, half + 1) if j != 0]
    _, pt5_code = scan(15, pt3[1], fine_offsets, incumbent=pt3)

    # step 23: PT6 re-applies PT5's voltage to double-check the result
    final_visibility = step(23, pt5_code)
    return CalibResult(
        optimal_code=pt5_code,
        final_visibility=final_visibility,
        trace=np.array(rows, dtype=CALIB_STEP),
        accepted=final_visibility >= cfg.accept_threshold,
    )
