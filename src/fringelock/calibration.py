"""Per-delay stabilization preparation: the 23-step optimal-voltage search.

Each delay path gets one 2.5 ms permutation slot per second, spent as a
fixed 23-step schedule:

* steps 1-4   measure at the four quadrature presets 0, pi/2, pi, 3pi/2,
* step 5      apply the least-squares phase estimate (working point PT1),
* steps 6-14  coarse scan, 9 voltages at 0.1 V spacing centered on PT1,
* steps 15-22 fine scan, 8 voltages at a smaller spacing around the coarse
              best (PT3),
* step 23     re-apply the winner (PT5) to double-check its visibility.

``run_calibration(delay_index, count, cfg, pm, rows)`` drives the search
through ``count(code) -> (c1, c2)``, the delay's counting function
(one of ``Plant.counters``), one call per step in step order, and appends one
``CALIB_STEP`` tuple per measured step to the caller's ``rows``, so the
steps before an abort are kept there too; DAC codes are plain ints. The
steps run in four batches, 1-4, 5-14, 15-22 and 23. A batch's codes are
all computed before it starts, because none of them depends on the batch's
own counts: the presets are fixed, the coarse scan centers on PT1, the
fine scan on PT3, and step 23 re-applies PT5. A search gives up through
one exception, ``CalibrationAborted``: at a step with zero total counts, or
in ``least_squares_phase`` when the four preset fractions coincide. A search
that ends is accepted when its step-23 visibility reaches the fixed
``ACCEPT_THRESHOLD``; the label is only reported, as PT5 is used either way.

The estimator inverts the fringe model f_k = (1 + cos(alpha + ext_k)) / 2,
i.e. the preset phases add to the path phase inside the cosine (the only
form a two-port split can realize); at quadrature presets its least-squares
solution is one closed-form ``atan2``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .hardware import V_PI, PmConfig, dac_to_voltage, voltage_for_phase, voltage_to_code
from .optics import canonical_phase

TOTAL_STEPS = 23
COARSE_POINTS = 9
FINE_POINTS = 8
ACCEPT_THRESHOLD = 0.90
#: The four preset modulator phases of steps 1-4; quadrature presets keep the
#: least-squares problem well conditioned and give it a closed form.
QUADRATURE_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)

#: One calibration step: the delay, the step number 1-23, the applied DAC
#: code, the two port counts and their visibility (c1 - c2) / (c1 + c2).
CALIB_STEP = np.dtype(
    [("delay_index", np.int64), ("step_index", np.int64), ("dac_code", np.int64),
     ("c1", np.int64), ("c2", np.int64), ("visibility", np.float64)]
)


class CalibrationAborted(RuntimeError):
    """A calibration step produced unusable data (e.g. zero total counts).

    The steps measured before the fault are already in the caller's rows.
    """


@dataclass(frozen=True)
class CalibrationConfig:
    coarse_interval: float = 0.1
    fine_interval: float = 0.025
    step_window_us: int = 100

    def __post_init__(self) -> None:
        for key in ("coarse_interval", "fine_interval", "step_window_us"):
            if getattr(self, key) <= 0:
                raise ValueError(f"calibration.{key} must be positive, got {getattr(self, key)}")

    @functools.cached_property
    def coarse_offsets(self) -> tuple[float, ...]:
        """Volts from PT2 of the coarse scan's points, steps 6-14."""
        return tuple((j - COARSE_POINTS // 2) * self.coarse_interval for j in range(COARSE_POINTS))

    @functools.cached_property
    def fine_offsets(self) -> tuple[float, ...]:
        """Volts from PT4 of the fine scan's points, steps 15-22 (PT4's own is PT3's)."""
        half = FINE_POINTS // 2
        return tuple(j * self.fine_interval for j in range(-half, half + 1) if j != 0)


@dataclass(frozen=True)
class CalibResult:
    optimal_code: int
    final_visibility: float  # measured at step 23

    @property
    def accepted(self) -> bool:
        return self.final_visibility >= ACCEPT_THRESHOLD


def least_squares_phase(observed: Sequence[float]) -> float:
    """Phase minimizing sum_k ((1 + cos(a + ext_k))/2 - f_k)^2 over a.

    ``observed`` are the four normalized port-1 fractions c1/(c1+c2) at the
    ``QUADRATURE_PHASES`` presets, where the minimizer is exactly
    atan2(f3 - f1, f0 - f2).
    """
    f0, f1, f2, f3 = observed  # any other length raises ValueError
    cos_term = f0 - f2
    sin_term = f3 - f1
    if math.hypot(cos_term, sin_term) < 1e-12:
        raise CalibrationAborted(
            "all four step fractions coincide; the fringe phase is unconstrained"
        )
    return canonical_phase(math.atan2(sin_term, cos_term))


def phase_to_compensation_code(alpha_hat: float, cfg: PmConfig) -> int:
    """DAC code driving the modulator to cancel ``alpha_hat``.

    Targets total phase alpha + phi = 0 (mod 2*pi), i.e. +1 visibility at
    port 1, picking the lowest in-span voltage among the candidates.
    """
    target = canonical_phase(-canonical_phase(alpha_hat))
    return voltage_to_code(voltage_for_phase(target), cfg)


def _wrap_into_span(v: float, cfg: PmConfig) -> float:
    """Shift a voltage by the fewest multiples of 2*V_PI that fit [0, v_max].

    A 2*V_PI shift leaves the modulator phase unchanged, so scan points that
    fall off a rail keep their place on the phase grid. The shift is computed
    in exact rationals and rounded once, so any finite voltage lands in the
    span, and a one-period shift rounds exactly like ``v +/- 2*V_PI``.
    """
    if 0.0 <= v <= cfg.v_max:
        return v
    if not math.isfinite(v):
        raise ValueError(f"cannot wrap {v} V into span [0, {cfg.v_max}]")
    exact, period = Fraction(v), Fraction(2.0 * V_PI)
    if v < 0.0:
        exact += math.ceil(-exact / period) * period
    else:
        exact -= math.ceil((exact - Fraction(cfg.v_max)) / period) * period
    return float(exact)


def _scan_codes(center_code: int, offsets: Sequence[float], cfg: PmConfig) -> list[int]:
    """DAC codes of the scan points ``offsets`` volts from a center code's
    voltage, each wrapped into the span and rounded as ``voltage_to_code``."""
    max_code, v_max = cfg.max_code, cfg.v_max
    center_v = dac_to_voltage(center_code, cfg)
    codes = []
    for off in offsets:
        v = center_v + off
        if not 0.0 <= v <= v_max:
            v = _wrap_into_span(v, cfg)
        code = round(v / v_max * max_code)
        if not 0 <= code <= max_code:
            code = min(max_code, max(0, code))
        codes.append(code)
    return codes


@functools.cache
def preset_codes(pm: PmConfig) -> tuple[int, ...]:
    """DAC codes of the four preset phases of steps 1-4, memoised per
    modulator: it is frozen, and every calibration reuses them."""
    return tuple(voltage_to_code(voltage_for_phase(ext), pm) for ext in QUADRATURE_PHASES)


def run_calibration(
    delay_index: int,
    count: Callable[[int], tuple[int, int]],
    cfg: CalibrationConfig,
    pm: PmConfig,
    rows: list[tuple],
) -> CalibResult:
    """Execute the fixed 23-step search for one delay path.

    ``count(code)`` integrates the delay's next window. Appends one
    ``CALIB_STEP`` tuple per measured step to ``rows``. Ties on
    visibility resolve to the earliest step, so traces are reproducible.
    The fine-scan winner competes against the coarse best it is centered
    on: a scan point can only replace PT3 by strictly beating it.
    """
    append_row = rows.append

    def measure_batch(step: int, codes: Sequence[int]) -> list[float]:
        # one count per step, in step order; no code here depends on the
        # batch's own counts
        visibilities = []
        append_vis = visibilities.append
        for code in codes:
            c1, c2 = count(code)
            total = c1 + c2
            if total == 0:
                raise CalibrationAborted(
                    f"zero total counts at calibration step {step} of delay {delay_index}"
                )
            vis = (c1 - c2) / total
            append_row((delay_index, step, code, c1, c2, vis))
            append_vis(vis)
            step += 1
        return visibilities

    # steps 1-4: preset phases for the least-squares estimate
    measure_batch(1, preset_codes(pm))
    fractions = [c1 / (c1 + c2) for *_, c1, c2, _ in rows[-4:]]
    alpha_hat = least_squares_phase(fractions)

    # step 5 applies the estimate so PT1's visibility is itself observable;
    # steps 6-14 scan coarsely around PT2 (same voltage as PT1) for PT3
    pt1_code = phase_to_compensation_code(alpha_hat, pm)
    coarse = [pt1_code, *_scan_codes(pt1_code, cfg.coarse_offsets, pm)]
    coarse_visibilities = measure_batch(5, coarse)
    # ties resolve to the earliest step: index finds the first of the best
    pt3_visibility = max(coarse_visibilities)
    pt3_code = coarse[coarse_visibilities.index(pt3_visibility)]

    # steps 15-22: fine scan around PT4 (same voltage as PT3), where a scan
    # point replaces PT3 only by strictly beating it
    fine = _scan_codes(pt3_code, cfg.fine_offsets, pm)
    fine_visibilities = measure_batch(15, fine)
    fine_best = max(fine_visibilities)
    pt5_code = fine[fine_visibilities.index(fine_best)] if fine_best > pt3_visibility else pt3_code

    # step 23: PT6 re-applies PT5's voltage to double-check the result
    [final_visibility] = measure_batch(23, [pt5_code])
    return CalibResult(optimal_code=pt5_code, final_visibility=final_visibility)
