"""Controllable hardware chain: DAC, phase modulator, delay gates, detectors.

Models the signal path the controller actually touches: a DAC code becomes a
modulator voltage, the voltage becomes a phase, a 7-bit random number selects
one of 128 binary-weighted fiber delays, and two Poisson photon counters read
out the interferometer ports. Gate switching and modulator settling are
instantaneous; the high-voltage driver electronics are out of scope.

A delay is an index 0..127 everywhere: ``select_delay(index) -> delay_ns``
decodes its gates, and ``DELAY_NS`` holds the result for every index.
``dac_to_phase(code, pm)`` takes a DAC code straight to its modulator phase,
and ``dac_to_voltages(codes, pm)`` converts an array of codes at once.
``sample_counts((i1, i2), det, window, rng) -> (c1, c2)`` counts one window.

The configs are frozen, so the terms every window reuses are derived once
per config and cached: ``PmConfig.transfer`` holds the DAC transfer's
constants and ``DetectorConfig.signal_rate`` the detected photon rate. They
are properties, not fields, so the config schema does not see them. Each
function combines them in the operation order of the same expression
written over the config's fields, so the cache changes no bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .optics import TWO_PI, canonical_phase

GATE_COUNT = 7
NUM_DELAYS = 1 << GATE_COUNT
# Fiber delay per gate, ns. Powers of two are the only on/off assignment that
# yields the arithmetic delay set {0, 2, 4, ..., 254} ns.
FIBER_DELAYS_NS = tuple(2 << i for i in range(GATE_COUNT))


@dataclass(frozen=True)
class PmConfig:
    """Phase-modulator drive chain: DAC span and half-wave voltage.

    The span must cover at least 2*v_pi so every target phase in [0, 2*pi)
    has an in-range compensation voltage. v_pi is an assumption (4.0 V makes
    the 0.1 V coarse calibration step worth 0.0785 rad), configurable.
    """

    v_min: float = 0.0
    v_max: float = 10.0
    v_pi: float = 4.0
    dac_bits: int = 16

    def __post_init__(self) -> None:
        if self.v_max <= self.v_min:
            raise ValueError(f"v_max {self.v_max} must exceed v_min {self.v_min}")
        if not math.isfinite(self.v_max - self.v_min):
            raise ValueError(
                f"DAC span from pm.v_min = {self.v_min} V to pm.v_max = {self.v_max} V "
                "is not finite"
            )
        if self.v_pi <= 0:
            raise ValueError(f"v_pi must be positive, got {self.v_pi}")
        if (self.v_max - self.v_min) < 2.0 * self.v_pi:
            raise ValueError(
                f"DAC span {self.v_max - self.v_min} V cannot cover a full 2*pi "
                f"of phase (needs >= {2.0 * self.v_pi} V)"
            )
        if self.dac_bits <= 0:
            raise ValueError(f"dac_bits must be positive, got {self.dac_bits}")
        if self.dac_bits > 63:
            raise ValueError(f"pm.dac_bits must be at most 63 (int64 codes), got {self.dac_bits}")
        # the transfer's products at full scale: code * span, pi * span / v_pi
        if not (
            math.isfinite(self.span * self.max_code)
            and math.isfinite(math.pi * self.span / self.v_pi)
        ):
            raise ValueError(
                f"DAC transfer overflows: the span from pm.v_min = {self.v_min} V to "
                f"pm.v_max = {self.v_max} V times {self.max_code} codes "
                f"(pm.dac_bits = {self.dac_bits}), or times pi over pm.v_pi = "
                f"{self.v_pi} V, is not finite"
            )

    @property
    def span(self) -> float:
        return self.v_max - self.v_min

    @functools.cached_property
    def max_code(self) -> int:
        return (1 << self.dac_bits) - 1

    @functools.cached_property
    def transfer(self) -> tuple[int, float, float, float, float]:
        """``(max_code, v_min, v_max, span, v_pi)``, the DAC transfer's terms."""
        return self.max_code, self.v_min, self.v_max, self.span, self.v_pi


@dataclass(frozen=True)
class DetectorConfig:
    """Generic Poisson photon counter pair at the two output ports.

    ``input_rate`` is the photon arrival rate at the interferometer and acts
    as the power scale. ``shot_noise=False`` replaces Poisson draws with
    rounded expectations (the noiseless plant used by oracle tests).
    """

    efficiency: float = 0.2
    dark_rate: float = 100.0
    input_rate: float = 2.5e7
    shot_noise: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency}")
        if self.dark_rate < 0.0:
            raise ValueError(f"dark rate must be >= 0, got {self.dark_rate}")
        if self.input_rate < 0.0:
            raise ValueError(f"input rate must be >= 0, got {self.input_rate}")

    @functools.cached_property
    def signal_rate(self) -> float:
        """Detected photon rate before the port split, ``input_rate * efficiency``."""
        return self.input_rate * self.efficiency


def dac_to_voltage(code: int, cfg: PmConfig) -> float:
    """Ideal DAC transfer: v_min at code 0, v_max (never past it) at full scale."""
    max_code, v_min, v_max, span, _ = cfg.transfer
    if not 0 <= code <= max_code:
        raise ValueError(f"DAC code {code} out of range for {cfg.dac_bits}-bit converter")
    return min(v_max, v_min + code * span / max_code)


def dac_to_voltages(codes: np.ndarray, cfg: PmConfig) -> np.ndarray:
    """``dac_to_voltage`` of each code of an int64 array, as one array with
    the same arithmetic and bits."""
    max_code, v_min, v_max, span, _ = cfg.transfer
    if codes.size and not 0 <= codes.min() <= codes.max() <= max_code:
        raise ValueError(
            f"DAC codes {codes.min()}..{codes.max()} out of range for "
            f"{cfg.dac_bits}-bit converter"
        )
    v = v_min + codes * span / max_code
    # min(v_max, v)'s rule: v only if below v_max (np.minimum may pick either zero)
    return np.where(v < v_max, v, v_max)


def dac_to_phase(code: int, cfg: PmConfig) -> float:
    """Modulator phase of a DAC code: ``voltage_to_phase(dac_to_voltage(code))``
    in one call, with the same arithmetic. The clamp keeps the voltage in the
    span, so the span check is not repeated."""
    max_code, v_min, v_max, span, v_pi = cfg.transfer
    if not 0 <= code <= max_code:
        raise ValueError(f"DAC code {code} out of range for {cfg.dac_bits}-bit converter")
    v = min(v_max, v_min + code * span / max_code)
    # the phase is >= 0, where canonical_phase is math.fmod alone
    return math.fmod(math.pi * (v - v_min) / v_pi, TWO_PI)


def voltage_to_code(v: float, cfg: PmConfig) -> int:
    """Nearest DAC code for a voltage in the span (round-trips within 1 LSB)."""
    max_code, v_min, v_max, span, _ = cfg.transfer
    if not v_min <= v <= v_max:
        raise ValueError(f"voltage {v} V outside DAC span [{v_min}, {v_max}]")
    code = round((v - v_min) / span * max_code)
    return min(max_code, max(0, code))


def voltage_to_phase(v: float, cfg: PmConfig) -> float:
    """Modulator transfer: pi of phase per v_pi of drive, canonical [0, 2*pi)."""
    if not cfg.v_min <= v <= cfg.v_max:
        raise ValueError(f"voltage {v} V outside span [{cfg.v_min}, {cfg.v_max}]")
    return canonical_phase(math.pi * (v - cfg.v_min) / cfg.v_pi)


def voltage_for_phase(phase: float, cfg: PmConfig) -> float:
    """Lowest in-span voltage whose modulator phase is ``phase`` (mod 2*pi)."""
    v = cfg.v_min + cfg.v_pi * canonical_phase(phase) / math.pi
    if v > cfg.v_max:
        # unreachable while the PmConfig span invariant holds
        raise ValueError(f"no in-span voltage realizes phase {phase}")
    return v


def select_delay(random7: int) -> int:
    """Decode a 7-bit random number into its gate pattern's delay in ns.

    Bit i set routes light through fiber i, adding its length to the path;
    with binary-weighted fibers index r maps to exactly 2*r ns.
    """
    if not 0 <= random7 < NUM_DELAYS:
        raise ValueError(f"delay selector {random7} out of range 0..127")
    return sum(length for i, length in enumerate(FIBER_DELAYS_NS) if (random7 >> i) & 1)


#: Delay in ns of each of the 128 delay indices, the one delay table.
DELAY_NS = tuple(select_delay(i) for i in range(NUM_DELAYS))


def sample_counts(
    intensities: tuple[float, float],
    det: DetectorConfig,
    window: float,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Draw one counting window from the two ports' intensities ``(i1, i2)``.

    Returns the port counts ``(c1, c2)``. Expected counts per port are the
    port's share of the input photon rate times efficiency and window, plus
    dark counts. Draw order is fixed (port 1 then port 2) so a seeded
    generator reproduces runs bit for bit.
    """
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window}")
    i1, i2 = intensities
    total = i1 + i2
    if total > 0.0:
        f1 = i1 / total
        f2 = i2 / total
    else:
        f1 = f2 = 0.0
    signal = det.signal_rate * window
    dark = det.dark_rate * window
    lam1 = f1 * signal + dark
    lam2 = f2 * signal + dark
    # a scalar draw and round() both give Python ints
    if det.shot_noise:
        return rng.poisson(lam1), rng.poisson(lam2)
    return round(lam1), round(lam2)
