"""Controllable hardware chain: DAC, phase modulator, delay gates, detectors.

Models the signal path the controller actually touches: a DAC code becomes a
modulator voltage, the voltage becomes a phase, a 7-bit random number selects
one of 128 binary-weighted fiber delays, and two Poisson photon counters read
out the interferometer ports. Gate switching and modulator settling are
instantaneous; the high-voltage driver electronics are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import PortIntensities, canonical_phase

NUM_DELAYS = 128
GATE_COUNT = 7
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
        if self.v_pi <= 0:
            raise ValueError(f"v_pi must be positive, got {self.v_pi}")
        if (self.v_max - self.v_min) < 2.0 * self.v_pi:
            raise ValueError(
                f"DAC span {self.v_max - self.v_min} V cannot cover a full 2*pi "
                f"of phase (needs >= {2.0 * self.v_pi} V)"
            )
        if self.dac_bits <= 0:
            raise ValueError(f"dac_bits must be positive, got {self.dac_bits}")

    @property
    def span(self) -> float:
        return self.v_max - self.v_min

    @property
    def max_code(self) -> int:
        return (1 << self.dac_bits) - 1


@dataclass(frozen=True)
class DelaySelector:
    """7-gate pattern <-> delay index 0..127 <-> delay in ns (a bijection)."""

    index: int
    gate_bits: tuple[bool, ...]
    delay_ns: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_DELAYS:
            raise ValueError(f"delay index {self.index} out of range 0..127")
        if len(self.gate_bits) != GATE_COUNT:
            raise ValueError("expected exactly 7 gate bits")
        if sum(b << i for i, b in enumerate(self.gate_bits)) != self.index:
            raise ValueError("gate bits do not encode the delay index")
        if self.delay_ns != 2 * self.index:
            raise ValueError("delay_ns must equal 2 * index")


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


@dataclass(frozen=True)
class DetectorCounts:
    """Photon counts from the two ports over one integration window."""

    c1: int
    c2: int
    window: float

    def __post_init__(self) -> None:
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("counts must be non-negative")
        if self.window <= 0.0:
            raise ValueError(f"window must be positive, got {self.window}")

    @property
    def total(self) -> int:
        return self.c1 + self.c2


def dac_to_voltage(code: int, cfg: PmConfig) -> float:
    """Ideal DAC transfer: v_min at code 0, v_max (never past it) at full scale."""
    max_code = cfg.max_code
    if not 0 <= code <= max_code:
        raise ValueError(f"DAC code {code} out of range for {cfg.dac_bits}-bit converter")
    return min(cfg.v_max, cfg.v_min + code * (cfg.v_max - cfg.v_min) / max_code)


def voltage_to_code(v: float, cfg: PmConfig) -> int:
    """Nearest DAC code for a voltage in the span (round-trips within 1 LSB)."""
    if not cfg.v_min <= v <= cfg.v_max:
        raise ValueError(f"voltage {v} V outside DAC span [{cfg.v_min}, {cfg.v_max}]")
    max_code = cfg.max_code
    code = round((v - cfg.v_min) / (cfg.v_max - cfg.v_min) * max_code)
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


def select_delay(random7: int) -> DelaySelector:
    """Decode a 7-bit random number into a gate pattern and its delay.

    Bit i set routes light through fiber i, adding its length to the path;
    with binary-weighted fibers index r maps to exactly 2*r ns.
    """
    if not 0 <= random7 < NUM_DELAYS:
        raise ValueError(f"delay selector {random7} out of range 0..127")
    bits = tuple(bool((random7 >> i) & 1) for i in range(GATE_COUNT))
    delay_ns = sum(length for length, on in zip(FIBER_DELAYS_NS, bits) if on)
    return DelaySelector(index=random7, gate_bits=bits, delay_ns=delay_ns)


def sample_counts(
    intensities: PortIntensities,
    det: DetectorConfig,
    window: float,
    rng: np.random.Generator,
) -> DetectorCounts:
    """Draw one counting window from the two ports.

    Expected counts per port are the port's share of the input photon rate
    times efficiency and window, plus dark counts. Draw order is fixed
    (port 1 then port 2) so a seeded generator reproduces runs bit for bit.
    """
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window}")
    total = intensities.total
    if total > 0.0:
        f1 = intensities.i1 / total
        f2 = intensities.i2 / total
    else:
        f1 = f2 = 0.0
    signal = det.input_rate * det.efficiency * window
    dark = det.dark_rate * window
    lam1 = f1 * signal + dark
    lam2 = f2 * signal + dark
    if det.shot_noise:
        c1 = int(rng.poisson(lam1))
        c2 = int(rng.poisson(lam2))
    else:
        c1 = int(round(lam1))
        c2 = int(round(lam2))
    return DetectorCounts(c1=c1, c2=c2, window=window)
