"""Controllable hardware chain: DAC, phase modulator, delay gates, detectors.

Models the signal path the controller actually touches: a DAC code becomes a
modulator voltage, the voltage becomes a phase, a 7-bit random number selects
one of 128 binary-weighted fiber delays, and two Poisson photon counters read
out the interferometer ports. Gate switching and modulator settling are
instantaneous; the high-voltage driver electronics are out of scope.

A delay is an index 0..127 everywhere: ``select_delay(index) -> delay_ns``
decodes its gates, and ``DELAY_NS`` holds the result for every index.
``dac_to_voltages(codes, pm)`` converts an array of DAC codes at once; the
modulator's voltage-to-phase step is written inline where a window is
counted (``plant.py``), and on its own in ``tests/reference_model.py``.
``sample_counts((i1, i2), det, window, rng) -> (c1, c2)`` counts one window.

The DAC spans 0 V to ``PmConfig.v_max``, and the modulator's half-wave
voltage is the constant ``V_PI``: the origin and unit of the voltage axis
only label the codes the search picks. The derived terms
``PmConfig.max_code`` and ``DetectorConfig.signal_rate`` are properties,
not fields, so the config schema does not see them; ``Plant.counters``
reads them once per stabilisation stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import canonical_phase

GATE_COUNT = 7
NUM_DELAYS = 1 << GATE_COUNT
# Fiber delay per gate, ns. Powers of two are the only on/off assignment that
# yields the arithmetic delay set {0, 2, 4, ..., 254} ns.
FIBER_DELAYS_NS = tuple(2 << i for i in range(GATE_COUNT))
#: Detector efficiency, an assumption: it only scales the input rate, so
#: ``DetectorConfig.input_rate`` alone sets the detected rate.
DETECTION_EFFICIENCY = 0.2
#: Modulator half-wave voltage, an assumption: 4.0 V makes the 0.1 V coarse
#: calibration step worth 0.0785 rad.
V_PI = 4.0


@dataclass(frozen=True)
class PmConfig:
    """Phase-modulator drive chain: a DAC from 0 V to ``v_max``.

    The span must cover at least 2*V_PI so every target phase in [0, 2*pi)
    has an in-range compensation voltage.
    """

    v_max: float = 10.0
    dac_bits: int = 16

    def __post_init__(self) -> None:
        if self.v_max < 2.0 * V_PI:
            raise ValueError(
                f"pm.v_max = {self.v_max} V cannot cover a full 2*pi of phase "
                f"(needs 2 * V_PI = {2.0 * V_PI} V)"
            )
        if self.dac_bits <= 0:
            raise ValueError(f"pm.dac_bits must be positive, got {self.dac_bits}")
        if self.dac_bits > 63:
            raise ValueError(f"pm.dac_bits must be at most 63 (int64 codes), got {self.dac_bits}")
        # the transfer's products at full scale: code * v_max, pi * v_max
        if not (math.isfinite(self.v_max * self.max_code) and math.isfinite(math.pi * self.v_max)):
            raise ValueError(
                f"DAC transfer overflows: pm.v_max = {self.v_max} V times the full-scale "
                f"code {self.max_code} (pm.dac_bits = {self.dac_bits}), or times pi, is not finite"
            )

    @property
    def max_code(self) -> int:
        return (1 << self.dac_bits) - 1


@dataclass(frozen=True)
class DetectorConfig:
    """Generic Poisson photon counter pair at the two output ports.

    ``input_rate`` is the photon arrival rate at the interferometer and acts
    as the power scale. ``shot_noise=False`` replaces Poisson draws with
    rounded expectations (the noiseless plant used by oracle tests).
    """

    dark_rate: float = 100.0
    input_rate: float = 2.5e7
    shot_noise: bool = True

    def __post_init__(self) -> None:
        if self.dark_rate < 0.0:
            raise ValueError(f"detector.dark_rate must be >= 0, got {self.dark_rate}")
        if self.input_rate < 0.0:
            raise ValueError(f"detector.input_rate must be >= 0, got {self.input_rate}")

    @property
    def signal_rate(self) -> float:
        """Detected photon rate before the port split, ``input_rate * DETECTION_EFFICIENCY``."""
        return self.input_rate * DETECTION_EFFICIENCY


def dac_to_voltage(code: int, cfg: PmConfig) -> float:
    """Ideal DAC transfer: 0 V at code 0, v_max (never past it) at full scale."""
    if not 0 <= code <= cfg.max_code:
        raise ValueError(f"DAC code {code} out of range for {cfg.dac_bits}-bit converter")
    return min(cfg.v_max, code * cfg.v_max / cfg.max_code)


def dac_to_voltages(codes: np.ndarray, cfg: PmConfig) -> np.ndarray:
    """``dac_to_voltage`` of each code of an int64 array, as one array with
    the same arithmetic and bits."""
    if codes.size and not 0 <= codes.min() <= codes.max() <= cfg.max_code:
        raise ValueError(
            f"DAC codes {codes.min()}..{codes.max()} out of range for "
            f"{cfg.dac_bits}-bit converter"
        )
    v = codes * cfg.v_max / cfg.max_code
    # min(v_max, v)'s rule: v only if below v_max (np.minimum may pick either zero)
    return np.where(v < cfg.v_max, v, cfg.v_max)


def voltage_to_code(v: float, cfg: PmConfig) -> int:
    """Nearest DAC code for a voltage in the span (round-trips within 1 LSB)."""
    if not 0.0 <= v <= cfg.v_max:
        raise ValueError(f"voltage {v} V outside DAC span [0, {cfg.v_max}]")
    code = round(v / cfg.v_max * cfg.max_code)
    return min(cfg.max_code, max(0, code))


def voltage_for_phase(phase: float) -> float:
    """Lowest voltage whose modulator phase is ``phase`` (mod 2*pi).

    It is at most 2*V_PI, inside every span: multiplying by V_PI = 4.0 is
    exact, and a canonical phase under 2*pi then divides to at most 8.0 V.
    """
    return V_PI * canonical_phase(phase) / math.pi


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
    port's share of ``det.signal_rate`` times the window, plus dark counts.
    Draw order is fixed (port 1 then port 2) so a seeded generator
    reproduces runs bit for bit.
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
