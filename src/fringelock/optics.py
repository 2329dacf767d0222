"""Interference physics of the two-port variable-delay interferometer.

Pure functions only: port intensities as a function of relative phase and
fringe contrast, and canonical phases. All stochastic behaviour lives in
the hardware and drift modules.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def canonical_phase(value: float) -> float:
    """Map a phase in radians to its canonical representative in [0, 2*pi).

    canonical_phase(x + 2*pi) == canonical_phase(x) up to float rounding.
    """
    r = math.fmod(value, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        # fmod of a tiny negative can round up to exactly 2*pi
        r = 0.0
    return r


def port_intensities(total_phase: float, contrast: float) -> tuple[float, float]:
    """Split unit input power over the two output ports at the given relative phase.

    Returns ``(i1, i2)``: port 1 carries (1 + v0*cos(phase)) / 2, port 2 the
    complement, so the two ports always sum to 1 (lossless split; the photon
    rate and detection losses are applied downstream). ``contrast`` is the
    intrinsic fringe contrast v0 in [0, 1]; 1 is the ideal interferometer.
    """
    if not 0.0 <= contrast <= 1.0:
        raise ValueError(f"contrast must lie in [0, 1], got {contrast}")
    x = contrast * math.cos(total_phase)
    return 0.5 * (1.0 + x), 0.5 * (1.0 - x)
