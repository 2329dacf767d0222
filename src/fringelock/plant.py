"""The simulated plant: what the control firmware sees through its counters.

Composes the drift engine, the modulator chain and the detectors into one
object with a single measurement primitive: select a delay, apply a DAC
code, integrate counts for a window. The plant owns the simulation clock
(integer microseconds) and is the only place drift time advances, so elapsed
simulated time always equals the sum of requested windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import drift as drift_mod
from .drift import DriftConfig, DriftState
from .hardware import (
    DelaySelector,
    DetectorConfig,
    DetectorCounts,
    PmConfig,
    dac_to_voltage,
    sample_counts,
    voltage_to_phase,
)
from .optics import port_intensities


@dataclass(frozen=True)
class PlantConfig:
    pm: PmConfig = field(default_factory=PmConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    contrast: float = 0.995

    def __post_init__(self) -> None:
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError(f"contrast must lie in [0, 1], got {self.contrast}")


class Plant:
    """One interferometer instance with seeded noise streams.

    Stream layout is fixed: SeedSequence(entropy) spawns (offsets, drift,
    detector) children in that order. A plant is single-threaded; run
    independent instances for parallel experiments.
    """

    def __init__(self, config: PlantConfig, entropy: int | np.random.SeedSequence = 0) -> None:
        self.config = config
        ss = entropy if isinstance(entropy, np.random.SeedSequence) else np.random.SeedSequence(entropy)
        offsets_ss, drift_ss, detector_ss = ss.spawn(3)
        self._rng_drift = np.random.default_rng(drift_ss)
        self._rng_detector = np.random.default_rng(detector_ss)
        self.state: DriftState = drift_mod.initial_state(
            config.drift, np.random.default_rng(offsets_ss)
        )
        self.elapsed_us: int = 0

    def measure(self, delay: DelaySelector, code: int, window_us: int) -> DetectorCounts:
        """Integrate one counting window, then advance drift by the window.

        The drift is piecewise-constant within a window (windows are short
        against the drift timescales): the phase is evaluated at the window
        start.
        """
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us} us")
        alpha = drift_mod.true_phase(self.state, delay, self.config.drift)
        phi = voltage_to_phase(dac_to_voltage(code, self.config.pm), self.config.pm)
        intensities = port_intensities(1.0, alpha + phi, self.config.contrast)
        window_s = window_us * 1e-6
        counts = sample_counts(intensities, self.config.detector, window_s, self._rng_detector)
        self._advance(window_us)
        return counts

    def idle(self, duration_us: int) -> None:
        """Let simulated time pass without measuring (slot padding, open loop)."""
        if duration_us < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration_us} us")
        if duration_us:
            self._advance(duration_us)

    def _advance(self, duration_us: int) -> None:
        drift_mod.advance(self.state, duration_us * 1e-6, self.config.drift, self._rng_drift)
        self.elapsed_us += duration_us
