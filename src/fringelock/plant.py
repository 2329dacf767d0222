"""The simulated plant: what the control firmware sees through its counters.

Composes the drift engine, the modulator chain and the detectors into one
object with two measurement entry points. Both take delays as indices
0..127 and return the two port counts. ``measure(delay_index, code,
window_us) -> (c1, c2)`` integrates one window; the calibration search
calls it step by step, because each step depends on the last.
``measure_slots(index, codes, window_us) -> (c1, c2)`` integrates a whole
run of equal windows whose delays and codes are known in advance (the QKD
stage) from one draw per stream; its count arrays hold the same numbers as
one ``measure`` call per window. The per-window physics therefore exists
twice, and an equivalence test keeps the two aligned.

The plant owns the simulation clock (integer microseconds) and is the only
place drift time advances, so elapsed simulated time always equals the sum
of requested windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import drift as drift_mod
from .drift import DriftConfig, DriftState
from .hardware import (
    DetectorConfig,
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

    def measure(self, delay_index: int, code: int, window_us: int) -> tuple[int, int]:
        """Integrate one counting window, then advance drift by the window.

        Returns the port counts ``(c1, c2)``. The drift is piecewise-constant
        within a window (windows are short against the drift timescales):
        the phase is evaluated at the window start.
        """
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us} us")
        alpha = drift_mod.true_phase(self.state, delay_index, self.config.drift)
        phi = voltage_to_phase(dac_to_voltage(code, self.config.pm), self.config.pm)
        intensities = port_intensities(1.0, alpha + phi, self.config.contrast)
        window_s = window_us * 1e-6
        counts = sample_counts(intensities, self.config.detector, window_s, self._rng_detector)
        self._advance(window_us)
        return counts

    def measure_slots(
        self, index: np.ndarray, codes: Sequence[int], window_us: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrate one window per slot: slot ``k`` on delay ``index[k]`` at
        DAC code ``codes[index[k]]``, drift advancing by a window after each.

        Returns the port counts ``(c1, c2)``, one element per slot. Counts,
        drift state and stream positions are bit-identical to one
        ``measure`` call per slot: the phase and port arithmetic follow
        ``port_intensities`` and ``sample_counts`` operation by operation.
        """
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us} us")
        cfg = self.config
        phi = np.array([voltage_to_phase(dac_to_voltage(code, cfg.pm), cfg.pm) for code in codes])
        window_s = window_us * 1e-6
        alpha = drift_mod.advance_windows(self.state, index, window_s, cfg.drift, self._rng_drift)
        self.elapsed_us += len(index) * window_us
        # math.cos as in port_intensities: np.cos may take another SIMD path
        contrast = cfg.contrast
        x = np.array([contrast * math.cos(p) for p in (alpha + phi[index]).tolist()])
        ports = np.stack([0.5 * (1.0 + x), 0.5 * (1.0 - x)], axis=1)
        # unit input power: the port total is never 0
        fractions = ports / (ports[:, 0] + ports[:, 1])[:, None]
        det = cfg.detector
        lam = fractions * (det.input_rate * det.efficiency * window_s) + det.dark_rate * window_s
        if det.shot_noise:
            counts = self._rng_detector.poisson(lam)
        else:
            counts = np.rint(lam).astype(np.int64)
        return counts[:, 0], counts[:, 1]

    def idle(self, duration_us: int) -> None:
        """Let simulated time pass without measuring (slot padding, open loop)."""
        if duration_us < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration_us} us")
        if duration_us:
            self._advance(duration_us)

    def _advance(self, duration_us: int) -> None:
        drift_mod.advance(self.state, duration_us * 1e-6, self.config.drift, self._rng_drift)
        self.elapsed_us += duration_us
