"""The simulated plant: what the control firmware sees through its counters.

Composes the drift engine, the modulator chain and the detectors into one
object with two measurement entry points. Both take delays as indices
0..127 and return the two port counts. ``measure(delay_index, code,
window_us) -> (c1, c2)`` integrates one window; the calibration search
calls it once per step, because a step's code can depend on the counts of
the steps before it. ``measure_slots(index, codes, window_us) -> (c1,
c2)`` integrates a whole run of equal windows whose delays and codes are
known in advance (the QKD stage) from one draw per stream; its count
arrays hold the same numbers as one ``measure`` call per window. The
per-window physics therefore exists twice, and an equivalence test keeps
the two aligned.

``measure`` reads each window's true phase from a pending run: the drift
of equal windows on one delay, drawn in one block (``drift.delay_drift``)
while the drift state stays where the run started. ``prefetch`` draws a
run of a calibration slot's windows; when no pending run fits the
measurement, ``measure`` draws a one-window run itself. A measured window
goes through ``hardware.dac_to_phase``, ``port_intensities`` and
``sample_counts``, and only the clock moves. The run settles before
anything else reads or moves the drift: it commits its end state, or, when
fewer windows were measured (an aborted calibration), rewinds the drift
stream and redraws just the measured windows. Any sequence of calls
therefore gives the counts, drift state and stream positions of measuring
window by window.

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
from .hardware import DetectorConfig, PmConfig, dac_to_phase, sample_counts
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
        self._state = drift_mod.initial_state(config.drift, np.random.default_rng(offsets_ss))
        self.elapsed_us: int = 0
        self._run: _Run | None = None

    @property
    def state(self) -> DriftState:
        """The drift state after every window measured so far."""
        self._settle()
        return self._state

    def measure(self, delay_index: int, code: int, window_us: int) -> tuple[int, int]:
        """Integrate one counting window, then advance drift by the window.

        Returns the port counts ``(c1, c2)``. The drift is piecewise-constant
        within a window (windows are short against the drift timescales):
        the phase is evaluated at the window start. The phase is the pending
        run's next one; a one-window run is drawn first when the run is on
        another delay or window, or used up.
        """
        run = self._run
        if (
            run is None
            or run.used == len(run.phases)
            or delay_index != run.delay_index
            or window_us != run.window_us
        ):
            self.prefetch(delay_index, window_us, 1)
            run = self._run
        used = run.used
        alpha = run.phases[used]
        if math.isnan(alpha):
            raise drift_mod.non_finite_phase(delay_index)
        cfg = self.config
        intensities = port_intensities(1.0, alpha + dac_to_phase(code, cfg.pm), cfg.contrast)
        counts = sample_counts(intensities, cfg.detector, window_us * 1e-6, self._rng_detector)
        run.used = used + 1
        self.elapsed_us += window_us
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
        self._settle()
        cfg = self.config
        phi = np.array([dac_to_phase(code, cfg.pm) for code in codes])
        window_s = window_us * 1e-6
        alpha = drift_mod.advance_windows(self._state, index, window_s, cfg.drift, self._rng_drift)
        self.elapsed_us += len(index) * window_us
        # math.cos as in port_intensities: np.cos may take another SIMD path
        angles = (alpha + phi[index]).tolist()
        x = cfg.contrast * np.fromiter(map(math.cos, angles), float, len(angles))
        ports = np.stack([0.5 * (1.0 + x), 0.5 * (1.0 - x)], axis=1)
        # unit input power: the port total is never 0
        fractions = ports / (ports[:, 0] + ports[:, 1])[:, None]
        det = cfg.detector
        lam = fractions * (det.signal_rate * window_s) + det.dark_rate * window_s
        if det.shot_noise:
            counts = self._rng_detector.poisson(lam)
        else:
            counts = np.rint(lam).astype(np.int64)
        return counts[:, 0], counts[:, 1]

    def prefetch(self, delay_index: int, window_us: int, windows: int) -> None:
        """Draw the drift of ``windows`` windows of ``window_us`` on delay
        ``delay_index`` in one block, for the ``measure`` calls that follow.

        A hint: measurements that do not follow it give the same numbers.
        """
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us} us")
        self._settle()
        rewind = self._rng_drift.bit_generator.state
        phases, end_eps, end_walk = drift_mod.delay_drift(
            self._state, delay_index, windows, window_us * 1e-6, self.config.drift, self._rng_drift
        )
        self._run = _Run(delay_index, window_us, phases, end_eps, end_walk, rewind)

    def idle(self, duration_us: int) -> None:
        """Let simulated time pass without measuring (slot padding, open loop)."""
        if duration_us < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration_us} us")
        self._settle()
        if duration_us:
            drift_mod.advance(self._state, duration_us * 1e-6, self.config.drift, self._rng_drift)
            self.elapsed_us += duration_us

    def _settle(self) -> None:
        """Commit the drift of the pending run's measured windows."""
        run = self._run
        if run is None:
            return
        self._run = None
        end_eps, end_walk = run.end_eps, run.end_walk
        if run.used < len(run.phases):
            # an aborted search: redraw only the windows it measured
            self._rng_drift.bit_generator.state = run.rewind
            _, end_eps, end_walk = drift_mod.delay_drift(
                self._state, run.delay_index, run.used, run.window_us * 1e-6,
                self.config.drift, self._rng_drift,
            )
        self._state.laser_eps = end_eps
        self._state.path_phases[:] = end_walk


@dataclass
class _Run:
    """A pending run: its prefetched phases, how many of them were
    measured, and what settling it commits or rewinds to."""

    delay_index: int
    window_us: int
    phases: list[float]  # a phase per measurement window
    end_eps: float
    end_walk: np.ndarray
    rewind: dict
    used: int = 0
