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

Outside a slot, ``measure`` reads the true phase from the drift state and
then advances the drift by its window. ``open_slot`` prefetches the drift
of the measurement windows of one permutation slot of a single delay from
one draw (``drift.delay_drift``). Until ``close_slot``, each ``measure``
reads the next prefetched phase straight from the slot and only the clock
moves; the drift state stays at the slot start. In or out of a slot, a
measured window goes through ``hardware.dac_to_phase``,
``port_intensities`` and ``sample_counts``. Closing commits the
prefetched end state, or, when fewer windows were measured (an aborted
calibration), rewinds the drift stream and redraws just the measured
windows. Counts, drift state and stream positions are bit-identical to
measuring window by window. The slot's pad is the caller's: it idles to
the slot end after the close.

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
        self.state: DriftState = drift_mod.initial_state(
            config.drift, np.random.default_rng(offsets_ss)
        )
        self.elapsed_us: int = 0
        self._slot: _Slot | None = None

    def measure(self, delay_index: int, code: int, window_us: int) -> tuple[int, int]:
        """Integrate one counting window, then advance drift by the window.

        Returns the port counts ``(c1, c2)``. The drift is piecewise-constant
        within a window (windows are short against the drift timescales):
        the phase is evaluated at the window start. Inside an open slot the
        delay and window must be the slot's, the phase is the slot's next
        prefetched one, and only the clock moves.
        """
        cfg = self.config
        slot = self._slot
        if slot is None:
            if window_us <= 0:
                raise ValueError(f"window must be positive, got {window_us} us")
            alpha = drift_mod.true_phase(self.state, delay_index, cfg.drift)
        else:
            used = slot.used
            if (
                delay_index != slot.delay_index
                or window_us != slot.window_us
                or used == len(slot.phases)
            ):
                raise slot.mismatch(delay_index, window_us)
            alpha = slot.phases[used]
            if math.isnan(alpha):
                raise drift_mod.non_finite_phase(delay_index)
        intensities = port_intensities(1.0, alpha + dac_to_phase(code, cfg.pm), cfg.contrast)
        counts = sample_counts(intensities, cfg.detector, window_us * 1e-6, self._rng_detector)
        if slot is None:
            self._advance(window_us)
        else:
            slot.used = used + 1
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
        self._require_no_slot()
        cfg = self.config
        phi = np.array([dac_to_phase(code, cfg.pm) for code in codes])
        window_s = window_us * 1e-6
        alpha = drift_mod.advance_windows(self.state, index, window_s, cfg.drift, self._rng_drift)
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

    def open_slot(self, delay_index: int, window_us: int, windows: int) -> None:
        """Prefetch the drift of ``windows`` measurement windows of
        ``window_us`` on delay ``delay_index``.

        Draws the slot's normals in one block; the drift state is untouched
        until ``close_slot``.
        """
        self._require_no_slot()
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us} us")
        rewind = self._rng_drift.bit_generator.state
        phases, end_eps, end_walk = drift_mod.delay_drift(
            self.state, delay_index, windows, window_us * 1e-6, self.config.drift, self._rng_drift
        )
        self._slot = _Slot(delay_index, window_us, phases, end_eps, end_walk, rewind)

    def close_slot(self) -> None:
        """Commit the drift of the open slot's measured windows."""
        slot = self._slot
        if slot is None:
            raise ValueError("no slot is open")
        self._slot = None
        end_eps, end_walk = slot.end_eps, slot.end_walk
        if slot.used < len(slot.phases):
            # an aborted search: redraw only the windows it measured
            self._rng_drift.bit_generator.state = slot.rewind
            _, end_eps, end_walk = drift_mod.delay_drift(
                self.state, slot.delay_index, slot.used, slot.window_us * 1e-6,
                self.config.drift, self._rng_drift,
            )
        self.state.laser_eps = end_eps
        self.state.path_phases[:] = end_walk

    def idle(self, duration_us: int) -> None:
        """Let simulated time pass without measuring (slot padding, open loop)."""
        if duration_us < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration_us} us")
        self._require_no_slot()
        if duration_us:
            self._advance(duration_us)

    def _advance(self, duration_us: int) -> None:
        drift_mod.advance(self.state, duration_us * 1e-6, self.config.drift, self._rng_drift)
        self.elapsed_us += duration_us

    def _require_no_slot(self) -> None:
        if self._slot is not None:
            raise ValueError(f"the slot of delay {self._slot.delay_index} is still open")


@dataclass
class _Slot:
    """An open permutation slot: its prefetched phases, how many of them
    were measured, and what closing it commits or rewinds to."""

    delay_index: int
    window_us: int
    phases: list[float]  # a phase per measurement window
    end_eps: float
    end_walk: np.ndarray
    rewind: dict
    used: int = 0

    def mismatch(self, delay_index: int, window_us: int) -> ValueError:
        """The error for a measurement that does not follow the slot."""
        return ValueError(
            f"the open slot holds {len(self.phases)} windows of {self.window_us} us on "
            f"delay {self.delay_index}; cannot measure delay {delay_index} for "
            f"{window_us} us after {self.used}"
        )
