"""The simulated plant: what the control firmware sees through its counters.

Composes the drift engine, the modulator chain and the detectors into one
object. Delays are indices 0..127; any other index raises ``ValueError``
before a draw. ``counters`` spends a stabilisation stage's permutation
slots in one drift pass (``drift.slot_drift``) and returns a ``count(code)
-> (c1, c2)`` per slot, which counts the slot's next window; windows never
counted (an aborted search) are dark time, as on the FPGA (drift stream
v1.1). ``count`` computes a window with the arithmetic of
``voltage_to_phase(dac_to_voltage(code))`` (the reference model's, its rail
written as ``dac_to_voltages`` writes it), ``port_intensities`` and
``sample_counts``, in their operation order; ``measure`` counts one window
through it. ``measure_slots`` integrates a run of windows whose delays and
codes are known in advance (the QKD stage) as vectors, from one draw per
stream, reading its drift through the same pass as one-window slots. The
per-window physics therefore exists twice, and an equivalence test keeps
the two aligned.

The plant owns the simulation clock (integer microseconds) and is the only
place drift time advances, so elapsed simulated time always equals the sum
of requested windows. Both streams only move forward; a window that is not
positive raises ``drift``'s ``dt must be positive`` before either moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import drift as drift_mod
from .drift import DriftConfig
# count() inlines sample_counts and port_intensities; perfbench/child.py --trace 1 wraps them
from .hardware import V_PI, DetectorConfig, PmConfig, dac_to_voltages, sample_counts
from .optics import TWO_PI, port_intensities


@dataclass(frozen=True)
class PlantConfig:
    pm: PmConfig = field(default_factory=PmConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    contrast: float = 0.995

    def __post_init__(self) -> None:
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError(f"optics.contrast must lie in [0, 1], got {self.contrast}")


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
        self.state = drift_mod.initial_state(config.drift, np.random.default_rng(offsets_ss))
        self.elapsed_us: int = 0

    def measure(self, delay_index: int, code: int, window_us: int) -> tuple[int, int]:
        """Integrate one counting window, then advance drift by the window: a
        one-slot run, so a code out of range raises with the window spent."""
        return self.counters([delay_index], window_us, 1, window_us)[0](code)

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
        cfg = self.config
        # before any draw: a code out of range draws nothing
        volts = dac_to_voltages(np.asarray(codes, dtype=np.int64), cfg.pm)
        # voltage_to_phase, whose canonical_phase is fmod alone on a phase >= 0
        phi = np.fmod(math.pi * volts / V_PI, TWO_PI)
        window_s = window_us * 1e-6
        alpha = drift_mod.slot_drift(self.state, index, 1, window_s, 0.0, cfg.drift,
                                     self._rng_drift)[:, 0]
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

    def counters(
        self, index: Sequence[int], window_us: int, windows: int, slot_us: int
    ) -> list[Callable[[int], tuple[int, int]]]:
        """Spend ``len(index)`` permutation slots of ``slot_us``, slot ``s``
        being ``windows`` windows of ``window_us`` on delay ``index[s]`` and a
        pad, and move the clock past them all. Return a ``count(code) -> (c1,
        c2)`` per slot, which integrates the slot's next window, its phase
        taken at the window start. A count past its slot's last window, or
        after a later call moves the clock, raises ``ValueError``; so does a
        slot its windows overrun, in the pad's drift law, before any draw.
        """
        pad_us = slot_us - windows * window_us
        window_s = window_us * 1e-6
        phases = drift_mod.slot_drift(
            self.state, index, windows, window_s, pad_us * 1e-6, self.config.drift, self._rng_drift
        )
        end = self.elapsed_us = self.elapsed_us + len(index) * slot_us
        pm, contrast, det = self.config.pm, self.config.contrast, self.config.detector
        max_code, v_max = pm.max_code, pm.v_max
        signal = det.signal_rate * window_s
        dark = det.dark_rate * window_s
        # a scalar draw and round() both give Python ints
        draw = self._rng_detector.poisson if det.shot_noise else round
        cos, fmod, pi, v_pi = math.cos, math.fmod, math.pi, V_PI

        def count(delay_index: int, phases: Iterator[float], code: int) -> tuple[int, int]:
            if not 0 <= code <= max_code:
                raise ValueError(f"DAC code {code} out of range for {pm.dac_bits}-bit converter")
            alpha = next(phases, None)
            if alpha is None or self.elapsed_us != end:
                raise ValueError(f"no window left in this run of delay {delay_index}")
            # the reference model's voltage_to_phase(dac_to_voltage(code)),
            # then port_intensities at unit input power, whose port total is
            # never 0, then sample_counts, port 1 first
            v = code * v_max / max_code
            if not v < v_max:  # min(v_max, v)'s rule, as in dac_to_voltages
                v = v_max
            x = contrast * cos(alpha + fmod(pi * v / v_pi, TWO_PI))
            i1 = 0.5 * (1.0 + x)
            i2 = 0.5 * (1.0 - x)
            total = i1 + i2
            return draw(i1 / total * signal + dark), draw(i2 / total * signal + dark)

        return [partial(count, delay, iter(row)) for delay, row in zip(index, phases.tolist())]

    def idle(self, duration_us: int) -> None:
        """Let simulated time pass without measuring (a stage's tail, open loop)."""
        if duration_us < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration_us} us")
        if duration_us:
            drift_mod.advance(self.state, duration_us * 1e-6, self.config.drift, self._rng_drift)
            self.elapsed_us += duration_us
