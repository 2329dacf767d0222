"""Time-varying true relative phase of the 128 delay paths.

Two disturbance channels:

* a common-mode laser frequency detuning, modelled as a mean-reverting
  Ornstein-Uhlenbeck process whose phase impact grows linearly with the
  path delay (long paths integrate the detuning over a longer imbalance),
* an independent per-path Gaussian random walk standing in for slow
  environmental drift (temperature, mounts, fiber stress).

Magnitudes are not given by the source system description; the defaults here
were tuned so that an uncompensated path degrades visibly within one second
while the 1 Hz recalibration holds the long-run visibility target (see
README, "Model assumptions").

Every draw takes one laser normal, then 128 path normals, per window, and
every advance that returns writes its end state. ``advance`` moves the
state over one span of any length (idle time, the pad of a permutation
slot); ``advance_windows`` over the QKD stage's equal windows on varying
delays; ``delay_drift`` over a calibration slot's equal windows on one
delay. The last two raise ``non_finite_phase`` at the first true phase that
is not finite, as ``true_phase`` does, so no phase they return is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hardware import DELAY_NS, NUM_DELAYS
from .optics import TWO_PI, canonical_phase

#: Optical carrier frequency nu0, telecom C band. Fixed: it only scales the
#: laser phase together with ``DriftConfig.laser_ou_sigma``.
OPTICAL_FREQ_HZ = 193.4e12

#: Most windows ``advance_windows`` draws at once: a block's normals, in which
#: its path walk is summed, hold about 130 kB however many windows a call spans.
BLOCK_WINDOWS = 128

#: Laser phase per unit detuning of each delay, 2*pi * nu0 * delay, in radians;
#: the scalar readers take a Python float, whose products overflow silently.
_LASER_GAIN = 2.0 * math.pi * OPTICAL_FREQ_HZ * (np.array(DELAY_NS) * 1e-9)


@dataclass(frozen=True)
class DriftConfig:
    """Stochastic drift parameters.

    ``laser_ou_sigma`` is the stationary standard deviation of the fractional
    frequency detuning; ``laser_ou_tau`` its mean-reversion time. A detuning
    eps shifts path r by 2*pi * nu0 * delay_r * eps radians.
    ``static_offsets`` is either the string ``"random"`` (drawn uniform in
    [0, 2*pi) from the seeded offset stream at state creation) or an explicit
    sequence of 128 phases.
    """

    laser_ou_sigma: float = 4.0e-9
    laser_ou_tau: float = 30.0
    path_walk_sigma: float = 0.05
    static_offsets: str | tuple[float, ...] = "random"

    def __post_init__(self) -> None:
        for key in ("laser_ou_sigma", "path_walk_sigma"):
            if getattr(self, key) < 0.0:
                raise ValueError(f"drift.{key} must be >= 0, got {getattr(self, key)}")
        if self.laser_ou_tau <= 0.0:
            raise ValueError(f"drift.laser_ou_tau must be positive, got {self.laser_ou_tau}")
        offsets = self.static_offsets
        if isinstance(offsets, str) and offsets != "random":
            raise ValueError(f"drift.static_offsets must be 'random' or 128 phases, got {offsets!r}")
        if not isinstance(offsets, str) and len(offsets) != NUM_DELAYS:
            raise ValueError(f"drift.static_offsets needs {NUM_DELAYS} entries, got {len(offsets)}")


@dataclass
class DriftState:
    """Mutable drift state advanced on the simulation clock."""

    laser_eps: float
    path_phases: np.ndarray
    offsets: np.ndarray = field(repr=False)


def initial_state(cfg: DriftConfig, rng: np.random.Generator) -> DriftState:
    """State at t=0. Consumes the offset stream only when offsets are random."""
    if isinstance(cfg.static_offsets, str):
        offsets = rng.uniform(0.0, 2.0 * math.pi, size=NUM_DELAYS)
    else:
        offsets = np.array([canonical_phase(p) for p in cfg.static_offsets], dtype=float)
    return DriftState(
        laser_eps=0.0,
        path_phases=np.zeros(NUM_DELAYS),
        offsets=offsets,
    )


def _window_law(dt: float, cfg: DriftConfig) -> tuple[float, float, float]:
    """(OU decay, laser step, walk step) of one ``dt``-second window, the one
    statement of the law that every advance below applies, bit for bit."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    decay = math.exp(-dt / cfg.laser_ou_tau)
    shock = math.sqrt(1.0 - decay * decay)
    return decay, cfg.laser_ou_sigma * shock, cfg.path_walk_sigma * math.sqrt(dt)


def advance(
    state: DriftState, dt: float, cfg: DriftConfig, rng: np.random.Generator
) -> None:
    """Advance the drift state by ``dt`` seconds in place.

    The OU step uses the exact discretization, so chunking a span into
    several calls changes the realization but not the law. Draw order is
    fixed: one laser normal, then 128 path normals. ``advance_windows``
    (the QKD stage) and ``delay_drift`` (the slots ``Plant.counter``
    spends) consume the stream in the same order and must change with
    this.
    """
    decay, laser_step, walk_step = _window_law(dt, cfg)
    normals = rng.standard_normal(NUM_DELAYS + 1)
    state.laser_eps = state.laser_eps * decay + laser_step * float(normals[0])
    state.path_phases += walk_step * normals[1:]


def true_phase(state: DriftState, index: int, cfg: DriftConfig) -> float:
    """Current relative phase of delay path ``index``, canonical in [0, 2*pi).

    The laser term scales with the path imbalance: 2*pi * nu0 * delay * eps.
    Path 0 (balanced arms) is immune to common-mode detuning by construction.
    """
    laser = float(_LASER_GAIN[index]) * state.laser_eps
    phase = state.offsets[index] + state.path_phases[index] + laser
    if not math.isfinite(phase):
        raise non_finite_phase(index)
    return canonical_phase(phase)


def advance_windows(
    state: DriftState,
    index: np.ndarray,
    dt: float,
    cfg: DriftConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance the state over ``len(index)`` windows of ``dt`` seconds each.

    Returns the canonical true phase of delay ``index[k]`` at the start of
    window ``k``. Phases, final state and stream position are bit-identical
    to calling ``true_phase`` and then ``advance`` once per window: the
    normals come in ``(windows, 129)`` blocks in ``advance``'s draw order,
    the OU recursion runs on Python floats in ``advance``'s operation order,
    and the path walk is a ``cumsum``, which adds row by row like repeated
    ``+=``. The first non-finite phase raises ``true_phase``'s error.
    """
    decay, laser_step, walk_step = _window_law(dt, cfg)
    eps = state.laser_eps
    walk = state.path_phases
    phases = np.empty(len(index))
    # a non-finite phase raises below, naming its delay, instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(index), BLOCK_WINDOWS):
            block = index[start:start + BLOCK_WINDOWS]
            normals = rng.standard_normal((len(block), NUM_DELAYS + 1))
            eps_at_start = []
            for z in normals[:, 0].tolist():
                eps_at_start.append(eps)
                eps = eps * decay + laser_step * z
            # as in delay_drift, the steps scaled and summed down the block in
            # place from the state, so row k is the walk at the end of window k
            normals *= walk_step
            walks = normals[:, 1:]
            np.add(walk, walks[0], out=walks[0])
            np.cumsum(walks, axis=0, out=walks)
            at_start = walks[np.arange(-1, len(block) - 1), block]
            at_start[0] = walk[block[0]]  # window 0 starts on the state's walk
            raw = state.offsets[block] + at_start + _LASER_GAIN[block] * np.array(eps_at_start)
            finite = np.isfinite(raw)
            if not finite.all():
                raise non_finite_phase(int(block[finite.argmin()]))
            phases[start:start + len(block)] = raw
            walk = walks[-1]
    state.laser_eps = eps
    state.path_phases[:] = walk
    # canonical_phase, element by element
    phases = np.fmod(phases, TWO_PI)
    phases[phases < 0.0] += TWO_PI
    phases[phases >= TWO_PI] = 0.0
    return phases


def delay_drift(
    state: DriftState,
    index: int,
    windows: int,
    dt: float,
    cfg: DriftConfig,
    rng: np.random.Generator,
) -> list[float]:
    """Advance the state over ``windows`` windows of ``dt`` seconds, all
    read on delay ``index`` (a calibration slot, or a single window).

    Returns the canonical true phase of delay ``index`` at the start of each
    window, never NaN: the first that is not finite raises
    ``non_finite_phase``, the state unwritten. Phases, final state and
    stream position are bit-identical to calling ``true_phase`` and then
    ``advance`` once per window: one ``(windows, 129)`` block of normals in
    ``advance``'s draw order, the OU recursion and the delay's own walk on
    Python floats in ``advance``'s and ``true_phase``'s operation order,
    ``canonical_phase`` written inline, and the walks summed down the block
    from the state, which NumPy does row by row like repeated ``+=``. For a
    few dozen windows this costs less than ``advance_windows``' vectorised
    gather.
    """
    decay, laser_step, walk_step = _window_law(dt, cfg)
    # an index past the delays raises here, before any draw
    gain = float(_LASER_GAIN[index])
    if not windows:
        return []
    normals = rng.standard_normal((windows, NUM_DELAYS + 1))
    offset = float(state.offsets[index])
    walk = float(state.path_phases[index])
    eps = state.laser_eps
    phases = []
    append, isfinite, fmod = phases.append, math.isfinite, math.fmod
    for z, z_walk in zip(normals[:, 0].tolist(), normals[:, index + 1].tolist()):
        phase = offset + walk + gain * eps
        if not isfinite(phase):
            raise non_finite_phase(index)
        # canonical_phase inline: fmod, then its two rails; only a negative
        # remainder plus 2*pi can round up to exactly 2*pi
        phase = fmod(phase, TWO_PI)
        if phase < 0.0:
            phase += TWO_PI
            if phase >= TWO_PI:
                phase = 0.0
        append(phase)
        eps = eps * decay + laser_step * z
        walk = walk + walk_step * z_walk
    state.laser_eps = eps
    # a walk past the float range turns inf or NaN without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # every row scaled in place (the laser column is read already), the
        # state folded into the first walk row, then one sum down the block
        normals *= walk_step
        walks = normals[:, 1:]
        np.add(state.path_phases, walks[0], out=walks[0])
        state.path_phases[:] = walks.sum(axis=0)
    return phases


def non_finite_phase(index: int) -> ValueError:
    """The error that reading delay ``index``'s non-finite true phase raises."""
    return ValueError(
        f"true phase of delay {index} ({DELAY_NS[index]} ns) is not finite; it scales "
        "with drift.laser_ou_sigma and drift.path_walk_sigma"
    )
