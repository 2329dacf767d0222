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
state over one span of any length (idle time, the end of a stage);
``slot_drift`` over a run of slots, each equal windows on one delay and a
pad: a stabilisation stage's 128 permutation slots of 23 windows and a
pad, or a QKD stage's switch slots of one window each. It raises
``non_finite_phase`` at the first true phase that is not finite, as
``true_phase`` does, so no phase it returns is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hardware import DELAY_NS, NUM_DELAYS
from .optics import TWO_PI, canonical_phase

#: Optical carrier frequency nu0, telecom C band. Fixed: it only scales the
#: laser phase together with ``DriftConfig.laser_ou_sigma``.
OPTICAL_FREQ_HZ = 193.4e12

#: Most windows ``slot_drift`` draws at once: a block's normals, in which its
#: path walk is summed, hold about 130 kB however many windows a call spans.
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
    fixed: one laser normal, then 128 path normals. ``slot_drift`` (both
    stages' slots) consumes the stream in the same order and must change
    with this.
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


def slot_drift(
    state: DriftState, index: Sequence[int], windows: int, dt: float, pad_dt: float,
    cfg: DriftConfig, rng: np.random.Generator,
) -> np.ndarray:
    """Advance the state over ``len(index)`` permutation slots in turn, slot
    ``s`` being ``windows`` windows of ``dt`` seconds on delay ``index[s]``
    and then a pad of ``pad_dt`` seconds (none if 0) that nothing reads.

    Returns a row per slot of the true phases at its windows' starts. Phases,
    final state and stream position are bit-identical to calling
    ``true_phase`` and then ``advance`` once per window, and ``advance`` per
    pad: the normals come in blocks of whole slots, at most
    ``BLOCK_WINDOWS`` rows where a slot fits, in ``advance``'s draw order;
    the OU recursion runs on Python floats in ``advance``'s operation order;
    and the path walk adds row by row like repeated ``+=``. A delay outside
    0..127 or a window that is not positive raises before any draw; the first
    non-finite phase raises ``true_phase``'s error, the state unwritten.
    """
    index = np.asarray(index, dtype=np.int64)
    outside = (index < 0) | (index >= NUM_DELAYS)
    if outside.any():
        raise ValueError(f"delay index {index[outside.argmax()]} out of range 0..127")
    decay, laser_step, walk_step = _window_law(dt, cfg)
    pad = int(pad_dt != 0.0)
    pad_decay, pad_laser, pad_walk = _window_law(pad_dt, cfg) if pad else (0.0, 0.0, 0.0)
    rows = windows + pad
    per_block = max(1, BLOCK_WINDOWS // max(rows, 1))
    # each row's OU decay and laser step, over the slots a block reads
    slots = min(per_block, len(index))
    decays = ([decay] * windows + [pad_decay] * pad) * slots
    lasers = ([laser_step] * windows + [pad_laser] * pad) * slots
    # window k of a block's slot j starts on row j*rows + k of its walks below
    starts = np.arange(per_block)[:, None] * rows + np.arange(windows)
    eps, walk = state.laser_eps, state.path_phases
    eps_at_start = []
    append = eps_at_start.append
    walk_at_start = np.empty((len(index), windows))
    # a non-finite phase raises below, naming its delay, instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(index) if rows else 0, per_block):
            block = index[start:start + per_block]
            n = len(block)
            normals = rng.standard_normal((n * rows, NUM_DELAYS + 1))
            for z, row_decay, row_laser in zip(normals[:, 0].tolist(), decays, lasers):
                append(eps)
                eps = eps * row_decay + row_laser * z
            steps = normals[:, 1:]  # the laser column is read already
            if rows == windows == 1:
                # every delay walked down the block in place from the state: row k ends window k
                normals *= walk_step
                np.add(walk, steps[0], out=steps[0])
                np.cumsum(steps, axis=0, out=steps)
                at_start = steps[np.arange(-1, n - 1), block]
                at_start[0] = walk[block[0]]  # window 0 starts on the state's walk
                walk_at_start[start:start + n, 0] = at_start
                walk = steps[-1]
            else:
                # every row scaled by its own step, then each slot's delay
                # walked down the block from the state
                by_slot = normals.reshape(n, rows, NUM_DELAYS + 1)
                pads = by_slot[:, windows:] * pad_walk
                normals *= walk_step
                by_slot[:, windows:] = pads
                walks = np.cumsum(np.vstack([walk[block], steps[:, block]]), axis=0)
                walk_at_start[start:start + n] = walks[starts[:n], np.arange(n)[:, None]]
                # the state folded into the first row, then one sum down the block
                np.add(walk, steps[0], out=steps[0])
                walk = steps.sum(axis=0)
        eps_at_start = np.reshape(eps_at_start, (len(index), rows))[:, :windows]
        raw = state.offsets[index, None] + walk_at_start + _LASER_GAIN[index, None] * eps_at_start
    finite = np.isfinite(raw).all(axis=1)
    if not finite.all():
        raise non_finite_phase(int(index[finite.argmin()]))
    state.laser_eps = eps
    state.path_phases[:] = walk
    phases = np.fmod(raw, TWO_PI)
    phases[phases < 0.0] += TWO_PI
    phases[phases >= TWO_PI] = 0.0
    return phases


def non_finite_phase(index: int) -> ValueError:
    """The error that reading delay ``index``'s non-finite true phase raises."""
    return ValueError(
        f"true phase of delay {index} ({DELAY_NS[index]} ns) is not finite; it scales "
        "with drift.laser_ou_sigma and drift.path_walk_sigma"
    )
