import math
import re

import numpy as np
import pytest
from scipy.stats import kstest

from fringelock.drift import (
    DriftConfig,
    advance,
    initial_state,
    slot_drift,
    true_phase,
)

from conftest import ZERO_OFFSETS
from reference_model import drift_by_window


def make_state(cfg, seed=0):
    return initial_state(cfg, np.random.default_rng(seed))


def twin_states(seed, round_up):
    """A config and two equal states to start a reader and its reference
    from: drifted, or on the 2*pi round-up edge, where zero offsets, no
    detuning and a walk of -1e-18 give fmod(-1e-18, 2*pi) + 2*pi, which
    rounds to exactly 2*pi, so the first phase must come back 0.0."""
    cfg = DriftConfig(static_offsets=ZERO_OFFSETS) if round_up else DriftConfig()
    states = make_state(cfg, seed=seed), make_state(cfg, seed=seed)
    for p in states:
        p.laser_eps = 0.0 if round_up else 3e-9
        p.path_phases[:] = -1e-18 if round_up else np.linspace(-2.0, 2.0, 128)
    return cfg, *states


class TestAdvance:
    def test_zero_noise_fixed_point(self):
        cfg = DriftConfig(laser_ou_sigma=0.0, path_walk_sigma=0.0, static_offsets=ZERO_OFFSETS)
        state = make_state(cfg)
        rng = np.random.default_rng(1)
        for _ in range(100):
            advance(state, 0.01, cfg, rng)
        assert state.laser_eps == 0.0
        assert np.all(state.path_phases == 0.0)

    @pytest.mark.parametrize("dt", [1e-4, 0.34, 1.0, 30.0], ids=["window", "stage", "second", "tau"])
    def test_single_steps_follow_the_exact_transition(self, dt):
        # over dt the detuning moves to N(eps e^(-dt/tau), sigma^2 (1 - e^(-2 dt/tau)))
        # (Gillespie, Phys. Rev. E 54, 2084 (1996)) and a walk by N(0, sigma_w^2 dt):
        # z-scores of 5 000 steps, one path's walk per step; KS p-values bound at 1e-3
        cfg = DriftConfig(static_offsets=ZERO_OFFSETS)
        state = make_state(cfg)
        rng = np.random.default_rng(2)
        law = []
        for k in range(5_000):
            eps, walk = state.laser_eps, state.path_phases[k % 128]
            advance(state, dt, cfg, rng)
            decay = math.exp(-dt / cfg.laser_ou_tau)
            law.append((
                (state.laser_eps - eps * decay) / (cfg.laser_ou_sigma * math.sqrt(1.0 - decay**2)),
                (state.path_phases[k % 128] - walk) / (cfg.path_walk_sigma * math.sqrt(dt)),
            ))
        detuning, walks = (kstest(z, "norm") for z in zip(*law))
        assert detuning.pvalue > 1e-3 and walks.pvalue > 1e-3, (detuning, walks)


class TestTruePhase:
    def test_balanced_path_immune_to_laser(self):
        cfg = DriftConfig(path_walk_sigma=0.0, static_offsets=ZERO_OFFSETS)
        state = make_state(cfg)
        state.laser_eps = 1e-6  # huge detuning
        assert true_phase(state, 0, cfg) == 0.0

    def test_longest_path_sensitivity(self):
        # 2*pi * 193.4 THz * 254 ns * 1e-9 detuning
        cfg = DriftConfig(static_offsets=ZERO_OFFSETS)
        state = make_state(cfg)
        state.laser_eps = 1e-9
        expected = 2.0 * math.pi * 193.4e12 * 254e-9 * 1e-9
        assert expected == pytest.approx(0.3086, abs=2e-4)
        assert true_phase(state, 127, cfg) == pytest.approx(expected, rel=1e-12)

    def test_decoupling_without_detuning(self):
        offsets = tuple(np.linspace(0.0, 6.0, 128))
        cfg = DriftConfig(path_walk_sigma=0.0, static_offsets=offsets)
        state = make_state(cfg)
        for idx in (0, 5, 64, 127):
            assert true_phase(state, idx, cfg) == pytest.approx(
                offsets[idx], abs=1e-12
            )

    def test_monotone_sensitivity_in_delay(self):
        cfg = DriftConfig(path_walk_sigma=0.0, static_offsets=ZERO_OFFSETS)
        state = make_state(cfg)
        state.laser_eps = 1e-10  # small enough that no path wraps past pi
        phases = [true_phase(state, i, cfg) for i in range(128)]
        shifts = [abs(p - phases[0]) for p in phases]
        assert all(b >= a for a, b in zip(shifts, shifts[1:]))

    def test_offsets_require_full_table(self):
        # no configuration value parses to a string but "random": only the API reaches this
        message = "drift.static_offsets must be 'random' or 128 phases, got 'uniform'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DriftConfig(static_offsets="uniform")


class TestOneWindowSlots:
    """The QKD stage's shape of ``slot_drift``: one window per slot, no pad."""

    @pytest.mark.parametrize(
        "windows, round_up",
        [(0, False), (1, False), (128, False), (129, False), (300, False), (23, True)],
        ids=["empty", "one", "block", "block-and-one", "several", "round-up-to-2pi"],
    )
    def test_matches_true_phase_then_advance_per_window(self, windows, round_up):
        # block edges (128 windows each): a block of one row, exactly one
        # block, one past it, two full blocks and a partial one
        cfg, reference, state = twin_states(7, round_up)
        reference_rng, rng = np.random.default_rng(8), np.random.default_rng(8)
        index = np.random.default_rng(9).integers(0, 128, size=windows)
        expected = drift_by_window(reference, index.tolist(), 1e-4, cfg, reference_rng)
        phases = slot_drift(state, index, 1, 1e-4, 0.0, cfg, rng)
        assert phases.shape == (windows, 1) and phases[:, 0].tolist() == expected
        assert not round_up or expected[0] == 0.0
        assert state.laser_eps == reference.laser_eps
        assert state.path_phases.tobytes() == reference.path_phases.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def drift_by_slot(state, index, windows, dt, pad_dt, cfg, rng):
    """The reference's side of ``slot_drift``: each slot's windows one at a
    time, then its pad, in one ``advance``."""
    phases = []
    for delay in index:
        phases.append(drift_by_window(state, [delay] * windows, dt, cfg, rng))
        if pad_dt:
            advance(state, pad_dt, cfg, rng)
    return phases


class TestSlotDrift:
    @pytest.mark.parametrize(
        "index, windows, dt, pad_dt, round_up",
        [
            (range(128), 23, 1e-4, 2e-4, False),  # a stage: 25 blocks of 5 slots and one of 3
            ([9, 64, 127, 0, 5, 9], 23, 1e-4, 0.0, False),  # 2300 us slots: no pad
            ([127] * 6, 23, 1.08e-4, 1.6e-5, False),  # 108 us steps and a 16 us pad
            ([0], 1, 1e-4, 0.0, False),  # a single window (Plant.measure)
            # a QKD stage: 6600 one-window slots, 51 full blocks and 72 rows
            (np.random.default_rng(9).integers(0, 128, size=6600), 1, 1e-4, 0.0, False),
            # the smallest slot that is walked delay by delay: a window and a pad
            (np.random.default_rng(9).integers(0, 128, size=150), 1, 1e-4, 2e-4, False),
            ([3, 4, 3], 200, 1e-4, 1e-4, False),  # a slot past BLOCK_WINDOWS: one per block
            ([1, 2], 0, 1e-4, 2e-4, False),  # pads alone
            ([9], 23, 1e-4, 2e-4, True),  # a slot whose first phase rounds up to 2*pi
        ],
        ids=["stage", "no-pad", "108-us", "one-window", "qkd-stage", "window-and-pad",
             "long-slots", "pads-only", "round-up-to-2pi"],
    )
    def test_matches_true_phase_then_advance_per_window(
        self, index, windows, dt, pad_dt, round_up
    ):
        cfg, reference, state = twin_states(13, round_up)
        reference_rng, rng = np.random.default_rng(14), np.random.default_rng(14)
        expected = drift_by_slot(reference, index, windows, dt, pad_dt, cfg, reference_rng)
        phases = slot_drift(state, index, windows, dt, pad_dt, cfg, rng)
        assert phases.shape == (len(index), windows) and phases.tolist() == expected
        assert not round_up or expected[0][0] == 0.0
        assert state.laser_eps.hex() == reference.laser_eps.hex()
        assert state.path_phases.tobytes() == reference.path_phases.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_non_finite_phase_raises_and_leaves_the_state(self):
        # a tiny detuning keeps the first window finite; the first OU step
        # then pushes the laser term of every delay but 0 past the float
        # range: delay 0's slot stays finite, and the next slot's delay raises
        cfg = DriftConfig(laser_ou_sigma=1e308, static_offsets=ZERO_OFFSETS)
        state = make_state(cfg)
        state.laser_eps = 1e-30
        state.path_phases[:] = np.linspace(-1.0, 1.0, 128)
        walk = state.path_phases.copy()
        with pytest.raises(ValueError, match="^true phase of delay 5 "):
            slot_drift(state, [0, 5, 2], 3, 1e-4, 2e-4, cfg, np.random.default_rng(15))
        assert state.laser_eps == 1e-30
        assert state.path_phases.tobytes() == walk.tobytes()

    @pytest.mark.parametrize(
        "index, pad_dt, message",
        [
            # a slot its windows overrun has a negative pad; a pad of 0 is none
            ([0], -2.1e-3, "dt must be positive, got -0.0021"),
            ([0], math.nan, "dt must be positive, got nan"),
            # a delay is checked ahead of the slot's laws
            ([5, -1], math.nan, "delay index -1 out of range 0..127"),
            ([128, 5], math.nan, "delay index 128 out of range 0..127"),
        ],
        ids=["overrun", "nan", "delay--1", "delay-128"],
    )
    def test_an_invalid_slot_draws_nothing(self, index, pad_dt, message):
        cfg = DriftConfig(static_offsets=ZERO_OFFSETS)
        rng = np.random.default_rng(18)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            slot_drift(make_state(cfg), index, 23, 2e-4, pad_dt, cfg, rng)
        assert rng.bit_generator.state == before


@pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize(
    "read, seed",
    [
        (lambda state, cfg, rng, dt: advance(state, dt, cfg, rng), 4),
        (lambda state, cfg, rng, dt: slot_drift(state, np.zeros(3, np.int64), 1, dt, 0.0, cfg, rng),
         11),
        (lambda state, cfg, rng, dt: slot_drift(state, [0], 3, dt, 2e-4, cfg, rng), 17),
        (lambda state, cfg, rng, dt: slot_drift(state, [0], 0, dt, 0.0, cfg, rng), 17),
    ],
    ids=["advance", "slot_drift-1", "slot_drift-3", "slot_drift-0"],
)
def test_invalid_dt(read, seed, dt):
    cfg = DriftConfig(static_offsets=ZERO_OFFSETS)
    with pytest.raises(ValueError, match=f"^dt must be positive, got {dt}$"):
        read(make_state(cfg), cfg, np.random.default_rng(seed), dt)


@pytest.mark.parametrize(
    "read, seed",
    [
        (lambda state, cfg, rng: slot_drift(state, np.zeros(0, np.int64), 1, 1e-4, 0.0, cfg, rng),
         10),
        (lambda state, cfg, rng: slot_drift(state, [], 23, 1e-4, 2e-4, cfg, rng), 16),
        (lambda state, cfg, rng: slot_drift(state, [3], 0, 1e-4, 0.0, cfg, rng), 16),
    ],
    ids=["slot_drift-1", "slot_drift", "slot_drift-no-rows"],
)
def test_no_windows_leave_the_state(read, seed):
    cfg = DriftConfig()
    state = make_state(cfg)
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    phases = read(state, cfg, rng)
    assert type(phases) is np.ndarray and phases.size == 0
    assert state.laser_eps == 0.0 and not state.path_phases.any()
    assert rng.bit_generator.state == before
