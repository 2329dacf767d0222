import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from fringelock.calibration import phase_to_compensation_code
from fringelock.hardware import DetectorConfig, PmConfig
from fringelock.plant import Plant, PlantConfig

from conftest import noiseless_plant, pm_configs, quiet_drift
from reference_model import Stepper, assert_same_plant


def default_plant(seed):
    return Plant(PlantConfig(), entropy=seed)


class TestMeasure:
    def test_perfect_compensation_collects_one_port(self):
        alpha = 2.1
        offsets = tuple([alpha] + [0.0] * 127)
        plant = noiseless_plant(offsets=offsets)
        code = phase_to_compensation_code(alpha, plant.config.pm)
        c1, c2 = plant.measure(0, code, 100)
        # residual is DAC quantization only; at 2e5 counts that rounds to zero
        assert c2 == 0
        assert c1 > 0

    def test_quadrature_splits_evenly(self):
        offsets = tuple([math.pi / 2] + [0.0] * 127)
        plant = Plant(PlantConfig(drift=quiet_drift(offsets), contrast=1.0), entropy=5)
        c1 = c2 = 0
        for _ in range(2000):
            n1, n2 = plant.measure(0, 0, 100)
            c1 += n1
            c2 += n2
        assert abs(c1 - c2) / (c1 + c2) < 0.02

    def test_phase_composition_wraps(self):
        # a path offset beyond 2*pi behaves identically to its canonical value
        for raw, canonical in ((7.0, 7.0 - 2.0 * math.pi), (-1.0, 2.0 * math.pi - 1.0)):
            a = noiseless_plant(offsets=tuple([raw] + [0.0] * 127))
            b = noiseless_plant(offsets=tuple([canonical] + [0.0] * 127))
            assert a.measure(0, 4321, 100) == b.measure(0, 4321, 100)


class TestClock:
    def test_elapsed_is_sum_of_requested_windows(self):
        plant = default_plant(seed=3)
        plant.measure(0, 0, 100)
        plant.measure(1, 0, 250)
        plant.idle(650)
        plant.measure(2, 0, 1000)
        assert plant.elapsed_us == 2000

    def test_zero_idle_is_free(self):
        plant = default_plant(seed=4)
        plant.idle(0)
        assert plant.elapsed_us == 0

    def test_invalid_windows(self):
        plant = default_plant(seed=6)
        drift_state = plant._rng_drift.bit_generator.state
        with pytest.raises(ValueError):
            plant.measure(0, 0, 0)
        with pytest.raises(ValueError):
            plant.idle(-1)
        with pytest.raises(ValueError, match="^dt must be positive, got 0.0$"):
            plant.counters([0], 0, 23, 2_500)
        # 23 windows of 200 us overrun a 2500 us slot: its pad is negative
        with pytest.raises(ValueError, match="^dt must be positive, got -0.0021$"):
            plant.counters([0], 200, 23, 2_500)
        with pytest.raises(ValueError, match="^dt must be positive, got -1e-06$"):
            plant.measure_slots(np.array([0]), [0] * 128, -1)
        # the drift law rejects a window before any draw or clock move
        assert plant.elapsed_us == 0
        assert plant._rng_drift.bit_generator.state == drift_state

    def test_batched_slots_advance_the_clock(self):
        plant = default_plant(seed=7)
        c1, c2 = plant.measure_slots(np.array([0, 5, 127]), [0] * 128, 250)
        assert len(c1) == len(c2) == 3
        assert plant.elapsed_us == 750
        with pytest.raises(ValueError):
            plant.measure_slots(np.array([0]), [0] * 128, 0)


_DELAYS = st.sampled_from([0, 9, 127])
_WINDOWS = st.sampled_from([100, 108])
#: Up to 7 slots: one block of 5 and part of the next.
_SLOTS = st.lists(_DELAYS, max_size=7)
_PADS = st.sampled_from([0, 16, 200])
_CALLS = st.one_of(
    st.tuples(st.just("counters"), _SLOTS, _WINDOWS, st.integers(0, 23), _PADS),
    # slots, the counts that follow in each (all, some, none or one too
    # many), then perhaps a measurement on another delay or window
    st.tuples(
        st.just("slots"), _SLOTS, _WINDOWS, st.integers(0, 23), _PADS, st.integers(0, 24),
        st.none() | st.tuples(_DELAYS, _WINDOWS),
    ),
    st.tuples(st.just("measure"), _DELAYS, st.integers(0, 2**63 - 1), _WINDOWS),
    st.tuples(st.just("idle"), st.integers(0, 500)),
    st.tuples(st.just("qkd"), st.lists(_DELAYS, max_size=5), _WINDOWS),
    st.tuples(st.just("state")),
)


#: Up to about 1e17 expected counts per window: past 2**53 a count is
#: the expectation's float bits, so a reordered expression shows in it.
_RATES = st.floats(0.0, 1e21)


@st.composite
def plant_configs(draw):
    """A drive chain from ``pm_configs``, any contrast, drawn detector rates,
    with or without shot noise."""
    detector = DetectorConfig(
        dark_rate=draw(_RATES),
        input_rate=draw(_RATES),
        shot_noise=draw(st.booleans()),
    )
    contrast = draw(st.floats(0.0, 1.0))
    return PlantConfig(pm=draw(pm_configs()), detector=detector, contrast=contrast)


def _wide_dac(bits):
    # about 2e16 expected counts per window, rounded: every bit of it shows
    return PlantConfig(
        pm=PmConfig(dac_bits=bits), detector=DetectorConfig(input_rate=1e21, shot_noise=False)
    )


#: A full slot on each delay, then QKD windows on all three.
_WIDE_DAC_CALLS = [("slots", [0, 9, 127], 100, 23, 0, 23, None), ("qkd", [0, 9, 127], 108)]


def _snapshot(plant):
    """Clock and stream positions."""
    streams = (plant._rng_drift.bit_generator.state, plant._rng_detector.bit_generator.state)
    return plant.elapsed_us, streams


def _idle_windows(reference, windows, window_us, pad_us=0):
    """The reference's side of windows a slot spent and never counted, then its pad."""
    for _ in range(windows):
        reference.idle(window_us)
    reference.idle(pad_us)


class TestCounter:
    @pytest.mark.parametrize(
        "window_us, slot_us", [(100, 2_500), (108, 2_500), (100, 2_300)],
        ids=["pad", "108-us", "no-pad"],
    )
    @pytest.mark.parametrize("measured", [23, 22, 3, 1, 0])
    def test_matches_measure_then_idle(self, measured, window_us, slot_us):
        # each slot's 23 windows and its pad elapse whether or not they are
        # all counted; 7 slots span two blocks of the drift pass
        delays = [9, 0, 127, 9, 64, 5, 9]
        reference, plant = Stepper(PlantConfig(), 30), default_plant(seed=30)
        codes = [(k * 2749) % 65536 for k in range(measured)]
        expected = []
        for delay in delays:
            expected.append([reference.measure(delay, code, window_us) for code in codes])
            _idle_windows(reference, 23 - measured, window_us, slot_us - 23 * window_us)
        counts = plant.counters(delays, window_us, 23, slot_us)
        assert plant.elapsed_us == len(delays) * slot_us
        assert [[count(code) for code in codes] for count in counts] == expected
        assert_same_plant(plant, reference)

    @pytest.mark.parametrize(
        "seed, method, args, message",
        [
            *(pytest.param(32, method, args(delay), rf"^delay index {delay} out of range 0\.\.127$",
                           id=f"test_a_delay_out_of_range_draws_nothing-{method}-{delay}")
              for method, args in [
                  ("counters", lambda delay: ([5, delay], 100, 23, 2_500)),
                  ("measure", lambda delay: (delay, 0, 100)),
                  ("measure_slots", lambda delay: (np.array([5, delay]), [0] * 128, 100)),
              ] for delay in (-1, -128, 128)),
            # the whole table converts before any draw, also a code no slot reads
            *(pytest.param(36, "measure_slots", (np.array([5, 9]), [0] * 127 + [code], 100),
                           f"^DAC codes {min(code, 0)}..{max(code, 0)} out of",
                           id=f"test_a_table_code_out_of_range_draws_nothing-{code}")
              for code in (-1, 65536)),
        ],
    )
    def test_an_out_of_range_call_draws_nothing(self, seed, method, args, message):
        reference, plant = Stepper(PlantConfig(), seed), default_plant(seed=seed)
        # a spent slot with one counted window, which the error must leave alone
        assert plant.counters([5], 100, 23, 2_300)[0](0) == reference.measure(5, 0, 100)
        _idle_windows(reference, 22, 100)
        before = _snapshot(plant)
        with pytest.raises(ValueError, match=message):
            getattr(plant, method)(*args)
        assert _snapshot(plant) == before
        assert plant.measure(5, 0, 100) == reference.measure(5, 0, 100)
        assert_same_plant(plant, reference)

    def test_a_count_past_the_last_window_raises(self):
        reference, plant = Stepper(PlantConfig(), 33), default_plant(seed=33)
        [count] = plant.counters([9], 100, 2, 200)
        assert [count(1), count(2)] == [reference.measure(9, code, 100) for code in (1, 2)]
        before = _snapshot(plant)
        with pytest.raises(ValueError, match="^no window left in this run of delay 9$"):
            count(3)
        assert _snapshot(plant) == before
        assert_same_plant(plant, reference)

    def test_a_settled_counter_raises(self):
        # once a later call moves the clock, the slots' uncounted windows are gone
        reference, plant = Stepper(PlantConfig(), 34), default_plant(seed=34)
        later = [  # (the plant's call, the reference's)
            (lambda: plant.idle(50), lambda: reference.idle(50)),
            (lambda: plant.measure(5, 0, 100), lambda: reference.measure(5, 0, 100)),
            (lambda: plant.measure_slots(np.array([5]), [0] * 128, 100),
             lambda: reference.measure(5, 0, 100)),
            (lambda: plant.counters([5], 100, 23, 2_500),
             lambda: _idle_windows(reference, 23, 100, 200)),
        ]
        for call, reference_call in later:
            first, second = plant.counters([9, 7], 100, 23, 2_300)
            assert first(1) == reference.measure(9, 1, 100)
            _idle_windows(reference, 22, 100)
            _idle_windows(reference, 23, 100)
            call()
            reference_call()
            before = _snapshot(plant)
            for count, delay in ((first, 9), (second, 7)):
                message = f"^no window left in this run of delay {delay}$"
                with pytest.raises(ValueError, match=message):
                    count(2)
            assert _snapshot(plant) == before
        assert plant.counters([9], 100, 23, 2_300)[0](2) == reference.measure(9, 2, 100)
        _idle_windows(reference, 22, 100)
        assert_same_plant(plant, reference)

    @pytest.mark.parametrize("code", [-1, 65536])
    def test_a_code_out_of_range_counts_nothing(self, code):
        reference, plant = Stepper(PlantConfig(), 35), default_plant(seed=35)
        [count] = plant.counters([9], 100, 23, 2_300)
        with pytest.raises(ValueError, match=f"^DAC code {code} out of range for 16-bit"):
            count(code)
        assert count(4) == reference.measure(9, 4, 100)
        _idle_windows(reference, 22, 100)
        assert_same_plant(plant, reference)

    # no shrink phase: a failing example here shrinks for minutes, past a GB
    @settings(
        max_examples=100, deadline=None, derandomize=True,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(calls=st.lists(_CALLS, max_size=12), seed=st.integers(0, 3), config=plant_configs())
    @example(calls=_WIDE_DAC_CALLS, seed=0, config=_wide_dac(52))
    @example(calls=_WIDE_DAC_CALLS, seed=1, config=_wide_dac(53))
    @example(calls=_WIDE_DAC_CALLS, seed=2, config=_wide_dac(63))
    def test_any_call_sequence_measures_window_by_window(self, calls, seed, config):
        # any order of calls gives the window-by-window numbers, a slot's
        # uncounted windows idled one at a time, and the count's inlined
        # physics is the hardware and optics functions' on any config
        reference, plant = Stepper(config, seed), Plant(config, seed)
        top = config.pm.max_code
        # 128 codes from 0 to the top code, spread over every prefix
        codes = [(k * 37 % 128) * top // 127 for k in range(128)]
        for name, *args in calls:
            if name == "counters":
                delays, window_us, windows, pad_us = args
                plant.counters(delays, window_us, windows, windows * window_us + pad_us)
                for _ in delays:
                    _idle_windows(reference, windows, window_us, pad_us)
            elif name == "slots":
                delays, window_us, windows, pad_us, measured, then = args
                counts = plant.counters(delays, window_us, windows, windows * window_us + pad_us)
                for delay, count in zip(delays, counts):
                    for code in codes[:min(measured, windows)]:
                        assert count(code) == reference.measure(delay, code, window_us)
                    _idle_windows(reference, max(windows - measured, 0), window_us, pad_us)
                    if measured > windows:
                        with pytest.raises(ValueError, match="no window left"):
                            count(codes[0])
                if then:
                    step = (then[0], codes[7], then[1])
                    assert plant.measure(*step) == reference.measure(*step)
            elif name == "measure":
                delay, code, window_us = args
                step = (delay, code % (top + 1), window_us)
                assert plant.measure(*step) == reference.measure(*step)
            elif name == "idle":
                plant.idle(*args)
                reference.idle(*args)
            elif name == "qkd":
                index, window_us = args
                c1, c2 = plant.measure_slots(np.array(index, dtype=np.int64), codes, window_us)
                expected = [reference.measure(i, codes[i], window_us) for i in index]
                assert list(zip(c1.tolist(), c2.tolist())) == expected
            else:
                assert plant.state.laser_eps.hex() == reference.state.laser_eps.hex()
        assert_same_plant(plant, reference)
