import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fringelock.hardware import (
    DELAY_NS,
    FIBER_DELAYS_NS,
    DetectorConfig,
    PmConfig,
    dac_to_phase,
    dac_to_voltage,
    dac_to_voltages,
    sample_counts,
    select_delay,
    voltage_for_phase,
    voltage_to_code,
    voltage_to_phase,
)
from fringelock.optics import canonical_phase

PM = PmConfig()


@st.composite
def pm_voltage_and_code(draw, max_bits=24):
    """A drive chain with span >= 2*v_pi and 1 to ``max_bits`` bits, a
    voltage in its span and one of its DAC codes."""
    v_min = draw(st.floats(-100.0, 100.0))
    v_max = v_min + draw(st.floats(0.01, 100.0))
    half_span = (v_max - v_min) / 2.0
    cfg = PmConfig(
        v_min=v_min,
        v_max=v_max,
        v_pi=draw(st.floats(half_span / 100.0, half_span)),
        dac_bits=draw(st.integers(1, max_bits)),
    )
    v = draw(st.floats(cfg.v_min, cfg.v_max))
    max_code = (1 << cfg.dac_bits) - 1
    code = draw(st.one_of(st.just(max_code), st.integers(0, max_code)))
    return cfg, v, code


class TestDacChain:
    def test_rails(self):
        assert dac_to_voltage(0, PM) == 0.0
        assert dac_to_voltage(65535, PM) == 10.0

    def test_midscale(self):
        # 32768 * 10 / 65535
        assert dac_to_voltage(32768, PM) == pytest.approx(5.000076, abs=1e-6)

    def test_monotone(self):
        volts = [dac_to_voltage(c, PM) for c in range(0, 65536, 911)]
        assert all(a < b for a, b in zip(volts, volts[1:]))

    @pytest.mark.parametrize("bits", [1, 12, 16, 24])
    def test_code_out_of_range(self, bits):
        # the code range comes from the drive chain's dac_bits
        cfg = PmConfig(dac_bits=bits)
        with pytest.raises(ValueError):
            dac_to_voltage(1 << bits, cfg)
        with pytest.raises(ValueError):
            dac_to_voltage(-1, cfg)
        assert dac_to_voltage((1 << bits) - 1, cfg) == cfg.v_max

    @given(pm_voltage_and_code())
    @example((PM, PM.v_min, 0))
    @example((PM, PM.v_max, 2**PM.dac_bits - 1))
    @example((PM, 0.1 * PM.span, 12345))
    def test_roundtrip_within_one_lsb(self, case):
        cfg, v, code = case
        lsb = cfg.span / (2**cfg.dac_bits - 1)
        # a few ulps of the largest magnitude in play cover the float rounding
        rounding = 16 * math.ulp(max(abs(cfg.v_min), abs(cfg.v_max), cfg.span))
        back = dac_to_voltage(voltage_to_code(v, cfg), cfg)
        assert abs(back - v) <= lsb / 2 + rounding
        assert voltage_to_code(dac_to_voltage(code, cfg), cfg) == code

    def test_invalid_pm_config(self):
        with pytest.raises(ValueError):
            PmConfig(v_min=5.0, v_max=1.0)
        with pytest.raises(ValueError):
            PmConfig(v_pi=0.0)
        with pytest.raises(ValueError):
            PmConfig(v_min=0.0, v_max=7.0, v_pi=4.0)  # span < 2*v_pi

    @pytest.mark.parametrize("bits", [64, 2000])
    def test_dac_wider_than_int64_codes_rejected(self, bits):
        with pytest.raises(ValueError, match="pm.dac_bits"):
            PmConfig(dac_bits=bits)

    def test_63_bit_dac_accepted(self):
        cfg = PmConfig(dac_bits=63)
        assert cfg.max_code == np.iinfo(np.int64).max
        assert dac_to_voltage(cfg.max_code, cfg) == cfg.v_max

    def test_non_finite_span_rejected(self):
        with pytest.raises(ValueError, match="not finite") as info:
            PmConfig(v_min=-1e308, v_max=1e308)
        assert "pm.v_min" in str(info.value) and "pm.v_max" in str(info.value)
        # the widest spans whose transfer stays finite are valid: span times
        # the full-scale code for 16 bits, pi times the span for 1 bit
        assert PmConfig(v_min=-1e303, v_max=1e303).span == 2e303
        assert PmConfig(v_min=-2.5e307, v_max=2.5e307, dac_bits=1).span == 5e307

    @pytest.mark.parametrize(
        "v_min, v_max, v_pi, bits",
        [
            (0.0, 1e308, 1e307, 16),  # pi * span overflows
            (-1e308, 10.0, 4.0, 16),  # code * span overflows from code 2 on
            (-1e303, 2e303, 4.0, 16),  # code * span overflows near full scale
            (-4e307, 4e307, 4.0, 1),  # pi * span overflows at 1 bit
            (0.0, 10.0, 1e-308, 16),  # pi * span / v_pi overflows
        ],
    )
    def test_overflowing_transfer_rejected(self, v_min, v_max, v_pi, bits):
        with pytest.raises(ValueError, match="DAC transfer overflows") as info:
            PmConfig(v_min=v_min, v_max=v_max, v_pi=v_pi, dac_bits=bits)
        for key in ("pm.v_min", "pm.v_max", "pm.dac_bits", "pm.v_pi"):
            assert key in str(info.value)


class TestDacToPhase:
    @given(pm_voltage_and_code())
    @example((PM, PM.v_min, 0))
    @example((PM, PM.v_max, PM.max_code))
    @example((PmConfig(dac_bits=63), 0.0, 2**63 - 1))
    @example((PmConfig(dac_bits=63), 0.0, 2**62 + 12345))
    @example((PmConfig(v_min=-7.5, v_max=12.25, v_pi=3.0, dac_bits=63), 0.0, 2**63 - 1))
    @example((PmConfig(v_min=-1e303, v_max=1e303, dac_bits=16), 0.0, 65535))
    # full scale, where the unclamped voltage rounds past v_max
    @example((PmConfig(v_min=-17.0, v_max=1.8, dac_bits=12), 0.0, 4095))
    @example((PmConfig(v_min=-43.168, v_max=41.453, dac_bits=63), 0.0, 2**63 - 1))
    def test_equals_voltage_then_phase(self, case):
        cfg, _, code = case
        expected = voltage_to_phase(dac_to_voltage(code, cfg), cfg)
        assert dac_to_phase(code, cfg).hex() == expected.hex()

    @pytest.mark.parametrize("code", [-1, 1 << 16])
    def test_code_out_of_range(self, code):
        with pytest.raises(ValueError, match="out of range for 16-bit"):
            dac_to_phase(code, PM)


class TestCachedTransfer:
    """The transfer functions read the terms ``PmConfig.transfer`` caches; they
    must give the bits of the expressions that read the config's fields."""

    @given(pm_voltage_and_code(max_bits=63))
    @example((PM, PM.v_max, PM.max_code))
    @example((PmConfig(dac_bits=63), 0.0, 2**63 - 1))
    @example((PmConfig(dac_bits=63), 10.0, 2**62 + 12345))
    @example((PmConfig(v_min=-7.5, v_max=12.25, v_pi=3.0, dac_bits=63), 12.25, 2**63 - 1))
    # full scale, where the unclamped voltage rounds past v_max
    @example((PmConfig(v_min=-17.0, v_max=1.8, dac_bits=12), 1.8, 4095))
    @example((PmConfig(v_min=-43.168, v_max=41.453, dac_bits=63), -43.168, 2**63 - 1))
    # 52 and 53 bits: an odd full scale with codes past 2**51, where an ulp of
    # (v - v_min) / span * max_code moves the nearest code
    @example((PmConfig(dac_bits=52), 6.4183973689717, 2**52 - 1))
    @example((PmConfig(v_min=-7.5, v_max=12.25, v_pi=3.0, dac_bits=53), -2.6263435664375345, 0))
    def test_equals_the_inline_expressions(self, case):
        cfg, v, code = case
        max_code = (1 << cfg.dac_bits) - 1
        volts = min(cfg.v_max, cfg.v_min + code * (cfg.v_max - cfg.v_min) / max_code)
        phase = math.fmod(math.pi * (volts - cfg.v_min) / cfg.v_pi, 2.0 * math.pi)
        nearest = round((v - cfg.v_min) / (cfg.v_max - cfg.v_min) * max_code)
        assert dac_to_voltage(code, cfg).hex() == volts.hex()
        assert dac_to_phase(code, cfg).hex() == phase.hex()
        assert voltage_to_code(v, cfg) == min(max_code, max(0, nearest))
        array = dac_to_voltages(np.array([code, 0, max_code, code], dtype=np.int64), cfg)
        assert [x.hex() for x in array.tolist()] == [
            dac_to_voltage(c, cfg).hex() for c in (code, 0, max_code, code)
        ]

    @pytest.mark.parametrize("code", [-1, 1 << 16])
    def test_array_codes_out_of_range(self, code):
        with pytest.raises(ValueError, match="out of range for 16-bit"):
            dac_to_voltages(np.array([0, code], dtype=np.int64), PM)
        assert dac_to_voltages(np.zeros(0, dtype=np.int64), PM).shape == (0,)

    def test_terms_are_not_config_fields(self):
        cfg = PmConfig(v_min=-1.5, v_max=9.0, v_pi=2.5, dac_bits=12)
        assert cfg.transfer == (4095, -1.5, 9.0, 10.5, 2.5)
        assert [f.name for f in fields(PmConfig)] == ["v_min", "v_max", "v_pi", "dac_bits"]
        det = DetectorConfig(efficiency=0.3, input_rate=1e6)
        assert det.signal_rate == 1e6 * 0.3
        assert "signal_rate" not in [f.name for f in fields(DetectorConfig)]


class TestVoltageToPhase:
    def test_zero(self):
        assert voltage_to_phase(0.0, PM) == 0.0

    def test_half_wave_voltage(self):
        assert voltage_to_phase(4.0, PM) == pytest.approx(math.pi, abs=1e-12)

    def test_coarse_step_granularity(self):
        # the 0.1 V calibration step is pi * 0.1 / 4 of phase
        assert voltage_to_phase(0.1, PM) == pytest.approx(0.0785398, abs=1e-7)

    def test_out_of_span(self):
        with pytest.raises(ValueError):
            voltage_to_phase(-0.1, PM)
        with pytest.raises(ValueError):
            voltage_to_phase(10.1, PM)

    def test_half_wave_shift_property(self):
        rng = np.random.default_rng(12)
        for v in rng.uniform(PM.v_min, PM.v_max - PM.v_pi, size=200):
            delta = canonical_phase(
                voltage_to_phase(v + PM.v_pi, PM) - voltage_to_phase(float(v), PM)
            )
            assert delta == pytest.approx(math.pi, abs=1e-9)

    def test_voltage_for_phase_is_lowest_candidate(self):
        rng = np.random.default_rng(13)
        for phase in rng.uniform(0.0, 2.0 * math.pi, size=200):
            v = voltage_for_phase(float(phase), PM)
            assert PM.v_min <= v <= PM.v_min + 2.0 * PM.v_pi
            assert voltage_to_phase(v, PM) == pytest.approx(
                canonical_phase(phase), abs=1e-9
            )


class TestSelectDelay:
    def test_endpoints(self):
        assert select_delay(0) == 0
        assert select_delay(127) == 254

    @pytest.mark.parametrize("gate", range(7))
    def test_each_set_bit_adds_its_fiber(self, gate):
        assert select_delay(1 << gate) == FIBER_DELAYS_NS[gate]
        for r in (0, 5, 42, 127):
            if not r >> gate & 1:
                assert select_delay(r | 1 << gate) == select_delay(r) + FIBER_DELAYS_NS[gate]

    def test_delay_table(self):
        assert len(DELAY_NS) == 128
        assert all(DELAY_NS[r] == 2 * r == select_delay(r) for r in range(128))
        assert len(set(DELAY_NS)) == 128

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            select_delay(128)
        with pytest.raises(ValueError):
            select_delay(-1)


class TestSampleCounts:
    def test_zero_rate_port_never_counts(self):
        det = DetectorConfig(dark_rate=0.0)
        rng = np.random.default_rng(14)
        for _ in range(200):
            _, c2 = sample_counts((1.0, 0.0), det, 1e-4, rng)
            assert c2 == 0

    def test_poisson_moments(self):
        # lambda = 500 per window at an even split
        det = DetectorConfig(input_rate=1e7, efficiency=1.0, dark_rate=0.0)
        rng = np.random.default_rng(15)
        draws = np.array(
            [
                sample_counts((0.5, 0.5), det, 1e-4, rng)[0]
                for _ in range(100_000)
            ]
        )
        assert abs(draws.mean() - 500.0) / 500.0 < 0.01
        assert abs(draws.var() - 500.0) / 500.0 < 0.05

    def test_expected_visibility_at_96_split(self):
        det = DetectorConfig(input_rate=1e7, efficiency=1.0, dark_rate=0.0)
        rng = np.random.default_rng(16)
        vis = []
        for _ in range(20_000):
            c1, c2 = sample_counts((0.98, 0.02), det, 1e-4, rng)
            vis.append((c1 - c2) / (c1 + c2))
        assert np.mean(vis) == pytest.approx(0.96, abs=0.005)

    def test_seeded_reproducibility(self):
        det = DetectorConfig()
        rng1, rng2 = np.random.default_rng(1234), np.random.default_rng(1234)
        seq1 = [sample_counts((0.6, 0.4), det, 1e-4, rng1) for _ in range(50)]
        seq2 = [sample_counts((0.6, 0.4), det, 1e-4, rng2) for _ in range(50)]
        assert seq1 == seq2

    def test_noiseless_mode_rounds_expectation(self):
        det = DetectorConfig(input_rate=1e7, efficiency=1.0, dark_rate=0.0, shot_noise=False)
        rng = np.random.default_rng(17)
        assert sample_counts((0.75, 0.25), det, 1e-4, rng) == (750, 250)

    @pytest.mark.parametrize("window", [0.0, -1e-4])
    def test_window_must_be_positive(self, window):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            sample_counts((0.5, 0.5), DetectorConfig(), window, rng)

    @given(
        intensities=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
        det=st.builds(
            DetectorConfig,
            efficiency=st.floats(0.0, 1.0, exclude_min=True),
            dark_rate=st.floats(0.0, 1e6),
            input_rate=st.floats(0.0, 1e9),
            shot_noise=st.booleans(),
        ),
        window=st.floats(1e-7, 1e-2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_are_non_negative_ints(self, intensities, det, window, seed):
        counts = sample_counts(intensities, det, window, np.random.default_rng(seed))
        assert type(counts) is tuple and len(counts) == 2
        c1, c2 = counts
        assert type(c1) is int and type(c2) is int
        assert c1 >= 0 and c2 >= 0
