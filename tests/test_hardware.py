import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fringelock.hardware import (
    DELAY_NS,
    FIBER_DELAYS_NS,
    V_PI,
    DetectorConfig,
    PmConfig,
    dac_to_voltage,
    dac_to_voltages,
    sample_counts,
    select_delay,
    voltage_for_phase,
    voltage_to_code,
)
from fringelock.optics import TWO_PI, canonical_phase

from conftest import pm_configs
from reference_model import voltage_to_phase

PM = PmConfig()
_EXACT_SPAN = PmConfig(v_max=2.0 * V_PI, dac_bits=63)


@st.composite
def pm_voltage_and_code(draw, max_bits=24):
    """A drive chain with span >= 2*V_PI and 1 to ``max_bits`` bits, a
    voltage in its span and one of its DAC codes."""
    cfg = PmConfig(
        v_max=draw(st.floats(2.0 * V_PI, 200.0)), dac_bits=draw(st.integers(1, max_bits))
    )
    v = draw(st.floats(0.0, cfg.v_max))
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
    @example((PM, 0.0, 0))
    @example((PM, PM.v_max, 2**PM.dac_bits - 1))
    @example((PM, 0.1 * PM.v_max, 12345))
    def test_roundtrip_within_one_lsb(self, case):
        cfg, v, code = case
        lsb = cfg.v_max / (2**cfg.dac_bits - 1)
        # a few ulps of the largest magnitude in play cover the float rounding
        rounding = 16 * math.ulp(cfg.v_max)
        back = dac_to_voltage(voltage_to_code(v, cfg), cfg)
        assert abs(back - v) <= lsb / 2 + rounding
        assert voltage_to_code(dac_to_voltage(code, cfg), cfg) == code

    @pytest.mark.parametrize("v", [-0.1, 10.1])
    def test_voltage_outside_the_span_rejected(self, v):
        with pytest.raises(ValueError) as info:
            voltage_to_code(v, PM)
        assert str(info.value) == f"voltage {v} V outside DAC span [0, 10.0]"

    def test_63_bit_dac_accepted(self):
        cfg = PmConfig(dac_bits=63)
        assert cfg.max_code == np.iinfo(np.int64).max
        assert dac_to_voltage(cfg.max_code, cfg) == cfg.v_max

    def test_non_finite_span_rejected(self):
        with pytest.raises(ValueError, match="not finite") as info:
            PmConfig(v_max=1e308)
        assert "pm.v_max" in str(info.value) and "pm.dac_bits" in str(info.value)
        # the widest spans whose transfer stays finite are valid: v_max times
        # the full-scale code for 16 bits, pi times v_max for 1 bit
        assert PmConfig(v_max=2e303).v_max == 2e303
        assert PmConfig(v_max=5e307, dac_bits=1).v_max == 5e307

    @pytest.mark.parametrize(
        "v_max, bits",
        [
            (1e308, 1),  # pi * v_max overflows, code * v_max does not
            (1e308, 16),  # code * v_max overflows
            (3e303, 16),  # code * v_max overflows near full scale
            (6e307, 1),  # pi * v_max overflows near the float limit
        ],
    )
    def test_overflowing_transfer_rejected(self, v_max, bits):
        with pytest.raises(ValueError, match="DAC transfer overflows") as info:
            PmConfig(v_max=v_max, dac_bits=bits)
        for key in ("pm.v_max", "pm.dac_bits"):
            assert key in str(info.value)


class TestDerivedTerms:
    """The transfer functions read the derived term ``PmConfig.max_code``;
    they must give the bits of the expressions that read the config's
    fields."""

    @given(pm_voltage_and_code(max_bits=63))
    @example((PM, PM.v_max, PM.max_code))
    @example((PmConfig(dac_bits=63), 0.0, 2**63 - 1))
    @example((PmConfig(dac_bits=63), 10.0, 2**62 + 12345))
    @example((PmConfig(v_max=19.75, dac_bits=63), 19.75, 2**63 - 1))
    # full scale, where the unclamped voltage rounds past v_max
    @example((PmConfig(v_max=27.581179828564927, dac_bits=12), 27.581179828564927, 4095))
    # 52 and 53 bits: an odd full scale with codes past 2**51, where an ulp of
    # v / v_max * max_code moves the nearest code
    @example((PmConfig(dac_bits=52), 6.4183973689717, 2**52 - 1))
    @example((PmConfig(v_max=19.75, dac_bits=53), 16.50110284305663, 0))
    def test_equals_the_inline_expressions(self, case):
        cfg, v, code = case
        max_code = (1 << cfg.dac_bits) - 1
        volts = min(cfg.v_max, code * cfg.v_max / max_code)
        nearest = round(v / cfg.v_max * max_code)
        assert dac_to_voltage(code, cfg).hex() == volts.hex()
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
        assert PmConfig(dac_bits=12).max_code == 4095
        assert [f.name for f in fields(PmConfig)] == ["v_max", "dac_bits"]
        det = DetectorConfig(input_rate=1e6)
        assert det.signal_rate == 1e6 * 0.2
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
        for v in rng.uniform(0.0, PM.v_max - V_PI, size=200):
            delta = canonical_phase(voltage_to_phase(v + V_PI, PM) - voltage_to_phase(float(v), PM))
            assert delta == pytest.approx(math.pi, abs=1e-9)

    def test_voltage_for_phase_is_lowest_candidate(self):
        rng = np.random.default_rng(13)
        for phase in rng.uniform(0.0, 2.0 * math.pi, size=200):
            v = voltage_for_phase(float(phase))
            assert 0.0 <= v <= 2.0 * V_PI
            assert voltage_to_phase(v, PM) == pytest.approx(
                canonical_phase(phase), abs=1e-9
            )

    @given(pm_configs(), st.floats(allow_nan=False, allow_infinity=False))
    # a span of exactly 2*V_PI, whose rail a phase just under 2*pi nears
    @example(_EXACT_SPAN, math.nextafter(TWO_PI, 0.0))
    @example(_EXACT_SPAN, -5e-16)
    def test_voltage_for_phase_is_an_in_span_code(self, cfg, phase):
        v = voltage_for_phase(phase)
        assert 0.0 <= v <= cfg.v_max
        assert 0 <= voltage_to_code(v, cfg) <= cfg.max_code

    @pytest.mark.parametrize("bits", [1, 16, 63])
    def test_phases_just_under_two_pi_stay_in_an_exact_span(self, bits):
        # V_PI * phase is exact, so only the division by pi rounds: the 2000
        # largest phases below 2*pi stay at or under the 8 V rail unclamped
        cfg = PmConfig(v_max=2.0 * V_PI, dac_bits=bits)
        phase = TWO_PI
        for _ in range(2000):
            phase = math.nextafter(phase, 0.0)
            v = voltage_for_phase(phase)
            assert v <= 8.0
            assert 0 <= voltage_to_code(v, cfg) <= cfg.max_code


class TestSelectDelay:
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

    def test_expected_visibility_at_96_split(self):
        det = DetectorConfig(input_rate=5e7, dark_rate=0.0)
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
        det = DetectorConfig(input_rate=5e7, dark_rate=0.0, shot_noise=False)
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
