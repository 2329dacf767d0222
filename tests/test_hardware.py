import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fringelock.hardware import (
    DetectorConfig,
    DetectorCounts,
    PmConfig,
    dac_to_voltage,
    sample_counts,
    select_delay,
    voltage_for_phase,
    voltage_to_code,
    voltage_to_phase,
)
from fringelock.optics import PortIntensities, canonical_phase, visibility

PM = PmConfig()


@st.composite
def pm_voltage_and_code(draw):
    """A drive chain with span >= 2*v_pi and 1-24 bits, a voltage in its
    span and one of its DAC codes."""
    v_min = draw(st.floats(-100.0, 100.0))
    v_max = v_min + draw(st.floats(0.01, 100.0))
    half_span = (v_max - v_min) / 2.0
    cfg = PmConfig(
        v_min=v_min,
        v_max=v_max,
        v_pi=draw(st.floats(half_span / 100.0, half_span)),
        dac_bits=draw(st.integers(1, 24)),
    )
    v = draw(st.floats(cfg.v_min, cfg.v_max))
    code = draw(st.integers(0, (1 << cfg.dac_bits) - 1))
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
        zero = select_delay(0)
        assert zero.gate_bits == (False,) * 7
        assert zero.delay_ns == 0
        full = select_delay(127)
        assert full.gate_bits == (True,) * 7
        assert full.delay_ns == 254

    def test_single_gate(self):
        one = select_delay(1)
        assert one.gate_bits == (True,) + (False,) * 6
        assert one.delay_ns == 2

    def test_bijection(self):
        selectors = [select_delay(i) for i in range(128)]
        assert len({s.gate_bits for s in selectors}) == 128
        assert len({s.delay_ns for s in selectors}) == 128
        assert [s.delay_ns for s in selectors] == list(range(0, 256, 2))

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
            counts = sample_counts(PortIntensities(1.0, 0.0), det, 1e-4, rng)
            assert counts.c2 == 0

    def test_poisson_moments(self):
        # lambda = 500 per window at an even split
        det = DetectorConfig(input_rate=1e7, efficiency=1.0, dark_rate=0.0)
        rng = np.random.default_rng(15)
        draws = np.array(
            [
                sample_counts(PortIntensities(0.5, 0.5), det, 1e-4, rng).c1
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
            c = sample_counts(PortIntensities(0.98, 0.02), det, 1e-4, rng)
            vis.append(visibility(c.c1, c.c2))
        assert np.mean(vis) == pytest.approx(0.96, abs=0.005)

    def test_seeded_reproducibility(self):
        det = DetectorConfig()
        rng1, rng2 = np.random.default_rng(1234), np.random.default_rng(1234)
        seq1 = [sample_counts(PortIntensities(0.6, 0.4), det, 1e-4, rng1) for _ in range(50)]
        seq2 = [sample_counts(PortIntensities(0.6, 0.4), det, 1e-4, rng2) for _ in range(50)]
        assert [(c.c1, c.c2) for c in seq1] == [(c.c1, c.c2) for c in seq2]

    def test_noiseless_mode_rounds_expectation(self):
        det = DetectorConfig(input_rate=1e7, efficiency=1.0, dark_rate=0.0, shot_noise=False)
        rng = np.random.default_rng(17)
        counts = sample_counts(PortIntensities(0.75, 0.25), det, 1e-4, rng)
        assert (counts.c1, counts.c2) == (750, 250)

    @pytest.mark.parametrize("window", [0.0, -1e-4])
    def test_window_must_be_positive(self, window):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            sample_counts(PortIntensities(0.5, 0.5), DetectorConfig(), window, rng)

    @given(
        intensities=st.builds(PortIntensities, st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
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
        assert isinstance(counts, DetectorCounts)
        assert type(counts.c1) is int and type(counts.c2) is int
        assert counts.c1 >= 0 and counts.c2 >= 0
        assert counts.total == counts.c1 + counts.c2
