import math

import numpy as np
import pytest

from fringelock.optics import TWO_PI, canonical_phase, port_intensities


class TestCanonicalPhase:
    def test_periodicity(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(-50.0, 50.0, size=500):
            assert abs(canonical_phase(x + TWO_PI) - canonical_phase(x)) < 1e-9

    def test_range(self):
        rng = np.random.default_rng(43)
        for x in rng.uniform(-1e6, 1e6, size=500):
            r = canonical_phase(x)
            assert 0.0 <= r < TWO_PI

    def test_seam(self):
        assert canonical_phase(0.0) == 0.0
        assert canonical_phase(TWO_PI) == 0.0
        assert canonical_phase(-1e-20) == 0.0
        assert canonical_phase(-0.5) == pytest.approx(TWO_PI - 0.5)


class TestPortIntensities:
    def test_constructive_extreme(self):
        assert port_intensities(0.0, 1.0) == (1.0, 0.0)

    def test_quadrature(self):
        i1, i2 = port_intensities(math.pi / 2, 1.0)
        assert i1 == pytest.approx(0.5, abs=1e-15)
        assert i2 == pytest.approx(0.5, abs=1e-15)

    def test_direct_evaluation(self):
        # cos(pi/3) = 1/2, so unit power splits 0.75 / 0.25
        i1, i2 = port_intensities(math.pi / 3, 1.0)
        assert i1 == pytest.approx(0.75, rel=1e-12)
        assert i2 == pytest.approx(0.25, rel=1e-12)

    def test_energy_conservation(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            phase = rng.uniform(-10.0, 10.0)
            v0 = rng.uniform(0.0, 1.0)
            i1, i2 = port_intensities(phase, v0)
            assert i1 >= 0.0 and i2 >= 0.0
            assert i1 + i2 == pytest.approx(1.0, rel=1e-12)

    def test_fringe_symmetry(self):
        rng = np.random.default_rng(8)
        for phase in rng.uniform(0.0, TWO_PI, size=100):
            a1, _ = port_intensities(phase, 1.0)
            _, b2 = port_intensities(phase + math.pi, 1.0)
            assert a1 == pytest.approx(b2, abs=1e-12)

    def test_contrast_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            port_intensities(0.0, 1.5)
        with pytest.raises(ValueError):
            port_intensities(0.0, -0.1)


class TestVisibility:
    def test_matches_cosine_up_to_count_quantization(self):
        # exact intensities converted to counts without noise
        total = 2_000_000
        rng = np.random.default_rng(10)
        for phase in rng.uniform(0.0, TWO_PI, size=100):
            i1, i2 = port_intensities(phase, 1.0)
            c1, c2 = round(total * i1), round(total * i2)
            assert (c1 - c2) / (c1 + c2) == pytest.approx(math.cos(phase), abs=2.0 / total)
