import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fringelock.keyrate import binary_entropy, error_threshold, key_rate


def entropy_oracle(x: float) -> float:
    """Binary entropy of 0 < x < 1 at 50 significant digits, for cross-checking."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(x)
        return float((-d * d.ln() - (1 - d) * (1 - d).ln()) / Decimal(2).ln())


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_against_high_precision(self):
        assert binary_entropy(1 / 127) == pytest.approx(entropy_oracle(1 / 127), abs=1e-12)
        assert binary_entropy(1 / 127) == pytest.approx(0.066343975, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(20)
        for x in rng.uniform(0.0, 1.0, size=1000):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestKeyRate:
    def test_ideal_long_train(self):
        r = key_rate(128, 1, 1.0, 0.0)
        assert r == pytest.approx(1.0 - entropy_oracle(1 / 127), abs=1e-12)
        assert r == pytest.approx(0.933656, abs=1e-5)

    def test_zero_detections(self):
        assert key_rate(64, 2, 0.0, 0.1) == 0.0

    def test_sign_flip_near_paper_threshold(self):
        assert key_rate(128, 1, 1.0, 0.34) > 0.0
        assert key_rate(128, 1, 1.0, 0.35) < 0.0

    def test_linear_in_q(self):
        base = key_rate(128, 1, 1.0, 0.05)
        assert key_rate(128, 1, 3.5, 0.05) == pytest.approx(3.5 * base, rel=1e-12)

    def test_strictly_decreasing_in_e_bit(self):
        rates = [key_rate(128, 1, 1.0, e) for e in np.linspace(0.01, 0.49, 25)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_negative_not_clamped(self):
        assert key_rate(8, 3, 1.0, 0.45) < 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            key_rate(1, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            key_rate(128, 70.0, 1.0, 0.0)  # above (L-1)/2
        with pytest.raises(ValueError):
            key_rate(128, 1, -1.0, 0.0)

    def test_train_past_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="train length L"):
            error_threshold(10**400, 1)
        # the largest L whose L - 1 is within the float range still runs
        assert error_threshold(int(sys.float_info.max) + 1, 1) == pytest.approx(0.5, abs=1e-8)


class TestErrorThreshold:
    def test_long_train_threshold(self):
        t = error_threshold(128, 1)
        assert 0.349 <= t <= 0.350
        assert t == pytest.approx(0.349539397, abs=2e-9)

    def test_is_a_root(self):
        for L, v in ((128, 1), (64, 1), (16, 3)):
            t = error_threshold(L, v)
            assert 1.0 - binary_entropy(t) - binary_entropy(v / (L - 1)) == pytest.approx(
                0.0, abs=1e-7
            )

    def test_degenerate_train(self):
        # v_th at its bound (L-1)/2 = 0.5 puts h at 1: no error budget at all
        assert error_threshold(2, 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            error_threshold(1, 1)
        with pytest.raises(ValueError):
            error_threshold(128, 0.0)
