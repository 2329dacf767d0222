import math

import numpy as np
import pytest

from fringelock.calibration import phase_to_compensation_code
from fringelock.drift import DriftConfig
from fringelock.hardware import DetectorConfig, select_delay
from fringelock.plant import Plant, PlantConfig

from conftest import ZERO_OFFSETS, noiseless_plant, quiet_drift


def default_plant(seed=0, **det_overrides):
    det = DetectorConfig(**det_overrides) if det_overrides else DetectorConfig()
    return Plant(PlantConfig(detector=det), entropy=seed)


class TestMeasure:
    def test_perfect_compensation_collects_one_port(self):
        alpha = 2.1
        offsets = tuple([alpha] + [0.0] * 127)
        plant = noiseless_plant(offsets=offsets)
        code = phase_to_compensation_code(alpha, plant.config.pm)
        counts = plant.measure(select_delay(0), code, 100)
        # residual is DAC quantization only; at 2e5 counts that rounds to zero
        assert counts.c2 == 0
        assert counts.c1 > 0

    def test_seeded_determinism(self):
        runs = []
        for _ in range(2):
            plant = default_plant(seed=77)
            seq = []
            for i in range(300):
                counts = plant.measure(select_delay(i % 128), i * 17 % 65536, 100)
                seq.append((counts.c1, counts.c2))
            runs.append(seq)
        assert runs[0] == runs[1]

    def test_quadrature_splits_evenly(self):
        offsets = tuple([math.pi / 2] + [0.0] * 127)
        plant = Plant(PlantConfig(drift=quiet_drift(offsets), contrast=1.0), entropy=5)
        c1 = c2 = 0
        for _ in range(2000):
            counts = plant.measure(select_delay(0), 0, 100)
            c1 += counts.c1
            c2 += counts.c2
        assert abs(c1 - c2) / (c1 + c2) < 0.02

    def test_phase_composition_wraps(self):
        # a path offset beyond 2*pi behaves identically to its canonical value
        for raw, canonical in ((7.0, 7.0 - 2.0 * math.pi), (-1.0, 2.0 * math.pi - 1.0)):
            a = noiseless_plant(offsets=tuple([raw] + [0.0] * 127))
            b = noiseless_plant(offsets=tuple([canonical] + [0.0] * 127))
            ca = a.measure(select_delay(0), 4321, 100)
            cb = b.measure(select_delay(0), 4321, 100)
            assert (ca.c1, ca.c2) == (cb.c1, cb.c2)


class TestClock:
    def test_elapsed_is_sum_of_requested_windows(self):
        plant = default_plant(seed=3)
        plant.measure(select_delay(0), 0, 100)
        plant.measure(select_delay(1), 0, 250)
        plant.idle(650)
        plant.measure(select_delay(2), 0, 1000)
        assert plant.elapsed_us == 2000

    def test_zero_idle_is_free(self):
        plant = default_plant(seed=4)
        plant.idle(0)
        assert plant.elapsed_us == 0

    def test_invalid_windows(self):
        plant = default_plant(seed=6)
        with pytest.raises(ValueError):
            plant.measure(select_delay(0), 0, 0)
        with pytest.raises(ValueError):
            plant.idle(-1)


class TestConfig:
    def test_contrast_validation(self):
        with pytest.raises(ValueError):
            PlantConfig(contrast=1.2)

    def test_drift_only_advances_inside_plant(self):
        plant = default_plant(seed=9)
        before = plant.elapsed_us
        _ = plant.state.laser_eps
        assert before == 0
        plant.measure(select_delay(0), 0, 100)
        assert plant.elapsed_us > before
