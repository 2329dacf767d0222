import math

import numpy as np
import pytest

from fringelock.calibration import phase_to_compensation_code
from fringelock.drift import DriftConfig
from fringelock.hardware import DetectorConfig
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
        c1, c2 = plant.measure(0, code, 100)
        # residual is DAC quantization only; at 2e5 counts that rounds to zero
        assert c2 == 0
        assert c1 > 0

    def test_seeded_determinism(self):
        runs = []
        for _ in range(2):
            plant = default_plant(seed=77)
            seq = []
            for i in range(300):
                c1, c2 = plant.measure(i % 128, i * 17 % 65536, 100)
                seq.append((c1, c2))
            runs.append(seq)
        assert runs[0] == runs[1]

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
        with pytest.raises(ValueError):
            plant.measure(0, 0, 0)
        with pytest.raises(ValueError):
            plant.idle(-1)

    def test_batched_slots_advance_the_clock(self):
        plant = default_plant(seed=7)
        c1, c2 = plant.measure_slots(np.array([0, 5, 127]), [0] * 128, 250)
        assert len(c1) == len(c2) == 3
        assert plant.elapsed_us == 750
        with pytest.raises(ValueError):
            plant.measure_slots(np.array([0]), [0] * 128, 0)


class TestSlot:
    @pytest.mark.parametrize(
        "window_us, slot_us", [(100, 2_500), (108, 2_500), (100, 2_300)],
        ids=["pad", "108-us", "no-pad"],
    )
    @pytest.mark.parametrize("measured", [23, 22, 3, 1, 0])
    def test_matches_measure_then_idle(self, measured, window_us, slot_us):
        # 23 measured windows commit the prefetch; fewer rewind and redraw
        reference, plant = default_plant(seed=30), default_plant(seed=30)
        codes = [(k * 2749) % 65536 for k in range(measured)]
        expected = [reference.measure(9, code, window_us) for code in codes]
        reference.idle(slot_us - measured * window_us)
        plant.open_slot(9, window_us, 23)
        assert [plant.measure(9, code, window_us) for code in codes] == expected
        assert plant.state.laser_eps == 0.0  # the drift waits for the close
        plant.close_slot()
        assert plant.elapsed_us == measured * window_us  # the pad is the caller's
        plant.idle(slot_us - plant.elapsed_us)
        assert plant.elapsed_us == reference.elapsed_us == slot_us
        assert plant.state.laser_eps.hex() == reference.state.laser_eps.hex()
        assert plant.state.path_phases.tobytes() == reference.state.path_phases.tobytes()
        for stream in ("_rng_drift", "_rng_detector"):
            state = getattr(plant, stream).bit_generator.state
            assert state == getattr(reference, stream).bit_generator.state, stream

    def test_measurements_must_follow_the_slot(self):
        plant = default_plant(seed=31)
        with pytest.raises(ValueError, match="window must be positive"):
            plant.open_slot(0, 0, 23)
        with pytest.raises(ValueError, match="no slot is open"):
            plant.close_slot()
        plant.open_slot(2, 100, 1)
        for args in ((3, 0, 100), (2, 0, 50)):
            with pytest.raises(ValueError, match="the open slot holds 1 windows"):
                plant.measure(*args)
        with pytest.raises(ValueError, match="still open"):
            plant.idle(100)
        with pytest.raises(ValueError, match="still open"):
            plant.measure_slots(np.array([0]), [0] * 128, 100)
        with pytest.raises(ValueError, match="still open"):
            plant.open_slot(2, 100, 1)
        plant.measure(2, 0, 100)
        with pytest.raises(ValueError, match="after 1"):
            plant.measure(2, 0, 100)
        plant.close_slot()
        assert plant.elapsed_us == 100


class TestConfig:
    def test_contrast_validation(self):
        with pytest.raises(ValueError):
            PlantConfig(contrast=1.2)

    def test_drift_only_advances_inside_plant(self):
        plant = default_plant(seed=9)
        before = plant.elapsed_us
        _ = plant.state.laser_eps
        assert before == 0
        plant.measure(0, 0, 100)
        assert plant.elapsed_us > before
