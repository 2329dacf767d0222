"""The model window by window, the one oracle of the bit-exactness tests.

``Stepper`` is the plant one window at a time, built only from the scalar
functions: ``drift.true_phase`` at the window start,
``voltage_to_phase(dac_to_voltage(code))``, ``optics.port_intensities``,
``hardware.sample_counts``, then one ``drift.advance``. The reference stages
run on a ``Stepper``, choosing each step's code just before measuring it.
They follow drift stream v1.1, where an aborted search's slot still spends
all its step windows. The reference trace rows are the tuples ``csv.writer``
wrote in schema v1.
"""

import csv
import io
import math

import numpy as np

from fringelock.calibration import CALIB_STEP, QUADRATURE_PHASES, TOTAL_STEPS
from fringelock.calibration import CalibrationAborted
from fringelock.calibration import least_squares_phase, phase_to_compensation_code
from fringelock.controller import QKD_SLOT
from fringelock.drift import advance, initial_state, true_phase
from fringelock.hardware import NUM_DELAYS, V_PI, dac_to_voltage, sample_counts
from fringelock.hardware import voltage_for_phase, voltage_to_code
from fringelock.optics import canonical_phase, port_intensities
from fringelock.reporting import PER_DELAY_HEADER


def voltage_to_phase(v, cfg):
    """Modulator transfer: pi of phase per V_PI of drive, canonical [0, 2*pi)."""
    if not 0.0 <= v <= cfg.v_max:
        raise ValueError(f"voltage {v} V outside span [0, {cfg.v_max}]")
    return canonical_phase(math.pi * v / V_PI)


def wrap_into_span(v, cfg):
    """A scan point moved by one 2*V_PI period, which keeps its modulator
    phase, if it lies off a rail: an accepted scan spans less than a period,
    so one shift brings every point into the span."""
    if v < 0.0:
        return v + 2.0 * V_PI
    if v > cfg.v_max:
        return v - 2.0 * V_PI
    return v


def drift_by_window(state, indices, dt, cfg, rng):
    """The true phase of delay ``indices[k]`` at the start of window ``k``:
    ``true_phase``, then one ``advance`` of ``dt`` seconds, per window."""
    phases = []
    for index in indices:
        phases.append(true_phase(state, index, cfg))
        advance(state, dt, cfg, rng)
    return phases


class Stepper:
    """The plant window by window. The same stream recipe as ``Plant``:
    ``SeedSequence(seed)`` spawns (offsets, drift, detector). ``events``
    logs what the reference searches run on it saw: "wrap" for each scan
    point that falls off a rail, and each abort's message."""

    def __init__(self, config, seed):
        offsets_ss, drift_ss, detector_ss = np.random.SeedSequence(seed).spawn(3)
        self.config = config
        self._rng_drift = np.random.default_rng(drift_ss)
        self._rng_detector = np.random.default_rng(detector_ss)
        self.state = initial_state(config.drift, np.random.default_rng(offsets_ss))
        self.elapsed_us = 0
        self.events = []

    def measure(self, delay_index, code, window_us):
        cfg = self.config
        alpha = true_phase(self.state, delay_index, cfg.drift)
        phi = voltage_to_phase(dac_to_voltage(code, cfg.pm), cfg.pm)
        intensities = port_intensities(alpha + phi, cfg.contrast)
        counts = sample_counts(intensities, cfg.detector, window_us * 1e-6, self._rng_detector)
        self.idle(window_us)
        return counts

    def idle(self, duration_us):
        if duration_us:
            advance(self.state, duration_us * 1e-6, self.config.drift, self._rng_drift)
            self.elapsed_us += duration_us


def assert_same_plant(plant, reference):
    """Clock, drift state and both stream positions agree bit for bit."""
    assert plant.elapsed_us == reference.elapsed_us
    assert plant.state.laser_eps.hex() == reference.state.laser_eps.hex()
    assert plant.state.path_phases.tobytes() == reference.state.path_phases.tobytes()
    for stream in ("_rng_drift", "_rng_detector"):
        state = getattr(plant, stream).bit_generator.state
        assert state == getattr(reference, stream).bit_generator.state, stream


def calibration(delay_index, stepper, cfg, pm, rows):
    """The 23-step search one step at a time: each step's code is chosen
    just before it is measured, and an incumbent is replaced only by a
    strictly higher visibility. Returns (code, final visibility).
    Logs "wrap" in ``stepper.events`` for each scan point off a rail."""

    def step(index, code):
        c1, c2 = stepper.measure(delay_index, code, cfg.step_window_us)
        if c1 + c2 == 0:
            raise CalibrationAborted(
                f"zero total counts at calibration step {index} of delay {delay_index}"
            )
        vis = (c1 - c2) / (c1 + c2)
        rows.append((delay_index, index, code, c1, c2, vis))
        return vis

    def scan(first_step, center_code, offsets, best_visibility, best_code):
        center_v = dac_to_voltage(center_code, pm)
        for j, off in enumerate(offsets):
            v = center_v + off
            if not 0.0 <= v <= pm.v_max:
                stepper.events.append("wrap")
            code = voltage_to_code(wrap_into_span(v, pm), pm)
            vis = step(first_step + j, code)
            if vis > best_visibility:
                best_visibility, best_code = vis, code
        return best_visibility, best_code

    for k, ext in enumerate(QUADRATURE_PHASES):
        step(k + 1, voltage_to_code(voltage_for_phase(ext), pm))
    fractions = [c1 / (c1 + c2) for *_, c1, c2, _ in rows[-4:]]
    alpha_hat = least_squares_phase(fractions)
    pt1_code = phase_to_compensation_code(alpha_hat, pm)
    pt1_visibility = step(5, pt1_code)
    coarse = [(j - 4) * cfg.coarse_interval for j in range(9)]
    pt3 = scan(6, pt1_code, coarse, pt1_visibility, pt1_code)
    fine = [j * cfg.fine_interval for j in (-4, -3, -2, -1, 1, 2, 3, 4)]
    _, pt5_code = scan(15, pt3[1], fine, *pt3)
    final_visibility = step(23, pt5_code)
    return pt5_code, final_visibility


def stabilization_stage(stepper, calib_cfg, schedule, previous):
    """The stabilisation stage step by step, each slot idled to its end.
    Returns the table of 128 DAC codes, an aborted delay's code taken from
    ``previous``, and the ``CALIB_STEP`` rows, and logs each abort's
    message in ``stepper.events``. An aborted search's unused step windows
    are idled one at a time (stream v1.1)."""
    start_us = stepper.elapsed_us
    window_us = calib_cfg.step_window_us
    codes, rows = list(previous), []
    for index in range(NUM_DELAYS):
        slot_start = stepper.elapsed_us
        try:
            codes[index], _ = calibration(index, stepper, calib_cfg, stepper.config.pm, rows)
        except CalibrationAborted as exc:
            stepper.events.append(str(exc))
            while stepper.elapsed_us < slot_start + TOTAL_STEPS * window_us:
                stepper.idle(window_us)
        stepper.idle(slot_start + schedule.perm_slot_us - stepper.elapsed_us)
    stepper.idle(start_us + schedule.stab_duration_us - stepper.elapsed_us)
    return codes, np.array(rows, dtype=CALIB_STEP)


def qkd_stage(codes, stepper, schedule, rng_delay):
    """The QKD stage slot by slot: a delay draw, then its window."""
    rows = []
    for _ in range(schedule.qkd_slots):
        index = int(rng_delay.integers(0, NUM_DELAYS))
        c1, c2 = stepper.measure(index, codes[index], schedule.qkd_slot_us)
        vis = (c1 - c2) / (c1 + c2) if c1 + c2 > 0 else math.nan
        rows.append((index, c1, c2, vis))
    return np.array(rows, dtype=QKD_SLOT)


def csv_field(value):
    """A float field: six decimals, NaN as an empty field."""
    return "" if math.isnan(value) else f"{value:.6f}"


def calib_row(second, row, pm):
    """A calib_trace row tuple of a ``CALIB_STEP`` row."""
    delay_index, step_index, code, c1, c2, vis = row
    voltage = csv_field(dac_to_voltage(code, pm))
    return (second, delay_index, step_index, code, voltage, c1, c2, csv_field(vis))


def qkd_row(second, slot, row):
    """A qkd_trace row tuple of a ``QKD_SLOT`` row."""
    delay_index, c1, c2, vis = row
    return (second, slot, delay_index, c1, c2, csv_field(vis))


def summary_rows(per_delay):
    """The per_delay_summary row tuples of a ``DELAY_SUMMARY`` array."""
    columns = [per_delay[name].tolist() for name in PER_DELAY_HEADER]
    columns[2:] = [[csv_field(v) for v in column] for column in columns[2:]]
    return list(zip(*columns))


def csv_text(header, rows):
    """A CSV file's text, written by ``csv.writer`` with ``\\n`` line ends."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    return buffer.getvalue()
