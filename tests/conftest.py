from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from fringelock.calibration import CALIB_STEP
from fringelock.config import load_config
from fringelock.controller import QKD_SLOT, RunSettings, run_experiment
from fringelock.drift import DriftConfig
from fringelock.hardware import V_PI, DetectorConfig, PmConfig
from fringelock.plant import Plant, PlantConfig
from fringelock.reporting import render_report, write_summary

# the shared reference model's asserts report like a test's, and survive python -O
pytest.register_assert_rewrite("reference_model")

ZERO_OFFSETS = tuple([0.0] * 128)

#: SHA-256 of `run --seconds 2 --seed 0` with the default config, taken
#: with Python 3.11.7 and numpy 2.4.6. A change here is an output change.
PINNED_DIGESTS = {
    "calib_trace.csv": "8d59816bffd2f7bf5d874d01e775e3d0c4ec911c235c9e2a48e6c7c48fad1a97",
    "qkd_trace.csv": "c132b079258f88a5f877757c05cb088b94e0467f279a6571e7419ad3febd5c25",
    "per_delay_summary.csv": "51aa75df3d6d90b5710c7d5f9d07473196d3d8a03b958b1e17bcb1ba445b7da7",
    "report.txt": "350111bd8402a7d4be9434186dd1853487a37c119435f045377ca936d2cd9963",
}
#: The same run's SHA-256 of each second's trace lines (``first_second_mismatch``).
PINNED_SECOND_DIGESTS = {
    "calib_trace.csv": (
        "cf66abe5a40566f1e377965ff496153911008a1d2432460af1d2c65ccab08f58",
        "657c4d59fac75b41678e1364a9296d5d2c3acec9454e26e892baad515fc26574",
    ),
    "qkd_trace.csv": (
        "5b20d2ec3edba72766b216c168c182fcd71da228bf7125c3c39691f2e18306f2",
        "de1b5ad4d9401ca5bbbfeff3088604a26ebeb02f29ebd7c5136aebad6a61d6ee",
    ),
}


def circular_diff(a: float, b: float) -> float:
    """Signed phase difference a - b mapped to (-pi, pi]."""
    d = math.fmod(a - b, 2.0 * math.pi)
    if d <= -math.pi:
        d += 2.0 * math.pi
    elif d > math.pi:
        d -= 2.0 * math.pi
    return d


def quiet_drift(offsets=ZERO_OFFSETS) -> DriftConfig:
    return DriftConfig(laser_ou_sigma=0.0, path_walk_sigma=0.0, static_offsets=offsets)


def noiseless_plant(
    offsets=ZERO_OFFSETS,
    contrast: float = 1.0,
    input_rate: float = 1e10,
    seed: int = 0,
) -> Plant:
    """Deterministic plant: no drift, no shot noise, no dark counts.

    The default input rate makes count quantization (~1e-5 in visibility)
    negligible against every tolerance asserted on noiseless searches.
    """
    return Plant(
        PlantConfig(
            detector=DetectorConfig(
                input_rate=input_rate, dark_rate=0.0, shot_noise=False
            ),
            drift=quiet_drift(offsets),
            contrast=contrast,
        ),
        entropy=seed,
    )


def zero_noise_settings(**overrides) -> RunSettings:
    """Experiment settings whose runs are exactly reproducible by hand."""
    base = RunSettings(
        plant=PlantConfig(
            detector=DetectorConfig(shot_noise=False, dark_rate=0.0),
            drift=quiet_drift(),
            contrast=1.0,
        ),
    )
    return replace(base, **overrides) if overrides else base


@st.composite
def pm_configs(draw):
    """A drive chain with 1-, 16- or 63-bit codes, on the default 0-10 V span
    or on a drawn one of at least 2*V_PI."""
    dac_bits = draw(st.sampled_from([1, 16, 63]))
    if draw(st.booleans()):
        return PmConfig(dac_bits=dac_bits)
    return PmConfig(v_max=draw(st.floats(2.0 * V_PI, 200.0)), dac_bits=dac_bits)


def _read_trace(path: Path, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """A trace's "second" column and its rows as a ``dtype`` array. The
    visibility is recomputed from c1 and c2, NaN at zero counts, as the run
    computed it; the trace's six-decimal field is not read."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    names = header.split(",")
    fields = [line.split(",") for line in lines]

    def column(name):
        at = names.index(name)
        return np.array([int(row[at]) for row in fields], dtype=np.int64)

    rows = np.empty(len(fields), dtype=dtype)
    for name in dtype.names[:-1]:  # the visibility is last
        rows[name] = column(name)
    total = rows["c1"] + rows["c2"]
    rows["visibility"] = np.divide(
        rows["c1"] - rows["c2"], total, out=np.full(len(rows), math.nan), where=total > 0
    )
    return column("second"), rows


def read_traces(out_dir: Path):
    """A run's seconds read back from its two traces, as ``iter_seconds``
    yields them: (second, ``CALIB_STEP`` rows, ``QKD_SLOT`` rows)."""
    calib_seconds, steps = _read_trace(out_dir / "calib_trace.csv", CALIB_STEP)
    qkd_seconds, slots = _read_trace(out_dir / "qkd_trace.csv", QKD_SLOT)
    # every second switches at least one QKD slot
    for second in range(int(qkd_seconds.max()) + 1):
        yield second, steps[calib_seconds == second], slots[qkd_seconds == second]


def traces_rebuild_outputs(out_dir: Path) -> bool:
    """Whether the fold over a finished run's traces, under its echoed
    settings, gives its report.txt and per_delay_summary.csv byte for byte."""
    report = run_experiment(load_config(out_dir / "effective_config.ini"), read_traces(out_dir))
    rebuilt = out_dir.parent / f"{out_dir.name}_rebuilt_summary.csv"
    write_summary(report, rebuilt)
    return (
        render_report(report).encode("utf-8") == (out_dir / "report.txt").read_bytes()
        and rebuilt.read_bytes() == (out_dir / "per_delay_summary.csv").read_bytes()
    )


def first_second_mismatch(out_dir: Path, pinned: dict[str, tuple[str, ...]]) -> str | None:
    """Where a run's traces first leave ``pinned``, each trace's SHA-256 per
    second of its lines (header excluded): the first second, and in it the
    first trace in ``pinned``'s order, whose digest differs, and the line
    that second starts at. A digest cannot tell which of a second's lines
    differs. None when every second of every trace matches."""
    rows = {}  # (second, trace) -> [(line number, line)]
    for name in pinned:
        _, *lines = (out_dir / name).read_bytes().splitlines(keepends=True)
        for number, line in enumerate(lines, 2):
            rows.setdefault((int(line.split(b",", 1)[0]), name), []).append((number, line))
    seconds = max([len(digests) for digests in pinned.values()] + [s + 1 for s, _ in rows])
    nothing = hashlib.sha256().hexdigest()  # a second past the pinned ones has no lines
    for second in range(seconds):
        for name, digests in pinned.items():
            lines = rows.get((second, name), [])
            digest = hashlib.sha256(b"".join(line for _, line in lines)).hexdigest()
            if digest != (digests[second] if second < len(digests) else nothing):
                start = f"line {lines[0][0]}: {lines[0][1].decode().rstrip()}" if lines else "no line"
                return f"{name} second {second} differs from its pinned SHA-256; it starts at {start}"
    return None
