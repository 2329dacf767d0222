from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from fringelock.calibration import CALIB_STEP
from fringelock.cli import main
from fringelock.config import load_config
from fringelock.controller import QKD_SLOT, RunSettings, run_experiment
from fringelock.drift import DriftConfig
from fringelock.hardware import V_PI, DetectorConfig, PmConfig
from fringelock.plant import Plant, PlantConfig
from fringelock.reporting import render_report, write_summary

# the shared reference model's asserts report like a test's, and survive python -O
pytest.register_assert_rewrite("reference_model")

ZERO_OFFSETS = tuple([0.0] * 128)

#: The pinned runs of the output contract, taken with Python 3.11.7 and
#: numpy 2.4.6 (``test_streams.PINNED_NUMPY``) under drift stream v1.1:
#: each run's CLI arguments before ``--out``, the SHA-256 of each of its
#: output files, and the SHA-256 of each second's lines of each trace
#: (``first_second_mismatch``). A change here is an output change;
#: ``pinned_run_faults`` checks a run against them.
PINNED_RUNS = {
    # the default config over two seconds
    "default": {
        "args": ["run", "--seconds", "2", "--seed", "0"],
        "files": {
            "calib_trace.csv": "8d59816bffd2f7bf5d874d01e775e3d0c4ec911c235c9e2a48e6c7c48fad1a97",
            "qkd_trace.csv": "c132b079258f88a5f877757c05cb088b94e0467f279a6571e7419ad3febd5c25",
            "per_delay_summary.csv": "51aa75df3d6d90b5710c7d5f9d07473196d3d8a03b958b1e17bcb1ba445b7da7",
            "report.txt": "350111bd8402a7d4be9434186dd1853487a37c119435f045377ca936d2cd9963",
        },
        "seconds": {
            "calib_trace.csv": ("cf66abe5a40566f1e377965ff496153911008a1d2432460af1d2c65ccab08f58",
                                "657c4d59fac75b41678e1364a9296d5d2c3acec9454e26e892baad515fc26574"),
            "qkd_trace.csv": ("5b20d2ec3edba72766b216c168c182fcd71da228bf7125c3c39691f2e18306f2",
                              "de1b5ad4d9401ca5bbbfeff3088604a26ebeb02f29ebd7c5136aebad6a61d6ee"),
        },
    },
    # 1e5 photons/s with no dark counts: 123 of its 128 calibrations abort,
    # keeping partial step traces of 0 to 21 rows, so the abort path is pinned too
    "low-light-aborts": {
        "args": ["run", "--seconds", "1", "--seed", "0", "--set", "detector.input_rate=100000",
                 "--set", "detector.dark_rate=0"],
        "files": {
            "calib_trace.csv": "6359771a87334f1cc7035c6857ccbdc5ae8bb34c80ee5d43fb2daef255544cf6",
            "qkd_trace.csv": "0e49f861514d954cacc4f1431bb51d5de05fdcc84b07f545126bb6f68d4146fa",
            "per_delay_summary.csv": "4b2934174f0bed649fcfce4826ee48332728900e7e6244adb76e2c8288dd6cf5",
            "report.txt": "9db03193ed54dca0f507bc64caf6d6776066447575a61ac8f9b96931e5c36209",
        },
        "seconds": {
            "calib_trace.csv": ("d1e1c3f30eda94e80f07127bf96b07203710f967b8d8e68773a6086836551ffb",),
            "qkd_trace.csv": ("223e9cbdaa19e122fb1d6decc2b1992fad0d91afa6001d61fe03052e22410499",),
        },
    },
    # 2300 us permutation slots: 23 steps of 100 us fill each slot, so no pad is drawn
    "no-pad": {
        "args": ["run", "--seconds", "1", "--seed", "0", "--set", "schedule.perm_slot_us=2300"],
        "files": {
            "calib_trace.csv": "253f928d2038269be4c1578da8786ad7002a40c283c415873b7067e18639897a",
            "qkd_trace.csv": "a5985fd6df29af569569aa4e6929b04f001a989986d15a5edb80abd5b35347cb",
            "per_delay_summary.csv": "a8b6743c791810fa2d2d2ce10db53ed3f6343895917d8197398820fc87e51a52",
            "report.txt": "dab317e19350ee645539b3f559d04450439d68532532e9fa993bb674aed55bef",
        },
        "seconds": {
            "calib_trace.csv": ("71700b6d5fe822258bf4b6f2db422dce7469cee5212a8eaab704fa4abf25b7f1",),
            "qkd_trace.csv": ("15aec3ef29f4e36f748fd49d6095b27176ffa22da654740586599c110b716f8f",),
        },
    },
    # 108 us calibration steps: each 2500 us slot ends in a 16 us pad
    "odd-window": {
        "args": ["run", "--seconds", "1", "--seed", "0", "--set", "calibration.step_window_us=108"],
        "files": {
            "calib_trace.csv": "78b632db4724c35dc456ba164f704fcf417b30ea58b3ccb3ee3b4b70035a0137",
            "qkd_trace.csv": "d18a38f5fdefabbe75fde8876c2436b5f1cfbd821755e5f2ac94909cb8bfd619",
            "per_delay_summary.csv": "8ffdb6447a2fdb23fe36176c13f3ef214977202f9d9a19517527cb800cede502",
            "report.txt": "4f0d09b99bc98555c9354c63ad70fd68c1f474748af256a2b438c9fe16b51ad2",
        },
        "seconds": {
            "calib_trace.csv": ("c48b58ba59b3e504937bded30eeb5593f926833185ee79f19f09255dd5c33a68",),
            "qkd_trace.csv": ("2da48c023acd424215652941680d0393269442c0e070ab993fdf204133e106fc",),
        },
    },
    # a 320 ms stabilization stage: its 128 slots of 2500 us fill it, so no tail is idled
    "no-tail": {
        "args": ["run", "--seconds", "1", "--seed", "0",
                 "--set", "schedule.stab_duration_us=320000"],
        "files": {
            "calib_trace.csv": "68bfbb983f990b31c528609887f49aa88511dffdaba8445b9ff102040585a9ce",
            "qkd_trace.csv": "3b6985d6686e38a7bcc6410ab3ca83be44ff7f94cc280e548747b53ea94c4126",
            "per_delay_summary.csv": "8a3e6c451db1226af1810360a192147cc095e25b4c602dc2c20d878ace490627",
            "report.txt": "1a37fd5caeee6b572fd230c49f331261dfecb7775a23d88891478ff62a878a25",
        },
        "seconds": {
            "calib_trace.csv": ("cf66abe5a40566f1e377965ff496153911008a1d2432460af1d2c65ccab08f58",),
            "qkd_trace.csv": ("55883a6489a82e865f5545ef107a4e897a7d092c03dd7d40273a5a98bc6c22bf",),
        },
    },
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


def noiseless_plant(offsets=ZERO_OFFSETS, input_rate: float = 1e10) -> Plant:
    """Deterministic plant: no drift, no shot noise, no dark counts, full contrast.

    The default input rate makes count quantization (~1e-5 in visibility)
    negligible against every tolerance asserted on noiseless searches.
    """
    detector = DetectorConfig(input_rate=input_rate, dark_rate=0.0, shot_noise=False)
    return Plant(PlantConfig(detector=detector, drift=quiet_drift(offsets), contrast=1.0), entropy=0)


def zero_noise_settings() -> RunSettings:
    """Experiment settings whose runs are exactly reproducible by hand."""
    detector = DetectorConfig(shot_noise=False, dark_rate=0.0)
    return RunSettings(plant=PlantConfig(detector=detector, drift=quiet_drift(), contrast=1.0))


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


def pinned_run_faults(out_dir: Path, name: str) -> list[str]:
    """Each way the run in ``out_dir`` leaves ``PINNED_RUNS[name]``, one
    message per fault; [] when each output file's SHA-256 and each second of
    each trace hold, its traces rebuild its summaries, and a rerun from its
    effective_config.ini, into a sibling directory, gives the pinned files."""
    files = PINNED_RUNS[name]["files"]

    def moved(run: Path) -> list[str]:
        return [file for file, digest in files.items()
                if hashlib.sha256((run / file).read_bytes()).hexdigest() != digest]

    faults = [f"{file} differs from its pinned SHA-256" for file in moved(out_dir)]
    second = first_second_mismatch(out_dir, PINNED_RUNS[name]["seconds"])
    if second is not None:
        faults.append(second)
    if not traces_rebuild_outputs(out_dir):
        faults.append("its traces do not rebuild report.txt and per_delay_summary.csv")
    rerun = out_dir.parent / f"{out_dir.name}_rerun"
    code = main(["run", "--config", str(out_dir / "effective_config.ini"), "--out", str(rerun)])
    rerun_moved = moved(rerun) if code == 0 else list(files)
    if rerun_moved:
        faults.append(f"a rerun from effective_config.ini (exit {code}) leaves the pins in: "
                      + ", ".join(rerun_moved))
    return faults
