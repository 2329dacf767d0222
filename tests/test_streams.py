"""The stream canary: a few draws from a fixed seed through each NumPy call
the outputs rest on, pinned under ``PINNED_NUMPY``, the version the trace
digests and ``perfbench/pins.json`` were taken under. A digest that fails
on another NumPy fails here too, naming the call whose stream moved. Each
call draws from its own fresh generator, so one moved call does not move
another's values. Floats are pinned as ``float.hex``."""

import math
import tomllib
from pathlib import Path

import numpy as np

SEED = 2018

#: The NumPy the pins were taken under: pyproject.toml's floor and the one
#: version CI installs.
PINNED_NUMPY = "2.4.6"

#: The calls as the program makes them: ``iter_seconds`` spawns the plant's
#: and the delay draws' seeds and ``Plant`` spawns three more; the drift
#: draws normals in (windows, 129) blocks and its random offsets as 128
#: uniforms; the detector draws Poisson counts one by one in a search and
#: as an array in the QKD stage, at a locked port's mean of about 1.3 and
#: the other port's 500, either side of NumPy's switch of algorithm at 10;
#: the QKD stage draws its delays as 7-bit integers. Taken under ``PINNED_NUMPY``.
PINNED = {
    "SeedSequence.spawn, default_rng": [
        10925031483564400959, 6488465504791515299, 17308545113465709842, 5719500274459109164,
    ],
    "standard_normal((2, 3))": [
        "0x1.3ca6a8a177fddp-1", "0x1.3cec71fcb1b15p-2", "-0x1.7968ad29805c9p-2",
        "-0x1.148da45aa480fp+0", "-0x1.20ffb2cef5d61p-2", "-0x1.b107dcda90a9bp-2",
    ],
    "poisson(1.3)": [1, 2, 0, 2, 3, 1],
    "poisson(500.0)": [499, 472, 554, 483, 514, 489],
    "poisson(array of 1.3)": [1, 2, 0, 2, 3, 1],
    "poisson(array of 500.0)": [499, 472, 554, 483, 514, 489],
    "integers(0, 128, size=6)": [39, 62, 17, 22, 11, 116],
    "uniform(0, 2*pi, 128)[:4]": [
        "0x1.87fe345b2fa0bp+1", "0x1.204fddc8488cep+0", "0x1.6e2e08113d9f3p+2",
        "0x1.8ee3adb8b5f6cp+2",
    ],
}


def test_generator_calls_draw_the_pinned_values():
    def rng():
        return np.random.default_rng(SEED)

    plant_ss, delay_ss = np.random.SeedSequence(SEED).spawn(2)
    drawn = {
        "SeedSequence.spawn, default_rng": [
            int(np.random.default_rng(ss).bit_generator.random_raw())
            for ss in (delay_ss, *plant_ss.spawn(3))
        ],
        "standard_normal((2, 3))": [
            v.hex() for v in rng().standard_normal((2, 3)).ravel().tolist()
        ],
        # one generator per call, drawn from six times
        "poisson(1.3)": list(map(rng().poisson, [1.3] * 6)),
        "poisson(500.0)": list(map(rng().poisson, [500.0] * 6)),
        "poisson(array of 1.3)": rng().poisson(np.full(6, 1.3)).tolist(),
        "poisson(array of 500.0)": rng().poisson(np.full(6, 500.0)).tolist(),
        "integers(0, 128, size=6)": rng().integers(0, 128, size=6).tolist(),
        "uniform(0, 2*pi, 128)[:4]": [
            v.hex() for v in rng().uniform(0.0, 2.0 * math.pi, 128)[:4].tolist()
        ],
    }
    moved = [call for call, values in PINNED.items() if drawn[call] != values]
    held = f"moved: {'; '.join(moved)}" if moved else f"all {len(PINNED)} calls held"
    # CI's log keeps this line for each leg
    print(f"[canary] numpy {np.__version__}: {held}", flush=True)
    assert not moved, (
        f"numpy {np.__version__} draws values other than those pinned under numpy {PINNED_NUMPY} "
        f"in: {'; '.join(moved)}"
    )


def test_toolchain_is_the_one_the_pins_were_taken_under():
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    numpy = [dep for dep in project["dependencies"] if dep.startswith("numpy")]
    assert (project["requires-python"], numpy) == (">=3.11", [f"numpy>={PINNED_NUMPY}"])
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    installs = [line for line in workflow.splitlines() if "pip install" in line]
    assert len(installs) == 1 and f"numpy=={PINNED_NUMPY}" in installs[0], installs
