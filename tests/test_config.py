import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from fringelock.cli import main
from fringelock.config import SCHEMA, load_config, write_config
from fringelock.controller import MODES, RunSettings

README = Path(__file__).resolve().parent.parent / "README.md"
FLOAT_TYPES = (float, str | tuple[float, ...])


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern that matches ``message`` and nothing more."""
    return f"^{re.escape(message)}$"


class TestLoadConfig:
    def test_defaults_without_file(self):
        settings = load_config(None)
        assert settings == RunSettings()
        assert settings.output_dir == "out"

    def test_file_values_override_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nseconds = 5\nseed = 42\nmode = open-loop\n"
            "[drift]\npath_walk_sigma = 0.0\n"
            "[calibration]\nfine_interval = 0.05\n"
        )
        settings = load_config(path)
        assert settings.seconds == 5
        assert settings.seed == 42
        assert settings.mode == "open-loop"
        assert settings.plant.drift.path_walk_sigma == 0.0
        assert settings.calibration.fine_interval == 0.05

    def test_set_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseconds = 5\n")
        settings = load_config(path, overrides=["run.seconds=9", "pm.v_max=12.5"])
        assert settings.seconds == 9
        assert settings.plant.pm.v_max == 12.5

    def test_bad_value_rejected(self):
        message = (
            "bad value for [run] seconds: 'soon' (invalid literal for int() with base 10: 'soon')"
        )
        with pytest.raises(ValueError, match=exactly(message)):
            load_config(None, overrides=["run.seconds=soon"])

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "absent.ini"
        with pytest.raises(ValueError, match=exactly(f"cannot read config file {path}")):
            load_config(path)

    def test_offsets_accept_random_or_list(self):
        for spelling in ("random", "RANDOM"):
            settings = load_config(None, overrides=[f"drift.static_offsets={spelling}"])
            assert settings.plant.drift.static_offsets == "random"
        explicit = ",".join(["0.5"] * 128)
        settings = load_config(None, overrides=[f"drift.static_offsets={explicit}"])
        assert settings.plant.drift.static_offsets == tuple([0.5] * 128)

    def test_boolean_spellings(self):
        for spelling, value in [("true", True), ("Yes", True), ("ON", True), ("1", True),
                                ("FALSE", False), ("no", False), ("Off", False), ("0", False)]:
            settings = load_config(None, overrides=[f"detector.shot_noise={spelling}"])
            assert settings.plant.detector.shot_noise is value, spelling

    def test_set_strips_the_value_as_a_file_does(self, tmp_path):
        # configparser strips around a file's `=`; `--set` takes the same padding
        path = tmp_path / "run.ini"
        path.write_text("[run]\nmode = open-loop\n")
        assert load_config(None, overrides=["run.mode = open-loop"]) == load_config(path)
        assert load_config(path).mode == "open-loop"


class TestValueErrors:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section,key", [k for k, (_, kind) in SCHEMA.items() if kind in FLOAT_TYPES]
    )
    def test_non_finite_float_rejected_naming_the_key(self, section, key, bad):
        kind = SCHEMA[(section, key)][1]
        raw = bad if kind is float else ",".join(["0.5"] * 127 + [bad])
        with pytest.raises(ValueError, match=re.escape(f"[{section}] {key}")):
            load_config(None, overrides=[f"{section}.{key}={raw}"])

    @pytest.mark.parametrize(
        "override",
        ["detector.shot_noise=maybe", "drift.static_offsets=0,x,1,2", "run.seconds=soon"],
    )
    def test_parse_errors_name_the_key(self, override):
        section, key = override.split("=")[0].split(".")
        with pytest.raises(ValueError, match=re.escape(f"[{section}] {key}")):
            load_config(None, overrides=[override])


def readme_config_block() -> dict[tuple[str, str], str]:
    """``(section, key) -> value`` from the README's ``ini`` block."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    entries = {}
    for section, body in re.findall(r"^\[(\w+)\]([^[]*)", block, re.M):
        for key, value in re.findall(r"(\w+)=(.*?)(?=,\s*\w+=|,?\s*\Z)", body, re.S):
            entries[(section, key)] = re.sub(r"\s*\(.*\)$", "", value.strip())
    return entries


def test_readme_config_block_matches_schema():
    # a removed key cannot linger in the docs, nor a new one stay out of them
    assert set(readme_config_block()) == set(SCHEMA)


def test_readme_config_block_states_the_defaults():
    for (section, key), value in readme_config_block().items():
        assert load_config(None, [f"{section}.{key}={value}"]) == RunSettings(), (section, key)


def _floats(lo: float, hi: float, **kwargs) -> st.SearchStrategy[float]:
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


# one strategy of valid values per schema key; each keeps the others valid
ROUND_TRIP_VALUES = {
    ("run", "seconds"): st.integers(1, 10**6),
    ("run", "mode"): st.sampled_from(MODES),
    ("run", "seed"): st.integers(0, 2**64 - 1),
    ("run", "output_dir"): st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True),
    ("schedule", "stab_duration_us"): st.sampled_from([340_000, 400_000]),
    ("schedule", "perm_slot_us"): st.sampled_from([2_500, 2_600]),
    ("schedule", "switch_rate_hz"): st.sampled_from([100, 1_000, 10_000, 50_000]),
    ("pm", "v_max"): _floats(8.0, 20.0),
    ("pm", "dac_bits"): st.integers(1, 32),
    ("detector", "dark_rate"): _floats(0.0, 1e9),
    ("detector", "input_rate"): _floats(0.0, 1e12),
    ("detector", "shot_noise"): st.booleans(),
    ("optics", "contrast"): _floats(0.0, 1.0),
    ("drift", "laser_ou_sigma"): _floats(0.0, 1e-3),
    ("drift", "laser_ou_tau"): _floats(1e-6, 1e6),
    ("drift", "path_walk_sigma"): _floats(0.0, 10.0),
    ("drift", "static_offsets"): st.one_of(
        st.just("random"), st.lists(_floats(-100.0, 100.0), min_size=128, max_size=128)
    ),
    ("calibration", "coarse_interval"): _floats(1e-6, 10.0),
    ("calibration", "fine_interval"): _floats(1e-6, 10.0),
    ("calibration", "step_window_us"): st.integers(1, 108),
}


def _raw(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def schema_overrides(draw, values=ROUND_TRIP_VALUES) -> list[str]:
    keys = draw(st.lists(st.sampled_from(list(values)), unique=True))
    return [f"{section}.{key}={_raw(draw(values[(section, key)]))}" for section, key in keys]


class TestRoundTripProperty:
    def test_strategies_cover_the_schema(self):
        assert set(ROUND_TRIP_VALUES) == set(SCHEMA)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(overrides=schema_overrides())
    @example(overrides=[
        "run.seconds=7", "run.seed=123", "drift.laser_ou_sigma=3.3e-09",
        "detector.shot_noise=false", "calibration.fine_interval=0.0125", "run.output_dir=outdir",
    ])
    @example(overrides=["drift.static_offsets=" + ",".join(str(0.01 * i) for i in range(128))])
    def test_echo_reloads_to_equal_settings_and_bytes(self, tmp_path, overrides):
        loaded = load_config(None, overrides)
        first, second = tmp_path / "first.ini", tmp_path / "second.ini"
        write_config(loaded, first)
        reloaded = load_config(first)
        assert reloaded == loaded
        write_config(reloaded, second)
        assert second.read_bytes() == first.read_bytes()


# the round-trip values, bounded so that one second runs in well under a
# second, plus drift magnitudes up to the float range, where the true phase
# overflows and the run must end with exit 2
RUN_VALUES = {
    **ROUND_TRIP_VALUES,
    ("schedule", "switch_rate_hz"): st.sampled_from([100, 1_000, 10_000, 20_000]),
    ("detector", "dark_rate"): _floats(0.0, 1e7),
    ("detector", "input_rate"): _floats(0.0, 1e10),
    ("drift", "laser_ou_sigma"): st.one_of(_floats(0.0, 1e-3), _floats(0.0, 1.7e308)),
    ("drift", "path_walk_sigma"): st.one_of(_floats(0.0, 10.0), _floats(0.0, 1e300)),
}


class TestAcceptedConfigsRun:
    def test_strategies_cover_the_schema(self):
        assert set(RUN_VALUES) == set(SCHEMA)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(overrides=schema_overrides(RUN_VALUES))
    def test_one_second_exits_0_or_2(self, tmp_path_factory, overrides):
        # exit 1 is a runtime fault: an accepted config must run or be
        # rejected with a message, never crash
        try:
            load_config(None, overrides)
        except ValueError:
            reject()
        out = tmp_path_factory.mktemp("run")
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main(["run", "--seconds", "1", "--out", str(out), *sets]) in (0, 2)
