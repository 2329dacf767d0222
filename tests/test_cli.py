import csv
import hashlib
from pathlib import Path

import pytest

from fringelock.cli import main

ZERO_NOISE_OVERRIDES = [
    "--set", "drift.path_walk_sigma=0",
    "--set", "drift.laser_ou_sigma=0",
    "--set", "drift.static_offsets=" + ",".join(["0"] * 128),
    "--set", "detector.shot_noise=false",
    "--set", "detector.dark_rate=0",
    "--set", "optics.contrast=1.0",
]


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


#: SHA-256 of `run --seconds 2 --seed 0` with the default config, taken
#: with Python 3.11.7 and numpy 2.4.6. A change here is an output change.
PINNED_DIGESTS = {
    "calib_trace.csv": "8d59816bffd2f7bf5d874d01e775e3d0c4ec911c235c9e2a48e6c7c48fad1a97",
    "qkd_trace.csv": "c132b079258f88a5f877757c05cb088b94e0467f279a6571e7419ad3febd5c25",
    "per_delay_summary.csv": "51aa75df3d6d90b5710c7d5f9d07473196d3d8a03b958b1e17bcb1ba445b7da7",
    "report.txt": "350111bd8402a7d4be9434186dd1853487a37c119435f045377ca936d2cd9963",
}


class TestRunCommand:
    def test_outputs_match_pinned_digests(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--seconds", "2", "--seed", "0", "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PINNED_DIGESTS
        }
        assert digests == PINNED_DIGESTS

    def test_zero_noise_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", "--seconds", "1", "--seed", "5", "--out", str(out), *ZERO_NOISE_OVERRIDES])
        assert code == 0
        rows = read_rows(out / "per_delay_summary.csv")
        assert len(rows) == 128
        assert all(r["mean_visibility"] == "1.000000" for r in rows)
        report = (out / "report.txt").read_text()
        assert "delays with mean visibility >= 0.96: 128/128 (100.0%)" in report
        assert "run" in capsys.readouterr().out

    def test_identical_seed_gives_identical_bytes(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", "--seconds", "1", "--seed", "11", "--out", str(out)]) == 0
        for name in ("calib_trace.csv", "qkd_trace.csv", "per_delay_summary.csv", "report.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_effective_config_reproduces_run(self, tmp_path):
        first = tmp_path / "first"
        assert main(["run", "--seconds", "1", "--seed", "19", "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main([
            "run", "--config", str(first / "effective_config.ini"), "--out", str(second),
        ]) == 0
        assert (first / "qkd_trace.csv").read_bytes() == (second / "qkd_trace.csv").read_bytes()
        assert (first / "per_delay_summary.csv").read_bytes() == (
            second / "per_delay_summary.csv"
        ).read_bytes()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--set", "run.bogus=1", "--out", str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_finite_value_exits_2_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--set", "drift.laser_ou_sigma=nan", "--out", str(out)]) == 2
        assert "[drift] laser_ou_sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_drift_phase_exits_2_naming_the_keys(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main([
            "run", "--seconds", "1", "--set", "drift.optical_freq_hz=1e308", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "true phase of delay 0 (0 ns) is not finite" in err
        assert "drift.optical_freq_hz" in err

    def test_dark_run_exits_2_and_keeps_outputs(self, tmp_path, capsys):
        out = tmp_path / "dark"
        code = main([
            "run", "--seconds", "1", "--out", str(out),
            "--set", "detector.input_rate=0", "--set", "detector.dark_rate=0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "no QKD slot counted a photon" in err
        assert "detector.input_rate" in err and "detector.dark_rate" in err
        assert "global mean visibility: nan" in (out / "report.txt").read_text()

    def test_calib_trace_schema(self, tmp_path):
        out = tmp_path / "run"
        main(["run", "--seconds", "1", "--seed", "5", "--out", str(out), *ZERO_NOISE_OVERRIDES])
        with open(out / "calib_trace.csv", newline="") as handle:
            header = handle.readline().strip()
        assert header == "second,delay_index,step_index,dac_code,voltage,c1,c2,visibility"
        with open(out / "qkd_trace.csv", newline="") as handle:
            assert handle.readline().strip() == "second,slot,delay_index,c1,c2,visibility"


class TestKeyrateCommand:
    def test_ideal_rate(self, capsys):
        assert main(["keyrate", "128", "1", "1.0", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "R = 0.933656" in out
        assert "e_bit threshold = 0.349539" in out

    def test_zero_detections(self, capsys):
        assert main(["keyrate", "128", "1", "0.0", "0.2"]) == 0
        assert "R = 0.000000" in capsys.readouterr().out

    def test_negative_beyond_threshold(self, capsys):
        assert main(["keyrate", "128", "1", "1.0", "0.35"]) == 0
        out = capsys.readouterr().out
        rate = float(out.splitlines()[0].split("=")[1])
        assert rate < 0.0

    def test_domain_error_exits_2(self, capsys):
        assert main(["keyrate", "128", "1", "1.0", "0.7"]) == 2
        assert "error" in capsys.readouterr().err


class TestSweepCommand:
    def test_zero_walk_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--param", "drift.path_walk_sigma", "--values", "0",
            "--seconds", "1", "--seed", "3", "--out", str(out),
            *ZERO_NOISE_OVERRIDES,
        ])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 1
        assert rows[0]["global_mean_visibility"] == "1.000000"

    def test_fine_interval_noiseless_ordering(self, tmp_path):
        # a finer grid can only improve the noiseless optimum
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--param", "calibration.fine_interval",
            "--values", "0.1,0.05,0.025",
            "--seconds", "1", "--seed", "8", "--out", str(out),
            "--set", "drift.path_walk_sigma=0",
            "--set", "drift.laser_ou_sigma=0",
            "--set", "detector.shot_noise=false",
            "--set", "detector.dark_rate=0",
            "--set", "detector.input_rate=1e10",
        ])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        values = [float(r["value"]) for r in rows]
        calib = [float(r["mean_calib_visibility"]) for r in rows]
        assert values == [0.1, 0.05, 0.025]
        assert calib[0] <= calib[1] <= calib[2]

    def test_mode_sweep_prefers_closed_loop(self, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--param", "run.mode", "--values", "open-loop,closed-loop",
            "--seconds", "3", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        rows = {r["value"]: float(r["global_mean_visibility"]) for r in read_rows(out / "sweep.csv")}
        assert rows["closed-loop"] > rows["open-loop"]

    def test_rejected_value_keeps_the_other_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--param", "drift.path_walk_sigma", "--values", "0.02,-1,0",
            "--seconds", "1", "--seed", "3", "--out", str(out),
            *ZERO_NOISE_OVERRIDES,
        ])
        assert code == 2
        rows = read_rows(out / "sweep.csv")
        assert [r["value"] for r in rows] == ["0.02", "-1", "0"]
        assert rows[0]["global_mean_visibility"] != ""
        assert list(rows[1].values())[2:] == ["", "", "", ""]
        assert rows[2]["global_mean_visibility"] == "1.000000"
        captured = capsys.readouterr()
        assert "drift.path_walk_sigma=-1: drift sigmas must be >= 0" in captured.err
        assert "drift.path_walk_sigma=0.02: global mean visibility" in captured.out

    def test_dark_value_is_a_failed_row(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--param", "detector.input_rate", "--values", "0,2.5e7",
            "--seconds", "1", "--seed", "3", "--out", str(out),
            "--set", "detector.dark_rate=0",
        ])
        assert code == 2
        rows = read_rows(out / "sweep.csv")
        assert [r["value"] for r in rows] == ["0", "2.5e7"]
        assert list(rows[0].values())[2:] == ["", "", "", ""]
        assert rows[1]["global_mean_visibility"] != ""
        err = capsys.readouterr().err
        assert "detector.input_rate=0: no QKD slot counted a photon" in err

    def test_unknown_parameter_exits_2(self, tmp_path, capsys):
        assert main([
            "sweep", "--param", "drift.warp_factor", "--values", "1",
            "--out", str(tmp_path / "s"),
        ]) == 2
        assert "error" in capsys.readouterr().err
