import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fringelock.cli import main
from fringelock.controller import QKD_SLOT

from conftest import PINNED_RUNS, pinned_run_faults

def _sets(*items: str) -> list[str]:
    """``--set`` each of ``items``."""
    return [arg for item in items for arg in ("--set", item)]


ZERO_NOISE_OVERRIDES = _sets(
    "drift.path_walk_sigma=0", "drift.laser_ou_sigma=0",
    "drift.static_offsets=" + ",".join(["0"] * 128), "detector.shot_noise=false",
    "detector.dark_rate=0", "optics.contrast=1.0",
)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


REPO_ROOT = Path(__file__).resolve().parents[1]


def run_in_ascii_locale(*args: str | bytes, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run the CLI in the C locale, UTF-8 mode and locale coercion off: its
    encoding is ASCII, so non-ASCII argv bytes arrive as surrogates."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    code = "import sys; from fringelock.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, errors="backslashreplace", timeout=120)


#: SHA-256 of the effective_config.ini a bare `fringelock run` writes into
#: ./out: every key in SCHEMA's echo order, output_dir = out included.
DEFAULT_ECHO_DIGEST = "72aaa11bd1ad4f7864daa9ca5b290655ff32d423701b25cec5bb941b5358f1d5"

_GAPPED = ",".join(["0"] * 64) + ",," + ",".join(["0"] * 64)

#: (the test this row was, run arguments, the whole stderr line after "error: ")
_REJECTED = [
    ("test_bad_config_exits_2", _sets("run.bogus=1"), "unknown configuration key [run] bogus"),
    ("test_undotted_key_exits_2", _sets("seed=3"),
     "a configuration key must look like section.key, got 'seed'"),
    ("test_override_without_value_exits_2", _sets("run.seed"),
     "override must look like section.key=value, got 'run.seed'"),
    ("test_non_finite_value_exits_2_naming_the_key", _sets("drift.laser_ou_sigma=nan"),
     "bad value for [drift] laser_ou_sigma: 'nan' (expected a finite number, got 'nan')"),
    ("test_negative_seed_exits_2_naming_the_key", ["--seed", "-1"],
     "run.seed must be a non-negative integer, got -1"),
    *((f"test_dac_wider_than_int64_codes_exits_2_naming_the_key-{bits}",
       _sets(f"pm.dac_bits={bits}"), f"pm.dac_bits must be at most 63 (int64 codes), got {bits}")
      for bits in (64, 2000)),
    ("test_overflowing_dac_transfer_exits_2_naming_the_keys-pi-times-span",
     _sets("pm.dac_bits=1", "pm.v_max=1e308"),
     "DAC transfer overflows: pm.v_max = 1e+308 V times the full-scale code 1 "
     "(pm.dac_bits = 1), or times pi, is not finite"),
    ("test_overflowing_dac_transfer_exits_2_naming_the_keys-code-times-span",
     _sets("pm.v_max=1e308"),
     "DAC transfer overflows: pm.v_max = 1e+308 V times the full-scale code 65535 "
     "(pm.dac_bits = 16), or times pi, is not finite"),
    *((f"test_overflowing_scan_interval_exits_2_naming_the_key-{key}",
       _sets(f"calibration.{key}=1e308"),
       f"calibration.{key} = 1e+308 V puts scan points past the float range around the DAC span "
       "[0, 10.0] V") for key in ("coarse_interval", "fine_interval")),
    *((f"test_counts_past_int64_exit_2_naming_the_keys-{case}", _sets(*overrides),
       f"{counts} expected counts per 100 us window exceed 2**62; lower detector.input_rate "
       "or detector.dark_rate") for case, overrides, counts in [
        ("input-rate", ["detector.input_rate=1e300"], "2e+295"),
        ("input-rate-no-shot-noise", ["detector.input_rate=1e300", "detector.shot_noise=false"],
         "2e+295"),
        ("dark-rate", ["detector.dark_rate=1e300"], "2e+296"),
        ("5e23-no-shot-noise", ["detector.input_rate=5e23", "detector.shot_noise=false"], "1e+19"),
    ]),
    # 129 fields, one of them empty, are not 128 offsets
    ("test_empty_offset_field_exits_2_naming_the_key", _sets(f"drift.static_offsets={_GAPPED}"),
     f"bad value for [drift] static_offsets: {_GAPPED!r} (could not convert string to float: '')"),
    # 23 steps of 109 us take 2507 us of the 2500 us permutation slot
    ("test_slot_overrun_exits_2_naming_both_keys", _sets("calibration.step_window_us=109"),
     "23 calibration steps of calibration.step_window_us = 109 us take 2507 us, more than the "
     "schedule.perm_slot_us = 2500 us permutation slot"),
    # each value a settings dataclass rejects leads its message with the key
    *((f"names-the-key-{'='.join(args).removeprefix('--set=')}", args, message)
      for args, message in [
        (["--seconds", "0"], "run.seconds must be >= 1, got 0"),
        (_sets("run.mode=sideways"),
         "run.mode must be one of ('closed-loop', 'open-loop'), got 'sideways'"),
        (_sets("schedule.stab_duration_us=0"),
         "schedule.stab_duration_us must be positive, got 0 us"),
        (_sets("schedule.perm_slot_us=0"), "schedule.perm_slot_us must be positive, got 0 us"),
        (_sets("schedule.perm_slot_us=2700"),
         "schedule.perm_slot_us = 2700 us: 128 slots do not fit the schedule.stab_duration_us = "
         "340000 us stabilization stage"),
        (_sets("schedule.switch_rate_hz=3"),
         "schedule.switch_rate_hz = 3 Hz must divide one second into whole-us slots"),
        (_sets("schedule.stab_duration_us=340050"),
         "schedule.stab_duration_us = 340050 us leaves 659950 us, not a whole number of "
         "schedule.switch_rate_hz = 10000 Hz slots"),
        (_sets("calibration.coarse_interval=0"),
         "calibration.coarse_interval must be positive, got 0.0"),
        (_sets("calibration.fine_interval=-1"),
         "calibration.fine_interval must be positive, got -1.0"),
        (_sets("calibration.step_window_us=0"),
         "calibration.step_window_us must be positive, got 0"),
        (_sets("drift.laser_ou_sigma=-1"), "drift.laser_ou_sigma must be >= 0, got -1.0"),
        (_sets("drift.path_walk_sigma=-1"), "drift.path_walk_sigma must be >= 0, got -1.0"),
        (_sets("drift.laser_ou_tau=0"), "drift.laser_ou_tau must be positive, got 0.0"),
        (_sets("drift.static_offsets=0,1"), "drift.static_offsets needs 128 entries, got 2"),
        *((_sets(f"pm.v_max={v_max}"), f"pm.v_max = {float(v_max)} V cannot cover a full 2*pi "
           "of phase (needs 2 * V_PI = 8.0 V)") for v_max in ("-1", "7.999", "7.999999999999999")),
        (_sets("pm.dac_bits=0"), "pm.dac_bits must be positive, got 0"),
        (_sets("detector.dark_rate=-1"), "detector.dark_rate must be >= 0, got -1.0"),
        (_sets("detector.input_rate=-1"), "detector.input_rate must be >= 0, got -1.0"),
        (_sets("optics.contrast=2"), "optics.contrast must lie in [0, 1], got 2.0"),
    ]),
]


class TestRunCommand:
    # the default run is A8's, in tests/test_acceptance.py
    @pytest.mark.parametrize("name", [name for name in PINNED_RUNS if name != "default"])
    def test_outputs_match_pinned_digests(self, tmp_path, name):
        out = tmp_path / "run"
        assert main([*PINNED_RUNS[name]["args"], "--out", str(out)]) == 0
        assert pinned_run_faults(out, name) == []

    def test_pinned_run_faults_name_each_tampering(self, tmp_path):
        # a checker that always passed would leave every pin test vacuous
        run = tmp_path / "run"
        assert main([*PINNED_RUNS["no-pad"]["args"], "--out", str(run)]) == 0
        rebuild = "its traces do not rebuild report.txt and per_delay_summary.csv"
        for case, (file, edit, faults) in enumerate([
            ("report.txt", lambda data: data, []),
            # in second 0, the first slot's visibility field, which the fold does not read
            ("qkd_trace.csv", lambda data: data.replace(b",0.", b",0.0", 1),
             ["qkd_trace.csv differs from its pinned SHA-256",
              "qkd_trace.csv second 0 differs from its pinned SHA-256"]),
            # the last bit of the last digit
            ("per_delay_summary.csv", lambda data: data[:-2] + bytes([data[-2] ^ 1]) + b"\n",
             ["per_delay_summary.csv differs from its pinned SHA-256", rebuild]),
            # report.txt names the seed
            ("effective_config.ini", lambda data: data.replace(b"\nseed = 0\n", b"\nseed = 1\n"),
             [rebuild, "a rerun from effective_config.ini (exit 0) leaves the pins in: "
              "calib_trace.csv, qkd_trace.csv, per_delay_summary.csv, report.txt"]),
        ]):
            copy = shutil.copytree(run, tmp_path / str(case))
            (copy / file).write_bytes(edit((copy / file).read_bytes()))
            assert [fault.split(";")[0] for fault in pinned_run_faults(copy, "no-pad")] == faults

    def test_zero_noise_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["run", "--seconds", "1", "--seed", "5", "--out", str(out), *ZERO_NOISE_OVERRIDES]
        assert main(argv) == 0
        rows = read_rows(out / "per_delay_summary.csv")
        assert len(rows) == 128
        assert all(r["mean_visibility"] == "1.000000" for r in rows)
        report = (out / "report.txt").read_text()
        assert "delays with mean visibility >= 0.96: 128/128 (100.0%)" in report
        stdout = capsys.readouterr().out
        assert "run" in stdout
        # stdout carries report.txt's exact text
        assert stdout == report + f"outputs written to {out}\n"

    def test_default_config_echo_is_pinned(self, tmp_path, monkeypatch):
        # the echo's bytes are part of the output contract
        monkeypatch.chdir(tmp_path)
        assert main(["run"]) == 0
        echo = (tmp_path / "out" / "effective_config.ini").read_bytes()
        assert hashlib.sha256(echo).hexdigest() == DEFAULT_ECHO_DIGEST

    @pytest.mark.parametrize(
        "args, message", [pytest.param(*row, id=name) for name, *row in _REJECTED]
    )
    def test_rejected_config_exits_2(self, tmp_path, capsys, args, message):
        # before any output: the exact message, and no output directory
        out = tmp_path / "x"
        assert main(["run", "--seconds", "1", "--out", str(out), *args]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("route", ["--set", "--config"])
    @pytest.mark.parametrize(
        "key",
        ["calibration.ext_phases", "schedule.qkd_duration_us", "detector.efficiency",
         "drift.optical_freq_hz", "calibration.accept_threshold", "pm.v_min", "pm.v_pi"],
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, key, route):
        # the presets are fixed, the QKD stage is the rest of the second, and
        # the detector efficiency, optical frequency, accept threshold, the
        # DAC's 0 V origin and the half-wave voltage are model constants
        section, name = key.split(".")
        (tmp_path / "c.ini").write_text(f"[{section}]\n{name} = 1\n")
        value = f"{key}=1" if route == "--set" else str(tmp_path / "c.ini")
        assert main(["run", route, value, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: unknown configuration key [{section}] {name}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[run]\nSeed = 3\n", "[run] Seed"),
            ("[DEFAULT]\nseed = 3\n", "[DEFAULT] seed"),
            ("[DEFAULT]\nseed = 3\n[run]\nseconds = 1\n", "[DEFAULT] seed"),
            ("[DEFAULT]\nseed = 3\n[drift]\npath_walk_sigma = 0.0\n", "[DEFAULT] seed"),
        ],
        ids=["key-case", "default-alone", "default-and-run", "default-and-drift"],
    )
    def test_config_file_takes_the_keys_set_takes(self, tmp_path, capsys, text, key):
        # keys are case-exact and [DEFAULT] is an ordinary section, which
        # the schema does not know
        (tmp_path / "c.ini").write_text(text)
        out = tmp_path / "x"
        assert main(["run", "--config", str(tmp_path / "c.ini"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: unknown configuration key {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("stab_us, code", [(400_000, 0), (1_000_000, 2), (1_500_000, 2)])
    def test_stabilization_stage_alone_sets_the_split(self, tmp_path, capsys, stab_us, code):
        # the QKD stage is the rest of the second, and there must be one
        out = tmp_path / "x"
        argv = ["run", "--set", f"schedule.stab_duration_us={stab_us}", "--out", str(out)]
        assert main(argv) == code
        if code == 0:
            assert len(read_rows(out / "qkd_trace.csv")) == (1_000_000 - stab_us) // 100
            assert "qkd_duration_us" not in (out / "effective_config.ini").read_text()
        else:
            assert capsys.readouterr().err == (
                f"error: schedule.stab_duration_us = {stab_us} us leaves no QKD stage in the "
                "one-second (1000000 us) frame\n"
            )

    @pytest.mark.parametrize(
        "data",
        [
            b"[run]\nseconds = 1\nseconds = 2\n",
            b"[run]\nseconds = 1\n[run]\nseed = 2\n",
            b"seconds = 1\n",
            b"[run]\nseconds\n",
            b"[run]\nseconds = 1\n# \xff\xfe\n",
        ],
        ids=["duplicate-key", "duplicate-section", "no-section-header", "key-without-value",
             "not-utf-8"],
    )
    def test_malformed_config_file_exits_2_naming_the_file(self, tmp_path, capsys, data):
        path = tmp_path / "broken.ini"
        path.write_bytes(data)
        out = tmp_path / "x"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not out.exists()

    def test_config_file_is_read_as_utf_8_under_an_ascii_locale(self, tmp_path):
        # every file the program writes is UTF-8, and so is every file it
        # reads, whatever the locale's encoding
        config = tmp_path / "c.ini"
        config.write_text("# r\u00e9glage\n[run]\nseed = 7\n", encoding="utf-8")
        out = tmp_path / "x"
        proc = run_in_ascii_locale("run", "--config", str(config), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "seed = 7\n" in (out / "effective_config.ini").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "args, named",
        [(["--out", b"r\xc3\xa9glage"], r"--out r\udcc3\udca9glage"),
         (["--set", b"run.output_dir=d\xc3\xa9"], r"run.output_dir d\udcc3\udca9")],
        ids=["--out", "run.output_dir"],
    )
    def test_output_path_not_utf_8_exits_2_under_an_ascii_locale(self, tmp_path, args, named):
        # the path's bytes arrive as surrogates, which the UTF-8 echo cannot
        # hold: the run stops before it makes any directory
        proc = run_in_ascii_locale("run", "--seconds", "1", *args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {named} is not UTF-8 text, so effective_config.ini cannot hold it\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", [" lead", "tab\t"], ids=["leading-space", "trailing-tab"])
    def test_output_path_with_outer_whitespace_exits_2(self, tmp_path, monkeypatch, capsys, out):
        # the echo's reader strips values, so it would name another
        # directory: the run stops before it makes any. A sweep writes no
        # echo and keeps the path as given
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--seconds", "1", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out!r} starts or ends with whitespace, "
            "so effective_config.ini cannot hold it\n"
        )
        assert list(tmp_path.iterdir()) == []
        sweep = ["sweep", "--param", "run.seed", "--values", "1", "--seconds", "1", "--out", out]
        assert main(sweep) == 0
        assert [p.name for p in tmp_path.iterdir()] == [out]
        assert (tmp_path / out / "sweep.csv").is_file()

    def test_non_finite_drift_phase_exits_2_naming_the_keys(self, tmp_path, capsys):
        # the first OU step pushes the laser term of every delay but 0 past
        # the float range; delay 1 is calibrated second
        out = tmp_path / "x"
        code = main([
            "run", "--seconds", "1", "--set", "drift.laser_ou_sigma=1e308", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: true phase of delay 1 (2 ns) is not finite; it scales with "
            "drift.laser_ou_sigma and drift.path_walk_sigma\n"
        )
        # the run keeps what it wrote before the fault: the echo and the
        # traces' header lines; no report.txt marks it unfinished
        assert sorted(p.name for p in out.iterdir()) == [
            "calib_trace.csv", "effective_config.ini", "qkd_trace.csv",
        ]
        assert (out / "calib_trace.csv").read_bytes() == (
            b"second,delay_index,step_index,dac_code,voltage,c1,c2,visibility\n"
        )
        assert (out / "qkd_trace.csv").read_bytes() == b"second,slot,delay_index,c1,c2,visibility\n"

    def test_faulted_rerun_keeps_no_earlier_results(self, tmp_path):
        # report.txt marks a finished run, so a rerun into the same directory
        # first removes the earlier run's report and summary
        out = tmp_path / "o"
        argv = ["run", "--seconds", "1", "--out", str(out)]
        assert main(argv) == 0
        assert main([*argv, *_sets("drift.laser_ou_sigma=1e308")]) == 2
        assert sorted(p.name for p in out.iterdir()) == [
            "calib_trace.csv", "effective_config.ini", "qkd_trace.csv",
        ]

    def test_runtime_fault_exits_1_and_keeps_outputs(self, tmp_path, monkeypatch, capsys):
        # a broken timing invariant is a fault of the program, not of the
        # input: exit 1, and the files written so far stay with no report.txt
        monkeypatch.setattr(
            "fringelock.controller.run_qkd_stage", lambda *args: np.zeros(0, QKD_SLOT)
        )
        out = tmp_path / "x"
        assert main(["run", "--seconds", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "runtime fault: clock skew: 340000 us after second 0\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "calib_trace.csv", "effective_config.ini", "qkd_trace.csv",
        ]
        # the faulted second's lines were written before the check raised
        header, *lines = (out / "calib_trace.csv").read_text(encoding="utf-8").splitlines()
        assert header == "second,delay_index,step_index,dac_code,voltage,c1,c2,visibility"
        assert len(lines) == 128 * 23 and all(line.startswith("0,") for line in lines)
        assert (out / "qkd_trace.csv").read_bytes() == b"second,slot,delay_index,c1,c2,visibility\n"

    def test_widest_finite_dac_span_runs(self, tmp_path):
        # the widest span whose 16-bit transfer stays finite; 1e308 is in _REJECTED
        assert main(["run", "--set", "pm.v_max=2e303", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("shot_noise", ["true", "false"])
    def test_counts_within_int64_still_run(self, tmp_path, shot_noise):
        # 2e18 expected counts per 100 us window, under the 2**62 limit
        assert main([
            "run", "--seconds", "1", "--out", str(tmp_path / "x"),
            "--set", "detector.input_rate=1e23", "--set", f"detector.shot_noise={shot_noise}",
        ]) == 0

    @pytest.mark.parametrize(
        "option, args",
        [("run.output_dir", ["--set", "run.output_dir= "]), ("--out", ["--out", ""])],
        ids=["run.output_dir", "--out"],
    )
    def test_empty_output_dir_exits_2(self, tmp_path, monkeypatch, capsys, option, args):
        # an empty name would put every output in the working directory
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--seconds", "1", *args]) == 2
        assert capsys.readouterr().err == f"error: {option} is empty; name an output directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_phase_just_under_two_pi_on_an_exact_span_runs(self, tmp_path):
        # a span of exactly 2*V_PI: a 7e-16 rad offset needs a compensation
        # just under 2*pi, whose voltage lies at or just under the 8 V rail
        out = tmp_path / "x"
        assert main(["run", "--seconds", "1", "--out", str(out), *_sets(
            "pm.v_max=8", "pm.dac_bits=63", "detector.input_rate=1e21",
            "detector.shot_noise=false", "detector.dark_rate=0", "drift.path_walk_sigma=0",
            "drift.laser_ou_sigma=0", "drift.static_offsets=" + ",".join(["7e-16"] * 128),
        )]) == 0
        report = (out / "report.txt").read_text()
        assert "delays with mean visibility >= 0.96: 128/128 (100.0%)" in report

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


class TestKeyrateCommand:
    def test_ideal_rate(self, capsys):
        assert main(["keyrate", "128", "1", "1.0", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "R = 0.933656" in out
        assert "e_bit threshold = 0.349539" in out

    @pytest.mark.parametrize("e_bit", ["0.2", "0.5"])
    def test_zero_detections(self, capsys, e_bit):
        # no detections give no key, never -0 (past the threshold the bracket is negative)
        assert main(["keyrate", "128", "1", "0.0", e_bit]) == 0
        assert "R = 0.000000" in capsys.readouterr().out.splitlines()

    def test_negative_beyond_threshold(self, capsys):
        assert main(["keyrate", "128", "1", "1.0", "0.35"]) == 0
        out = capsys.readouterr().out
        rate = float(out.splitlines()[0].split("=")[1])
        assert rate < 0.0

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param(["128", "1", "1.0", "0.7"], "e_bit must lie in [0, 0.5], got 0.7",
                         id="test_domain_error_exits_2"),
            pytest.param(["1" * 401, "1", "1", "0"],
                         "train length L must be at most 1.79769e+308 (a float)",
                         id="test_train_past_the_float_range_exits_2"),
            *(pytest.param(["128", "1", q, "0"], f"Q must be finite and >= 0, got {q}",
                           id=f"test_non_finite_q_exits_2-{q}") for q in ("nan", "inf")),
            pytest.param(["128", "70", "1", "0"],
                         "v_th must lie in (0, (L-1)/2] = (0, 63.5], got 70.0",
                         id="test_threshold_past_half_the_train_exits_2"),
        ],
    )
    def test_rejected_input_exits_2(self, capsys, args, message):
        # the whole message, and no rate
        assert main(["keyrate", *args]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSweepCommand:
    def test_fine_interval_noiseless_ordering(self, tmp_path):
        # a finer grid can only improve the noiseless optimum
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--param", "calibration.fine_interval",
            "--values", "0.1,0.05,0.025",
            "--seconds", "1", "--seed", "8", "--out", str(out),
            *_sets("drift.path_walk_sigma=0", "drift.laser_ou_sigma=0", "detector.shot_noise=false",
                   "detector.dark_rate=0", "detector.input_rate=1e10"),
        ]) == 0
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

    def test_swept_run_key_beats_the_shorthand(self, tmp_path):
        swept = tmp_path / "swept"
        assert main([
            "sweep", "--param", "run.seed", "--values", "1,2",
            "--seconds", "1", "--seed", "5", "--out", str(swept),
        ]) == 0
        rows = read_rows(swept / "sweep.csv")
        assert [r["seed"] for r in rows] == ["1", "2"]
        assert rows[0]["global_mean_visibility"] != rows[1]["global_mean_visibility"]
        # --seed alone still sets every row's seed, over a --set of run.seed
        base = tmp_path / "base"
        assert main([
            "sweep", "--param", "drift.path_walk_sigma", "--values", "0.01,0.02",
            "--seconds", "1", "--seed", "5", "--set", "run.seed=9", "--out", str(base),
        ]) == 0
        assert [r["seed"] for r in read_rows(base / "sweep.csv")] == ["5", "5"]

    @pytest.mark.parametrize(
        "param, values, args, expected, message",
        [
            ("drift.path_walk_sigma", "0.02,-1,0", ["--seed", "3", *ZERO_NOISE_OVERRIDES],
             [("0.02", "3", None), ("-1", None, None), ("0", "3", "1.000000")],
             "drift.path_walk_sigma must be >= 0, got -1.0"),
            ("run.seed", "1,-1", [], [("1", "1", None), ("-1", None, None)],
             "run.seed must be a non-negative integer, got -1"),
            ("detector.input_rate", "0,2.5e7", ["--seed", "3", *_sets("detector.dark_rate=0")],
             [("0", None, None), ("2.5e7", "3", None)], "no QKD slot counted a photon"),
        ],
        ids=["test_rejected_value_keeps_the_other_rows", "test_negative_seed_is_a_failed_row",
             "test_dark_value_is_a_failed_row"],
    )
    def test_failed_value_keeps_the_other_rows(
        self, tmp_path, capsys, param, values, args, expected, message
    ):
        # each expected row is (value, seed, visibility): seed None for the
        # failed value, whose columns stay empty, visibility None for any
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", param, "--values", values, "--seconds", "1", "--out", str(out)]
        assert main([*argv, *args]) == 2
        captured = capsys.readouterr()
        rows = read_rows(out / "sweep.csv")
        assert [r["value"] for r in rows] == [value for value, _, _ in expected]
        for row, (value, seed, visibility) in zip(rows, expected):
            if seed is None:
                assert list(row.values())[2:] == ["", "", "", ""]
                assert f"{param}={value}: {message}" in captured.err
            else:
                assert row["seed"] == seed and row["global_mean_visibility"] != ""
                assert visibility in (None, row["global_mean_visibility"])
                assert f"{param}={value}: global mean visibility" in captured.out

    def test_padded_parameter_writes_the_parsed_key(self, tmp_path, monkeypatch, capsys):
        # the padding around the dot is stripped, so a padded key runs the
        # same sweep and writes the same file, stdout and stderr
        outputs = []
        for run, param in enumerate(["drift.path_walk_sigma", " drift . path_walk_sigma "]):
            (tmp_path / str(run)).mkdir()
            monkeypatch.chdir(tmp_path / str(run))
            assert main([
                "sweep", "--param", param, "--values", "0.01,-1",
                "--seconds", "1", "--seed", "3", "--out", "s",
            ]) == 2
            captured = capsys.readouterr()
            outputs.append((Path("s", "sweep.csv").read_bytes(), captured.out, captured.err))
        assert outputs[1] == outputs[0]
        assert outputs[0][0].splitlines()[1].startswith(b"drift.path_walk_sigma,0.01,3,")

    def test_output_path_not_utf_8_still_sweeps_under_an_ascii_locale(self, tmp_path):
        # a sweep writes no echo, so a path that is not UTF-8 text still works
        proc = run_in_ascii_locale(
            "sweep", "--param", "drift.path_walk_sigma", "--values", "0.01", "--seconds", "1",
            "--out", b"sw\xc3\xa9", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_rows(tmp_path / os.fsdecode(b"sw\xc3\xa9") / "sweep.csv")
        assert [(r["value"], r["seed"]) for r in rows] == [("0.01", "0")]

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("drift.warp_factor", "1,2", "unknown configuration key [drift] warp_factor"),
            ("seed", "1,2", "a configuration key must look like section.key, got 'seed'"),
            # a sweep writes only sweep.csv, into its own directory, so every
            # value of run.output_dir would run the same experiment
            (" run . output_dir ", "a,b",
             "sweep cannot vary run.output_dir: its runs write no output files"),
            ("drift.path_walk_sigma", ",", "sweep needs at least one value"),
            # a byte that is not UTF-8 arrives in argv as a surrogate
            ("run.mode", "closed-loop,\udcff,open-loop",
             "sweep value '\\udcff' is not UTF-8 text, so sweep.csv cannot hold it"),
        ],
        ids=["unknown-key", "undotted-key", "output-dir", "no-values", "value-not-utf-8"],
    )
    def test_unknown_parameter_exits_2(self, tmp_path, capsys, param, values, message):
        # one message for the key, not one per value, and no output directory
        out = tmp_path / "s"
        assert main(["sweep", "--param", param, "--values", values, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "param, values, code, row",
        [
            # every calibration of the dark value aborts: NaN is an empty field
            ("detector.input_rate", "0,2.5e7", 0, "detector.input_rate,0,0,0.040541,,0.257812"),
            # a value with a quote is quoted, its quote doubled
            ("run.mode", 'a"b,closed-loop', 2, 'run.mode,"a""b",,,,'),
        ],
        ids=["nan-is-an-empty-field", "quoted-value"],
    )
    def test_first_row_is_a_csv_row(self, tmp_path, param, values, code, row):
        out = tmp_path / "s"
        argv = ["sweep", "--param", param, "--values", values, "--seconds", "1", "--out", str(out)]
        assert main(argv) == code
        assert (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1] == row


@pytest.mark.parametrize(
    "command, option, under",
    [
        (["run"], "--out", False),
        (["run"], "--out", True),
        (["run"], "run.output_dir", False),
        (["run"], "run.output_dir", True),
        (["sweep", "--param", "drift.path_walk_sigma", "--values", "0.01"], "--out", False),
        (["sweep", "--param", "drift.path_walk_sigma", "--values", "0.01"], "--out", True),
    ],
    ids=["run---out-file", "run---out-under-file", "run-run.output_dir-file",
         "run-run.output_dir-under-file", "sweep---out-file", "sweep---out-under-file"],
)
def test_output_path_blocked_by_a_file_exits_2(tmp_path, capsys, command, option, under):
    # a file where the output directory or its parent should be is a usage
    # error, not a runtime fault from mkdir
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    args = ["--out", str(out)] if option == "--out" else _sets(f"run.output_dir={out}")
    assert main([*command, "--seconds", "1", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} {out} cannot be an output directory")
    assert blocker.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [blocker]


class TestBenchmarkHooks:
    def test_traced_benchmark_child_runs(self, tmp_path):
        # perfbench/child.py --trace 1 rebinds module-level names of the
        # package; a rename must fail here, not silently in the benchmark
        result = tmp_path / "r.json"
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "perfbench/child.py", str(result), "1", "--",
             "run", "--seconds", "1", "--out", str(tmp_path / "o")],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(result.read_text())
        assert data["exit_code"] == 0
        # set-up ends where run_experiment is entered: both stages run inside
        # its span, or the benchmark's setup_s would count simulated seconds
        assert data["t_first_run"] is not None
        # one call per calibration: a path round this name would leave its
        # span short or empty
        trace = data["trace"]
        spans = trace["spans"]
        assert trace["calibrations_aborted"] == 0
        assert spans["calibration"][0] == 128
        # one idle to each of the 128 slot ends plus the stage-end idle, each
        # one drift step: a path round Plant.idle would leave the pads unseen
        for name in ("plant.idle", "drift.advance"):
            assert spans[name][0] == 129, name
        stages = spans["controller.stabilization_stage"][1] + spans["controller.qkd_stage"][1]
        assert stages <= spans["controller.run_experiment"][1]
        # one formatter call per trace file and second: a writer that stopped
        # calling them through cli's globals would leave both spans empty
        assert spans["reporting.calib_trace_row"][0] == spans["reporting.qkd_trace_row"][0] == 1
