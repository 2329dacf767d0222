import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, replace
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


def call_cli(argv: list[str | bytes], cwd: Path, ascii_locale: bool = False):
    """(exit code, stdout, stderr) of the CLI on ``argv`` in ``cwd``; ``ascii_locale`` runs it in
    a subprocess whose C locale has an ASCII encoding: non-ASCII argv bytes arrive as surrogates."""
    if ascii_locale:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        code = "import sys; from fringelock.cli import main; sys.exit(main())"
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env, timeout=120,
                              capture_output=True, text=True, errors="backslashreplace")
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(cwd), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), out.getvalue(), err.getvalue()


@dataclass(frozen=True)
class Row:
    """A CLI call in an empty working directory and all it leaves: ``after`` lists
    it exactly, each relative path (a directory's ending in /) mapped to its
    bytes, or to None where they are not pinned; None is ``before``, unchanged."""

    argv: list[str | bytes]  # the command first
    code: int
    stderr: str
    stdout: str = ""
    before: dict[str, bytes] = field(default_factory=dict)  # written before the call
    after: dict[str, bytes | None] | None = None
    ascii_locale: bool = False


def contract_faults(row: Row, tmp_path: Path) -> list[str]:
    """One message per field of ``row`` that its call in the empty ``tmp_path`` breaks."""
    for path, data in row.before.items():
        (tmp_path / path).write_bytes(data)
    code, stdout, stderr = call_cli(row.argv, tmp_path, row.ascii_locale)
    listing = {path.relative_to(tmp_path).as_posix() + "/" * path.is_dir():
               None if path.is_dir() else path.read_bytes() for path in tmp_path.rglob("*")}
    after = row.before if row.after is None else row.after
    pinned = [(path, listing[path], data) for path, data in after.items()
              if data is not None and path in listing]
    return [f"{name}: {got!r}, not {want!r}" for name, got, want in [
        ("exit code", code, row.code), ("stderr", stderr, row.stderr),
        ("stdout", stdout, row.stdout), ("listing", sorted(listing), sorted(after)), *pinned,
    ] if got != want]


def _listed(out: str, *names: str) -> dict[str, None]:
    """The directory ``out`` and ``names`` in it, by default the five files of
    a finished run, their bytes not pinned."""
    names = names or ("calib_trace.csv", "effective_config.ini", "per_delay_summary.csv",
                      "qkd_trace.csv", "report.txt")
    return {f"{out}/": None, **dict.fromkeys(f"{out}/{name}" for name in names)}


_GAPPED = ",".join(["0"] * 64) + ",," + ",".join(["0"] * 64)

#: The CLI's exit contract, each row keyed by the test it was (the old
#: test's name, then its parameter id) or, for a new row, by what it shows.
CLI_CONTRACT = {
    # a rejected value, before the run makes any directory: the whole message, naming the key
    **{f"test_rejected_config_exits_2-{name}": Row(
        ["run", "--seconds", "1", "--out", "x", *args], 2, f"error: {message}\n"
    ) for name, args, message in [
        ("test_bad_config_exits_2", _sets("run.bogus=1"), "unknown configuration key [run] bogus"),
        ("test_undotted_key_exits_2", _sets("seed=3"),
         "a configuration key must look like section.key, got 'seed'"),
        ("test_override_without_value_exits_2", _sets("run.seed"),
         "override must look like section.key=value, got 'run.seed'"),
        ("test_non_finite_value_exits_2_naming_the_key", _sets("drift.laser_ou_sigma=nan"),
         "bad value for [drift] laser_ou_sigma: 'nan' (expected a finite number, got 'nan')"),
        ("test_non_boolean_value_exits_2_naming_the_key", _sets("detector.shot_noise=maybe"),
         "bad value for [detector] shot_noise: 'maybe' (expected a boolean, got 'maybe')"),
        ("test_negative_seed_exits_2_naming_the_key", ["--seed", "-1"],
         "run.seed must be a non-negative integer, got -1"),
        *((f"test_dac_wider_than_int64_codes_exits_2_naming_the_key-{bits}",
           _sets(f"pm.dac_bits={bits}"),
           f"pm.dac_bits must be at most 63 (int64 codes), got {bits}") for bits in (64, 2000)),
        *((f"test_overflowing_dac_transfer_exits_2_naming_the_keys-{case}", _sets(*overrides),
           f"DAC transfer overflows: pm.v_max = 1e+308 V times the full-scale code {code} "
           f"(pm.dac_bits = {bits}), or times pi, is not finite")
          for case, overrides, code, bits in [
            ("pi-times-span", ["pm.dac_bits=1", "pm.v_max=1e308"], 1, 1),
            ("code-times-span", ["pm.v_max=1e308"], 65535, 16),
        ]),
        *((f"test_overflowing_scan_interval_exits_2_naming_the_key-{key}",
           _sets(f"calibration.{key}=1e308"),
           f"calibration.{key} = 1e+308 V puts scan points past the float range around the DAC "
           "span [0, 10.0] V") for key in ("coarse_interval", "fine_interval")),
        *((f"test_counts_past_int64_exit_2_naming_the_keys-{case}", _sets(*overrides),
           f"{counts} expected counts per 100 us window exceed 2**62; lower detector.input_rate "
           "or detector.dark_rate") for case, overrides, counts in [
            ("input-rate", ["detector.input_rate=1e300"], "2e+295"),
            ("input-rate-no-shot-noise", ["detector.input_rate=1e300", "detector.shot_noise=false"],
             "2e+295"),
            ("dark-rate", ["detector.dark_rate=1e300"], "2e+296"),
            ("5e23-no-shot-noise", ["detector.input_rate=5e23", "detector.shot_noise=false"],
             "1e+19"),
        ]),
        # 129 fields, one of them empty, are not 128 offsets
        ("test_empty_offset_field_exits_2_naming_the_key", _sets(f"drift.static_offsets={_GAPPED}"),
         f"bad value for [drift] static_offsets: {_GAPPED!r} "
         "(could not convert string to float: '')"),
        # 23 steps of 109 us take 2507 us of the 2500 us permutation slot
        ("test_slot_overrun_exits_2_naming_both_keys", _sets("calibration.step_window_us=109"),
         "23 calibration steps of calibration.step_window_us = 109 us take 2507 us, more than the "
         "schedule.perm_slot_us = 2500 us permutation slot"),
        # each value a settings dataclass rejects leads its message with the key
        ("names-the-key---seconds=0", ["--seconds", "0"], "run.seconds must be >= 1, got 0"),
        *((f"names-the-key-{key}={value}", _sets(f"{key}={value}"), f"{key} {rest}")
          for key, value, rest in [
            ("run.mode", "sideways", "must be one of ('closed-loop', 'open-loop'), got 'sideways'"),
            ("schedule.stab_duration_us", "0", "must be positive, got 0 us"),
            ("schedule.perm_slot_us", "0", "must be positive, got 0 us"),
            ("schedule.perm_slot_us", "2700", "= 2700 us: 128 slots do not fit the "
             "schedule.stab_duration_us = 340000 us stabilization stage"),
            ("schedule.switch_rate_hz", "3", "= 3 Hz must divide one second into whole-us slots"),
            ("schedule.stab_duration_us", "340050", "= 340050 us leaves 659950 us, not a whole "
             "number of schedule.switch_rate_hz = 10000 Hz slots"),
            ("calibration.coarse_interval", "0", "must be positive, got 0.0"),
            ("calibration.fine_interval", "-1", "must be positive, got -1.0"),
            ("calibration.step_window_us", "0", "must be positive, got 0"),
            ("drift.laser_ou_sigma", "-1", "must be >= 0, got -1.0"),
            ("drift.path_walk_sigma", "-1", "must be >= 0, got -1.0"),
            ("drift.laser_ou_tau", "0", "must be positive, got 0.0"),
            ("drift.static_offsets", "0,1", "needs 128 entries, got 2"),
            *(("pm.v_max", v_max, f"= {float(v_max)} V cannot cover a full 2*pi of phase "
               "(needs 2 * V_PI = 8.0 V)") for v_max in ("-1", "7.999", "7.999999999999999")),
            ("pm.dac_bits", "0", "must be positive, got 0"),
            ("detector.dark_rate", "-1", "must be >= 0, got -1.0"),
            ("detector.input_rate", "-1", "must be >= 0, got -1.0"),
            ("optics.contrast", "2", "must lie in [0, 1], got 2.0"),
        ]),
    ]},
    # the presets are fixed, the QKD stage is the rest of the second, and the detector
    # efficiency, optical frequency, accept threshold, the DAC's 0 V origin and the
    # half-wave voltage are model constants
    **{f"test_removed_key_exits_2-{section}.{name}-{route}": Row(
        ["run", route, f"{section}.{name}=1" if route == "--set" else "c.ini", "--out", "x"], 2,
        f"error: unknown configuration key [{section}] {name}\n",
        before={"c.ini": f"[{section}]\n{name} = 1\n".encode()} if route == "--config" else {},
    ) for section, name in [
        ("calibration", "ext_phases"), ("schedule", "qkd_duration_us"), ("detector", "efficiency"),
        ("drift", "optical_freq_hz"), ("calibration", "accept_threshold"), ("pm", "v_min"),
        ("pm", "v_pi"),
    ] for route in ("--set", "--config")},
    # keys are case-exact and [DEFAULT] is an ordinary section, unknown to the schema
    **{f"test_config_file_takes_the_keys_set_takes-{case}": Row(
        ["run", "--config", "c.ini", "--out", "x"], 2, f"error: unknown configuration key {key}\n",
        before={"c.ini": text},
    ) for case, text, key in [
        ("key-case", b"[run]\nSeed = 3\n", "[run] Seed"),
        ("default-alone", b"[DEFAULT]\nseed = 3\n", "[DEFAULT] seed"),
        ("default-and-run", b"[DEFAULT]\nseed = 3\n[run]\nseconds = 1\n", "[DEFAULT] seed"),
        ("default-and-drift", b"[DEFAULT]\nseed = 3\n[drift]\npath_walk_sigma = 0.0\n",
         "[DEFAULT] seed"),
    ]},
    "test_absent_config_file_exits_2": Row(["run", "--config", "absent.ini", "--out", "x"], 2,
                                           "error: cannot read config file absent.ini\n"),
    **{f"test_malformed_config_file_exits_2_naming_the_file-{case}": Row(
        ["run", "--config", "broken.ini", "--out", "x"], 2,
        f"error: malformed config file broken.ini: {message}\n", before={"broken.ini": data},
    ) for case, data, message in [
        ("duplicate-key", b"[run]\nseconds = 1\nseconds = 2\n", "While reading from 'broken.ini' "
         "[line  3]: option 'seconds' in section 'run' already exists"),
        ("duplicate-section", b"[run]\nseconds = 1\n[run]\nseed = 2\n",
         "While reading from 'broken.ini' [line  3]: section 'run' already exists"),
        ("no-section-header", b"seconds = 1\n",
         "File contains no section headers.\nfile: 'broken.ini', line: 1\n'seconds = 1\\n'"),
        ("key-without-value", b"[run]\nseconds\n",
         "Source contains parsing errors: 'broken.ini'\n\t[line  2]: 'seconds\\n'"),
        ("not-utf-8", b"[run]\nseconds = 1\n# \xff\xfe\n",
         "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"),
    ]},
    # the QKD stage is the rest of the second, and there must be one
    **{f"test_stabilization_stage_alone_sets_the_split-{stab_us}-2": Row(
        ["run", "--set", f"schedule.stab_duration_us={stab_us}", "--out", "x"], 2,
        f"error: schedule.stab_duration_us = {stab_us} us leaves no QKD stage in the one-second "
        "(1000000 us) frame\n",
    ) for stab_us in (1_000_000, 1_500_000)},
    # a path effective_config.ini cannot hold stops a run before it makes any directory: bytes
    # not UTF-8 arrive as surrogates, and the echo's reader strips values and splits lines
    **{f"test_output_path_{case}": Row(
        ["run", "--seconds", "1", *args], 2,
        f"error: {named} {problem}, so effective_config.ini cannot hold it\n",
        ascii_locale=isinstance(args[1], bytes),
    ) for case, args, named, problem in [
        ("not_utf_8_exits_2_under_an_ascii_locale---out", ["--out", b"r\xc3\xa9glage"],
         r"--out r\udcc3\udca9glage", "is not UTF-8 text"),
        ("not_utf_8_exits_2_under_an_ascii_locale-run.output_dir",
         ["--set", b"run.output_dir=d\xc3\xa9"], r"run.output_dir d\udcc3\udca9",
         "is not UTF-8 text"),
        *((f"with_outer_whitespace_exits_2-{case}", ["--out", out], f"--out {out!r}",
           "starts or ends with whitespace") for case, out in [("leading-space", " lead"),
                                                               ("trailing-tab", "tab\t")]),
        ("with_a_line_break_exits_2---out", ["--out", "q\n#z"], r"--out 'q\n#z'",
         "has a line break"),
        ("with_a_line_break_exits_2-run.output_dir", _sets("run.output_dir=a\rb"),
         r"run.output_dir 'a\rb'", "has a line break"),
    ]},
    # a NUL byte, which only a config file can give, stops either command before mkdir
    **{f"test_output_path_with_a_nul_byte_exits_2-{command[0]}": Row(
        [*command, "--seconds", "1", "--config", "c.ini"], 2,
        r"error: run.output_dir 'a\x00b' holds a NUL byte, which no path can hold" "\n",
        before={"c.ini": b"[run]\noutput_dir = a\0b\n"},
    ) for command in (["run"], ["sweep", "--param", "run.seed", "--values", "1"])},
    # a sweep writes no echo and keeps the path as given
    **{f"test_output_path_with_outer_whitespace_still_sweeps-{case}": Row(
        ["sweep", "--param", "run.seed", "--values", "1", "--seconds", "1", "--out", out], 0, "",
        f"run.seed=1: global mean visibility 0.983624\nsweep results written to {out}/sweep.csv\n",
        after={f"{out}/": None, f"{out}/sweep.csv": b"parameter,value,seed,global_mean_visibility,"
               b"mean_calib_visibility,fraction_delays_ge_0.96\nrun.seed,1,1,0.983624,0.993367,"
               b"0.960938\n"},
    ) for case, out in [("leading-space", " lead"), ("trailing-tab", "tab\t")]},
    # an empty name would put every output in the working directory
    **{f"test_empty_output_dir_exits_2-{option}": Row(
        ["run", "--seconds", "1", *args], 2, f"error: {option} is empty; name an output directory\n"
    ) for option, args in [("run.output_dir", _sets("run.output_dir= ")),
                           ("--out", ["--out", ""])]},
    # a file where the output directory or its parent should be is a usage
    # error, not a runtime fault from mkdir
    **{f"test_output_path_blocked_by_a_file_exits_2-{command[0]}-{option}-{case}": Row(
        [*command, "--seconds", "1",
         *(["--out", out] if option == "--out" else _sets(f"run.output_dir={out}"))], 2,
        f"error: {option} {out} cannot be an output directory: {reason}\n",
        before={"afile": b"kept\n"},
    ) for command, options in [
        (["run"], ("--out", "run.output_dir")),
        (["sweep", "--param", "drift.path_walk_sigma", "--values", "0.01"], ("--out",)),
    ] for option in options for case, out, reason in [
        ("file", "afile", "File exists"), ("under-file", "afile/sub", "Not a directory"),
    ]},
    # the first OU step pushes the laser term of every delay but 0 past the float range;
    # delay 1 is calibrated second. The run keeps what it wrote before the fault, the
    # echo and the traces' header lines, and no report.txt marks it unfinished
    "test_non_finite_drift_phase_exits_2_naming_the_keys": Row(
        ["run", "--seconds", "1", "--set", "drift.laser_ou_sigma=1e308", "--out", "x"], 2,
        "error: true phase of delay 1 (2 ns) is not finite; it scales with "
        "drift.laser_ou_sigma and drift.path_walk_sigma\n",
        after={**_listed("x", "effective_config.ini"),
               "x/calib_trace.csv":
                   b"second,delay_index,step_index,dac_code,voltage,c1,c2,visibility\n",
               "x/qkd_trace.csv": b"second,slot,delay_index,c1,c2,visibility\n"},
    ),
    "test_dark_run_exits_2_and_keeps_outputs": Row(
        ["run", "--seconds", "1", "--out", "dark",
         *_sets("detector.input_rate=0", "detector.dark_rate=0")], 2,
        "error: no QKD slot counted a photon, so every visibility is undefined; "
        "check detector.input_rate and detector.dark_rate\n",
        after={**_listed("dark"), "dark/report.txt": (
            b"run: 1 s, mode=closed-loop, seed=0\nglobal mean visibility: nan\n"
            b"delays with mean visibility >= 0.96: 0/128 (0.0%)\n"
            b"calibration acceptance: 0.0% of refreshes\nsimulated time: 1000000 us\n")},
    ),
    # the widest span whose 16-bit transfer stays finite; 1e308 is rejected above
    "test_widest_finite_dac_span_runs": Row(
        ["run", "--set", "pm.v_max=2e303", "--out", "x"], 0, "", after=_listed("x"), stdout=
        "run: 1 s, mode=closed-loop, seed=0\nglobal mean visibility: 0.094336\n"
        "delays with mean visibility >= 0.96: 15/128 (11.7%)\n"
        "lowest per-delay mean visibility: -0.994810 (delay index 39, 78 ns)\n"
        "mean calibration visibility: 0.109585\ncalibration acceptance: 20.3% of refreshes\n"
        "e_bit proxy (delays r > 0): 0.449035\n"
        "key rate per 128-pulse train at Q=1, v_th=1: -0.058836\nsimulated time: 1000000 us\n"
        "outputs written to x\n"),
    # 2e18 expected counts per 100 us window, under the 2**62 limit
    **{f"test_counts_within_int64_still_run-{shot_noise}": Row(
        ["run", "--seconds", "1", "--out", "x",
         *_sets("detector.input_rate=1e23", f"detector.shot_noise={shot_noise}")], 0, "",
        after=_listed("x"), stdout=
        "run: 1 s, mode=closed-loop, seed=0\nglobal mean visibility: 0.981359\n"
        "delays with mean visibility >= 0.96: 118/128 (92.2%)\n"
        "lowest per-delay mean visibility: 0.946585 (delay index 119, 238 ns)\n"
        "mean calibration visibility: 0.994978\ncalibration acceptance: 100.0% of refreshes\n"
        "e_bit proxy (delays r > 0): 0.009360\n"
        "key rate per 128-pulse train at Q=1, v_th=1: 0.857137\nsimulated time: 1000000 us\n"
        "outputs written to x\n",
    ) for shot_noise in ("true", "false")},
    # no detections give no key, never -0; past the threshold the bracket is negative
    **{f"test_{name}": Row(
        ["keyrate", "128", "1", q, e_bit], 0, "", f"R = {rate}\ne_bit threshold = 0.349539\n"
    ) for name, q, e_bit, rate in [
        ("ideal_rate", "1.0", "0.0", "0.933656"), ("zero_detections-0.2", "0.0", "0.2", "0.000000"),
        ("zero_detections-0.5", "0.0", "0.5", "0.000000"),
        ("negative_beyond_threshold", "1.0", "0.35", "-0.000412"),
    ]},
    **{f"test_rejected_input_exits_2-{name}": Row(["keyrate", *args], 2, f"error: {message}\n")
       for name, args, message in [
        ("test_domain_error_exits_2", ["128", "1", "1.0", "0.7"],
         "e_bit must lie in [0, 0.5], got 0.7"),
        ("test_train_past_the_float_range_exits_2", ["1" * 401, "1", "1", "0"],
         "train length L must be at most 1.79769e+308 (a float)"),
        *((f"test_non_finite_q_exits_2-{q}", ["128", "1", q, "0"],
           f"Q must be finite and >= 0, got {q}") for q in ("nan", "inf")),
        ("test_threshold_past_half_the_train_exits_2", ["128", "70", "1", "0"],
         "v_th must lie in (0, (L-1)/2] = (0, 63.5], got 70.0"),
    ]},
    # one message for the key, not one per value, and no output directory
    **{f"test_unknown_parameter_exits_2-{case}": Row(
        ["sweep", "--param", param, "--values", values, "--out", "s"], 2, f"error: {message}\n"
    ) for case, param, values, message in [
        ("unknown-key", "drift.warp_factor", "1,2",
         "unknown configuration key [drift] warp_factor"),
        ("undotted-key", "seed", "1,2",
         "a configuration key must look like section.key, got 'seed'"),
        # a sweep writes only sweep.csv, so each run.output_dir would run the same experiment
        ("output-dir", " run . output_dir ", "a,b",
         "sweep cannot vary run.output_dir: its runs write no output files"),
        ("no-values", "drift.path_walk_sigma", ",", "sweep needs at least one value"),
        # a byte that is not UTF-8 arrives in argv as a surrogate
        ("value-not-utf-8", "run.mode", "closed-loop,\udcff,open-loop",
         "sweep value '\\udcff' is not UTF-8 text, so sweep.csv cannot hold it"),
    ]},
}


@pytest.mark.parametrize("name", CLI_CONTRACT)
def test_cli_contract(tmp_path, name):
    assert contract_faults(CLI_CONTRACT[name], tmp_path) == []


def test_contract_faults_name_each_tampering(tmp_path):
    # a checker that always passed would leave every row vacuous
    row = CLI_CONTRACT["test_output_path_blocked_by_a_file_exits_2-run---out-file"]
    for case, (tampered, faults) in enumerate([
        (row, []), (replace(row, code=0), ["exit code"]), (replace(row, stderr=""), ["stderr"]),
        (replace(row, stdout="R = 0\n"), ["stdout"]), (replace(row, after={}), ["listing"]),
        (replace(row, after={"afile": b"moved\n"}), ["afile"]),
    ]):
        (tmp_path / str(case)).mkdir()
        found = contract_faults(tampered, tmp_path / str(case))
        assert [fault.split(":")[0] for fault in found] == faults


def test_every_exit_2_message_has_a_row():
    # each message cli.py and config.py raise as a ValueError, its {...}
    # parts matching any text, is in some row's stderr
    unpinned = []
    for module in ("cli", "config"):
        source = (REPO_ROOT / "src" / "fringelock" / f"{module}.py").read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "ValueError":
                message = node.args[0]
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                pattern = "".join(re.escape(part.value) if isinstance(part, ast.Constant) else ".*"
                                  for part in parts)
                if not any(re.search(pattern, row.stderr) for row in CLI_CONTRACT.values()):
                    unpinned.append(f"{module}.py:{node.lineno}")
    assert not unpinned, f"exit-2 messages no CLI_CONTRACT row pins: {unpinned}"


#: SHA-256 of the effective_config.ini a bare `fringelock run` writes into
#: ./out: every key in SCHEMA's echo order, output_dir = out included.
DEFAULT_ECHO_DIGEST = "72aaa11bd1ad4f7864daa9ca5b290655ff32d423701b25cec5bb941b5358f1d5"


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
        # stdout carries report.txt's exact text
        assert stdout == report + f"outputs written to {out}\n"

    def test_default_config_echo_is_pinned(self, tmp_path, monkeypatch):
        # the echo's bytes are part of the output contract
        monkeypatch.chdir(tmp_path)
        assert main(["run"]) == 0
        echo = (tmp_path / "out" / "effective_config.ini").read_bytes()
        assert hashlib.sha256(echo).hexdigest() == DEFAULT_ECHO_DIGEST

    def test_stabilization_stage_alone_sets_the_split(self, tmp_path):
        # the QKD stage is the rest of the second; a stage that leaves none is a CLI_CONTRACT row
        out = tmp_path / "x"
        assert main(["run", "--set", "schedule.stab_duration_us=400000", "--out", str(out)]) == 0
        assert len(read_rows(out / "qkd_trace.csv")) == (1_000_000 - 400_000) // 100
        assert "qkd_duration_us" not in (out / "effective_config.ini").read_text()

    def test_config_file_is_read_as_utf_8_under_an_ascii_locale(self, tmp_path):
        # every file the program writes is UTF-8, and so is every file it
        # reads, whatever the locale's encoding
        (tmp_path / "c.ini").write_text("# r\u00e9glage\n[run]\nseed = 7\n", encoding="utf-8")
        argv = ["run", "--config", "c.ini", "--out", "x"]
        code, _, stderr = call_cli(argv, tmp_path, ascii_locale=True)
        assert code == 0, stderr
        assert "seed = 7\n" in (tmp_path / "x" / "effective_config.ini").read_text(encoding="utf-8")

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
        code, _, stderr = call_cli([
            "sweep", "--param", "drift.path_walk_sigma", "--values", "0.01", "--seconds", "1",
            "--out", b"sw\xc3\xa9",
        ], tmp_path, ascii_locale=True)
        assert code == 0, stderr
        rows = read_rows(tmp_path / os.fsdecode(b"sw\xc3\xa9") / "sweep.csv")
        assert [(r["value"], r["seed"]) for r in rows] == [("0.01", "0")]

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
        # the pads are spent in the stage's one drift pass; the idle to the
        # stage end is one drift step: a path round Plant.idle would leave
        # the stage's tail unseen
        for name in ("plant.idle", "drift.advance"):
            assert spans[name][0] == 1, name
        stages = spans["controller.stabilization_stage"][1] + spans["controller.qkd_stage"][1]
        assert stages <= spans["controller.run_experiment"][1]
        # one formatter call per trace file and second: a writer that stopped
        # calling them through cli's globals would leave both spans empty
        assert spans["reporting.calib_trace_row"][0] == spans["reporting.qkd_trace_row"][0] == 1
