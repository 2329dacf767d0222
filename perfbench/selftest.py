"""Self-test of the benchmark: short runs of every workload, then the gates.

Run from the repository root (takes about three minutes on two cores):

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the metrics
BENCHMARK.json names with their units; that the traced run separates the
layers as the notes claim; that traced counts repeat exactly; that the digest
gate trips on a tampered output file; and that the benchmark refuses to run,
without printing a result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

from run import PINS, POOL, WORK, WORKLOADS, check_digests, run_sim, sha256

HERE = Path(__file__).resolve().parent
RUN = Path(HERE.name) / "run.py"  # relative, so a copy in another root runs itself
COUNTS = (
    "calibration.calls", "calibration.aborted", "calibration.accepted_frac",
    "plant.measure.calls", "plant.idle.calls", "drift.advance.calls",
    "hardware.select_delay.calls", "controller.qkd_slots", "reporting.rows",
    "reporting.bytes_per_sim_s",
)


def expect(condition: bool, detail: object) -> None:
    """An assertion that ``python -O`` keeps."""
    if not condition:
        raise AssertionError(detail)


def bench(workload: str, trace: int, cwd: Path = Path(".")) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    expect(proc.returncode == 0, proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
    return result


def check_metrics(result: dict, declared: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"emitted {got}, declared {units}")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    traced = {}
    for workload in WORKLOADS:
        check_metrics(result_of(workload, 0), spec["end_to_end"])
        traced[workload] = result_of(workload, 1)
        check_metrics(traced[workload], spec["per_layer"])
        print(f"{workload}: metrics and units ok", flush=True)

    # (workload, metric, lowest, highest): the workloads separate the layers
    for workload, name, low, high in (
        ("open_loop_qkd", "controller.qkd_stage.share", 0.5, 1.0),
        ("open_loop_qkd", "calibration.share", 0.0, 0.1),
        ("calib_sweep", "calibration.share", 0.5, 1.0),
        ("calib_sweep", "controller.qkd_stage.share", 0.0, 0.1),
        ("calib_sweep", "reporting.rows", 0.0, 0.0),
    ):
        got = traced[workload]["metrics"][name]["value"]
        expect(low <= got <= high, f"{workload} {name} = {got}, expected [{low}, {high}]")
    print("layer separation ok", flush=True)

    again = result_of("calib_sweep", 1)
    for name in COUNTS:
        expect(again["metrics"][name] == traced["calib_sweep"]["metrics"][name], name)
    print("traced counts repeat exactly", flush=True)

    pins = json.loads(PINS.read_text(encoding="utf-8"))
    for workload, spec_w in WORKLOADS.items():
        record = run_sim(workload, POOL[0], False, pins, time.monotonic() + 120.0)
        expect(record["ok"], record)
        tampered = WORK / workload / "out" / spec_w.outputs[-1]
        with open(tampered, "a", encoding="utf-8") as handle:
            handle.write("\n")
        digests = {f: sha256(WORK / workload / "out" / f) for f in spec_w.outputs}
        error = check_digests(digests, pins, workload, POOL[0])
        expect(error is not None and tampered.name in error, error)
    print("digest gate trips on a tampered output", flush=True)

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = bench("calib_sweep", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    shutil.rmtree(bare)
    print("refuses to run without the program's sources", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
