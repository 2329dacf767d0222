"""fringelock benchmark: simulated seconds per host second through the real CLI.

Run from the repository root:

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each simulation is one ``fringelock`` CLI invocation in a fresh interpreter
(``child.py``), run serially. A run first simulates every seed of a fixed
pool once, in an order drawn from ``--seed``, then keeps cycling through the
pool until ``--seconds`` of host time have passed. Every output file is
checked against the SHA-256 digest pinned in ``pins.json``; a mismatch or a
non-zero exit counts as a failed simulation.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs each simulation untraced and then traced and reports the
per-layer metrics of the traced runs, with ``trace.overhead_frac`` beside
them. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result, with
run metadata and every simulation, is written under ``.perfbench_work/``.
See NOTES.md for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PINS = HERE / "pins.json"
SRC = Path("src")
WORK = Path(".perfbench_work")

#: Simulation seeds whose outputs are pinned. ``--seed`` orders them; the
#: science metrics are means over the whole pool, so they do not vary with it.
POOL = tuple(range(8))
#: Median time of reference_work() on the host where the baseline in NOTES.md
#: was measured; sim_s_per_s is scaled to a host that runs it this fast.
REF_NOMINAL_S = 0.15
#: No run outlives this, even if the program hangs.
DEADLINE_S = 150.0
TRACE_FILES = ("calib_trace.csv", "qkd_trace.csv")
RUN_OUTPUTS = (*TRACE_FILES, "per_delay_summary.csv", "report.txt")


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]  # before --seed and --out
    sim_seconds: int  # simulated seconds per invocation
    outputs: tuple[str, ...]  # files whose digests are pinned


WORKLOADS = {
    # the paper's operating point: every layer works, traces written
    "closed_loop": Workload(("run", "--seconds", "3"), 3, RUN_OUTPUTS),
    # calibration only in second 0: QKD stage, plant, drift and qkd_trace emission
    "open_loop_qkd": Workload(
        ("run", "--mode", "open-loop", "--seconds", "5"), 5, RUN_OUTPUTS
    ),
    # 66 QKD slots per second: the 23-step search carries the load, no traces
    "calib_sweep": Workload(
        (
            "sweep", "--param", "drift.path_walk_sigma", "--values", "0.02,0.05,0.1",
            "--set", "schedule.switch_rate_hz=100", "--seconds", "4",
        ),
        12,
        ("sweep.csv",),
    ),
}

END_TO_END_UNITS = {
    "sim_s_per_s": "sim_s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "visibility_mean": "1",
    "delays_ge_0.96_frac": "fraction",
    "e_bit_proxy": "fraction",
}

# traced span names from child.py and the per-call metrics built from them
PER_CALL_US = (
    "calibration", "plant.measure", "plant.idle", "drift.advance", "drift.true_phase",
    "hardware.select_delay", "hardware.sample_counts", "optics.port_intensities",
)
SELF_US = ("calibration", "plant.measure")
CALL_COUNTS = (
    "calibration", "plant.measure", "plant.idle", "drift.advance", "hardware.select_delay",
)
ROW_SPANS = ("reporting.calib_trace_row", "reporting.qkd_trace_row")
NO_SPAN = (0, 0.0, 0.0)  # calls, total s, self s of a span that never ran


PER_LAYER_UNITS = {
    "controller.stabilization_stage.ms_per_sim_s": "ms/sim_s",
    "controller.qkd_stage.ms_per_sim_s": "ms/sim_s",
    "controller.run_experiment.ms_per_sim_s": "ms/sim_s",
    "controller.run_experiment.self_ms_per_sim_s": "ms/sim_s",
    "controller.qkd_stage.share": "fraction",
    "controller.qkd_slots": "count",
    "calibration.share": "fraction",
    "calibration.accepted_frac": "fraction",
    "calibration.aborted": "count",
    "reporting.rows": "count",
    "reporting.bytes_per_sim_s": "B/sim_s",
    "reporting.us_per_row": "us",
    "reporting.write_summary_ms": "ms",
    "cli.import_s": "s",
    "config.load_config_ms": "ms",
    "config.write_config_ms": "ms",
    "trace.overhead_frac": "fraction",
    **{f"{name}.calls": "count" for name in CALL_COUNTS},
    **{f"{name}.us_per_call": "us" for name in PER_CALL_US},
    **{f"{name}.self_us_per_call": "us" for name in SELF_US},
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_sim(name: str, sim_seed: int, traced: bool, pins: dict | None, deadline: float) -> dict:
    """One CLI invocation; returns its timings, outputs' digests and science."""
    workload = WORKLOADS[name]
    base = WORK / name
    out = base / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = base / "child.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(CHILD), str(result_path), "1" if traced else "0", "--",
        *workload.cli_args, "--seed", str(sim_seed), "--out", str(out),
    ]
    path = [str(SRC.resolve()), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    record = {"seed": sim_seed, "traced": traced, "ok": False}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        record["error"] = "timed out"
        return record
    if proc.returncode != 0 or not result_path.exists():
        record["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return record
    child = json.loads(result_path.read_text(encoding="utf-8"))
    record.update(
        setup_s=child["t_first_run"] - t_spawn if child["t_first_run"] else None,
        main_s=child["t_main_return"] - child["t_main_entry"],
        import_s=child["t_import_end"] - child["t_import_start"],
        rss_mb=child["maxrss_kb"] / 1024.0,
        python=child["python"],
        numpy=child["numpy"],
        trace=child.get("trace"),
        trace_bytes=sum((out / f).stat().st_size for f in TRACE_FILES if (out / f).exists()),
    )
    simulated_us = sum(r["simulated_us"] for r in child["reports"])
    missing = [f for f in workload.outputs if not (out / f).exists()]
    if child["exit_code"] != 0:
        record["error"] = f"cli exit code {child['exit_code']}: {proc.stderr.strip()[-500:]}"
    elif simulated_us != workload.sim_seconds * 1_000_000:
        record["error"] = f"simulated {simulated_us} us, expected {workload.sim_seconds} s"
    elif missing:
        record["error"] = f"missing outputs {missing}"
    else:
        record["digests"] = {f: sha256(out / f) for f in workload.outputs}
        record["error"] = check_digests(record["digests"], pins, name, sim_seed)
        if record["error"] is None:
            record["science"] = science(name, out, child["reports"])
    record["ok"] = record["error"] is None
    return record


def check_digests(digests: dict, pins: dict | None, name: str, sim_seed: int) -> str | None:
    if pins is None:
        return None
    pinned = pins.get(name, {}).get(str(sim_seed))
    if pinned is None:
        return f"no pinned digests for {name} seed {sim_seed}"
    wrong = sorted(f for f in pinned if digests.get(f) != pinned[f])
    return f"digest mismatch: {', '.join(wrong)}" if wrong else None


def science(name: str, out: Path, reports: list[dict]) -> dict:
    """Deterministic science outputs of one invocation, read from its files."""
    if name == "calib_sweep":
        with open(out / "sweep.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        return {
            "visibility_mean": statistics.fmean(float(r["global_mean_visibility"]) for r in rows),
            "delays_ge_0.96_frac": statistics.fmean(
                float(r["fraction_delays_ge_0.96"]) for r in rows
            ),
            # sweep.csv has no error column; take it from the returned reports
            "e_bit_proxy": statistics.fmean(r["e_bit"] for r in reports),
        }
    lines = dict(
        line.split(": ", 1)
        for line in (out / "report.txt").read_text(encoding="utf-8").splitlines()
    )
    held, total = lines["delays with mean visibility >= 0.96"].split(" ")[0].split("/")
    return {
        "visibility_mean": float(lines["global mean visibility"]),
        "delays_ge_0.96_frac": int(held) / int(total),
        "e_bit_proxy": float(lines["e_bit proxy (delays r > 0)"]),
    }


def trace_counts(record: dict) -> dict:
    """The traced counts of one invocation; they must repeat exactly."""
    spans = record["trace"]["spans"]
    counts = {f"{n}.calls": spans.get(n, [0])[0] for n in CALL_COUNTS}
    counts.update(
        {
            "calibration.accepted": record["trace"]["calibrations_accepted"],
            "calibration.aborted": record["trace"]["calibrations_aborted"],
            "controller.qkd_slots": record["trace"]["qkd_slots"],
            "reporting.rows": sum(spans.get(n, [0])[0] for n in ROW_SPANS),
            "reporting.trace_bytes": record["trace_bytes"],
        }
    )
    return counts


def simulate(name: str, seed: int, seconds: float, traced: bool, pins: dict) -> list[dict]:
    """All simulations of one run; the first is an untimed warm-up."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    rng = random.Random(f"{name}:{seed}")
    warm = run_sim(name, POOL[0], False, pins, deadline)
    reference_work()  # warm-up, like the first simulation
    sims = [dict(warm, warmup=True, ref_s=timed_reference())]
    first_counts: dict[int, dict] = {}
    order: list[int] = []
    passes = 0
    while time.monotonic() < deadline:
        if not order:
            if passes and time.monotonic() - start >= seconds:
                break
            order = list(POOL)
            rng.shuffle(order)
            passes += 1
        sim_seed = order.pop()
        sims.append(dict(run_sim(name, sim_seed, False, pins, deadline), ref_s=timed_reference()))
        if traced:
            record = run_sim(name, sim_seed, True, pins, deadline)
            if record["ok"]:
                counts = trace_counts(record)
                expected = first_counts.setdefault(sim_seed, counts)
                if counts != expected:
                    record.update(ok=False, error=f"traced counts changed: {counts} != {expected}")
            sims.append(record)
        if passes > 1 and time.monotonic() - start >= seconds:
            break
    return sims


@dataclass(frozen=True)
class _Slot:
    index: int
    c1: int
    c2: int

    def __post_init__(self) -> None:
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("negative counts")


def reference_work(n: int = 12000) -> None:
    """Fixed work shaped like the simulator's hot path, to gauge host speed.

    Scalar and 128-wide numpy draws, a validated frozen dataclass and a CSV
    row per step. Never edit it: REF_NOMINAL_S and every recorded baseline
    of sim_s_per_s and setup_s depend on it.
    """
    rng = numpy.random.default_rng(12345)
    phases = numpy.zeros(128)
    writer = csv.writer(io.StringIO(), lineterminator="\n")
    for i in range(n):
        k = int(rng.integers(0, 128))
        phases += 0.01 * rng.standard_normal(128)
        f = 0.5 * (1.0 + math.cos(math.fmod(float(phases[k]) + 0.3, 2.0 * math.pi)))
        s = _Slot(k, int(rng.poisson(500.0 * f)), int(rng.poisson(500.0 * (1.0 - f))))
        writer.writerow((i, s.index, s.c1, s.c2, f"{(s.c1 - s.c2) / max(1, s.c1 + s.c2):.6f}"))


def timed_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def first_per_seed(sims: list[dict], traced: bool) -> list[dict]:
    """One successful invocation per pool seed (their results are deterministic)."""
    chosen: dict[int, dict] = {}
    for record in sims:
        if record["ok"] and record["traced"] == traced and not record.get("warmup"):
            chosen.setdefault(record["seed"], record)
    return [chosen[s] for s in sorted(chosen)]


def end_to_end(name: str, sims: list[dict]) -> dict[str, float]:
    """Timings are scaled to the reference host speed, per invocation.

    The reference kernel is timed just before and just after each invocation
    (after the previous one and after this one). A host slow-down that lasts
    longer than a few seconds, which other tenants of a shared machine cause,
    stretches the kernel and the invocation alike and cancels in the ratio.
    """
    untraced = [r for r in sims if not r["traced"]]
    sim_seconds = WORKLOADS[name].sim_seconds
    throughput, setup, rss = [], [], []
    for before, now in zip(untraced, untraced[1:]):
        if now["ok"]:
            scale = (before["ref_s"] + now["ref_s"]) / (2 * REF_NOMINAL_S)
            throughput.append(sim_seconds / now["main_s"] * scale)
            setup.append(now["setup_s"] / scale)
            rss.append(now["rss_mb"])
    metrics = {
        "sim_s_per_s": statistics.median(throughput),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    per_seed = first_per_seed(sims, traced=False)
    for key in ("visibility_mean", "delays_ge_0.96_frac", "e_bit_proxy"):
        metrics[key] = statistics.fmean(r["science"][key] for r in per_seed)
    return metrics


def per_layer(name: str, sims: list[dict]) -> dict[str, float]:
    traced = [r for r in sims if r["ok"] and r["traced"]]
    sim_seconds = WORKLOADS[name].sim_seconds
    sim_s = len(traced) * sim_seconds
    spans: dict[str, list] = {}
    for record in traced:
        for span, (calls, total, own) in record["trace"]["spans"].items():
            acc = spans.setdefault(span, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own

    def calls(span: str) -> int:
        return spans.get(span, NO_SPAN)[0]

    def total(span: str) -> float:
        return spans.get(span, NO_SPAN)[1]

    def own(span: str) -> float:
        return spans.get(span, NO_SPAN)[2]

    def per_call(seconds: float, n: int, scale: float) -> float:
        return seconds * scale / n if n else 0.0

    def ms_per_sim_s(seconds: float) -> float:
        return seconds * 1e3 / sim_s

    run_total = total("controller.run_experiment")
    metrics = {
        "controller.stabilization_stage.ms_per_sim_s": ms_per_sim_s(
            total("controller.stabilization_stage")
        ),
        "controller.qkd_stage.ms_per_sim_s": ms_per_sim_s(total("controller.qkd_stage")),
        "controller.run_experiment.ms_per_sim_s": ms_per_sim_s(run_total),
        "controller.run_experiment.self_ms_per_sim_s": ms_per_sim_s(
            own("controller.run_experiment")
        ),
        "controller.qkd_stage.share": total("controller.qkd_stage") / run_total,
        "calibration.share": total("calibration") / run_total,
        "cli.import_s": statistics.median(r["import_s"] for r in sims if r["ok"]),
    }
    for span in ("reporting.write_summary", "config.load_config", "config.write_config"):
        metrics[f"{span}_ms"] = per_call(total(span), calls(span), 1e3)
    for span in PER_CALL_US:
        metrics[f"{span}.us_per_call"] = per_call(total(span), calls(span), 1e6)
    for span in SELF_US:
        metrics[f"{span}.self_us_per_call"] = per_call(own(span), calls(span), 1e6)
    rows = sum(calls(s) for s in ROW_SPANS)
    row_time = sum(total(s) for s in ROW_SPANS) + total("reporting.writerow")
    metrics["reporting.us_per_row"] = per_call(row_time, rows, 1e6)

    # counts: mean per invocation over the pool, exact for a given pool
    counts = [trace_counts(r) for r in first_per_seed(sims, traced=True)]

    def mean(key: str) -> float:
        return statistics.fmean(c[key] for c in counts)

    for span in CALL_COUNTS:
        metrics[f"{span}.calls"] = mean(f"{span}.calls")
    metrics["calibration.accepted_frac"] = (
        sum(c["calibration.accepted"] for c in counts)
        / max(1, sum(c["calibration.calls"] for c in counts))
    )
    metrics["calibration.aborted"] = mean("calibration.aborted")
    metrics["controller.qkd_slots"] = mean("controller.qkd_slots")
    metrics["reporting.rows"] = mean("reporting.rows")
    metrics["reporting.bytes_per_sim_s"] = mean("reporting.trace_bytes") / sim_seconds

    # each traced invocation directly follows the untraced one of the same seed
    ratios = [
        after["main_s"] / before["main_s"] - 1.0
        for before, after in zip(sims, sims[1:])
        if after["traced"] and not before["traced"] and before["seed"] == after["seed"]
        and before["ok"] and after["ok"]
    ]
    metrics["trace.overhead_frac"] = statistics.median(ratios)
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    if not Path(".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def run_workload(name: str, seed: int, seconds: int, traced: bool, pins: dict) -> dict | None:
    load = os.getloadavg()
    start = time.monotonic()
    sims = simulate(name, seed, seconds, traced, pins)
    elapsed = time.monotonic() - start
    failed = [r for r in sims if not r["ok"]]
    for record in failed:
        print(f"{name}: seed {record['seed']} failed: {record['error']}", file=sys.stderr)
    ok_timed = [r for r in sims if r["ok"] and not r["traced"] and not r.get("warmup")]
    if not ok_timed or (traced and not any(r["ok"] and r["traced"] for r in sims)):
        return None
    covered = {r["seed"] for r in ok_timed}
    if traced:
        covered &= {r["seed"] for r in sims if r["ok"] and r["traced"]}
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    values = per_layer(name, sims) if traced else end_to_end(name, sims)
    first = ok_timed[0]
    result = {
        "correct": not failed and covered == set(POOL),
        "attempted": len(sims),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "meta": {
            "workload": name,
            "seed": seed,
            "run_seconds": seconds,
            "elapsed_s": elapsed,
            "trace": traced,
            "python": first["python"],
            "numpy": first["numpy"],
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "loadavg_at_start": load,
            "git_commit": git_commit(),
            "cli_args": list(WORKLOADS[name].cli_args),
            "sim_seed_pool": list(POOL),
            "uncorrected_sim_s_per_s": statistics.median(
                WORKLOADS[name].sim_seconds / r["main_s"] for r in ok_timed
            ),
            "reference_s": statistics.median(r["ref_s"] for r in sims if "ref_s" in r),
        },
        "sims": sims,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fringelock" / "cli.py").is_file():
        print(f"no fringelock sources under {SRC.resolve()}; run from the repository root",
              file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    # one CPU for this process, its simulations and the reference kernel, so
    # the reference sees the same host contention as the simulations
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), pins)
        if result is None:
            print(f"{name}: no simulation succeeded", file=sys.stderr)
            return 1
        meta = result["meta"]
        print(f"[{name}] seed={args.seed} python={meta['python']} numpy={meta['numpy']} "
              f"nproc={meta['nproc']} load={meta['loadavg_at_start'][0]:.2f} "
              f"commit={meta['git_commit'][:12]}")
        print(f"[{name}] runs_failed = {result['failed']}/{result['attempted']}")
        print(f"[{name}] uncorrected sim_s_per_s = {meta['uncorrected_sim_s_per_s']:.6g} sim_s/s"
              f" (reference kernel {meta['reference_s']:.4f} s, nominal {REF_NOMINAL_S} s)")
        for key, metric in result["metrics"].items():
            print(f"[{name}] {key} = {metric['value']:.6g} {metric['unit']}")
            prefix = f"{name}." if len(names) > 1 else ""
            summary["metrics"][prefix + key] = metric
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
