"""Record the output digests of every pool seed of every workload in pins.json.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/pin.py

Re-pinning is only legitimate for a deliberate, named change of the outputs
(for example an RNG-stream version bump); a speed-up must match the pins.
"""

from __future__ import annotations

import json
import sys
import time

from run import PINS, POOL, WORKLOADS, run_sim


def main() -> int:
    pins: dict[str, dict[str, dict[str, str]]] = {}
    for name in WORKLOADS:
        pins[name] = {}
        for sim_seed in POOL:
            record = run_sim(name, sim_seed, False, None, time.monotonic() + 300.0)
            if not record["ok"]:
                print(f"{name} seed {sim_seed}: {record['error']}", file=sys.stderr)
                return 1
            pins[name][str(sim_seed)] = record["digests"]
            print(f"{name} seed {sim_seed}: pinned", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
