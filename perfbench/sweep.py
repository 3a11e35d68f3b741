#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0] [--log runs.jsonl]

Workloads are interleaved within each seed, so drift of the host spreads over
all workloads instead of landing on one.  For every workload and metric it
prints the median of the per-run values and the distance between their first
and third quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", type=Path, help="append each run's result line here")
    args = parser.parse_args()

    names = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    for seed in _seeds(args.seeds):
        for name in names:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if args.log:
                with args.log.open("a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed, **result,
                                         **json.loads(lines[-2])}) + "\n")
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect\n{proc.stdout.splitlines()[-2]}",
                      file=sys.stderr)
            for key, metric in result["metrics"].items():
                values[name].setdefault(key, []).append(metric["value"])
            print(f"{name} seed {seed} ({elapsed:.0f} s): " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    print(f"{'workload':18} {'metric':28} {'n':>3} {'median':>12} {'iqr/median':>10}")
    for name in names:
        for key, vals in values[name].items():
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            print(f"{name:18} {key:28} {len(vals):3d} {med:12.6g} {spread:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
