"""Steadiness report: repeat each workload over seeds, print spreads.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100
    python3 perfbench/steadiness.py --workloads congruence --runs 5

For every end-to-end metric of BENCHMARK.json it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound; "steady" means the spread
is under a third of the bound.  Runs are sequential, one seed each.
The raw results go to perfbench/out/steadiness-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    raw = {}
    for workload in args.workloads:
        raw[workload] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            raw[workload].append(dict(result, seed=seed))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steadiness-{args.first_seed}.json"), "w") as fh:
        json.dump(raw, fh, indent=1)

    print(f"\n{'workload':<11} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload, results in raw.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "TOO WIDE")
            if metric["name"] == "setup_s":
                verdict += " (setup_s: only its median is compared)"
            print(f"{workload:<11} {metric['name']:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {metric['bound']:>6}  {verdict}")
        bad = sum(r["failed"] for r in results)
        print(f"{workload:<11} failed operations over {len(results)} runs: {bad}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
