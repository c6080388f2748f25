#!/usr/bin/env python3
"""Spread of every end-to-end metric across seeds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 101]
                                    [--workloads paper_n1000,serve_cold]

Runs perfbench/run.py once per seed for each workload (untraced, for
BENCHMARK.json's run_seconds) and prints, per metric, the median, the
first and third quartiles as statistics.quantiles(values, n=4) gives them,
and the spread (Q3 - Q1) / median against the metric's bound. A spread
within a third of the bound is marked steady. Raw results are appended to
.bench_build/steadiness.jsonl. Run from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = ROOT / ".bench_build" / "steadiness.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    verdict = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.time()
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else None
            if done.returncode != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {done.returncode})")
                verdict = 1
                continue
            record = {"workload": workload, "seed": seed,
                      "wall_s": round(time.time() - started, 1),
                      "env": next((l for l in lines if l.startswith("env ")),
                                  ""),
                      "result": result}
            with open(out, "a") as log:
                log.write(json.dumps(record) + "\n")
            results.append(result)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        if len(results) < 2:
            continue
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            steady = "steady" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO NOISY")
            if name != "setup_s" and spread > bound:
                verdict = 1
            print(f"  {name:20s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.2f}  {steady}")
        print(flush=True)
    return verdict


if __name__ == "__main__":
    sys.exit(main())
