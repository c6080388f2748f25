#!/usr/bin/env python3
"""End-to-end benchmark of crowdrank: builds the harness, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a crowdrank checkout. The first call configures and
builds perfbench/ (the library plus the harness) into .bench_build/; later
calls rebuild incrementally. The harness's output is passed through and its
last line is the JSON result:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also writes its spans as
Chrome trace-event JSON under .bench_build/traces/. The exit code is 0 when
every correctness check held and non-zero otherwise.

--smoke runs every workload at toy size, traced and untraced, and proves
that the checks fire on an injected wrong ranking and a forced cache miss.
perfbench/README.md describes the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ["paper_n1000", "sparse_n2000", "serve_cold", "serve_warm"]
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no crowdrank sources at {ROOT}: run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=840)
            except (OSError, subprocess.TimeoutExpired) as error:
                die(f"build step {step[:2]} failed: {error}", 1)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (log: {log_path})", 1)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    lists = json.loads(spec.read_text())
    return [m["name"] for m in lists["per_layer" if trace else "end_to_end"]]


def run_harness(args):
    """Runs the harness; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"harness exceeded {RUN_TIMEOUT_S} s", 1)
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def run(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        out = traces / f"{workload}-seed{seed}.json"
        args += ["--trace-out", str(out)]
    code, lines = run_harness(args)
    result = parse_result(lines)
    if result is None:
        print("\n".join(lines))
        die(f"harness exited {code} without a result line", code or 1)
    names = declared_metrics(trace)
    if names is not None and list(result["metrics"]) != names:
        print("\n".join(lines[:-1]))
        die("harness metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(names))}", 1)
    if trace:
        lines.insert(-1, f"spans written to {out.relative_to(ROOT)}")
    print("\n".join(lines), flush=True)
    return 0 if code == 0 and result["correct"] else 1


def smoke():
    """Toy-sized pass over every workload plus injected faults."""
    cases = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cases.append((workload, trace, None, True))
    cases += [("paper_n1000", "0", "wrong_ranking", False),
              ("serve_cold", "0", "wrong_ranking", False),
              ("serve_warm", "0", "cache_miss", False)]
    failures = 0
    for workload, trace, inject, expect_correct in cases:
        args = ["--workload", workload, "--toy", "--seconds", "0.5",
                "--trace", trace]
        if inject:
            args += ["--inject", inject]
        code, lines = run_harness(args)
        result = parse_result(lines)
        names = declared_metrics(trace == "1")
        ok = (result is not None and
              (names is None or list(result["metrics"]) == names) and
              result["correct"] == expect_correct and
              (code == 0) == expect_correct and
              (expect_correct or result["failed"] > 0))
        failures += not ok
        label = f"{workload} trace={trace}" + (f" inject={inject}" if inject
                                               else "")
        detail = "no result" if result is None else (
            f"correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} exit={code}")
        print(f"{'PASS' if ok else 'FAIL'}  {label:45s} {detail}", flush=True)
    print(f"smoke: {len(cases) - failures}/{len(cases)} cases as expected")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    build()
    if args.smoke:
        return smoke()
    return run(args.workload, args.seed, args.seconds, args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
