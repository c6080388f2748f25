#!/usr/bin/env python3
"""Perf ratchet: diff a BENCH_pipeline.json against a checked-in baseline.

The bench binary (bench/perf_pipeline) writes every run's wall-ms, kernel
ratios, and correctness booleans to BENCH_pipeline.json. This tool turns
that report into a CI gate:

  * every run label present in the baseline must still be present;
  * wall-clock values (keys ending in `_ms`, and every `phases_ms` entry)
    may not regress past `--tolerance` (default 3.0x — wide enough to
    absorb runner-to-runner variance, tight enough to catch a kernel
    silently falling off its fast path);
  * correctness booleans (`identical`, `telemetry_overhead_ok`,
    `pool_overlap_ok`) must be true, exactly as the baseline recorded
    them;
  * rows whose baseline carries a `speedup_floor` note must keep their
    current `speedup` at or above 0.9x that floor (the 0.9 absorbs
    run-to-run jitter; the floor itself encodes the expectation, e.g.
    "AVX2 beats scalar by 1.5x" on the simd kernel row);
  * the object count `n` must match exactly;
  * `accuracy` must stay within +/-0.05 of the baseline (the pipeline is
    seed-deterministic, so real drift means behavior changed).

Timings under 0.5 ms are never gated on ratio alone (an additive noise
floor is applied) — micro-kernel rows at n=100 jitter far more than 3x.

Usage:
  check_bench.py --baseline B.json --current BENCH_pipeline.json   # gate
  check_bench.py --baseline B.json --current BENCH_pipeline.json --update
  check_bench.py --baseline B.json --self-test                     # meta

--update copies the current report over the baseline (run it on the bench
box after an intentional perf change, and commit the result). --self-test
injects a synthetic slowdown into a copy of the baseline and verifies the
differ actually fails it — the ratchet's own regression test, wired into
CI so a refactor of this file cannot silently neuter the gate.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import sys

# Additive slack applied on top of the ratio gate: current fails only when
# current > baseline * tolerance + NOISE_FLOOR_MS.
NOISE_FLOOR_MS = 0.5

BOOLEAN_KEYS = {"identical", "telemetry_overhead_ok", "pool_overlap_ok"}
EXACT_INT_KEYS = {"n"}
ACCURACY_TOLERANCE = 0.05

# Slack on `speedup_floor` rows: current speedup must stay at or above
# floor * SPEEDUP_FLOOR_SLACK (the floor states the expectation; the slack
# absorbs runner jitter without letting a kernel quietly fall to parity).
SPEEDUP_FLOOR_SLACK = 0.9


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def runs_by_label(report):
    return {run["label"]: run for run in report.get("runs", [])}


def compare(baseline, current, tolerance):
    """Returns a list of human-readable failure strings (empty = pass)."""
    failures = []
    base_runs = runs_by_label(baseline)
    cur_runs = runs_by_label(current)

    for label, base in base_runs.items():
        cur = cur_runs.get(label)
        if cur is None:
            failures.append(f"{label}: run missing from current report")
            continue
        base_floor = base.get("notes", {}).get("speedup_floor")
        if base_floor is not None:
            cur_speedup = cur.get("notes", {}).get("speedup")
            if cur_speedup is None:
                failures.append(
                    f"{label}.speedup: missing from current report "
                    f"(baseline carries speedup_floor {base_floor})")
            elif cur_speedup < base_floor * SPEEDUP_FLOOR_SLACK:
                failures.append(
                    f"{label}.speedup: {cur_speedup:.3f} below floor "
                    f"{base_floor} x {SPEEDUP_FLOOR_SLACK}")
        pairs = []
        for key, base_value in base.get("notes", {}).items():
            pairs.append((key, base_value, cur.get("notes", {}).get(key)))
        for key, base_value in base.get("phases_ms", {}).items():
            pairs.append(
                (f"phases_ms.{key}", base_value,
                 cur.get("phases_ms", {}).get(key)))

        for key, base_value, cur_value in pairs:
            leaf = key.rsplit(".", 1)[-1]
            if cur_value is None:
                failures.append(f"{label}.{key}: missing from current report")
            elif leaf in BOOLEAN_KEYS:
                if cur_value is not True or base_value is not True:
                    failures.append(
                        f"{label}.{key}: correctness flag is "
                        f"{cur_value} (baseline {base_value}, must be true)")
            elif leaf in EXACT_INT_KEYS:
                if cur_value != base_value:
                    failures.append(
                        f"{label}.{key}: {cur_value} != baseline "
                        f"{base_value} (exact match required)")
            elif leaf == "accuracy":
                if abs(cur_value - base_value) > ACCURACY_TOLERANCE:
                    failures.append(
                        f"{label}.{key}: {cur_value:.4f} drifted past "
                        f"+/-{ACCURACY_TOLERANCE} from baseline "
                        f"{base_value:.4f}")
            elif key.endswith("_ms") or key.startswith("phases_ms."):
                limit = base_value * tolerance + NOISE_FLOOR_MS
                if cur_value > limit:
                    failures.append(
                        f"{label}.{key}: {cur_value:.3f} ms exceeds "
                        f"{limit:.3f} ms "
                        f"(baseline {base_value:.3f} ms x {tolerance})")
            # Remaining keys (threads, perron_iterations, speedup on rows
            # without a floor, ...) are informational: derived from gated
            # values or hardware-bound.
    return failures


def self_test(baseline, tolerance):
    """The differ must pass an identical report and fail an injected
    slowdown / a flipped correctness flag / a sunk speedup."""
    clean = compare(baseline, copy.deepcopy(baseline), tolerance)
    if clean:
        return [f"self-test: baseline does not pass against itself: {clean}"]

    problems = []

    def expect_failure(mutate, description):
        mutated = copy.deepcopy(baseline)
        if not mutate(mutated):
            return  # baseline has no site to mutate; skip this probe
        if not compare(baseline, mutated, tolerance):
            problems.append(f"self-test: differ missed {description}")

    def slow_down(report):
        for run in report.get("runs", []):
            for key, value in run.get("notes", {}).items():
                if key.endswith("_ms") and value > 0.0:
                    run["notes"][key] = value * tolerance * 10 + 10.0
                    return True
        return False

    def flip_flag(report):
        for run in report.get("runs", []):
            for key in run.get("notes", {}):
                if key in BOOLEAN_KEYS:
                    run["notes"][key] = False
                    return True
        return False

    def sink_speedup(report):
        for run in report.get("runs", []):
            notes = run.get("notes", {})
            if "speedup_floor" in notes and "speedup" in notes:
                notes["speedup"] = (
                    notes["speedup_floor"] * SPEEDUP_FLOOR_SLACK * 0.5)
                return True
        return False

    expect_failure(slow_down, "an injected slowdown")
    expect_failure(flip_flag, "a flipped correctness flag")
    expect_failure(sink_speedup, "a speedup sunk below its floor")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline BENCH json")
    parser.add_argument("--current", help="freshly produced BENCH json")
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="allowed wall-ms ratio vs baseline")
    parser.add_argument("--update", action="store_true",
                        help="copy --current over --baseline and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the differ catches injected "
                             "regressions in the baseline")
    args = parser.parse_args()

    if args.self_test:
        problems = self_test(load(args.baseline), args.tolerance)
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            return 1
        print("check_bench self-test: differ catches injected regressions")
        return 0

    if not args.current:
        parser.error("--current is required unless --self-test")

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"updated {args.baseline} from {args.current}")
        return 0

    failures = compare(load(args.baseline), load(args.current),
                       args.tolerance)
    for failure in failures:
        print(f"BENCH REGRESSION: {failure}", file=sys.stderr)
    if failures:
        print(f"check_bench: {len(failures)} regression(s) vs "
              f"{args.baseline}", file=sys.stderr)
        return 1
    print(f"check_bench: current report within tolerance of "
          f"{args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
