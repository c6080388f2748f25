#!/usr/bin/env python3
"""Validator for a `crowdrank serve --telemetry DIR` output directory.

CI points this at the directory a serve smoke run produced and it checks
the whole telemetry contract end to end:

  telemetry.jsonl   every line is valid JSON with schema version v == 1,
                    strictly increasing `seq`, the full key set
                    (t_us/counters/gauges/histograms/window/events), and
                    internally consistent histograms (bucket counts sum
                    to `count`, bucket upper bounds strictly increase,
                    p50 <= p99 and both within [min, max]).
  metrics.prom      Prometheus text exposition grammar: every sample is
                    preceded by a `# TYPE` declaration for its family,
                    histogram `_bucket` series are cumulative and
                    non-decreasing in `le` order, and the `+Inf` bucket
                    equals `_count`.
  postmortems/      every postmortem is valid JSON with v == 1 and the
                    job/outcome/stage/spans/events key set; its spans form
                    one tree: span 0 is the job's root (parent -1) and
                    every later span's parent is an earlier span.

  --require-postmortem OUTCOME  asserts at least one postmortem with
                    that outcome exists — the CI serve smoke injects a
                    failing job and uses this to prove the postmortem
                    path actually fired.

Pure stdlib; exits 0 when clean, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

SNAPSHOT_KEYS = {"v", "seq", "t_us", "counters", "gauges", "histograms",
                 "window", "events_recorded", "events"}
HISTOGRAM_KEYS = {"count", "sum", "min", "max", "p50", "p99", "buckets"}
POSTMORTEM_KEYS = {"v", "job", "executor", "outcome", "stage", "reason",
                   "t_us", "config", "hardening", "spans", "events"}

# Prometheus text exposition: `name{labels} value` or `name value`.
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+-]+|NaN)$")
TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$")
LE_RE = re.compile(r'le="([^"]*)"')


def check_histogram_snapshot(name, hist, where, findings):
    missing = HISTOGRAM_KEYS - hist.keys()
    if missing:
        findings.append(f"{where}: histogram {name} missing {sorted(missing)}")
        return
    bucket_total = sum(count for _, count in hist["buckets"])
    if bucket_total != hist["count"]:
        findings.append(
            f"{where}: histogram {name} bucket counts sum to "
            f"{bucket_total}, count says {hist['count']}")
    uppers = [upper for upper, _ in hist["buckets"]]
    if uppers != sorted(set(uppers)):
        findings.append(
            f"{where}: histogram {name} bucket bounds not strictly "
            f"increasing: {uppers}")
    if hist["count"] > 0:
        if not hist["min"] <= hist["p50"] <= hist["p99"] <= hist["max"]:
            findings.append(
                f"{where}: histogram {name} quantiles out of order: "
                f"min {hist['min']} p50 {hist['p50']} p99 {hist['p99']} "
                f"max {hist['max']}")


def check_jsonl(path, findings):
    if not os.path.isfile(path):
        findings.append(f"{path}: missing")
        return
    last_seq = -1
    lines = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            lines += 1
            where = f"{path}:{lineno}"
            try:
                snap = json.loads(line)
            except json.JSONDecodeError as err:
                findings.append(f"{where}: invalid JSON: {err}")
                continue
            missing = SNAPSHOT_KEYS - snap.keys()
            if missing:
                findings.append(f"{where}: missing keys {sorted(missing)}")
                continue
            if snap["v"] != 1:
                findings.append(
                    f"{where}: schema version {snap['v']} != 1")
            if snap["seq"] <= last_seq:
                findings.append(
                    f"{where}: seq {snap['seq']} not greater than "
                    f"previous {last_seq}")
            last_seq = snap["seq"]
            for name, hist in snap["histograms"].items():
                check_histogram_snapshot(name, hist, where, findings)
            if len(snap["events"]) > snap["events_recorded"]:
                findings.append(
                    f"{where}: {len(snap['events'])} events in the tail "
                    f"but only {snap['events_recorded']} ever recorded")
    if lines == 0:
        findings.append(f"{path}: no snapshots written")


def check_prometheus(path, findings):
    if not os.path.isfile(path):
        findings.append(f"{path}: missing")
        return
    declared = {}
    samples = {}  # family -> list of (labels, value)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            where = f"{path}:{lineno}"
            if not line:
                continue
            if line.startswith("#"):
                m = TYPE_RE.match(line)
                if m is None:
                    findings.append(f"{where}: malformed comment: {line}")
                    continue
                declared[m.group(1)] = m.group(2)
                continue
            m = SAMPLE_RE.match(line)
            if m is None:
                findings.append(f"{where}: malformed sample: {line}")
                continue
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[:-len(suffix)] in declared:
                    family = name[:-len(suffix)]
                    break
            if family not in declared:
                findings.append(
                    f"{where}: sample {name} has no # TYPE declaration")
                continue
            samples.setdefault(family, []).append((name, labels,
                                                   float(value)))
    if not samples:
        findings.append(f"{path}: no samples")
    for family, kind in declared.items():
        rows = samples.get(family, [])
        if not rows:
            findings.append(f"{path}: family {family} declared but empty")
            continue
        if kind != "histogram":
            continue
        buckets = []
        count = None
        for name, labels, value in rows:
            if name == family + "_bucket":
                m = LE_RE.search(labels)
                if m is None:
                    findings.append(
                        f"{path}: {family} bucket without le label")
                    continue
                upper = float("inf") if m.group(1) == "+Inf" \
                    else float(m.group(1))
                buckets.append((upper, value))
            elif name == family + "_count":
                count = value
        if not buckets or buckets[-1][0] != float("inf"):
            findings.append(f"{path}: {family} missing +Inf bucket")
            continue
        cumulative = [v for _, v in buckets]
        if cumulative != sorted(cumulative):
            findings.append(
                f"{path}: {family} buckets not cumulative: {cumulative}")
        if count is not None and buckets[-1][1] != count:
            findings.append(
                f"{path}: {family} +Inf bucket {buckets[-1][1]} != "
                f"_count {count}")


def check_postmortems(directory, require_outcome, findings):
    outcomes = []
    if os.path.isdir(directory):
        for entry in sorted(os.listdir(directory)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(directory, entry)
            try:
                with open(path, encoding="utf-8") as handle:
                    postmortem = json.load(handle)
            except json.JSONDecodeError as err:
                findings.append(f"{path}: invalid JSON: {err}")
                continue
            missing = POSTMORTEM_KEYS - postmortem.keys()
            if missing:
                findings.append(f"{path}: missing keys {sorted(missing)}")
                continue
            if postmortem["v"] != 1:
                findings.append(
                    f"{path}: schema version {postmortem['v']} != 1")
            for i, span in enumerate(postmortem["spans"]):
                parent = span.get("parent", -1)
                if i == 0 and parent != -1:
                    findings.append(
                        f"{path}: span 0 has parent {parent}, not -1")
                elif i > 0 and not 0 <= parent < i:
                    findings.append(
                        f"{path}: span {i} parent {parent} out of range")
            outcomes.append(postmortem["outcome"])
    if require_outcome and require_outcome not in outcomes:
        findings.append(
            f"{directory}: no postmortem with outcome "
            f"'{require_outcome}' (saw {outcomes or 'none'})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True,
                        help="telemetry directory a serve run wrote")
    parser.add_argument("--require-postmortem", metavar="OUTCOME",
                        help="fail unless a postmortem with this outcome "
                             "exists (e.g. failed)")
    args = parser.parse_args()

    findings = []
    check_jsonl(os.path.join(args.dir, "telemetry.jsonl"), findings)
    check_prometheus(os.path.join(args.dir, "metrics.prom"), findings)
    check_postmortems(os.path.join(args.dir, "postmortems"),
                      args.require_postmortem, findings)

    for finding in findings:
        print(f"TELEMETRY INVALID: {finding}", file=sys.stderr)
    if findings:
        print(f"check_telemetry: {len(findings)} finding(s) in {args.dir}",
              file=sys.stderr)
        return 1
    print(f"check_telemetry: {args.dir} is a valid telemetry directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
