#!/usr/bin/env python3
"""Diff a fresh bench JSON against its checked-in baseline.

Walks both documents in lockstep and reports every numeric leaf whose
relative drift exceeds the threshold, keying array elements by their
identifying fields (shards/pipeline_depth/outstanding/...) rather than
position, so reordering or appending cells is not "drift".

Throughput REGRESSIONS gate: a throughput-like leaf (txn_per_sec,
reads_per_sec, *_speedup, *_vs_* ratios) dropping more than the threshold
below its baseline exits 1 and fails CI. Set BENCH_DIFF_WARN_ONLY=1 to
demote that to a warning (noisy shared runner, or a PR that knowingly
trades throughput and will regenerate the baselines). A baseline key or
cell missing from the candidate also exits 1 (BENCH_DIFF_WARN_ONLY does not
demote it): a pinned key is dropped on purpose by editing the baseline, not
by no longer emitting it. All other drift — improvements, non-throughput
leaves, keys new in the candidate — is report-only: the trajectory stays
visible in every PR log without gating on noise. --gate escalates ALL
drift to exit 1 for local perf work on quiet machines.

Usage:
  tools/bench_diff.py BASELINE CANDIDATE [--threshold 0.25] [--gate]
"""

import argparse
import json
import os
import sys

# Fields that identify an array element (used to match cells across files).
KEY_FIELDS = ("shards", "pipeline_depth", "outstanding", "backend", "mode", "name")

# Leaves that are configuration, not measurement: drift here means the bench
# definition changed and the baseline must be regenerated, so say that
# instead of reporting a percentage.
CONFIG_FIELDS = {"bench", "service_time_us", "gc_shards", "gc_buckets"}

# Raw totals that scale with OBLADI_BENCH_SECONDS (stall time, event counts
# over the run): meaningless to compare across runs of different lengths, so
# skipped — the per-second rates carry the signal.
DURATION_FIELDS = {"retire_stall_ms", "sched_overlapped_accesses",
                   "stash_budget_stalls"}


def is_throughput(leaf):
    """Higher-is-better rate/ratio leaves whose regressions gate CI."""
    return any(tag in leaf for tag in ("per_sec", "tps", "throughput",
                                       "speedup", "_vs_"))


def element_key(el):
    if not isinstance(el, dict):
        return None
    key = tuple((f, el[f]) for f in KEY_FIELDS if f in el)
    return key if key else None


# Drift kinds: REPORT is informational, the other two fail the diff.
REPORT, REGRESSION, MISSING = "report", "regression", "missing"


def walk(path, base, cand, drifts, threshold):
    if isinstance(base, dict) and isinstance(cand, dict):
        for k in base:
            if k not in cand:
                drifts.append((path + "/" + k, "missing from candidate", None, MISSING))
                continue
            walk(path + "/" + k, base[k], cand[k], drifts, threshold)
        for k in cand:
            if k not in base:
                drifts.append((path + "/" + k, "new in candidate", None, REPORT))
    elif isinstance(base, list) and isinstance(cand, list):
        keyed = {element_key(el): el for el in cand}
        if None in keyed and len(cand) > 1:
            # Unkeyed elements: fall back to positional matching.
            for i, (b, c) in enumerate(zip(base, cand)):
                walk("%s[%d]" % (path, i), b, c, drifts, threshold)
            for i in range(len(cand), len(base)):
                drifts.append(("%s[%d]" % (path, i), "cell missing from candidate", None,
                               MISSING))
            return
        for el in base:
            key = element_key(el)
            label = path + str(dict(key) if key else "[?]")
            if key not in keyed:
                drifts.append((label, "cell missing from candidate", None, MISSING))
                continue
            walk(label, el, keyed[key], drifts, threshold)
    elif isinstance(base, bool) or isinstance(cand, bool):
        if base != cand:
            drifts.append((path, "changed %r -> %r" % (base, cand), None, REPORT))
    elif isinstance(base, (int, float)) and isinstance(cand, (int, float)):
        leaf = path.rsplit("/", 1)[-1]
        if leaf in DURATION_FIELDS:
            return
        if leaf in CONFIG_FIELDS:
            if base != cand:
                drifts.append((path, "config changed %r -> %r (regenerate baseline)"
                               % (base, cand), None, REPORT))
            return
        if base == cand:
            return
        denom = max(abs(base), abs(cand), 1e-9)
        rel = abs(cand - base) / denom
        if rel > threshold:
            kind = REGRESSION if is_throughput(leaf) and cand < base else REPORT
            drifts.append((path, "%.6g -> %.6g" % (base, cand), rel, kind))
    elif base != cand:
        drifts.append((path, "changed %r -> %r" % (base, cand), None, REPORT))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative drift to report (default 0.25 = 25%%)")
    ap.add_argument("--gate", action="store_true",
                    help="exit 1 on drift instead of warn-only")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.candidate) as f:
        cand = json.load(f)

    drifts = []
    walk("", base, cand, drifts, args.threshold)

    name = base.get("bench", args.baseline) if isinstance(base, dict) else args.baseline
    if not drifts:
        print("bench_diff [%s]: within %.0f%% of baseline" % (name, args.threshold * 100))
        return 0
    print("bench_diff [%s]: %d leaves drifted past %.0f%%:"
          % (name, len(drifts), args.threshold * 100))
    tags = {REPORT: "", REGRESSION: "  [THROUGHPUT REGRESSION]", MISSING: "  [DROPPED KEY]"}
    for path, desc, rel, kind in drifts:
        suffix = "  (%+.0f%%)" % (rel * 100) if rel is not None else ""
        print("  %-60s %s%s%s" % (path, desc, suffix, tags[kind]))
    regressions = [d for d in drifts if d[3] == REGRESSION]
    missing = [d for d in drifts if d[3] == MISSING]
    if args.gate:
        return 1
    if missing:
        print("%d baseline key(s) or cell(s) missing from the candidate — failing the "
              "build (drop a pinned key by editing the baseline)" % len(missing))
        return 1
    if regressions:
        if os.environ.get("BENCH_DIFF_WARN_ONLY") == "1":
            print("(%d throughput regression(s); BENCH_DIFF_WARN_ONLY=1 set, "
                  "not failing the build)" % len(regressions))
            return 0
        print("%d throughput regression(s) past %.0f%% — failing the build "
              "(set BENCH_DIFF_WARN_ONLY=1 to demote to a warning)"
              % (len(regressions), args.threshold * 100))
        return 1
    print("(warn-only drift: not failing the build)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
