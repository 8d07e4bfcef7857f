#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against a committed baseline.

Every bench binary writes a flat {"key": number, ...} report via
BenchReport (bench/bench_util.h). This script diffs a fresh run against
the baseline committed at the repo root and flags regressions:

  * keys matching *epochs_per_sec*, *speedup* or *qps* (queries per
    second, e.g. BENCH_query.json's warm_qps_N_threads) are
    higher-is-better;
  * keys matching *_s_per_epoch, *_seconds, or *_over_disabled (the
    expt11 observability overhead ratios) are lower-is-better;
  * everything else (counts, peak_rss_bytes, hardware_threads) is
    reported but never gated.

By default the comparison is SOFT: regressions are printed and the exit
code is 0, because wall-clock on shared CI machines is too noisy for a
hard gate (same policy as the expt11 disabled-overhead check in
tools/ci.sh). Pass --hard to exit 1 on any regression beyond the
threshold — useful on a quiet machine when validating a perf change.

  tools/bench_compare.py BASELINE.json FRESH.json [--threshold 0.25]
                         [--hard]
"""

import argparse
import json
import sys

HIGHER_BETTER = ("epochs_per_sec", "speedup", "qps")
LOWER_BETTER = ("_s_per_epoch", "_seconds", "_us", "_over_disabled")
IGNORED = ("peak_rss_bytes", "hardware_threads", "bench")


def classify(key):
    if any(key.endswith(s) or s in key for s in IGNORED):
        return None
    if any(s in key for s in HIGHER_BETTER):
        return "higher"
    if any(key.endswith(s) for s in LOWER_BETTER):
        return "lower"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative regression tolerated before flagging (default 0.25)",
    )
    parser.add_argument(
        "--hard",
        action="store_true",
        help="exit 1 on regression instead of just reporting",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    regressions = []
    rows = []
    for key in sorted(set(baseline) & set(fresh)):
        direction = classify(key)
        if direction is None:
            continue
        old, new = baseline[key], fresh[key]
        if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
            continue
        if old == 0:
            continue
        ratio = new / old
        # Express change so that negative is always a regression.
        change = ratio - 1.0 if direction == "higher" else 1.0 - ratio
        flag = ""
        if change < -args.threshold:
            flag = "REGRESSION"
            regressions.append(key)
        rows.append((key, old, new, change, flag))

    if not rows:
        print("bench_compare: no comparable keys "
              f"between {args.baseline} and {args.fresh}")
        return 0

    width = max(len(r[0]) for r in rows)
    for key, old, new, change, flag in rows:
        print(f"  {key:<{width}}  {old:>12.6g}  ->  {new:>12.6g}  "
              f"{change:+7.1%}  {flag}")

    if regressions:
        print(f"bench_compare: {len(regressions)} key(s) regressed more than "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        if args.hard:
            return 1
        print("bench_compare: soft mode, not failing (pass --hard to gate)")
    else:
        print("bench_compare: no regressions beyond "
              f"{args.threshold:.0%} threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
