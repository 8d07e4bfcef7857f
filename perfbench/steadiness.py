#!/usr/bin/env python3
"""Steadiness report: runs workloads over several seeds and checks spreads.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
        [--first-seed 1] [--trace 0] [--save runs.json] [--baseline runs.json]

Run from the repository root. For every workload and metric it prints the
median, quartiles, min and max over the runs and the spread (interquartile
range over median, as statistics.quantiles(values, n=4) gives the
quartiles). With --trace 0 it flags each end-to-end metric whose spread
exceeds its BENCHMARK.json bound (FAIL) or a third of it (warn). With --baseline (a --save file of an earlier set) it also flags
every metric whose median got worse than the baseline's by more than its
bound. Every result is stamped with the run's context line: hardware
threads, the threads the workload used, the seed, and the window length.
Exits non-zero on any failed run or FAIL flag.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    context = next((json.loads(l[len("context "):]) for l in lines
                    if l.startswith("context ")), {})
    last = lines[-1] if lines else ""
    result = json.loads(last) if last.startswith("{") else None
    return proc.returncode, result, context, proc.stderr


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def worse_by(metric, base, now):
    """Share by which `now` is worse than `base` for this metric."""
    if base == 0:
        return 0.0
    change = (now - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    saved = {}
    failed = False
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, result, context, stderr = run_once(workload, seed,
                                                     args.seconds, args.trace)
            print("%s seed %d: exit %d, %s" % (workload, seed, code,
                                               json.dumps(context)))
            if code != 0 or result is None or not result["correct"]:
                failed = True
                sys.stdout.write(stderr[-2000:])
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        saved[workload] = values
        last_seed = args.first_seed + args.runs - 1
        print("\n%s (%d runs, seeds %d..%d)" % (workload, args.runs,
                                                 args.first_seed, last_seed))
        print("%-34s %14s %14s %14s %14s %14s %7s %6s  %s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound",
            "flag"))
        for metric in metrics:
            name = metric["name"]
            v = values[name]
            if len(v) < 2:
                continue
            q1, median, q3, share = spread(v)
            bound = metric.get("bound")
            flag = ""
            if bound is not None:
                if share > bound:
                    flag = "FAIL"
                    failed = True
                elif share > bound / 3:
                    flag = "warn"
                base = baseline.get(workload, {}).get(name)
                if base and len(base) >= 2:
                    drift = worse_by(metric, statistics.median(base), median)
                    if drift > bound:
                        flag += " WORSE %+.1f%%" % (100 * drift)
                        failed = True
            print("%-34s %14.6g %14.6g %14.6g %14.6g %14.6g %6.1f%% %6s  %s" % (
                name, median, q1, q3, min(v), max(v), 100 * share,
                "" if bound is None else "%.0f%%" % (100 * bound), flag))
        print()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
