#!/usr/bin/env python3
"""Builds the SPIRE benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which pulls in ../src) under .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Scratch files live under the build
directory and are removed when the run ends. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ingest_large", "ingest_churn", "query_hot", "sites_fleet")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no SPIRE source tree (src/) next to perfbench/")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = os.path.join(build_dir, "spire_perfbench")

    def build(command):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            sys.exit("perfbench: build step failed: " + " ".join(command))

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        build(["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"])
    build(["cmake", "--build", build_dir, "--target", "spire_perfbench",
           "-j", "4"])

    tmp_dir = os.path.join(build_dir, "tmp", str(os.getpid()))
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--tmp", tmp_dir],
            cwd=root)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
