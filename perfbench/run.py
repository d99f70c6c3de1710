#!/usr/bin/env python3
"""Builds the Sight library and the end-to-end benchmark, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_study --seed 1 --seconds 35 --trace 0

The build goes to $CARGO_TARGET_DIR when that is a relative path, else to
.bench_build; a second run reuses it. Before measuring, the tests of the
benchmark's span and percentile helpers run. The benchmark's stdout is passed
through; its last line is the JSON result. The exit code is non-zero when the
build, the helper tests or a correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_study", "crawl_growth", "steady_reassess")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", "")
    if configured and not os.path.isabs(configured) and ".." not in configured.split(os.sep):
        return os.path.join(ROOT, configured)
    return os.path.join(ROOT, ".bench_build")


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        sys.stderr.write("command failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("library sources not found under %s/src\n" % ROOT)
        return False
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", out,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                          os.path.join(out, "configure.log"), BUILD_TIMEOUT_S):
            return False
    return run_logged(["cmake", "--build", out, "-j4", "--target", "perfbench",
                       "perfbench_trace_test"],
                      os.path.join(out, "build.log"), BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        if not build(out):
            return 1
        tests = subprocess.run([os.path.join(out, "perfbench_trace_test")],
                               capture_output=True, text=True,
                               timeout=60, check=False)
        if tests.returncode != 0:
            sys.stderr.write(tests.stdout + tests.stderr)
            return 1
        results = os.path.join(out, "results")
        os.makedirs(results, exist_ok=True)
        bench = subprocess.run(
            [os.path.join(out, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out-dir", results],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as err:
        sys.stderr.write("timed out: %s\n" % err)
        return 1
    sys.stderr.write(bench.stderr)
    lines = bench.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = (set(result) == {"correct", "attempted", "failed", "metrics"}
                 and result["attempted"] >= 1)
    except (ValueError, IndexError, TypeError):
        valid = False
    if not valid:
        sys.stderr.write(bench.stdout)
        sys.stderr.write("benchmark produced no valid result line\n")
        return 1
    sys.stdout.write(bench.stdout)
    sys.stdout.flush()
    if bench.returncode != 0 or not result["correct"]:
        return bench.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
