#!/usr/bin/env python3
# Copyright 2026 The obtree Authors.
"""Build the obtree benchmark from source and run one workload.

    python3 perfbench/run.py --workload cold-read --seed 1 --seconds 10

Run from the repository root. The first run configures and compiles the
library and the benchmark program into .bench_build/; later runs only
rebuild what changed. Each run gets a fresh storage directory under
.bench_build/runs/, deleted when the run ends. The last line of standard
output is the result object; see perfbench/README.md for the workloads
and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("point-mixed", "ingest-checkpoint", "cold-read")
# A run must end within 180 s; the build is not part of that budget.
RUN_LIMIT_S = 170


def build():
    """Configure (once) and build; build output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                       stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "obtree", "api",
                                       "concurrent_map.h")):
        print("perfbench: obtree sources not found under " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    run_dir = os.path.join(BUILD_DIR, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(trace_dir, f"{args.workload}.tsv")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload {args.workload} did not finish within "
              f"{RUN_LIMIT_S} s; killed", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"perfbench: workload {args.workload} failed with exit code "
              f"{proc.returncode} after {time.monotonic() - start:.1f} s",
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("perfbench: the benchmark printed no result line",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
