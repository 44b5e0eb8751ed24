#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and compiles
perfbench_driver (the Snoopy libraries from src/ plus perfbench/*.cc, Release)
into .bench_build/perfbench; later calls only re-check the build. The driver's
stdout is passed through unchanged; its last line is the result object. The exit
code is the driver's: non-zero on a wrong response, a crash, or a failed build.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "snoopy.h")):
        sys.exit("perfbench: no Snoopy sources next to perfbench/ (run from the repo root)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    driver = build()
    # Tracing is the benchmark's own choice (--trace); an inherited SNOOPY_TRACE or
    # SNOOPY_TRACE_OUT would turn it on behind the end-to-end numbers.
    env = {k: v for k, v in os.environ.items() if k not in ("SNOOPY_TRACE", "SNOOPY_TRACE_OUT")}
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit(done.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: driver printed no result line")
    if set(result) != RESULT_KEYS or not result["correct"] or result["failed"] != 0:
        sys.exit("perfbench: driver result is malformed or incorrect")


if __name__ == "__main__":
    main()
