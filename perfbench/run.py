#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload composition --seed 1 --seconds 10 --trace 0

The first run configures and compiles the library and the harness in
.bench_build/perfbench (a Release build); later runs only re-check it. Build
output goes to stderr. The last line of stdout is the harness's JSON result:
{"correct", "attempted", "failed", "metrics"}. Any failure (missing sources,
build error, crash, timeout, malformed result) exits non-zero without
printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "edna_perfbench")
WORKLOADS = ("composition", "confanon", "mass_deletion", "daemon")
# The harness itself stops measuring after --seconds; this covers set-up,
# the last round in flight and the end-of-run checks.
RUN_GRACE_SECONDS = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd):
    """Runs a build step with its output on stderr; fails the run on error."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (expected src/CMakeLists.txt)")
    # Keep the compiler's and the harness's temporary files inside the checkout.
    tmp_dir = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "edna_perfbench", "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=args.seconds + RUN_GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["metrics"]:
        fail("malformed result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
