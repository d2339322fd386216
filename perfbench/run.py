#!/usr/bin/env python3
"""Builds and runs the codlock end-to-end + per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload short_mix --seed 1 --seconds 10 --trace 0

Workloads: short_mix, disjoint_update, checkout_ring (see README.md).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The driver (perfbench/cc) is compiled from source, together with the
codlock libraries under src/, into .bench_build/ with the release
preset's flags; the first run builds, later runs only check the build.
Everything the benchmark writes stays under .bench_build/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 when every
self-check passed, 1 when one failed, 2 when the benchmark could not be
built or run.

    python3 perfbench/run.py --selftest

builds and runs the tests of the benchmark's own arithmetic instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# The driver gets one run's worth of wall time on top of --seconds.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (cmd[0], e))
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root (src/CMakeLists.txt not found)")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, 300)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    for target in targets:
        run_quiet(["cmake", "--build", BUILD_DIR, "--target", target,
                   "-j", jobs], 900)


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=["short_mix", "disjoint_update", "checkout_ring"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_test"])
        sys.exit(subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_test")]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    build(["perfbench"])
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD_DIR, "run"),
           "--revision", revision()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys: %s" % sorted(result))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
