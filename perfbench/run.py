#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload warm_open --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when it is set, else to .bench_build at
the repository root; later runs reuse it. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Exits non-zero, without a result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run(cmd, timeout):
    """Runs cmd to completion with its stdout sent to our stderr."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    if run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs], BUILD_TIMEOUT_S):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "perfbench")] + sys.argv[1:] + ["--out-dir", out]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
