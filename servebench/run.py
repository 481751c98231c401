#!/usr/bin/env python3
"""Serving benchmark for the real Server.

Builds the benchmark (a Release build of this checkout's src/ plus the
servebench binary) into .bench_build/ and runs one workload:

    python3 servebench/run.py --workload lstm-wmt --seed 1 --seconds 30 --trace 0

Arguments are passed through to the servebench binary; see README.md. The
last line of standard output is the result as one JSON object. Exits
non-zero without a result when the build or the run fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "servebench")
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "servebench")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("servebench: no src/ next to servebench/; run from a full checkout")
    # Build output goes to stderr: stdout carries only the benchmark's lines.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "servebench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        sys.exit("servebench: build failed: %s" % err)
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("servebench: run failed with exit code %d" % proc.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.exit("servebench: the last output line is not a JSON result")


if __name__ == "__main__":
    main()
