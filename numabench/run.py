#!/usr/bin/env python3
"""Entry point of the numaprof benchmark.

    python3 numabench/run.py --workload record|observe|analyze|lint \
        --seed N --seconds S --trace 0|1

Builds the numaprof libraries and the numabench binary from this checkout
(CMake, into $CARGO_TARGET_DIR or .bench_build), runs one workload, and
prints the binary's output; its last line is the JSON result. See
numabench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds into the build directory; returns the binary."""
    out = os.path.join(build_dir(), "numabench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "numabench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["record", "observe", "analyze", "lint"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run only the first N ops of one pass")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"numabench: build failed: {error}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir(), f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--templates", os.path.join(HERE, "corpus")]
    if args.ops:
        command += ["--ops", str(args.ops)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("numabench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        print(f"numabench: benchmark binary exited {result.returncode}",
              file=sys.stderr)
        return 1
    try:
        report = json.loads(lines[-1])
    except ValueError:
        report = {}
    if sorted(report) != ["attempted", "correct", "failed", "metrics"]:
        print("numabench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
