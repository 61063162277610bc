#!/usr/bin/env python3
"""Benchmark of record for the AFCeph simulator.

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, then
runs one workload and relays its report. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload rw4k-file --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload rr4k-16n --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest --seed 42

Exit status is non-zero, with no result line, when the build fails, a
correctness check fails, or the run exceeds its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "afc_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    # The simulator reads AFC_* at cluster construction; a stray value would
    # silently change the workload (the binary clears them too).
    return {k: v for k, v in os.environ.items() if not k.startswith("AFC_")}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "afc_perfbench"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=clean_env())
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["rw4k-file", "rr4k-16n", "mix4k-flash-open"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="determinism self-test over all workloads at --seed")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not build():
        return 2

    if args.selftest:
        cmd = [BINARY, "--selftest", "--seed", str(args.seed)]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=clean_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # Keep the diagnostics, drop any result line: a failed run reports
        # nothing a caller could mistake for a measurement.
        for line in lines:
            if not line.startswith("{"):
                log(line)
        log("perfbench: run failed with exit code %d" % proc.returncode)
        return proc.returncode
    if args.selftest:
        print("\n".join(lines))
        return 0
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: no result line in the afc_perfbench output")
        return 4
    if not result.get("correct") or result.get("failed") != 0:
        log("perfbench: correctness check failed")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
