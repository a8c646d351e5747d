#!/usr/bin/env python3
"""Host-cost benchmark of the fsbench simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator library and the runner
from source into .bench_build/perfbench (incremental after the first run),
then runs one workload in one process on one host thread and passes the
runner's report through. The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; build output goes to stderr.
Workloads, metrics and predictions are described in perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
WORKLOADS = ["cache_edge_read", "metadata_cached", "postmark_hdd", "ext3_ssd_mirror_crash"]


def build():
    """Configures (once) and builds the runner; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.h")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=840)


def run_runner(args, timeout=170):
    """Runs the runner with `args`; returns (exit code, stdout lines)."""
    proc = subprocess.run([RUNNER] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout, cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """Parses and validates the runner's last line; raises ValueError."""
    if not lines:
        raise ValueError("runner printed nothing")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, metric in result["metrics"].items():
        if sorted(metric) != ["unit", "value"]:
            raise ValueError("metric %s is malformed" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
    except (RuntimeError, subprocess.SubprocessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    code, lines = run_runner(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code != 0:
        print("perfbench: runner exited with %d" % code, file=sys.stderr)
        return code
    try:
        parse_result(lines)
    except ValueError as err:
        print("perfbench: bad runner output: %s" % err, file=sys.stderr)
        return 3
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
