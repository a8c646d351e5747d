#!/usr/bin/env python3
"""Self-test of the host-cost benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds the runner, then for every workload in BENCHMARK.json checks that an
untraced and a traced tiny run print every declared metric by name with its
declared unit (in the JSON and in the report above it) and pass their result
checks; and that an injected digest mismatch and an injected failed recovery
are reported as failures (correct = false, failed > 0) rather than swallowed.
Exits 0 when every check passes.
"""
import json
import os
import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build/run helpers)


def tiny(workload, trace, inject=None):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
            "--tiny", "1"]
    if inject:
        args += ["--inject", inject]
    code, lines = run.run_runner(args)
    if code != 0:
        raise AssertionError("%s trace=%d exited %d" % (workload, trace, code))
    return run.parse_result(lines), lines


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run.build()
    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, lines = tiny(workload, trace)
            report = "\n".join(lines[:-1])
            names = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == names, "%s trace=%d: metric names and units match BENCHMARK.json"
                  % (workload, trace))
            check(all(" %s " % n in report for n in names),
                  "%s trace=%d: every metric is printed by name" % (workload, trace))
            check(result["correct"] and result["failed"] == 0,
                  "%s trace=%d: result checks pass" % (workload, trace))

    result, _ = tiny("metadata_cached", 0, inject="digest")
    check(not result["correct"] and result["failed"] > 0,
          "injected digest mismatch is reported as a failure")
    result, _ = tiny("ext3_ssd_mirror_crash", 0, inject="recovery")
    check(not result["correct"] and result["failed"] > 0,
          "injected failed recovery is reported as a failure")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
