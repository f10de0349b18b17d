#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Runs every workload BENCHMARK.json names in both modes at --scale 0.02 and
checks that each run exits 0 and reports correct=true with no failed
operation: every correctness gate and the scaled shape guards passed.
run.py itself refuses a result whose metric names or units differ from
BENCHMARK.json. Run from the repository root:

    python3 pipebench/smoke_test.py

Takes about half a minute after the first build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check(workload, trace):
    """Returns a list of problems with one run (empty when it passed)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", trace, "--scale", "0.02"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        return ["exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] is not True or result["failed"] != 0:
        return ["correct=%s failed=%s" % (result["correct"], result["failed"])]
    return []


def main():
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = 0
    for workload in workloads:
        for trace in ("0", "1"):
            problems = check(workload, trace)
            print("%s %s --trace %s" % ("ok  " if not problems else "FAIL",
                                        workload, trace), flush=True)
            for p in problems:
                print("     " + p)
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
