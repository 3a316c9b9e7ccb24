#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/ — a CMake
package that compiles the simulator from src/ — into .bench_build/perfbench
(build output goes to standard error), then runs one workload.  The
program's report goes to standard output and its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; spans of a traced run land in .bench_build/perfbench/run-NAME/.

Exits non-zero, without a result line, when the build fails, the program
fails, or the metrics it printed do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Longest a single run may take once built; the program itself stops after
# --seconds plus its set-up and checks.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = os.path.join(BUILD, "run-" + args.workload)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        print("perfbench: program exited %d" % run.returncode, file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    got, want = set(result["metrics"]), expected_metrics(args.trace)
    if got != want:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "unlisted %s" % (sorted(want - got), sorted(got - want)),
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
