#!/usr/bin/env python3
"""Same-machine A/B performance gate: a base checkout against a head.

    python3 tools/perf_ab.py BASE HEAD

BASE and HEAD are two checkouts of this repository, for example a pull
request's base commit and its head.  Nothing else is an input: the pair
count, run lengths and noise floor are the constants below.

1. Build.  csync-bench is built in each checkout (CMake, into
   <checkout>/build-perf-ab); perfbench/run.py builds the benchmark
   into <checkout>/.bench_build on its first run.
2. Measure.  PAIRS rounds, and in every round each unit runs once per
   side, back to back, the side that goes first alternating from round
   to round.  The units are the four workloads of BENCHMARK.json,
   through the checkout's own unchanged `perfbench/run.py --trace 0`,
   and each csync-bench kernel that both sides list (`--kernels K`; a
   kernel only one side has is skipped).  A slow phase of a shared host
   then lands on both sides alike instead of on one.
3. Judge.  The metrics are every end-to-end metric of every workload,
   better-direction from BENCHMARK.json (a metric the head's file does
   not list is skipped), and every kernel's ns/op.  A metric regresses
   when the head's median is worse than the base's median by more than
   both the base's own interquartile range and FLOOR times the base
   median.

Exit status: 0 no metric regressed; 1 at least one did (each is named);
2 bad arguments, or a build or run failed.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

# Rounds of interleaved pairs.  csync-bench has no reference-speed
# normalization, so a kernel's ns/op spreads 10-40% (IQR) from run to
# run on a shared 4-vCPU host.  With 5 pairs, one of three runs of an
# unchanged tree failed on such a kernel; with 15, none of three did.
PAIRS = 15
# perfbench --seconds per run (its jobs repeat until then).
PERFBENCH_SECONDS = 2
PERFBENCH_SEED = 1
# csync-bench run length per kernel and side: memory ops per processor
# and timed repetitions (median reported).  Quick mode (4000 ops, 3
# reps) swings 15-25% from run to run on a shared 4-vCPU host.
BENCH_ARGS = ["--ops", "40000", "--reps", "5"]
# Smallest slowdown that can fail, as a share of the base median.
FLOOR = 0.10

BUILD_DIR = "build-perf-ab"
BENCH_UNIT = "csync-bench"


def median_iqr(samples):
    """Median and interquartile range (inclusive quartiles)."""
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q2, q3 - q1


def judge(base, head, better):
    """The decision rule for one metric.

    base, head: the samples of each side.  better: "lower" or "higher".
    Returns (regressed, base median, base IQR, head median).
    """
    base_med, base_iqr = median_iqr(base)
    head_med, _ = median_iqr(head)
    worse = head_med - base_med if better == "lower" else base_med - head_med
    return (worse > max(base_iqr, FLOOR * abs(base_med)), base_med, base_iqr,
            head_med)


def directions(names, end_to_end):
    """Better-direction of each metric name the head can judge.

    names: "unit/metric" names.  end_to_end: {metric: "lower"|"higher"}
    from the head's BENCHMARK.json.  Kernel ns/op is lower-better; a
    perfbench metric the head does not list (one the base's run.py
    emits under an old name, say) gets no entry.
    """
    better = {}
    for name in names:
        unit, metric = name.split("/", 1)
        if unit == BENCH_UNIT:
            better[name] = "lower"
        elif metric in end_to_end:
            better[name] = end_to_end[metric]
    return better


def judge_all(base, head, better):
    """Judge every metric both sides measured and the head can judge.

    base, head: {metric: [samples]}.  better: {metric: "lower"|"higher"}.
    Returns (names of regressed metrics, report lines).
    """
    regressed, lines = [], []
    for name in sorted(set(base) | set(head)):
        if not base.get(name) or not head.get(name):
            lines.append("skip    %s: only the %s side has it"
                         % (name, "base" if name in base else "head"))
            continue
        if name not in better:
            lines.append("skip    %s: not an end-to-end metric of the head"
                         % name)
            continue
        bad, b, iqr, h = judge(base[name], head[name], better[name])
        change = (h - b) / b * 100 if b else 0.0
        lines.append("%s %-54s base %-9.4g IQR %-8.3g head %-9.4g %+6.1f%% "
                     "(%s is better)"
                     % ("REGRESS" if bad else "ok     ", name, b, iqr, h,
                        change, better[name]))
        if bad:
            regressed.append(name)
    return regressed, lines


class RunError(Exception):
    pass


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RunError("%s (in %s) exited %d:\n%s"
                       % (" ".join(cmd), cwd, proc.returncode,
                          proc.stderr[-4000:]))
    return proc.stdout


def build(checkout):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_dir = os.path.join(checkout, BUILD_DIR)
    run(["cmake", "-S", checkout, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], checkout)
    run(["cmake", "--build", build_dir, "-j", jobs,
         "--target", "csync-bench"], checkout)


def run_perfbench(checkout, workload):
    """One perfbench run: {metric: value}."""
    out = run([sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(PERFBENCH_SEED),
               "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"],
              checkout)
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        raise RunError("%s: %s is not correct (%d failed)"
                       % (checkout, workload, result["failed"]))
    return {workload + "/" + name: m["value"]
            for name, m in result["metrics"].items()}


def bench_path(checkout):
    return os.path.join(checkout, BUILD_DIR, "tools", "csync-bench")


def bench_kernels(checkout):
    """The kernel names `csync-bench --list` prints, one per line."""
    out = run([bench_path(checkout), "--list"], checkout)
    return {line.split()[0] for line in out.splitlines() if line.strip()}


def bench_metric(kernel):
    return BENCH_UNIT + "/" + kernel + "/ns_per_op"


def run_bench(checkout, kernel):
    """One csync-bench run of one kernel: {metric: ns/op}."""
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = os.path.join(tmp, "bench.json")
        run([bench_path(checkout), "--kernels", kernel, *BENCH_ARGS, "-q",
             "-o", doc_path], checkout)
        with open(doc_path) as f:
            doc = json.load(f)
    return {bench_metric(k["name"]): k["ns_per_op"] for k in doc["kernels"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"base": os.path.abspath(argv[1]),
             "head": os.path.abspath(argv[2])}
    samples = {"base": {}, "head": {}}
    try:
        with open(os.path.join(sides["head"], "BENCHMARK.json")) as f:
            spec = json.load(f)
        workloads = [w["name"] for w in spec["workloads"]]
        e2e = {m["name"]: m["better"] for m in spec["end_to_end"]}
        kernels = {}
        for side, checkout in sides.items():
            print("perf_ab: building %s (%s)" % (side, checkout),
                  file=sys.stderr, flush=True)
            build(checkout)
            kernels[side] = bench_kernels(checkout)
        shared = kernels["base"] & kernels["head"]
        for side in sides:
            for kernel in kernels[side] - shared:
                samples[side][bench_metric(kernel)] = []
        for i in range(PAIRS):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for unit in workloads + sorted(shared):
                for side in order:
                    print("perf_ab: pair %d/%d %-34s %s"
                          % (i + 1, PAIRS, unit, side),
                          file=sys.stderr, flush=True)
                    got = (run_perfbench(sides[side], unit)
                           if unit in workloads
                           else run_bench(sides[side], unit))
                    for name, value in got.items():
                        samples[side].setdefault(name, []).append(value)
    except (RunError, OSError, ValueError, KeyError) as e:
        print("perf_ab: %s" % e, file=sys.stderr)
        return 2

    better = directions(set(samples["base"]) | set(samples["head"]), e2e)
    regressed, lines = judge_all(samples["base"], samples["head"], better)
    print("\n".join(lines))
    print("perf_ab: %d pairs, floor %.0f%%: %s"
          % (PAIRS, FLOOR * 100,
             "REGRESSED " + ", ".join(regressed) if regressed
             else "no regression"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
