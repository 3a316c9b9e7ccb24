#!/usr/bin/env python3
"""Decision rule of the same-machine A/B driver (tools/perf_ab.py).

Feeds the rule synthetic samples, five pairs like the driver takes:
equal sides pass, a 25%-slower head fails, one outlier pair does not
fail, both better-directions are judged, and a metric present on only
one side, or absent from the head's end-to-end list, is skipped.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))
import perf_ab  # noqa: E402

BASE = [100.0, 98.0, 101.0, 99.0, 102.0]


def scaled(samples, factor):
    return [s * factor for s in samples]


class DecisionRule(unittest.TestCase):
    def judge(self, base, head, better):
        regressed, lines = perf_ab.judge_all({"m": base}, {"m": head},
                                             {"m": better})
        self.assertEqual(len(lines), 1)
        return regressed

    def test_equal_samples_pass(self):
        self.assertEqual(self.judge(BASE, list(BASE), "lower"), [])
        self.assertEqual(self.judge(BASE, list(BASE), "higher"), [])

    def test_quarter_slower_head_fails(self):
        # 25% more time per op, or 20% fewer jobs per second.
        self.assertEqual(self.judge(BASE, scaled(BASE, 1.25), "lower"),
                         ["m"])
        self.assertEqual(self.judge(BASE, scaled(BASE, 0.8), "higher"),
                         ["m"])

    def test_one_outlier_pair_in_five_does_not_fail(self):
        head = list(BASE)
        head[2] = 400.0
        self.assertEqual(self.judge(BASE, head, "lower"), [])
        head[2] = 10.0
        self.assertEqual(self.judge(BASE, head, "higher"), [])

    def test_direction_decides_which_change_is_worse(self):
        faster = scaled(BASE, 0.75)
        slower = scaled(BASE, 1.25)
        self.assertEqual(self.judge(BASE, faster, "lower"), [])
        self.assertEqual(self.judge(BASE, faster, "higher"), ["m"])
        self.assertEqual(self.judge(BASE, slower, "higher"), [])
        self.assertEqual(self.judge(BASE, slower, "lower"), ["m"])

    def test_change_inside_the_floor_passes(self):
        self.assertEqual(self.judge(BASE, scaled(BASE, 1.05), "lower"), [])

    def test_change_inside_the_base_spread_passes(self):
        # Base IQR is 40 (20% of the median); a 30% slower head is past
        # the floor but inside the spread.
        noisy = [150.0, 180.0, 200.0, 220.0, 260.0]
        self.assertEqual(self.judge(noisy, scaled([200.0] * 5, 1.15),
                                    "lower"), [])
        self.assertEqual(self.judge(noisy, scaled([200.0] * 5, 1.3),
                                    "lower"), ["m"])

    def test_metric_on_one_side_only_is_skipped(self):
        base = {"shared": BASE, "calibration": [1.0] * 5}
        head = {"shared": list(BASE), "new_kernel": [1e9] * 5}
        better = {"shared": "lower", "calibration": "lower",
                  "new_kernel": "lower"}
        regressed, lines = perf_ab.judge_all(base, head, better)
        self.assertEqual(regressed, [])
        skipped = [l for l in lines if l.startswith("skip")]
        self.assertEqual(len(skipped), 2)
        self.assertTrue(any("calibration" in l and "base" in l
                            for l in skipped))
        self.assertTrue(any("new_kernel" in l and "head" in l
                            for l in skipped))

    def test_metric_the_head_does_not_list_is_skipped(self):
        # The base's run.py still emits old_jobs_per_s; the head's
        # BENCHMARK.json renamed it, and added a metric only it emits.
        base = {"w/old_jobs_per_s": BASE, "w/jobs_per_s": BASE,
                "csync-bench/k/ns_per_op": BASE}
        head = {"w/old_jobs_per_s": scaled(BASE, 0.5),
                "w/jobs_per_s": scaled(BASE, 0.5),
                "w/new_metric": BASE,
                "csync-bench/k/ns_per_op": scaled(BASE, 2.0)}
        better = perf_ab.directions(set(base) | set(head),
                                    {"jobs_per_s": "higher",
                                     "new_metric": "lower"})
        self.assertEqual(better, {"w/jobs_per_s": "higher",
                                  "w/new_metric": "lower",
                                  "csync-bench/k/ns_per_op": "lower"})
        regressed, lines = perf_ab.judge_all(base, head, better)
        self.assertEqual(regressed,
                         ["csync-bench/k/ns_per_op", "w/jobs_per_s"])
        skipped = [l for l in lines if l.startswith("skip")]
        self.assertEqual(len(skipped), 2)
        self.assertTrue(any("w/old_jobs_per_s" in l and "not an end-to-end"
                            in l for l in skipped))
        self.assertTrue(any("w/new_metric" in l and "head side" in l
                            for l in skipped))


class ExitStatus(unittest.TestCase):
    def test_checkout_without_benchmark_file_is_a_run_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.assertEqual(perf_ab.main(["perf_ab.py", tmp, tmp]), 2)


if __name__ == "__main__":
    unittest.main()
