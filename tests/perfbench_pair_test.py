#!/usr/bin/env python3
"""Offline tests of scripts/perfbench_pair.py's verdict and results file:
canned run.py results go through `compare`, `layer_checks`, `record` and
`write_results`; nothing is built or run.

    python3 tests/perfbench_pair_test.py
"""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "perfbench_pair", ROOT / "scripts" / "perfbench_pair.py")
pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pair)

CONTRACT = {"end_to_end": [
    {"name": "tick_us_p50", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "ticks_per_s", "unit": "ticks/s", "better": "higher",
     "bound": 0.25},
    {"name": "sim_delay_p99_s", "unit": "sim_s", "better": "lower",
     "bound": 0.25},
]}


def result(tick_us=100.0, ticks_per_s=1000.0, delay=2.0, correct=True,
           failed=0):
    values = {"tick_us_p50": tick_us, "ticks_per_s": ticks_per_s,
              "sim_delay_p99_s": delay}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"}
                        for k, v in values.items()}}


def runs(**kw):
    """Three pairs' results for one workload, all alike."""
    return {"w": [result(**kw) for _ in range(3)]}


def failures(base, head):
    return pair.compare(CONTRACT, base, head)["failures"]


class CompareTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        verdict = pair.compare(CONTRACT, runs(), runs())
        self.assertEqual(verdict["failures"], [])
        self.assertEqual(verdict["sim_changes"], [])
        self.assertEqual(len(verdict["rows"]), 3)

    def test_lower_is_better_bound(self):
        self.assertTrue(failures(runs(), runs(tick_us=130.0)))
        self.assertEqual(failures(runs(), runs(tick_us=120.0)), [])
        self.assertEqual(failures(runs(), runs(tick_us=50.0)), [])

    def test_higher_is_better_bound(self):
        self.assertTrue(failures(runs(), runs(ticks_per_s=700.0)))
        self.assertEqual(failures(runs(), runs(ticks_per_s=800.0)), [])
        self.assertEqual(failures(runs(), runs(ticks_per_s=2000.0)), [])

    def test_verdict_is_on_the_median(self):
        head = runs()
        head["w"][0] = result(tick_us=1000.0)  # one slow run of three
        self.assertEqual(failures(runs(), head), [])
        head["w"][1] = result(tick_us=1000.0)
        self.assertTrue(failures(runs(), head))

    def test_incorrect_head_run_fails(self):
        head = runs()
        head["w"][2] = result(correct=False)
        self.assertTrue(failures(runs(), head))

    def test_higher_failed_share_fails(self):
        self.assertTrue(failures(runs(failed=1), runs(failed=2)))
        self.assertEqual(failures(runs(failed=2), runs(failed=1)), [])

    def test_sim_change_is_reported_with_both_values(self):
        head = runs()
        head["w"][1]["metrics"]["sim_delay_p99_s"]["value"] = 2.5
        verdict = pair.compare(CONTRACT, runs(), head)
        self.assertEqual(verdict["sim_changes"], [
            {"workload": "w", "metric": "sim_delay_p99_s", "pair": 1,
             "base": 2.0, "head": 2.5}])
        self.assertEqual(verdict["failures"], [])


def layer(coverage=0.98, overhead=0.01, placement_us=10.0, t4=0.6):
    values = {"obs.profile.coverage_frac": coverage,
              "obs.profile.overhead_frac": overhead,
              "physical.placement.us_per_call": placement_us,
              "exec.t4_over_t1": t4}
    return {"correct": True, "attempted": 16, "failed": 0,
            "metrics": {k: {"value": v, "unit": "-"}
                        for k, v in values.items()}}


def layers(uniform=None, chaos=None, traced=None):
    return {"uniform128_steady": [uniform or layer(placement_us=400.0)],
            "paper16_chaos": [chaos or layer()],
            "paper16_traced": [traced or layer()]}


def failed_checks(base, head):
    return [c for c, ok, _ in pair.layer_checks(base, head) if not ok]


class LayerChecksTest(unittest.TestCase):
    def test_healthy_layer_runs_pass(self):
        self.assertEqual(failed_checks(layers(), layers()), [])

    def test_low_coverage_fails(self):
        self.assertTrue(failed_checks(layers(),
                                      layers(chaos=layer(coverage=0.85))))

    def test_traced_profiler_overhead_fails(self):
        self.assertTrue(failed_checks(layers(),
                                      layers(traced=layer(overhead=0.06))))

    def test_superquadratic_placement_fails(self):
        head = layers(uniform=layer(placement_us=700.0))  # 70x paper16
        self.assertTrue(failed_checks(layers(), head))

    def test_four_thread_ratio_against_base(self):
        base = layers(uniform=layer(placement_us=400.0, t4=0.6))
        ok = layers(uniform=layer(placement_us=400.0, t4=0.5))
        low = layers(uniform=layer(placement_us=400.0, t4=0.45))
        self.assertEqual(failed_checks(base, ok), [])
        self.assertTrue(failed_checks(base, low))


class ResultsFileTest(unittest.TestCase):
    def test_every_run_is_kept_with_side_seed_kind_and_order(self):
        runs = []
        first = pair.record(runs, "base", "w", 7919, 0, result())
        pair.record(runs, "head", "w", 7919, 0, result(ticks_per_s=2000.0))
        pair.record(runs, "head", "w", 7920, 1, layer())
        self.assertIs(first, runs[0]["result"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pair.json"
            pair.write_results(path, Path("/b"), Path("/h"), [7919, 7920],
                               runs)
            with open(path) as f:
                saved = json.load(f)
        self.assertEqual(saved["base"], "/b")
        self.assertEqual(saved["head"], "/h")
        self.assertEqual(saved["seeds"], [7919, 7920])
        self.assertEqual(
            [(r["order"], r["side"], r["kind"], r["workload"], r["seed"])
             for r in saved["runs"]],
            [(0, "base", "plain", "w", 7919), (1, "head", "plain", "w", 7919),
             (2, "head", "layer", "w", 7920)])
        self.assertEqual(
            saved["runs"][1]["result"]["metrics"]["ticks_per_s"]["value"],
            2000.0)
        self.assertEqual(saved["runs"][2]["result"], layer())


if __name__ == "__main__":
    unittest.main()
