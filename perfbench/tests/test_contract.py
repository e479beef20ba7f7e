"""Contract tests: BENCHMARK.json and the names the driver emits.

Run with `python3 perfbench/run.py --self-test`, which builds the driver
first; the driver-backed tests are skipped when it has not been built.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = ["paper16_chaos", "uniform128_steady", "paper16_traced"]
END_TO_END = ["ticks_per_s", "tick_us_p50", "tick_us_p99", "setup_s",
              "peak_rss_mb", "trace_bytes_per_tick", "sim_delay_p99_s",
              "sim_processed_frac"]


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.contract = run.load_contract()

    def test_exact_keys(self):
        self.assertEqual(sorted(self.contract), sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"]))

    def test_lists_the_workloads_and_eight_metrics(self):
        self.assertEqual([w["name"] for w in self.contract["workloads"]],
                         WORKLOADS)
        self.assertEqual([m["name"] for m in self.contract["end_to_end"]],
                         END_TO_END)

    def test_names_units_and_bounds(self):
        c = self.contract
        names = [w["name"] for w in c["workloads"]]
        for w in c["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in c["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in c["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            names.append(m["name"])
        for m in c["end_to_end"] + c["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = next(m for m in c["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in c["end_to_end"]))


def built_driver():
    exe = run.build_dir() / "wasp_perfbench"
    return exe if exe.exists() else None


@unittest.skipIf(built_driver() is None, "driver not built")
class DriverOutputTest(unittest.TestCase):
    """Short real runs: every emitted name is well formed and has a unit."""

    @classmethod
    def setUpClass(cls):
        cls.exe = built_driver()
        cls.contract = run.load_contract()

    def job(self, job, workload):
        out = subprocess.run(
            [str(self.exe), "--job=" + job, "--workload=" + workload,
             "--seed=3", "--seconds=0", "--out-dir=" + str(run.build_dir())],
            capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def assert_well_formed(self, metrics, expected):
        for name, m in metrics.items():
            self.assertRegex(name, NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertGreaterEqual(m["samples"], 1)
        units = {m["name"]: m["unit"] for m in expected}
        for name, unit in units.items():
            self.assertIn(name, metrics)
            self.assertEqual(metrics[name]["unit"], unit)

    def test_list_matches_benchmark_json(self):
        listed = run.list_workloads(self.exe)
        self.assertEqual(sorted(listed), sorted(WORKLOADS))

    def test_plain_run_emits_every_end_to_end_metric(self):
        res = self.job("plain", "paper16_traced")
        self.assertEqual(res["failed"], 0, res["checks"])
        self.assert_well_formed(res["metrics"], self.contract["end_to_end"])

    def test_layer_run_emits_every_per_layer_metric(self):
        res = self.job("layer", "paper16_chaos")
        self.assertEqual(res["failed"], 0, res["checks"])
        self.assert_well_formed(res["metrics"], self.contract["per_layer"])
        self.assertGreaterEqual(
            res["metrics"]["obs.profile.coverage_frac"]["value"], 0.9)


if __name__ == "__main__":
    unittest.main()
