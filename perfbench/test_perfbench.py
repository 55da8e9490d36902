#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

  python3 perfbench/test_perfbench.py

Builds the benchmark the way run.py does, then checks that the metric names
it prints match BENCHMARK.json, that a seed fixes every simulator
virtual-time metric, that every workload has its reason recorded, and that
BENCHMARK.json stays within the benchmark contract's limits. Takes about a
minute after the build.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

VIRTUAL = ["wait_p50_t", "wait_p95_t", "handoff_p50_t", "wire_msgs_per_cs"]
SIM = ["sim_saturated", "sim_lock_service_observed"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench did not build")
        listing = subprocess.run([str(cls.binary), "--list"], check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
        cls.listed = {}
        cls.workloads = []
        for line in listing.splitlines():
            key, *rest = line.split()
            if rest:
                cls.listed[key] = rest
            else:
                cls.workloads.append(key)

    def run_once(self, workload, seed, trace, seconds=0.5):
        out = run.run_workload(self.binary, self.spec, workload, seed,
                               seconds, trace)
        self.assertIsNotNone(out, f"{workload} trace={trace} gave no result")
        return out[0]

    def test_listed_metric_names_match_benchmark_json(self):
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(self.listed[key],
                             [m["name"] for m in self.spec[key]], key)

    def test_printed_metric_names_match_benchmark_json(self):
        # run_workload refuses a result whose names differ; check the
        # printed names here as well.
        for w in self.workloads:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                result = self.run_once(w, 1, trace)
                self.assertEqual(list(result["metrics"]),
                                 [m["name"] for m in self.spec[key]], w)
                self.assertTrue(result["correct"], w)
                self.assertGreaterEqual(result["attempted"], 1, w)
                self.assertEqual(result["failed"], 0, w)

    def test_same_seed_gives_identical_sim_virtual_time_metrics(self):
        for w in SIM:
            a, b, c = (self.run_once(w, seed, 0) for seed in (7, 7, 8))
            for m in VIRTUAL:
                self.assertEqual(a["metrics"][m], b["metrics"][m], (w, m))
            self.assertNotEqual([a["metrics"][m]["value"] for m in VIRTUAL],
                                [c["metrics"][m]["value"] for m in VIRTUAL],
                                f"{w}: the seed does not reach the inputs")

    def test_every_workload_has_its_reason_recorded(self):
        recorded = {w["name"]: w["why"] for w in self.spec["workloads"]}
        self.assertEqual(sorted(recorded), sorted(self.workloads))
        for name, why in recorded.items():
            self.assertTrue(why.strip(), name)
            self.assertNotIn("\n", why, name)
            self.assertLessEqual(len(why), 200, name)

    def test_benchmark_json_keeps_to_the_contract(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(spec)), 64 * 1024)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
