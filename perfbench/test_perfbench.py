#!/usr/bin/env python3
"""Tests of the benchmark itself, on small topologies (about a minute).

    python3 perfbench/test_perfbench.py

Builds the measuring program like perfbench/run.py does, then checks:
every metric the program prints is named in BENCHMARK.json and the
reverse; the result line run.py prints has exactly the metric set the
contract asks for; the fleet digest self-check passes at 1 vs 2 engine
workers and the main-run digest repeats for a seed; every span of a traced
run closes and no span's self time exceeds its duration.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

FLEET_SMALL = ["--hosts", "24", "--workers", "2"]
PAPER_SMALL = ["--workers", "2"]
SMALL = {"fleet_steady": FLEET_SMALL, "fleet_crash": FLEET_SMALL,
         "paper_host": PAPER_SMALL}
# --seconds per workload: long enough simulated windows that a wave
# completes (fleet_steady) and scrapes and recoveries happen (fleet_crash).
SECONDS = {"fleet_steady": 10, "fleet_crash": 8, "paper_host": 1}
SPANS = {
    "fleet_steady": {"setup", "cluster.build", "cluster.boot", "fleet.start",
                     "warmup", "measure", "engine.slice", "fleet.stats",
                     "digest"},
    "fleet_crash": {"setup", "cluster.build", "cluster.boot", "fleet.start",
                    "faults.arm", "scrape.arm", "warmup", "settle",
                    "measure", "engine.slice", "fleet.stats", "digest",
                    "check.traced"},
    "paper_host": {"grid.pass", "replication", "testbed.build_boot",
                   "reboot.warm", "reboot.saved", "reboot.cold"},
}


def names(spec, key):
    return [m["name"] for m in spec[key]]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()
        cls.spec = bench.load_spec()
        cls.traced = {w: cls.run_program(w, 1) for w in bench.WORKLOADS}

    @staticmethod
    def run_program(workload, trace, seed=3):
        return bench.measure(workload, seed, SECONDS[workload], trace,
                             SMALL[workload])

    def test_spec_names_workloads_and_metrics(self):
        # fleet_steady stays runnable but is not one of BENCHMARK.json's
        # workloads (perfbench/README.md says why).
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["fleet_crash", "paper_host"])
        self.assertEqual(sorted(names(self.spec, "end_to_end")),
                         sorted(["setup_s", "sim_s_per_s", "reboots_per_s",
                                 "peak_rss_mb", "paper_error_pct"]))

    def test_printed_metrics_match_benchmark_json(self):
        named = names(self.spec, "end_to_end") + names(self.spec, "per_layer")
        self.assertEqual(len(named), len(set(named)))
        units = {m["name"]: m["unit"]
                 for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for workload, result in self.traced.items():
            with self.subTest(workload=workload):
                self.assertEqual(sorted(result["metrics"]), sorted(named))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name], name)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload, result in self.traced.items():
            for name in names(self.spec, "end_to_end"):
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_self_checks_pass(self):
        for workload, result in self.traced.items():
            with self.subTest(workload=workload):
                failed = [c for c in result["checks"] if not c["ok"]]
                self.assertEqual(failed, [])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_digest_check_passes_at_one_vs_two_workers(self):
        for workload in ("fleet_steady", "fleet_crash"):
            with self.subTest(workload=workload):
                checks = {c["name"]: c for c in self.traced[workload]["checks"]}
                check = checks["fleet.digest_workers"]
                self.assertTrue(check["ok"], check["detail"])
                self.assertIn("1 worker", check["detail"])
                self.assertIn("2 workers", check["detail"])

    def test_digest_repeats_for_a_seed_untraced(self):
        again = self.run_program("fleet_crash", 0)
        self.assertEqual(again["digest"], self.traced["fleet_crash"]["digest"])
        other = self.run_program("fleet_crash", 0, seed=4)
        self.assertNotEqual(other["digest"], again["digest"])

    def test_traced_spans_close_and_self_time_fits(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                with open(bench.trace_path(workload)) as f:
                    spans = json.load(f)["spans"]
                self.assertTrue(spans)
                for s in spans:
                    duration = s["end_s"] - s["start_s"]
                    self.assertGreaterEqual(duration, 0, s["name"])
                    self.assertLessEqual(s["self_s"], duration + 1e-9,
                                         s["name"])
                    self.assertGreaterEqual(s["self_s"], -1e-9, s["name"])
                self.assertLessEqual(SPANS[workload],
                                     {s["name"] for s in spans})

    def test_result_line_has_the_contract_keys(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                proc = subprocess.run(
                    [sys.executable, os.path.join(bench.SOURCE, "run.py"),
                     "--workload", "paper_host", "--seed", "5", "--seconds",
                     "1", "--trace", str(trace), "--"] + PAPER_SMALL,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True, cwd=bench.ROOT, check=True)
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(line),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertEqual(sorted(line["metrics"]),
                                 sorted(names(self.spec, key)))


if __name__ == "__main__":
    unittest.main()
