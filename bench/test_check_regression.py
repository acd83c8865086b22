#!/usr/bin/env python3
"""Tests of the regression gate (check_regression.py) on hand-made JSONs.

    python3 bench/test_check_regression.py

Each case writes one history snapshot and one fresh directory into a
temporary directory, runs the gate on them and checks its exit status and
output. The cases pin how the gate treats an availability of 0, a crash
report that does not add up or completed no recovery, and a scheduler
snapshot written under the old column name.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_regression.py")


# (file, key, gated metric name) of every availability the gate reads.
AVAILABILITY = (
    ("BENCH_crashscale.json", "p99_availability_at_base_rate",
     "crashscale/p99_availability_at_base_rate"),
    ("BENCH_microrec.json", "availability_at_base_rate",
     "microrec/availability_at_base_rate"),
    ("BENCH_scale.json", "p99_availability", "scale/p99_availability"),
)


def sched(eps, column="event_queue"):
    return {"workloads": [{"name": "w", column: {"events_per_sec": eps}}]}


SCHED = sched(1e6)


def write(directory, fname, doc):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, fname), "w") as f:
        json.dump(doc, f)


class GateTest(unittest.TestCase):
    def run_gate(self, baseline, fresh):
        """baseline/fresh: {file name: JSON document}. Returns (status,
        output) of one gate run against a one-snapshot history."""
        with tempfile.TemporaryDirectory() as tmp:
            for fname, doc in baseline.items():
                write(os.path.join(tmp, "history", "1"), fname, doc)
            for fname, doc in fresh.items():
                write(os.path.join(tmp, "fresh"), fname, doc)
            proc = subprocess.run(
                [sys.executable, GATE,
                 "--history-dir", os.path.join(tmp, "history"),
                 "--fresh-dir", os.path.join(tmp, "fresh")],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout

    def test_steady_run_passes(self):
        doc = {"BENCH_crashscale.json": {"p99_availability_at_base_rate": 1.0}}
        status, out = self.run_gate(doc, doc)
        self.assertEqual(status, 0, out)
        self.assertIn("OK", out)

    def test_zero_availability_fails_and_names_the_metric(self):
        for fname, key, metric in AVAILABILITY:
            with self.subTest(metric=metric):
                # Scheduler throughput held up, so the geomean over the
                # remaining metrics clears the floor; the collapse must
                # fail the gate on its own.
                base = {fname: {key: 1.0}, "BENCH_sched.json": SCHED}
                fresh = {fname: {key: 0.0}, "BENCH_sched.json": SCHED}
                status, out = self.run_gate(base, fresh)
                self.assertNotEqual(status, 0, out)
                self.assertIn("REGRESSION", out)
                self.assertIn(metric, out)

    def test_zero_baseline_is_skipped_with_a_warning(self):
        base = {"BENCH_crashscale.json": {"p99_availability_at_base_rate": 0.0},
                "BENCH_sched.json": SCHED}
        fresh = {"BENCH_crashscale.json": {"p99_availability_at_base_rate": 0.5},
                 "BENCH_sched.json": SCHED}
        status, out = self.run_gate(base, fresh)
        self.assertEqual(status, 0, out)
        self.assertIn("WARNING: crashscale/p99_availability_at_base_rate", out)

    def test_bad_crash_report_fails_and_names_the_cell(self):
        def point(failures, recoveries, in_flight):
            return {"rate": 0.4, "unplanned_failures": failures,
                    "unplanned_recoveries": recoveries, "unrecovered_hosts": 1,
                    "unplanned_in_flight": in_flight}

        def crashscale(p):
            return {"p99_availability_at_base_rate": 1.0,
                    "ladders": [{"name": "micro", "points": [p]}]}

        def scrape(p):
            return {"rates": [{"rate": 0.4, "baseline": point(8, 5, 2),
                               "scraped": [dict(p, interval_s=2)]}]}

        base = {"BENCH_crashscale.json": crashscale(point(8, 5, 2))}
        cases = (
            ("BENCH_crashscale.json", crashscale,
             "crashscale/micro@rate=0.4"),
            ("BENCH_scrape.json", scrape, "scrape/interval=2@rate=0.4"),
        )
        bad = (
            # One failure neither recovered, unrecovered nor in flight.
            point(9, 5, 2),
            # Adds up, but no crash ladder finished inside the run.
            point(8, 0, 7),
        )
        for fname, make, name in cases:
            with self.subTest(cell=name):
                status, out = self.run_gate(
                    base, dict(base, **{fname: make(point(8, 5, 2))}))
                self.assertEqual(status, 0, out)
                for p in bad:
                    status, out = self.run_gate(
                        base, dict(base, **{fname: make(p)}))
                    self.assertNotEqual(status, 0, out)
                    self.assertIn("REGRESSION", out)
                    self.assertIn(name, out)

    def test_old_sched_column_lines_up_with_the_new_one(self):
        base = {"BENCH_sched.json": sched(1e6, column="calendar_queue")}
        status, out = self.run_gate(base, {"BENCH_sched.json": sched(1e6)})
        self.assertEqual(status, 0, out)
        self.assertIn("sched/w", out)
        status, out = self.run_gate(base, {"BENCH_sched.json": sched(5e5)})
        self.assertNotEqual(status, 0, out)
        self.assertIn("sched/w", out)

    def test_report_without_in_flight_count_is_skipped(self):
        # The checked-in 1000-host files predate the in-flight count.
        old = {"rate": 0.4, "unplanned_failures": 1999,
               "unplanned_recoveries": 1000, "unrecovered_hosts": 0}
        doc = {"BENCH_crashscale.json": {
            "p99_availability_at_base_rate": 1.0,
            "ladders": [{"name": "warm", "points": [old]}]}}
        status, out = self.run_gate(doc, doc)
        self.assertEqual(status, 0, out)
        self.assertIn("OK", out)


if __name__ == "__main__":
    unittest.main()
