#!/usr/bin/env python3
"""Tests of the record diff (diff_records.py) on hand-made JSONs.

    python3 bench/test_diff_records.py

Each case writes two records into a temporary directory, runs the diff on
them and checks its exit status and output: wall-time fields never count,
a changed or missing leaf is printed by its labelled path and fails.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "diff_records.py")

RECORD = {
    "benchmark": "fig_crashscale",
    "argv": ["fig_crashscale", "--hosts", "24"],
    "hardware_concurrency": 4,
    "wall_seconds": 12.5,
    "ladders": [
        {"name": "micro", "points": [
            {"rate": 0, "executed_events": 100, "wall_seconds": 1.0,
             "digest": "00000000000000aa"},
            {"rate": 0.4, "executed_events": 200, "wall_seconds": 2.0,
             "digest": "00000000000000bb"}]},
        {"name": "warm", "points": [
            {"rate": 0.4, "executed_events": 300, "admission_pauses": 9,
             "sessions_per_sec": 1e5, "wall_overhead_pct": 3.5}]},
    ],
}


def record():
    """A deep copy of RECORD to edit."""
    return json.loads(json.dumps(RECORD))


def point(doc, ladder, index):
    return doc["ladders"][ladder]["points"][index]


class DiffRecordsTest(unittest.TestCase):
    def run_diff(self, old, new):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("old.json", old), ("new.json", new)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            proc = subprocess.run([sys.executable, DIFF] + paths,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout

    def test_identical_records_match(self):
        status, out = self.run_diff(RECORD, RECORD)
        self.assertEqual(status, 0, out)
        self.assertEqual(out.strip(), "no leaf differs")

    def test_wall_time_fields_are_skipped(self):
        new = record()
        point(new, 0, 1)["wall_seconds"] = 7.0
        point(new, 1, 0)["sessions_per_sec"] = 2e5
        point(new, 1, 0)["wall_overhead_pct"] = -1.0
        new["wall_seconds"] = 99.0
        new["argv"] = ["fig_crashscale", "--hosts", "1000"]
        new["hardware_concurrency"] = 1
        status, out = self.run_diff(RECORD, new)
        self.assertEqual(status, 0, out)

    def test_changed_leaf_fails_by_its_labelled_path(self):
        new = record()
        point(new, 1, 0)["executed_events"] = 150
        point(new, 0, 1)["digest"] = "00000000000000cc"
        status, out = self.run_diff(RECORD, new)
        self.assertEqual(status, 1, out)
        self.assertIn(
            "ladders[name=warm].points[rate=0.4].executed_events: 300 -> 150",
            out)
        self.assertIn('ladders[name=micro].points[rate=0.4].digest: '
                      '"00000000000000bb" -> "00000000000000cc"', out)
        self.assertIn("2 leaves differ", out)

    def test_leaf_on_one_side_only_fails(self):
        new = record()
        del point(new, 1, 0)["admission_pauses"]
        new["ladders"][0]["points"].append({"rate": 1, "executed_events": 5})
        status, out = self.run_diff(RECORD, new)
        self.assertEqual(status, 1, out)
        self.assertIn("ladders[name=warm].points[rate=0.4].admission_pauses: "
                      "9 -> <missing>", out)
        self.assertIn("ladders[name=micro].points[rate=1]: <missing> -> ",
                      out)

    def test_bad_usage_exits_2(self):
        proc = subprocess.run([sys.executable, DIFF, "only-one.json"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("usage", proc.stdout)


if __name__ == "__main__":
    unittest.main()
