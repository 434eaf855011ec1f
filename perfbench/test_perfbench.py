#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the benchmark contract's limits, then runs
the smoke mode: every workload once at minimal size, with metric names,
units and goldens checked (the first run builds the binary).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys_and_limits(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = []
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))

    def test_every_workload_has_goldens(self):
        for w in spec()["workloads"]:
            path = os.path.join(HERE, "goldens", w["name"] + ".txt")
            with open(path) as f:
                rows = [l for l in f if l.strip() and not l.startswith("#")]
            self.assertGreater(len(rows), 0, path)


class SmokeTest(unittest.TestCase):
    def test_smoke(self):
        res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "smoke"], cwd=ROOT, capture_output=True,
                             text=True, timeout=1800)
        self.assertEqual(res.returncode, 0, res.stderr[-4000:])
        self.assertEqual(json.loads(res.stdout.strip().splitlines()[-1])
                         ["smoke"], "ok")


if __name__ == "__main__":
    unittest.main()
