#!/usr/bin/env python3
# ===- bench/test_ab_commits.py - Tests of the cross-commit A/B verdicts ---===#
#
# Part of the swa-sched project.
#
# Checks ab_commits.py's verdict rule and exit code on synthetic series,
# and its clean-up on SIGTERM with fake arms; no git, no builds, no
# benchmark runs.
#
#   $ python3 bench/test_ab_commits.py
#
# ===----------------------------------------------------------------------===#
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_commits  # noqa: E402

BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def verdict(base, head, better="lower", bound=0.25):
    return ab_commits.judge(base, head, better, bound)["verdict"]


class Verdicts(unittest.TestCase):
    def test_nine_of_ten_wins_past_the_iqr_is_better(self):
        head = [b - 10 for b in BASE[:9]] + [BASE[9] + 1]
        self.assertEqual(verdict(BASE, head), "better")
        # The same series where higher is better: the head loses them all.
        self.assertEqual(verdict(BASE, head, better="higher"), "same")

    def test_eight_of_ten_wins_is_not_better(self):
        head = [b - 10 for b in BASE[:8]] + [b + 1 for b in BASE[8:]]
        self.assertEqual(verdict(BASE, head), "same")

    def test_a_gap_inside_the_base_iqr_is_not_better(self):
        head = [b - 1 for b in BASE]
        j = ab_commits.judge(BASE, head, "lower", 0.25)
        self.assertEqual(j["wins"], 10)
        self.assertEqual(j["verdict"], "same")

    def test_ties_count_for_neither_arm(self):
        head = [b - 10 for b in BASE[:8]] + BASE[8:]
        j = ab_commits.judge(BASE, head, "lower", 0.25)
        self.assertEqual((j["wins"], j["ties"]), (8, 2))
        self.assertEqual(j["verdict"], "same")
        head = [b - 10 for b in BASE[:9]] + BASE[9:]
        self.assertEqual(verdict(BASE, head), "better")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        base = [100.0, 60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0,
                100.0]
        head = [b + 5 for b in base]
        self.assertEqual(verdict(base, head), "unresolved")
        # A metric without a bound is never unresolved.
        self.assertEqual(verdict(base, [b + 5 for b in base], bound=None),
                         "same")

    def test_wide_arms_that_do_not_overlap_are_not_unresolved(self):
        base = [200.0, 120.0, 280.0, 160.0, 240.0] * 2
        # The head wins every pair, but its runs overlap the base's.
        head = [b - 5 for b in base]
        self.assertEqual(verdict(base, head), "unresolved")
        # Every head run beats every base run, by less than the base's IQR.
        head = [100.0, 60.0, 110.0, 80.0, 115.0] * 2
        self.assertLess(max(head), min(base))
        self.assertEqual(verdict(base, head), "same")

    def test_a_median_past_the_bound_is_worse_and_fails(self):
        head = [b * 1.3 for b in BASE]
        j = ab_commits.judge(BASE, head, "lower", 0.25)
        self.assertEqual(j["verdict"], "worse")
        self.assertAlmostEqual(j["diff"], 0.3)
        self.assertEqual(ab_commits.exit_code({"m": j}, 0.0, 0.0), 1)
        # Within the bound: same, exit 0.
        j = ab_commits.judge(BASE, [b * 1.2 for b in BASE], "lower", 0.25)
        self.assertEqual(j["verdict"], "same")
        self.assertEqual(ab_commits.exit_code({"m": j}, 0.0, 0.0), 0)
        # Higher is better: a 30% drop is worse.
        self.assertEqual(verdict(BASE, [b * 0.7 for b in BASE],
                                 better="higher"), "worse")

    def test_a_higher_failed_share_fails(self):
        j = ab_commits.judge(BASE, BASE, "lower", 0.25)
        self.assertEqual(j["verdict"], "same")
        self.assertEqual(ab_commits.exit_code({"m": j}, 0.0, 0.01), 1)
        self.assertEqual(ab_commits.exit_code({"m": j}, 0.01, 0.01), 0)
        self.assertEqual(ab_commits.exit_code({"m": j}, 0.02, 0.01), 0)


# A fake arm's perfbench/run.py: starts a sleeping grandchild, records its
# pid, and sleeps as a build would.
FAKE_RUN = """
import subprocess, sys, time
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open(sys.argv[0] + ".pid", "w") as f:
    f.write(str(sleeper.pid))
time.sleep(60)
"""

# Runs ab_commits.main with ROOT at a fake head arm and a base arm copied
# from it instead of cloned.
DRIVER = """
import shutil, sys, tempfile
sys.path.insert(0, {bench!r})
import ab_commits
ab_commits.ROOT = {head!r}
ab_commits.commit_of = lambda rev: "0" * 40
ab_commits.checkout = lambda sha, dest: shutil.copytree({head!r}, dest)
tempfile.tempdir = {tmp!r}
sys.exit(ab_commits.main(["base", "--workload", "w"]))
"""


def alive(pid):
    """Whether `pid` runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
            return True
        except ProcessLookupError:
            return False


class Cleanup(unittest.TestCase):
    def test_sigterm_stops_the_arm_and_removes_the_clone(self):
        with tempfile.TemporaryDirectory() as work:
            head = os.path.join(work, "head")
            tmp = os.path.join(work, "tmp")
            os.makedirs(os.path.join(head, "perfbench"))
            os.makedirs(tmp)
            run_py = os.path.join(head, "perfbench", "run.py")
            with open(run_py, "w") as f:
                f.write(FAKE_RUN)
            with open(os.path.join(head, "BENCHMARK.json"), "w") as f:
                json.dump({"run_seconds": 1, "workloads": [{"name": "w"}],
                           "end_to_end": [], "per_layer": []}, f)
            bench = os.path.dirname(os.path.abspath(__file__))
            script = subprocess.Popen(
                [sys.executable, "-c",
                 DRIVER.format(bench=bench, head=head, tmp=tmp)],
                stderr=subprocess.DEVNULL)
            try:
                # Pair 1 runs the head arm first.
                pid_file = run_py + ".pid"
                deadline = time.monotonic() + 30
                while not os.path.exists(pid_file):
                    self.assertLess(time.monotonic(), deadline)
                    self.assertIsNone(script.poll())
                    time.sleep(0.05)
                time.sleep(0.2)
                with open(pid_file) as f:
                    sleeper = int(f.read())
                self.assertTrue(alive(sleeper))
                self.assertEqual(len(os.listdir(tmp)), 1)
                script.send_signal(signal.SIGTERM)
                self.assertEqual(script.wait(timeout=30), 128 + signal.SIGTERM)
            finally:
                if script.poll() is None:
                    script.kill()
                    script.wait()
            self.assertFalse(alive(sleeper))
            self.assertEqual(os.listdir(tmp), [])


if __name__ == "__main__":
    unittest.main()
