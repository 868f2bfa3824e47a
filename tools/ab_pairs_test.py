#!/usr/bin/env python3
"""Tests of tools/ab_pairs: its verdict rules, its handling of a bad run
with stub checkouts, and its checkouts of two git revisions of a throwaway
repository (no benchmark runs).

    python3 tools/ab_pairs_test.py
"""

import contextlib
import importlib.machinery
import importlib.util
import io
import json
import os
import shutil
import subprocess
import tempfile
import textwrap
import unittest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ab_pairs")
_LOADER = importlib.machinery.SourceFileLoader("ab_pairs", _PATH)
_SPEC = importlib.util.spec_from_loader("ab_pairs", _LOADER)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_LOADER.exec_module(ab_pairs)

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


class VerdictTest(unittest.TestCase):
    def test_parse_seeds(self):
        self.assertEqual(ab_pairs.parse_seeds("21-24"), [21, 22, 23, 24])
        self.assertEqual(ab_pairs.parse_seeds("1,4,9-10"), [1, 4, 9, 10])

    def test_clear_gain_in_every_pair(self):
        head = [v * 1.3 for v in BASE]
        s = ab_pairs.verdict(BASE, head, "higher", 0.15)
        self.assertEqual(s["verdict"], "gain")
        self.assertEqual(s["wins"], 10)
        self.assertAlmostEqual(s["delta_pct"], 30.0, places=6)

    def test_eight_of_ten_wins_is_not_a_gain(self):
        head = [v * 1.3 for v in BASE[:8]] + [v * 0.99 for v in BASE[8:]]
        s = ab_pairs.verdict(BASE, head, "higher", 0.15)
        self.assertEqual(s["wins"], 8)
        self.assertEqual(s["verdict"], "same")

    def test_lower_is_better_regression_beyond_bound(self):
        head = [v * 1.3 for v in BASE]
        self.assertEqual(ab_pairs.verdict(BASE, head, "lower", 0.25)["verdict"],
                         "worse")

    def test_wide_base_spread_is_unresolved(self):
        base = [100.0, 150.0, 60.0, 140.0, 70.0, 100.0]
        head = [v * 1.05 for v in base]
        self.assertEqual(ab_pairs.verdict(base, head, "higher", 0.15)["verdict"],
                         "spread")

    def test_wide_spread_resolves_when_every_run_is_better(self):
        base = [100.0, 150.0, 60.0, 140.0, 70.0, 100.0, 90.0, 95.0, 130.0, 80.0]
        head = [200.0 + v for v in base]
        self.assertEqual(ab_pairs.verdict(base, head, "higher", 0.15)["verdict"],
                         "gain")

    def test_identical_values_are_the_same(self):
        self.assertEqual(ab_pairs.verdict(BASE, list(BASE), "higher", 0.02)
                         ["verdict"], "same")

    def test_same_bits_counts_exactly_equal_pairs(self):
        # Identical values in every pair, as a bit-identical cvr_auc gives.
        self.assertEqual(ab_pairs.verdict(BASE, list(BASE), "higher", 0.02)
                         ["same_bits"], 10)
        # One ulp apart is not the same bits; a bad run on either side
        # never counts.
        head = list(BASE)
        head[0] = 100.00000000000001
        head[1] = None
        base = list(BASE)
        base[2] = None
        s = ab_pairs.verdict(base, head, "higher", 0.02)
        self.assertNotEqual(head[0], base[0])
        self.assertEqual((s["same_bits"], s["pairs"]), (7, 10))

    def test_unbounded_metric_can_lose(self):
        head = [v * 1.5 for v in BASE]
        self.assertEqual(ab_pairs.verdict(BASE, head, "lower", None)["verdict"],
                         "loss")

    def test_bad_head_run_counts_as_a_lost_pair(self):
        # Nine clear wins and one pair where HEAD gave no result: 9 of 10
        # pairs run, still a gain; a second bad run drops it to 8 of 10.
        head = [v * 1.3 for v in BASE[:9]] + [None]
        s = ab_pairs.verdict(BASE, head, "higher", 0.15)
        self.assertEqual((s["wins"], s["pairs"]), (9, 10))
        self.assertEqual(s["verdict"], "gain")
        head[8] = None
        s = ab_pairs.verdict(BASE, head, "higher", 0.15)
        self.assertEqual((s["wins"], s["pairs"]), (8, 10))
        self.assertEqual(s["verdict"], "same")

    def test_bad_base_run_counts_as_a_won_pair(self):
        base = list(BASE)
        base[0] = None
        head = [v * 1.3 for v in BASE[:9]] + [v * 0.99 for v in BASE[9:]]
        s = ab_pairs.verdict(base, head, "higher", 0.15)
        self.assertEqual((s["wins"], s["pairs"]), (9, 10))
        self.assertEqual(s["verdict"], "gain")

    def test_bad_head_run_voids_every_run_better(self):
        base = [100.0, 150.0, 60.0, 140.0, 70.0, 100.0, 90.0, 95.0, 130.0, 80.0]
        head = [200.0 + v for v in base[:9]] + [None]
        self.assertEqual(ab_pairs.verdict(base, head, "higher", 0.15)["verdict"],
                         "spread")


STUB_RUN = textwrap.dedent("""\
    import json, sys
    correct = {correct}
    print("e2ebench: building", file=sys.stderr)
    if not correct:
        print("e2ebench: check failed: traced losses differ", file=sys.stderr)
    print(json.dumps({{"correct": correct, "attempted": 1, "failed": 0,
                      "metrics": {{"rows_per_s": {{"value": 1.0}}}}}}))
    """)


def make_stub_checkout(root, correct):
    """A checkout whose e2ebench/run.py prints one result and some stderr."""
    os.makedirs(os.path.join(root, "e2ebench"))
    with open(os.path.join(root, "e2ebench", "run.py"), "w") as f:
        f.write(STUB_RUN.format(correct=correct))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
        json.dump({"run_seconds": 1, "end_to_end": [
            {"name": "rows_per_s", "better": "higher", "bound": 0.15}]}, f)


class BadRunTest(unittest.TestCase):
    def test_bad_run_names_its_stderr_file_and_failed_check(self):
        with tempfile.TemporaryDirectory() as tmp:
            base, head = os.path.join(tmp, "base"), os.path.join(tmp, "head")
            make_stub_checkout(base, correct=True)
            make_stub_checkout(head, correct=False)
            logs = os.path.join(tmp, "logs")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = ab_pairs.main([base, head, "--workload", "w",
                                        "--seeds", "3", "--logs", logs])
            text = out.getvalue()
            self.assertEqual(status, 1)
            log_path = os.path.join(logs, "pair01-head-seed3.stderr")
            self.assertIn("bad run: head seed 3: correct=false (stderr: %s)"
                          % log_path, text)
            self.assertIn("    e2ebench: check failed: traced losses differ",
                          text)
            self.assertTrue(os.path.exists(
                os.path.join(logs, "pair01-base-seed3.stderr")))
            self.assertNotIn("bad run: base", text)


def git(repo, *args):
    subprocess.run(["git", "-C", repo, "-c", "user.name=ab", "-c",
                    "user.email=ab@example.com"] + list(args), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@unittest.skipUnless(shutil.which("git"), "needs git")
class RevisionTest(unittest.TestCase):
    def test_revisions_are_unpacked_from_git_archive(self):
        with tempfile.TemporaryDirectory() as tmp:
            repo = os.path.join(tmp, "repo")
            make_stub_checkout(repo, correct=True)
            git(repo, "init", "-q")
            git(repo, "add", "-A")
            git(repo, "commit", "-q", "-m", "good")
            run_py = os.path.join(repo, "e2ebench", "run.py")
            with open(run_py, "w") as f:
                f.write(STUB_RUN.format(correct=False))
            git(repo, "commit", "-q", "-am", "bad")
            # An uncommitted edit must not reach either checkout.
            with open(run_py, "w") as f:
                f.write("raise SystemExit(3)\n")
            checkouts = os.path.join(tmp, "checkouts")
            logs = os.path.join(tmp, "logs")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = ab_pairs.main([
                    "--base-rev", "HEAD~1", "--head-rev", "HEAD", "--repo",
                    repo, "--checkouts", checkouts, "--workload", "w",
                    "--seeds", "3", "--logs", logs])
            text = out.getvalue()
            self.assertEqual(status, 1)
            self.assertIn("base: HEAD~1 (", text)
            self.assertIn(") in %s" % os.path.join(checkouts, "head"), text)
            self.assertIn("bad run: head seed 3: correct=false", text)
            self.assertNotIn("bad run: base", text)
            for side in ("base", "head"):
                self.assertTrue(os.path.exists(os.path.join(
                    checkouts, side, "e2ebench", "run.py")))
                self.assertFalse(os.path.exists(os.path.join(
                    checkouts, side + ".tar")))

    def test_paths_and_revisions_do_not_mix(self):
        for argv in (["a", "--head-rev", "HEAD"],
                     ["a", "b", "--base-rev", "HEAD"],
                     ["--base-rev", "HEAD"]):
            with contextlib.redirect_stderr(io.StringIO()), \
                    self.assertRaises(SystemExit):
                ab_pairs.main(argv + ["--workload", "w", "--seeds", "1"])


if __name__ == "__main__":
    unittest.main()
