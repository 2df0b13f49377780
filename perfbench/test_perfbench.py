"""Self-tests of the benchmark at `quick` scale.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

SEED = 5


def harness(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli, cls.bench = run.build()
        cls.tmp = os.path.join(run.WORK, "selftest")
        run.remove(cls.tmp)
        os.makedirs(cls.tmp)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    @classmethod
    def tearDownClass(cls):
        run.remove(cls.tmp)

    def child(self, argv, name):
        out = os.path.join(self.tmp, name + ".stdout")
        err = os.path.join(self.tmp, name + ".stderr")
        return run.run_child(self.bench, argv, run.ROOT, out, err)

    def test_setup_writes_the_world_the_cli_generates(self):
        ours = os.path.join(self.tmp, "setup-world")
        cli = os.path.join(self.tmp, "cli-world")
        _, _, code = self.child([self.bench, "setup", "--scale", "quick", "--seed", str(SEED),
                                 "--out", ours], "setup")
        self.assertEqual(code, 0)
        _, _, code = self.child([self.cli, "generate", "--scale", "quick", "--seed", str(SEED),
                                 "--out", cli], "generate")
        self.assertEqual(code, 0)
        self.assertEqual(sorted(os.listdir(ours)), sorted(os.listdir(cli)))
        self.assertEqual(run.digest_tree(ours), run.digest_tree(cli))

    def test_child_peak_rss_repeats_on_the_same_world(self):
        world = os.path.join(self.tmp, "rss-world")
        _, _, code = self.child([self.bench, "setup", "--scale", "quick", "--seed", str(SEED),
                                 "--out", world], "setup")
        self.assertEqual(code, 0)
        argv = [self.cli, "analyze", "--world", world, "--workers", "1"]
        peaks = []
        for i in range(3):
            _, rss, code = self.child(argv, f"analyze{i}")
            self.assertEqual(code, 0)
            peaks.append(rss)
        self.assertLess((max(peaks) - min(peaks)) / min(peaks), 0.02, peaks)

    def test_child_peak_rss_excludes_the_harness(self):
        ballast = b"\x01" * (64 << 20)
        _, rss, code = self.child([self.cli, "--help"], "help")
        self.assertEqual(code, 0)
        self.assertLess(rss, 16.0)
        del ballast

    def test_every_workload_reports_every_metric(self):
        for workload in ("batch", "replay", "dirty"):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = harness("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                                "--trace", str(trace), "--scale", "quick")
                    self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                    result = json.loads(r.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], r.stderr[-2000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = {m["name"] for m in self.spec[kind]}
                    self.assertEqual(set(result["metrics"]), names)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                    if trace:
                        coverage = result["metrics"]["bench.span_coverage"]["value"]
                        self.assertGreaterEqual(coverage, 0.95)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory(dir=self.tmp) as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            r = harness("--workload", "batch", cwd=bare)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
