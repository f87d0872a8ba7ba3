#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs every workload on short simulated spans (--quick), untraced and
traced, and checks that each prints every metric with its unit and passes
the verdict; that a deliberately mismatched run_scenario reference is
reported as failed runs; and that the benchmark refuses to run, without
printing a result, when the simulator sources are missing.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
import run  # noqa: E402  (for its metric tables)


def bench(*args, cwd=ROOT):
    """Runs run.py; returns (exit code, stdout lines, last-line JSON)."""
    out = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, lines, result


class QuickRuns(unittest.TestCase):
    def check(self, workload, trace):
        rc, lines, res = bench("--workload", workload, "--seed", "3",
                               "--seconds", "0", "--trace", str(trace),
                               "--quick")
        self.assertEqual(rc, 0, "\n".join(lines))
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], "\n".join(lines))
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 3)
        want = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(res["metrics"]), set(want))
        for name, unit in want.items():
            self.assertEqual(res["metrics"][name]["unit"], unit)
            self.assertIsInstance(res["metrics"][name]["value"], (int, float))
        self.assertTrue(any(l.startswith("env: ") for l in lines))
        return res["metrics"]

    def test_small_rpc(self):
        m = self.check("small_rpc", 0)
        self.assertGreater(m["sim_pkts_per_s"]["value"], 0)
        t = self.check("small_rpc", 1)
        self.assertEqual(t["core.to_control"]["value"], 0)
        self.assertGreater(t["core.deliver_calls"]["value"], 0)

    def test_conn_churn(self):
        self.check("conn_churn", 0)
        t = self.check("conn_churn", 1)
        self.assertGreater(t["core.to_control"]["value"], 0)
        self.assertGreater(t["baseline.connect_ns"]["value"], 0)

    def test_bulk_tx_lossy(self):
        self.check("bulk_tx_lossy", 0)
        t = self.check("bulk_tx_lossy", 1)
        self.assertGreater(t["net.drops"]["value"], 0)
        self.assertGreater(t["core.fast_retransmits"]["value"], 0)


class Verdict(unittest.TestCase):
    def test_mismatched_reference_fails(self):
        rc, lines, res = bench("--workload", "small_rpc", "--seed", "0",
                               "--seconds", "0", "--trace", "0", "--quick",
                               "--perturb-reference")
        self.assertEqual(rc, 0, "\n".join(lines))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertTrue(any("run_scenario" in l for l in lines))

    def test_without_sources_exits_nonzero(self):
        bare = ROOT / ".bench_build" / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            rc, lines, res = bench("--workload", "small_rpc", "--seed", "0",
                                   "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(res)


if __name__ == "__main__":
    unittest.main(verbosity=2)
