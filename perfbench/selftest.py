"""Self-tests of the benchmark: its checks catch bad output, its counts
repeat, and it refuses to run where it cannot measure honestly.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Takes about two minutes, most of
it in the traced runs of ``test_counts_repeat_across_traced_runs``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from linksim import cli, scenarios  # noqa: E402

# counts that must repeat exactly for a seed
EXACT = ("scenarios.objective_calls", "scenarios.nm_iterations",
         "superposition.joint_kraus_ops", "linalg.density_checks",
         "scenarios.points", "channels.builds", "metrics.concurrence_calls",
         "superposition.apply_flop_computed")


def bench(*args: str, env=None, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170)


class Patched:
    """Swap a module attribute for the duration of a ``with`` block."""

    def __init__(self, owner, name, value):
        self.owner, self.name, self.value = owner, name, value

    def __enter__(self):
        self.saved = getattr(self.owner, self.name)
        setattr(self.owner, self.name, self.value)

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.saved)


class CheckTests(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=run.OUT))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def workload(self, name, seed=5):
        w = WORKLOADS[name](seed, self.workdir)
        w.prepare()
        return w

    def fail_ratio(self, ops) -> float:
        ledger = run.Ledger()
        run.run_pass(ops, "interpreter", ledger)
        return ledger.failed / ledger.attempted

    def test_clean_output_passes(self):
        w = self.workload("figures")
        self.assertEqual(self.fail_ratio(w.ops()), 0.0)

    def test_corrupted_csv_raises_fail_ratio(self):
        w = self.workload("figures")
        write = cli._write_records

        def corrupt(records, out_path):
            write(records, out_path)
            text = Path(out_path).read_text()
            Path(out_path).write_text(text.replace("0.7", "0.8", 1))

        with Patched(cli, "_write_records", corrupt):
            ratio = self.fail_ratio(w.ops()[:1])
        self.assertEqual(ratio, 1.0)

    def test_perturbed_fidelity_raises_fail_ratio(self):
        # the random-config sweeps are checked against the oracle only
        w = self.workload("figures")
        evaluate = scenarios.evaluate_point

        def perturbed(*args, **kwargs):
            return [dataclasses.replace(r, fidelity=r.fidelity + 1e-6)
                    for r in evaluate(*args, **kwargs)]

        random_ops = [op for op in w.ops() if op.name.startswith("random_")]
        with Patched(scenarios, "evaluate_point", perturbed):
            self.assertEqual(self.fail_ratio(random_ops), 1.0)

    def test_perturbed_optimizer_result_raises_fail_ratio(self):
        w = self.workload("optimize")
        optimize = scenarios.optimize_amplitudes

        def perturbed(*args, **kwargs):
            res = optimize(*args, **kwargs)
            return dataclasses.replace(res, best_fidelity=res.best_fidelity + 1e-6)

        with Patched(scenarios, "optimize_amplitudes", perturbed):
            self.assertEqual(self.fail_ratio(w.ops()[:1]), 1.0)

    def test_ghz8_point_checked_against_n4(self):
        w = self.workload("ghz8")
        first = w.first_op()
        self.assertEqual(self.fail_ratio([first]), 0.0)
        evaluate = scenarios.evaluate_point

        def perturbed(*args, **kwargs):
            return [dataclasses.replace(r, conc_one_vs_rest=r.conc_one_vs_rest + 1e-6)
                    for r in evaluate(*args, **kwargs)]

        with Patched(scenarios, "evaluate_point", perturbed):
            self.assertEqual(self.fail_ratio([first]), 1.0)

    def test_inputs_follow_the_seed(self):
        a = WORKLOADS["figures"](3, self.workdir).inputs()
        b = WORKLOADS["figures"](3, self.workdir).inputs()
        c = WORKLOADS["figures"](4, self.workdir).inputs()
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


class RunTests(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                results, records = [], []
                for _ in range(2):
                    proc = bench("--workload", name, "--seed", "7",
                                 "--seconds", "0", "--trace", "1")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    results.append(json.loads(proc.stdout.splitlines()[-1]))
                    records.append(json.loads(
                        (run.OUT / f"{name}-seed7-trace1.json").read_text()))
                first, second = (r["metrics"] for r in results)
                self.assertTrue(results[0]["correct"])
                for metric in EXACT:
                    self.assertEqual(first[metric], second[metric], metric)
                self.assertGreater(first["scenarios.points"]["value"]
                                   + first["scenarios.objective_calls"]["value"], 0)
                # self times plus the benchmark's own time are the traced wall
                for p in records[0]["detail"]["traced_passes"]:
                    layers = [p[f"{layer}_s"] for layer in LAYERS]
                    self.assertAlmostEqual(sum(layers) + p["bench.self_s"],
                                           p["traced_wall_s"], places=9)
                    self.assertGreaterEqual(min(layers), -1e-6)

    def test_refuses_threads(self):
        env = dict(os.environ, THREADS="2")
        proc = bench("--workload", "figures", "--seed", "1", "--seconds", "0",
                     env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_fails_without_the_package(self):
        run.OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.OUT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".out", "__pycache__"))
            proc = bench("--workload", "figures", "--seed", "1", "--seconds", "1",
                         cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
