"""Tiny-size self-test of the benchmark. Asserts no timings.

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json appears, with its
unit, for every workload in both the untraced and the traced run; that
each workload's output checks pass on real output and fail on corrupted
output; that timed calls sample the reference loop and leave no timer
or signal handler behind; and that the benchmark exits with an error and
prints no result where the package sources are missing.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def one_unit(name: str):
    workload = workloads.WORKLOADS[name](seed=3, size="tiny")
    ctx = workloads.Context(workloads.Caches())
    units, _ = workloads.measure(workload, ctx, units=1)
    return workload, units[0]


class MetricsPresent(unittest.TestCase):
    def test_every_metric_for_every_workload(self):
        for entry in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=entry["name"], trace=trace):
                    proc = run_bench("--workload", entry["name"], "--seed", "3", "--seconds", "0",
                                     "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().split("\n")[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in want:
                        self.assertIn(name, proc.stdout.split("\n", 3)[3])

    def test_no_sources_no_result(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / HERE.name).mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / HERE.name)
        proc = run_bench("--workload", "atlas", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=bare, script=bare / HERE.name / "run.py")
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class ReferenceLoop(unittest.TestCase):
    def test_timed_calls_sample_the_loop(self):
        workload = workloads.WORKLOADS["dense_words"](seed=3, size="tiny")
        ctx = workloads.Context(workloads.Caches(), reference_loop=True)
        before = signal.getsignal(signal.SIGALRM)
        units, _ = workloads.measure(workload, ctx, units=1)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        for s in units[0]:
            self.assertGreater(s.loop_s, 0)
            self.assertGreater(s.scaled_s, 0)
            self.assertEqual(workload.check(s.payload), (0, []))


class ChecksCatchCorruption(unittest.TestCase):
    def assert_clean(self, workload, samples):
        for s in samples:
            self.assertEqual(workload.check(s.payload), (0, []))

    def assert_caught(self, workload, payload):
        bad, errors = workload.check(payload)
        self.assertGreater(bad, 0)
        self.assertTrue(errors)

    def test_cli_queries(self):
        workload, samples = one_unit("cli_queries")
        self.assert_clean(workload, samples)
        by_mode = {s.payload[0].mode: s.payload for s in samples}
        query, rc, text = by_mode["json"]
        self.assert_caught(workload, (query, 3, text))
        for corrupt in (
            lambda doc: doc["certificate"].update(b1=doc["certificate"]["b1"] + 1),
            lambda doc: doc["triple"].update(c=doc["triple"]["c"] + 2),
            # Only the pairing route sees a recipe whose weights do not
            # give the certified degeneracy.
            lambda doc: doc["recipe"].update(d=doc["recipe"]["d"] + 1, k=doc["recipe"]["k"] + 1),
        ):
            doc = json.loads(text)
            corrupt(doc)
            self.assert_caught(workload, (query, rc, json.dumps(doc)))
        query, rc, text = by_mode["tsv"]
        header, row, _ = text.split("\n")
        cells = row.split("\t")
        cells[8] = str(int(cells[8]) + 2)  # b1
        self.assert_caught(workload, (query, rc, "\n".join([header, "\t".join(cells), ""])))
        self.assert_caught(workload, (query, rc, header + "\n"))

    def test_atlas(self):
        workload, samples = one_unit("atlas")
        self.assert_clean(workload, samples)
        rc, text = samples[0].payload
        lines = text.rstrip("\n").split("\n")
        self.assert_caught(workload, (rc, "\n".join(lines[:-1]) + "\n"))
        cells = lines[1].split("\t")
        cells[6] = str(int(cells[6]) - 8)  # sigma
        self.assert_caught(workload, (rc, "\n".join([lines[0], "\t".join(cells), *lines[2:]]) + "\n"))
        self.assert_caught(workload, (1, text))

    def test_verify_grid(self):
        workload, samples = one_unit("verify_grid")
        self.assert_clean(workload, samples)
        report = copy.copy(samples[0].payload)
        report.cases -= 1
        self.assert_caught(workload, report)
        report = copy.copy(samples[0].payload)
        report.failures = ["(d=0, k=0, g=1, e=0) pairing_rank_even"]
        self.assert_caught(workload, report)

    def test_dense_words(self):
        workload, samples = one_unit("dense_words")
        self.assert_clean(workload, samples)
        letters, monodromy, data = samples[0].payload
        wrong_b1 = types.SimpleNamespace(b1=data.b1 + 1, invariant_basis=data.invariant_basis)
        self.assert_caught(workload, (letters, monodromy, wrong_b1))
        wrong_m = [[int(x) for x in row] for row in monodromy]
        wrong_m[0][0] += 1
        self.assert_caught(workload, (letters, wrong_m, data))


if __name__ == "__main__":
    unittest.main()
