"""Self-test of the benchmark at toy size.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric in ``BENCHMARK.json``
is emitted with its unit, that a traced repetition reproduces the
untraced report digest, that the table1 shape check and the
cross-mode identity check trip on doctored results, and that the
orchestrator refuses to run without a source tree.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from names import END_TO_END, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def toy_rep(workload: str, mode: str, trace_dir: str) -> dict:
    """One toy-size repetition in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload,
         "--seed", "3", "--mode", mode, "--toy", "--trace-dir", trace_dir],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    """Every declared metric comes out, with its declared unit."""

    @classmethod
    def setUpClass(cls) -> None:
        cls.tmp = tempfile.TemporaryDirectory()
        cls.reps = {
            name: (toy_rep(name, "timed", cls.tmp.name),
                   toy_rep(name, "traced", cls.tmp.name))
            for name in WORKLOADS
        }

    @classmethod
    def tearDownClass(cls) -> None:
        cls.tmp.cleanup()

    def test_benchmark_json_matches_names(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         LAYERS)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(WORKLOADS))

    def test_every_metric_emitted(self) -> None:
        for name, (timed, traced) in self.reps.items():
            with self.subTest(workload=name):
                self.assertEqual(set(run.end_to_end_metrics([timed])),
                                 set(END_TO_END))
                self.assertEqual(set(run.layer_medians([timed], [traced])),
                                 set(LAYERS))
                self.assertEqual(timed["failed"], 0, timed["problems"])

    def test_traced_digest_matches_untraced(self) -> None:
        for name, (timed, traced) in self.reps.items():
            with self.subTest(workload=name):
                self.assertEqual(traced["digest"], timed["digest"])
                self.assertGreaterEqual(
                    traced["layers"]["trace.coverage"], 0.9)

    def test_identity_check_counts_diverged_sessions(self) -> None:
        timed, _ = self.reps["metro_2shard"]
        reference, _ = self.reps["metro"]
        self.assertEqual(run.identity_failures(timed, reference)[0], 0)
        doctored = dict(timed, cells=dict(timed["cells"], **{"1": "x"}))
        failed, problems = run.identity_failures(doctored, reference)
        self.assertEqual(failed, len(set(timed["flows"]["1"])
                                     | set(reference["flows"]["1"])))
        self.assertTrue(problems)


class Table1Shape(unittest.TestCase):
    """The paper's shape holds on a real table1 run and trips when
    the result is doctored."""

    @classmethod
    def setUpClass(cls) -> None:
        import checks
        from workloads import run as run_workload, setup
        table1 = WORKLOADS["table1"]
        cls.checks = checks
        cls.reports = run_workload(table1, setup(table1, 0)).reports

    def doctor(self, scheme: str, **changes) -> dict:
        reports = dict(self.reports)
        label = next(label for label in reports
                     if label.startswith(scheme + "/"))
        report = reports[label]
        clients = [dataclasses.replace(c, **changes.get("client", {}))
                   for c in report.clients]
        data = {flow: rate * changes.get("data_scale", 1.0)
                for flow, rate in report.data_throughput_bps.items()}
        reports[label] = dataclasses.replace(
            report, clients=clients, data_throughput_bps=data)
        return reports

    def test_real_result_passes(self) -> None:
        self.assertEqual(self.checks.table1_shape(self.reports), [])

    def test_flare_rebuffering_trips(self) -> None:
        doctored = self.doctor("flare", client={"rebuffer_time_s": 1.0})
        self.assertTrue(self.checks.table1_shape(doctored))

    def test_flare_instability_trips(self) -> None:
        doctored = self.doctor("flare", client={"num_bitrate_changes": 99})
        self.assertTrue(self.checks.table1_shape(doctored))

    def test_festive_data_share_trips(self) -> None:
        doctored = self.doctor("festive", data_scale=0.1)
        self.assertTrue(self.checks.table1_shape(doctored))


class NoSourceTree(unittest.TestCase):
    """Outside a checkout the benchmark fails without a result line."""

    def test_exits_nonzero(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for path in HERE.glob("*.py"):
                (bench / path.name).write_text(path.read_text())
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "table1",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
