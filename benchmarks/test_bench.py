"""Self-tests of the benchmark: result schema and output gates, at tiny sizes.

    python3 -m unittest discover -s benchmarks

No timing is asserted.  Each workload runs once at a tiny n_cells through
its gates, and one deliberately corrupted output per workload must count
as a failed operation.
"""

import json
import math
import shutil
import tempfile
import unittest
from pathlib import Path

import run
import tracer
import workloads

TINY = {"theorem_run": 50, "sweeps": 20, "freqresp": 20}


def check_result_schema(test: unittest.TestCase, result: dict) -> None:
    keys = {
        "workload", "n_cells", "seed", "seconds", "trace", "correct", "attempted", "failed",
        "failed_ops_ratio", "failures", "digests", "repetitions", "metrics", "provenance",
    }
    test.assertEqual(set(result), keys)
    test.assertIsInstance(result["attempted"], int)
    test.assertGreaterEqual(result["attempted"], 1)
    test.assertIsInstance(result["failed"], int)
    expected = tracer.LAYER_UNITS if result["trace"] else run.END_TO_END_UNITS
    test.assertEqual(list(result["metrics"]), list(expected))
    for name, metric in result["metrics"].items():
        test.assertEqual(set(metric), {"value", "unit", "n", "q1", "q3", "tail", "samples"}, name)
        test.assertEqual(metric["unit"], expected[name])
        test.assertTrue(math.isfinite(metric["value"]), name)
        test.assertEqual(metric["n"], len(metric["samples"]))
    test.assertEqual(
        set(result["provenance"]),
        {"nproc", "cpu_model", "last_level_cache", "python", "numpy", "git_commit",
         "loadavg_before", "loadavg_after", "host_steal_s"},
    )
    line = json.loads(run.summary_line(result))
    test.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
    spec = run.ROOT / "BENCHMARK.json"
    if spec.is_file():
        declared = json.loads(spec.read_text())["per_layer" if result["trace"] else "end_to_end"]
        test.assertEqual({m["name"]: m["unit"] for m in declared}, {k: v["unit"] for k, v in line["metrics"].items()})


class ResultSchema(unittest.TestCase):
    def test_untraced_result_file(self):
        result = run.run_benchmark("theorem_run", 3, 0, False, TINY["theorem_run"])
        self.assertTrue(result["correct"], result["failures"])
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            path = Path(tmp) / "result.json"
            path.write_text(json.dumps(result))
            check_result_schema(self, json.loads(path.read_text()))

    def test_traced_counts_repeat(self):
        result = run.run_benchmark("sweeps", 3, 0, True, TINY["sweeps"])
        self.assertTrue(result["correct"], result["failures"])
        check_result_schema(self, result)
        metrics = result["metrics"]
        self.assertEqual(metrics["solver.advance_calls"]["q1"], metrics["solver.advance_calls"]["q3"])
        self.assertGreater(metrics["grid.l2_calls"]["value"], 0)
        self.assertGreater(metrics["cli.pool_busy_ratio"]["value"], 0)


class Gates(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=run.OUT))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def outputs(self, name):
        workload = workloads.make_workload(name, 5, TINY[name])
        rcs = [run.run_child(["run", *inv.argv(self.tmp)], self.tmp / "log").rc for inv in workload.invocations]
        return workload, rcs

    def assert_clean(self, workload, rcs):
        result = workload.check(self.tmp, rcs)
        self.assertEqual((result.failed, result.failures), (0, []))
        self.assertGreater(result.attempted, 0)
        return result

    def test_theorem_run_corrupted_prediction_error(self):
        workload, rcs = self.outputs("theorem_run")
        self.assert_clean(workload, rcs)
        norms = self.tmp / "run" / "norms.csv"
        lines = norms.read_text().split("\n")
        fields = lines[-2].split(",")
        fields[3] = "1.0e-06"
        lines[-2] = ",".join(fields)
        norms.write_text("\n".join(lines))
        result = workload.check(self.tmp, rcs)
        self.assertEqual(result.failed, 1)
        self.assertIn("pred_err", result.failures[0])

    def test_sweeps_corrupted_gamma(self):
        workload, rcs = self.outputs("sweeps")
        self.assertEqual(self.assert_clean(workload, rcs).attempted, 12)
        sweep = self.tmp / "sano_baseline" / "sweep.csv"
        text = sweep.read_text()
        row = text.split("\n")[2]
        gamma = row.split(",")[13]
        sweep.write_text(text.replace(row, row.replace(gamma, repr(float(gamma) * (1 + 1e-6)))))
        result = workload.check(self.tmp, rcs)
        self.assertEqual(result.failed, 1)
        self.assertIn("sano_baseline row 1", result.failures[0])

    def test_freqresp_missing_output_and_exit_code(self):
        workload, rcs = self.outputs("freqresp")
        self.assertEqual(self.assert_clean(workload, rcs).attempted, 3)
        self.assertEqual(workload.check(self.tmp, [4]).failed, 3)
        (self.tmp / "freqresp" / "freqresp.csv").unlink()
        self.assertEqual(workload.check(self.tmp, rcs).failed, 3)


class Analytic(unittest.TestCase):
    def test_decay_rate_is_ln2_for_the_readme_parameters(self):
        p = workloads.read_config("theorem_run.ini")
        self.assertAlmostEqual(workloads.analytic_decay_rate(p), math.log(2.0), places=12)


if __name__ == "__main__":
    unittest.main()
