"""Self-tests for the benchmark.  From the repository root:

    python3 perfbench/test_run.py

They build the measuring program into .bench_build (as run.py does) and
take under a minute.
"""

import json
import os
import shutil
import statistics
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Arithmetic(unittest.TestCase):
    def test_quartiles_are_the_exclusive_method(self):
        # Positions (n + 1) * p on the sorted values 1, 2, 3, 4.
        self.assertEqual(run.quartiles([4, 1, 3, 2]), (1.25, 2.5, 3.75))
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([7.5]), (7.5, 7.5, 7.5))
        self.assertEqual(run.spread([7.5]), 0.0)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.spread([1, 2, 3, 4]), (3.75 - 1.25) / 2.5)
        self.assertEqual(run.spread([5, 5, 5]), 0.0)
        self.assertEqual(run.spread([0, 0, 0]), 0.0)

    def test_summary_takes_the_median(self):
        runs = [{"x": v} for v in (1.0, 2.0, 10.0, 4.0)]
        median, note = run.summarize(["x"], runs)["x"]
        self.assertEqual(median, 3.0)
        self.assertIn("median of 4", note)


def fake(**kw):
    r = {"attempted": 10, "failed": 0, "dropped": 0,
         "trace.producer_sum_error_pct": 0.5}
    r.update(kw)
    return r


class Gate(unittest.TestCase):
    def test_clean_runs_pass(self):
        self.assertEqual(run.gate([fake(), fake()])[:3], (True, 20, 0))

    def test_mismatch_fails(self):
        correct, _, failed, _ = run.gate([fake(), fake(failed=1)])
        self.assertEqual((correct, failed), (False, 1))

    def test_dropped_item_fails(self):
        self.assertFalse(run.gate([fake(dropped=128)])[0])

    def test_producer_accounting_out_of_tolerance_fails(self):
        over = fake(**{"trace.producer_sum_error_pct":
                       run.ACCOUNTING_TOLERANCE_PCT + 0.1})
        self.assertFalse(run.gate([fake()], [over])[0])
        self.assertTrue(run.gate([fake()], [fake()])[0])


class Contract(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


class Program(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-test-", dir=run.BUILD_DIR)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def workdir(self):
        return tempfile.mkdtemp(dir=self.tmp)

    def generated(self, workload, seed):
        d = self.workdir()
        run.gen(workload, seed, d)
        files = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as f:
                files[name] = f.read()
        return files

    def test_same_seed_same_bytes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.generated(workload, 7)
                self.assertEqual(first, self.generated(workload, 7))
                self.assertNotEqual(first, self.generated(workload, 8))

    def corrupted_reference_fails(self, workload, line):
        d = self.workdir()
        run.gen(workload, 3, d)
        run.reference(workload, d)
        clean = run.measure(workload, d, traced=False)
        self.assertTrue(run.gate([clean])[0])
        ref = os.path.join(d, "ref.txt")
        with open(ref) as f:
            lines = f.read().splitlines()
        lines[line] += " corrupted"
        with open(ref, "w") as f:
            f.write("\n".join(lines) + "\n")
        bad = run.measure(workload, d, traced=False)
        self.assertEqual(bad["failed"], 1)
        self.assertFalse(run.gate([bad])[0])

    def test_corrupted_tenant_reference_fails_the_gate(self):
        self.corrupted_reference_fails("serve-wide", 5)

    def test_corrupted_cell_reference_fails_the_gate(self):
        # Line 0 of the sweep reference is the event count, not a cell.
        self.corrupted_reference_fails("sweep-grid", 5)


if __name__ == "__main__":
    unittest.main()
