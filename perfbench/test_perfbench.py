"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They cover the pieces a wrong number would hide behind: the percentile
rule, the ground-truth oracle and byte-identity check, and the residual
arithmetic of the per-layer table. The helper crate has its own tests:
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def report(package, kinds):
    """A report in the one-shot `--json` shape (pretty, sorted keys)."""
    doc = {
        "defects": [{"kind": k, "library": "Volley"} for k in kinds],
        "degraded": False,
        "skipped_methods": [],
        "stats": {"package": package, "requests": len(kinds)},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


BUNDLE = {"package": "com.store.app000001",
          "expect": ["missed-retry", "missed-timeout", "missed-timeout"]}


class NearestRank(unittest.TestCase):
    def test_picks_the_smallest_sample_covering_the_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 50), 50)
        self.assertEqual(run.nearest_rank(values, 99), 99)
        self.assertEqual(run.nearest_rank(values, 100), 100)
        self.assertEqual(run.nearest_rank(values, 0), 1)

    def test_never_interpolates(self):
        self.assertEqual(run.nearest_rank([10, 20, 30, 40], 50), 20)
        self.assertEqual(run.nearest_rank([10, 20, 30, 40], 51), 30)
        self.assertEqual(run.nearest_rank([40, 10, 30, 20], 99), 40)

    def test_p99_of_a_thousand_samples_leaves_ten_above(self):
        values = list(range(1000))
        p99 = run.nearest_rank(values, 99)
        self.assertEqual(sum(v > p99 for v in values), 10)

    def test_rejects_no_samples(self):
        with self.assertRaises(ValueError):
            run.nearest_rank([], 50)


class Oracle(unittest.TestCase):
    def test_accepts_the_expected_multiset_in_any_order(self):
        text = report(BUNDLE["package"], ["missed-timeout", "missed-retry", "missed-timeout"])
        self.assertTrue(run.oracle_ok(text, BUNDLE))

    def test_rejects_doctored_reports(self):
        pkg = BUNDLE["package"]
        doctored = {
            "dropped defect": report(pkg, ["missed-retry", "missed-timeout"]),
            "extra defect": report(pkg, BUNDLE["expect"] + ["missed-retry"]),
            "wrong kind": report(pkg, ["missed-retry", "missed-timeout", "missed-retry"]),
            "wrong app": report("com.store.app000002", BUNDLE["expect"]),
            "truncated": report(pkg, BUNDLE["expect"])[:-20],
        }
        for what, text in doctored.items():
            with self.subTest(what):
                self.assertFalse(run.oracle_ok(text, BUNDLE))

    def test_checker_requires_byte_identity_with_the_reference(self):
        good = report(BUNDLE["package"], BUNDLE["expect"])
        checker = run.Checker({"1:0": BUNDLE}, {"1:0": run.sha(good)})
        self.assertTrue(checker.ok("1:0", good))
        # Same defects, different bytes: the oracle passes, identity fails.
        reflowed = json.dumps(json.loads(good), indent=4, sort_keys=True) + "\n"
        self.assertTrue(run.oracle_ok(reflowed, BUNDLE))
        self.assertFalse(checker.ok("1:0", reflowed))
        doctored = report(BUNDLE["package"], BUNDLE["expect"][:2])
        self.assertFalse(checker.ok("1:0", doctored))

    def test_stream_counts_each_wrong_report(self):
        good = report(BUNDLE["package"], BUNDLE["expect"])
        bad = report(BUNDLE["package"], [])
        checker = run.Checker({"1:0": BUNDLE}, {"1:0": run.sha(good)})
        self.assertEqual(checker.stream(good + good, ["1:0", "1:0"]), 0)
        self.assertEqual(checker.stream(good + bad, ["1:0", "1:0"]), 1)
        # A missing report fails every app of the stream.
        self.assertEqual(checker.stream(good, ["1:0", "1:0"]), 2)


class SplitReports(unittest.TestCase):
    def test_splits_on_column_zero_closing_braces_only(self):
        a = report("a", ["missed-retry"])
        b = report("b", [])
        self.assertEqual(run.split_reports(a + b), [a, b])

    def test_rejects_a_partial_tail(self):
        with self.assertRaises(run.BenchError):
            run.split_reports(report("a", []) + "{\n  \"defects\"")


class Residual(unittest.TestCase):
    def test_wall_minus_additive_rows(self):
        rows = {name: 10.0 for name in run.ADDITIVE_ROWS}
        wall = 10.0 * len(run.ADDITIVE_ROWS) + 7.5
        self.assertAlmostEqual(run.residual_ms(wall, rows), 7.5)

    def test_counts_and_gauges_are_not_time(self):
        rows = {"io.read_ms": 4.0, "ir.stmts": 1e6, "store.hits_mem": 1400,
                "daemon.report_rpc_ms": 0.2, "daemon.rss_mib.wave_0": 190.0}
        self.assertAlmostEqual(run.residual_ms(5.0, rows), 1.0)

    def test_negative_when_rows_exceed_the_wall(self):
        self.assertAlmostEqual(run.residual_ms(1.0, {"core.checkers_ms": 3.0}), -2.0)

    def test_every_additive_row_is_a_millisecond_row(self):
        for name in run.ADDITIVE_ROWS:
            self.assertEqual(run.ROW_UNITS.get(name), "ms", name)


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_names_what_the_script_prints(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        listed = {w["name"] for w in spec["workloads"]}
        self.assertEqual(listed, set(run.WORKLOADS) - {"daemon"})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.LAYER_UNITS)
        for workload, rows in run.WORKLOAD_ROWS.items():
            self.assertIn("residual_ms", rows, workload)
            self.assertIn("trace_overhead_frac", rows, workload)


if __name__ == "__main__":
    unittest.main()
