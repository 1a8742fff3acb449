"""Tests for the benchmark's own helpers and inputs.

    python3 perfbench/test_metrics.py

The input tests build perfbench/hdbench.exe with dune and are skipped
outside a source tree.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402
import metrics  # noqa: E402

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def sample(ms, key="k", pass_=0, acyclic=None, hit=None, exact=1, solves=1, width=2.0, **extra):
    s = {"pass": pass_, "key": key, "ms": ms, "exact": exact, "solves": solves, "width": width,
         "ok": True}
    if acyclic is not None:
        s["acyclic"] = acyclic
    if hit is not None:
        s["hit"] = hit
    s.update(extra)
    return s


def untraced_record(n=120):
    samples = [
        sample(float(i + 1), key="k%d" % (i % 6), pass_=i // 60,
               acyclic=i % 3 == 0, hit=i >= 60, exact=i % 2, width=float(i % 6))
        for i in range(n)
    ]
    return {"workload": "w", "seed": 1, "setup_s": [0.3, 0.1, 0.2], "pass_s": [1.0, 1.0],
            "attempted": n, "failed": 0, "peak_rss_mb": 12.5, "samples": samples}


def traced_record():
    raw = untraced_record()
    raw["samples"] = [dict(s, submit_ms=0.5, compute_ms=0.25) for s in raw["samples"]]
    raw["trace"] = {
        "untraced_ops": 120, "untraced_elapsed_s": 2.0, "traced_elapsed_s": 2.4,
        "counters_before": {"search.nodes_expanded": 5, "lp.memo_hits": 1, "lp.memo_misses": 1},
        "counters_after": {"search.nodes_expanded": 605, "lp.memo_hits": 4, "lp.memo_misses": 2,
                           "lp.solves": 10, "lp.pivots": 70},
        "obs_spans": [{"name": "query.run", "calls": 2, "seconds": 1.0,
                       "children": [{"name": "query.reduce", "calls": 2, "seconds": 0.25,
                                     "children": []}]}],
        "spans": [[0, 0, "op", -1, 0.0, 10.0],
                  [1, 0, "hd_engine.solve.bb-ghw", 0, 1.0, 7.0],
                  [2, 0, "hd_corpus.parse", 0, 0.0, 1.0]],
    }
    return raw


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(metrics.percentile([3, 1, 2], 0.5), 2)
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(metrics.percentile(list(range(1, 101)), 0.9), 90.1)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)

    def test_tail_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        p90, n = metrics.tail_percentile(values, 0.9)
        self.assertEqual(n, 100)
        self.assertEqual(sum(1 for v in values if v > p90), 10)
        self.assertEqual(metrics.beyond(100, 0.9), 10)
        with self.assertRaises(ValueError):
            metrics.tail_percentile(list(range(80)), 0.9)

    def test_beyond_counts_samples_past_the_quantile(self):
        for n in range(2, 300):
            values = list(range(n))
            p = metrics.percentile(values, 0.9)
            self.assertEqual(metrics.beyond(n, 0.9), sum(1 for v in values if v > p), n)


class CountersAndRatios(unittest.TestCase):
    def test_deltas_cover_both_snapshots(self):
        self.assertEqual(metrics.deltas({"a": 1, "b": 2}, {"a": 4, "b": 2, "c": 3}),
                         {"a": 3, "b": 0, "c": 3})

    def test_counters_never_go_down(self):
        with self.assertRaises(ValueError):
            metrics.deltas({"a": 5}, {"a": 4})

    def test_ratio_of_empty_base_is_zero(self):
        self.assertEqual(metrics.ratio(3, 0), 0.0)
        self.assertEqual(metrics.ratio(3, 4), 0.75)

    def test_hit_ratio_reports_its_base(self):
        self.assertEqual(metrics.hit_ratio({"x.memo_hits": 3, "x.memo_misses": 1}, "x.memo"), (0.75, 4))
        self.assertEqual(metrics.hit_ratio({}, "x.memo"), (0.0, 0))


class Spans(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        spans = [[0, 0, "op", -1, 0.0, 10.0],
                 [1, 0, "a", 0, 1.0, 4.0],
                 [2, 0, "b", 0, 3.0, 6.0],  # overlaps a: counted once
                 [3, 0, "c", 0, 9.0, 12.0]]  # runs past op: clipped
        t = metrics.self_times(spans)
        self.assertEqual(t["op"], (1, 10.0, 4.0))
        self.assertEqual(t["a"], (1, 3.0, 3.0))

    def test_obs_tree_totals(self):
        t = metrics.obs_span_totals(traced_record()["trace"]["obs_spans"])
        self.assertEqual(t["query.run"], (2, 1.0, 0.75))
        self.assertEqual(t["query.reduce"], (2, 0.25, 0.25))


class Tables(unittest.TestCase):
    def test_end_to_end(self):
        m = metrics.end_to_end(untraced_record())
        self.assertEqual(m["setup_s"][0], 0.2)
        self.assertEqual(m["throughput_per_s"][0], 60.0)
        self.assertEqual(m["exact_share"][:2], (0.5, "ratio"))
        self.assertEqual(m["width_sum"][0], sum(range(6)))
        self.assertEqual(m["latency_p90_ms"][2], 120)
        self.assertEqual(m["hit_latency_p50_ms"][2], 60)

    def test_a_sample_without_a_split_counts_on_both_sides(self):
        raw = untraced_record()
        raw["samples"] = [sample(s["ms"], key=s["key"]) for s in raw["samples"]]
        m = metrics.end_to_end(raw)
        for name in ("acyclic_latency_p50_ms", "cyclic_latency_p50_ms",
                     "hit_latency_p50_ms", "miss_latency_p50_ms"):
            self.assertEqual(m[name], m["latency_p50_ms"][:2] + (120,), name)

    def test_end_to_end_needs_a_tail(self):
        with self.assertRaises(ValueError):
            metrics.end_to_end(untraced_record(n=50))

    def test_per_layer(self):
        m = metrics.per_layer(traced_record())
        self.assertEqual(m["hd_search.nodes_expanded"], (5.0, "count/op"))
        self.assertEqual(m["hd_search.expanded_per_s"], (100000.0, "1/s"))
        self.assertEqual(m["hd_lp.pivots_per_solve"], (7.0, "count"))
        self.assertEqual(m["hd_lp.memo_hit_ratio"], (0.75, "ratio"))
        self.assertAlmostEqual(m["hd_lp.memo_lookups"][0], 4 / 120)
        self.assertAlmostEqual(m["hd_obs.overhead_ratio"][0], 1.2)
        self.assertAlmostEqual(m["hd_query.eval_s"][0], 1.0 / 120)
        self.assertEqual(m["hd_server.queue_wait_ms"][0], 30.5 - 0.25)
        self.assertEqual(m["hd_server.submit_ms"][0], 0.5)


class PrintedLine(unittest.TestCase):
    def check_line(self, raw, table, trace):
        declared = metrics.declared(BENCHMARK, trace)
        out = metrics.result_line(raw, {k: v[:2] for k, v in table.items()}, declared)
        parsed = json.loads(json.dumps(out))
        self.assertEqual(set(parsed), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(parsed["metrics"]), set(declared))
        for name, v in parsed["metrics"].items():
            self.assertEqual(set(v), {"value", "unit"})
            self.assertEqual(v["unit"], declared[name])
            self.assertIsInstance(v["value"], (int, float))

    def test_untraced_names_match_benchmark_json(self):
        raw = untraced_record()
        self.check_line(raw, metrics.end_to_end(raw), False)

    def test_traced_names_match_benchmark_json(self):
        raw = traced_record()
        self.check_line(raw, metrics.per_layer(raw), True)

    def test_a_missing_metric_is_refused(self):
        declared = metrics.declared(BENCHMARK, False)
        with self.assertRaises(ValueError):
            metrics.result_line(untraced_record(), {"setup_s": (1.0, "s")}, declared)


class SelfComparison(unittest.TestCase):
    def test_spread_is_the_quartile_distance_over_the_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertAlmostEqual(compare.spread(values), (8.25 - 2.75) / 5.5)

    def test_worse_follows_the_direction_of_better(self):
        self.assertAlmostEqual(compare.worse(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(compare.worse(10.0, 8.0, "higher"), 0.2)
        self.assertLess(compare.worse(10.0, 8.0, "lower"), 0)


class BenchmarkJson(unittest.TestCase):
    def test_contract(self):
        with open(BENCHMARK) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in spec["workloads"]]
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])


class Inputs(unittest.TestCase):
    """Same seed, byte-identical inputs; another seed, the same
    structures under other names and orders."""

    @classmethod
    def setUpClass(cls):
        if not os.path.exists(os.path.join(ROOT, "dune-project")):
            raise unittest.SkipTest("not in a source tree")
        r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/hdbench.exe"], cwd=ROOT,
                           env=dict(os.environ, DUNE_CACHE="disabled"), capture_output=True)
        if r.returncode != 0:
            raise unittest.SkipTest("hdbench does not build here")
        cls.exe = os.path.join(ROOT, "_build", "default", "perfbench", "hdbench.exe")

    def digests(self, workload, seed):
        out = subprocess.run([self.exe, "inputs", "--workload", workload, "--seed", str(seed)],
                             check=True, capture_output=True, text=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def test_seeded_inputs(self):
        for w in ("decompose", "widths", "query", "server"):
            a, b, c = self.digests(w, 1), self.digests(w, 1), self.digests(w, 2)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a["bytes"], c["bytes"], w)
            self.assertEqual(a["structure"], c["structure"], w)


if __name__ == "__main__":
    unittest.main()
