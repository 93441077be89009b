"""Tests for the benchmark's own code (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import run  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402


def all_scripts(seed, n=8000):
    """Every script the serving workloads generate for one seed."""
    rng = lambda stream: wl.make_rng(seed, stream)  # noqa: E731
    pool = wl.evaluate_pool(rng("pool"), n)
    writer = wl.MutationGenerator(rng("writer"), n, {(0, 1), (1, 2)})
    return {
        "pool": pool,
        "interactive": wl.interactive_script(rng("conn0"), pool, 500),
        "rank": wl.rank_script(rng("conn0"), 200),
        "writer": [writer.request() for _ in range(50)],
    }


class ScriptTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        a = json.dumps(all_scripts(7))
        b = json.dumps(all_scripts(7))
        self.assertEqual(a, b)

    def test_other_seed_other_scripts(self):
        self.assertNotEqual(json.dumps(all_scripts(7)),
                            json.dumps(all_scripts(8)))

    def test_interactive_mix_is_fixed(self):
        pool = wl.evaluate_pool(wl.make_rng(1, "pool"), 8000)
        for seed in (1, 2, 3):
            script = wl.interactive_script(wl.make_rng(seed, "c"), pool, 1000)
            classes = [c for c, _ in script]
            self.assertEqual(classes.count("evaluate"), 650)
            self.assertEqual(classes.count("topk"), 300)
            self.assertEqual(classes.count("minseed"), 50)

    def test_rank_mix_covers_every_rule(self):
        script = wl.rank_script(wl.make_rng(1, "c"), 380)
        topk = [json.loads(line) for c, line in script if c == "rank_topk"]
        self.assertEqual(len(topk), 342)
        rules = {(r["rule"], r["k"]) for r in topk}
        self.assertEqual(len(rules), 8)

    def test_evaluate_requests_are_in_range(self):
        for line in wl.evaluate_pool(random.Random(3), 50, size=200):
            request = json.loads(line)
            self.assertTrue(1 <= len(request["seeds"]) <= 5)
            self.assertTrue(all(0 <= s < 50 for s in request["seeds"]))
            for user, value in request.get("override", []):
                self.assertTrue(0 <= user < 50 and 0.0 <= value <= 1.0)

    def test_split_counts(self):
        self.assertEqual(wl.split_counts(7, (65, 30, 5)), [5, 2, 0])
        for total in range(0, 50):
            self.assertEqual(sum(wl.split_counts(total, (1, 1, 1))), total)


class MutationGeneratorTest(unittest.TestCase):
    def test_long_script_stays_valid(self):
        n = 60  # small, so collisions with base and live edges are common
        rng = random.Random(11)
        base = {(rng.randrange(n), rng.randrange(n)) for _ in range(400)}
        base = {(u, v) for u, v in base if u != v}
        gen = wl.MutationGenerator(random.Random(5), n, set(base))
        edges = set(base)
        added = set()
        for _ in range(3000):
            request = json.loads(gen.request())
            self.assertEqual(request["op"], "mutate")
            batch = request["mutations"]
            self.assertEqual(len(batch), 8)
            self.assertEqual(batch[-1]["kind"], "set_opinion")
            for m in batch:
                if m["kind"] == "edge_add":
                    e = (m["from"], m["to"])
                    self.assertNotEqual(e[0], e[1])
                    self.assertTrue(0 <= e[0] < n and 0 <= e[1] < n)
                    self.assertNotIn(e, edges)
                    self.assertGreater(m["weight"], 0)
                    edges.add(e)
                    added.add(e)
                elif m["kind"] == "edge_del":
                    e = (m["from"], m["to"])
                    self.assertIn(e, added)  # never a base edge
                    edges.remove(e)
                    added.remove(e)
                else:
                    self.assertIn(m["candidate"], (0, 1))
                    self.assertTrue(0 <= m["node"] < n)
                    self.assertTrue(0.0 <= m["value"] <= 1.0)
            self.assertLessEqual(len(added), gen.live_target + 7)
        self.assertTrue(base <= edges)

    def test_deletes_only_earlier_batches(self):
        gen = wl.MutationGenerator(random.Random(2), 1000, set())
        for _ in range(200):
            earlier = set(gen.live_set)
            for m in gen.batch():
                if m["kind"] == "edge_del":
                    self.assertIn((m["from"], m["to"]), earlier)


class PercentileTest(unittest.TestCase):
    def test_refuses_unsupported_tail(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 99)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(199)), 95)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(19)), 50)

    def test_accepts_supported_tail(self):
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)
        self.assertEqual(stats.percentile(list(range(1, 201)), 95), 190)
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)

    def test_trimmed_mean_drops_both_tails(self):
        values = [100.0] + [1.0] * 8 + [-100.0]
        self.assertEqual(stats.trimmed_mean(values), 1.0)
        self.assertEqual(stats.trimmed_mean([2.0, 4.0]), 3.0)

    def test_quantile_interpolates(self):
        self.assertEqual(stats.quantile([3.0, 1.0, 2.0], 0.0), 1.0)
        self.assertEqual(stats.quantile([3.0, 1.0, 2.0], 1.0), 3.0)
        self.assertAlmostEqual(stats.quantile([0.0, 10.0], 0.1), 1.0)
        self.assertEqual(stats.quantile([5.0], 0.1), 5.0)

    @staticmethod
    def timed_phase(slow_program, slow_host):
        """Ten 2-s windows of eight 1-ms evaluates and one yardstick pass
        at its reference time; the windows in `slow_program` run the
        evaluates 3x slower, those in `slow_host` run both 3x slower."""
        samples = []
        for i in range(80):
            window = i // 8
            start = int(i * 0.25e9)
            scale = 3 if window in slow_program or window in slow_host else 1
            samples.append({"phase": "run", "class": "evaluate",
                            "start_ns": start,
                            "end_ns": start + scale * 1000000})
            if i % 8 == 0:
                yard = int(run.YARDSTICK_REF_MS * 1e6) * (
                    3 if window in slow_host else 1)
                samples.append({"phase": "run", "class": "yardstick",
                                "start_ns": start + 100, "end_ns":
                                start + 100 + yard})
        return samples

    def test_host_adjustment_cancels_a_slow_host(self):
        samples = self.timed_phase(set(), set(range(7)))
        self.assertAlmostEqual(run.host_adjusted_ms(samples, "evaluate"),
                               1.0)

    def test_low_quantile_skips_a_burst(self):
        samples = self.timed_phase({2, 3}, set())
        self.assertAlmostEqual(run.host_adjusted_ms(samples, "evaluate"),
                               1.0)

    def test_qps_counts_every_class_at_its_adjusted_time(self):
        samples = self.timed_phase(set(), set(range(10)))
        # 80 reads of 1 ms each at reference speed.
        self.assertAlmostEqual(run.read_qps(samples, ("evaluate",)), 1000.0)

    def test_yardstick_lines(self):
        script = [("evaluate", str(i)) for i in range(5)]
        marked = wl.with_yardstick(script, 2)
        self.assertEqual([c for c, _ in marked].count("yardstick"), 4)
        self.assertEqual([item for item in marked if item[0] != "yardstick"],
                         script)

    def test_summarize(self):
        s = stats.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(s["median"], 3.0)
        self.assertAlmostEqual(s["range_rel"], 4.0 / 3.0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_child_coverage(self):
        spans = [
            {"id": 0, "parent": -1, "start_ns": 0, "end_ns": 10_000_000},
            {"id": 1, "parent": 0, "start_ns": 1_000_000, "end_ns": 4_000_000},
            {"id": 2, "parent": 0, "start_ns": 3_000_000, "end_ns": 6_000_000},
            {"id": 3, "parent": 2, "start_ns": 3_000_000, "end_ns": 4_000_000},
        ]
        selfs = run.self_times_ms(spans)
        self.assertAlmostEqual(selfs[0], 5.0)  # children cover 1..6 ms
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_histogram_quantile(self):
        snapshot = {
            'h_bucket{le="0.001"}': 50, 'h_bucket{le="0.01"}': 90,
            'h_bucket{le="+Inf"}': 100, "h_count": 100,
        }
        self.assertEqual(run.histogram_quantile(snapshot, "h", 0.5), 0.001)
        self.assertEqual(run.histogram_quantile(snapshot, "h", 0.9), 0.01)
        self.assertEqual(run.histogram_quantile(snapshot, "h", 0.95),
                         float("inf"))


if __name__ == "__main__":
    unittest.main()
