"""Self-tests of the benchmark: its arithmetic, and a tiny run of each workload.

    python3 perfbench/selftest.py          # from the repository root

The file name keeps it out of the repository's pytest collection; the smoke
tests start real processes and take about half a minute.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(id_, name, start, end, parent=None, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "request": 1, "attrs": attrs}


class Arithmetic(unittest.TestCase):
    def test_percentile_interpolates_linearly(self):
        self.assertEqual(tracing.percentile([3, 1, 2, 5, 4], 50), 3)
        self.assertAlmostEqual(tracing.percentile([0.0, 10.0], 95), 9.5)
        self.assertEqual(tracing.percentile([7.0], 95), 7.0)
        self.assertAlmostEqual(tracing.percentile(range(101), 95), 95.0)
        with self.assertRaises(ValueError):
            tracing.percentile([], 50)

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            span(1, "root", 0.0, 10.0),
            span(2, "a", 1.0, 3.0, parent=1),
            span(3, "b", 2.0, 5.0, parent=1),   # overlaps a: counted once
            span(4, "a", 8.0, 12.0, parent=1),  # clipped at the root's end
            span(5, "c", 2.5, 3.0, parent=3),
        ]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(selfs[3], 3.0 - 0.5)
        totals = tracing.totals_by_name(spans)
        self.assertEqual(totals["a"]["calls"], 2)
        self.assertAlmostEqual(totals["a"]["self_s"], 6.0)
        self.assertAlmostEqual(totals["root"]["root_self_s"], 4.0)
        self.assertEqual(totals["a"]["root_self_s"], 0.0)

    def test_useful_over_attempted_ratios(self):
        self.assertEqual(tracing.share(3, 4), 0.75)
        self.assertEqual(tracing.share(5, 0), 0.0)
        spans = [span(1, "bench.job", 0.0, 4.0),
                 span(2, "core.structured_solver.solve", 0.0, 2.0, parent=1),
                 span(3, "transient.model.solve", 2.0, 4.0, parent=1),
                 span(4, "core.template.rewrite", 2.0, 2.5, parent=3,
                      bytes_per_matvec=100),
                 span(5, "core.template.rewrite", 0.0, 0.5, parent=2,
                      bytes_per_matvec=999)]
        counters = {"solver.structured.solves": 4, "solver.structured.sweeps": 40,
                    "cache.propagator.hits": 3, "cache.propagator.misses": 1,
                    "transient.segments": 8, "transient.replayed_segments": 2,
                    "transient.matvecs": 300, "network.cell_solves": 0}
        layers = run.layer_metrics(spans, {"counters": counters, "histograms": {
            "executor.chunk_points": {"count": 2, "sum": 9}}})
        self.assertEqual(layers["core.structured_solver.sweeps_per_solve"], 10.0)
        self.assertAlmostEqual(layers["core.structured_solver.s_per_sweep"], (2.0 - 0.5) / 40)
        self.assertEqual(layers["transient.propagator.hit_ratio"], 0.75)
        self.assertEqual(layers["transient.propagator.replay_share"], 0.25)
        self.assertAlmostEqual(layers["transient.model.matvec_rate"], 300 / 1.5)
        self.assertEqual(layers["transient.model.computed_bytes_per_matvec"], 100)
        self.assertEqual(layers["network.model.frozen_share"], 0.0)
        self.assertEqual(layers["runtime.executor.chunk_points_mean"], 4.5)
        self.assertEqual(set(layers) | {"cli.import_s", "trace.overhead_s"},
                         {name for name, _ in run.PER_LAYER})

    def test_answer_check_tolerance(self):
        references = {"rtol": workloads.RTOL, "atol": workloads.ATOL,
                      "layouts": {"L": ["points/0/values/loss", "points/1/values/loss"]},
                      "answers": {"k": {"layout": "L", "values": [0.25, 1e-3]}}}

        def check(first, second):
            payload = {"points": [{"values": {"loss": first}}, {"values": {"loss": second}}],
                       "scale": {"ignored": 9.0}}
            return workloads.check_answer(references, "k", payload)

        self.assertIsNone(check(0.25, 1e-3))
        self.assertIsNone(check(0.25 * (1 + 5e-4), 1e-3 + 5e-5))
        self.assertIsNotNone(check(0.25 * 1.01, 1e-3))
        self.assertIsNotNone(check(0.25, 1e-3 + 2e-4))
        self.assertIsNotNone(check(float("nan"), 1e-3))
        self.assertIsNotNone(workloads.check_answer(references, "k", {"points": []}))
        self.assertIsNotNone(workloads.check_answer(references, "other", {"points": []}))

    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_seed_picks_order_not_inputs(self):
        a = workloads.ordered_jobs("steady-state", 1)
        b = workloads.ordered_jobs("steady-state", 2)
        self.assertEqual(sorted(a), sorted(b))
        self.assertEqual(a, workloads.ordered_jobs("steady-state", 1))
        rounds = workloads.served_rounds(3, 2)
        self.assertEqual([len(r) for r in rounds], [workloads.ROUND_SIZE] * 2)
        references = workloads.load_references()
        for request in (r for mix in rounds for r in mix):
            self.assertIn(workloads.request_id(request), references["answers"])


class Smoke(unittest.TestCase):
    """Each workload at a tiny size: every operation succeeds and matches."""

    @classmethod
    def setUpClass(cls):
        run.become_subreaper()
        cls.ctx = run.Context(ROOT, seed=0, seconds=0)

    @classmethod
    def tearDownClass(cls):
        run.reap_orphans(30.0)
        cls.ctx.cleanup()

    def assert_clean(self, records):
        self.assertTrue(records)
        self.assertEqual([r for r in records if r["error"]], [])

    def test_steady_state_tiny(self):
        jobs = [("sweep", "figure7", "default", 1, None)]
        plain = run.run_pass(self.ctx, jobs)
        traced = run.run_pass(self.ctx, jobs, trace=True)
        self.assert_clean(plain["jobs"] + traced["jobs"])
        self.assertEqual(plain["jobs"][0]["digest"], traced["jobs"][0]["digest"])
        names = {s["name"] for s in traced["spans"]}
        self.assertTrue({"bench.job", "core.model.solve", "core.template.rewrite",
                         "experiments.reporting.format"} <= names)

    def test_transient_tiny(self):
        out = run.run_pass(self.ctx, [("transient", "outage-recovery", "smoke", 1, (0.5,))])
        self.assert_clean(out["jobs"])
        self.assertGreater(out["metrics"]["counters"]["transient.matvecs"], 0)

    def test_served_tiny(self):
        references = workloads.load_references()
        server, setup_s, warm = run.setup_server(self.ctx)
        try:
            mix = workloads.served_rounds(0, 1)[0]
            picked = mix[:10] + [r for r in mix if r.get("rate") not in (None, 0.5)]
            samples, _ = run.closed_loop(server.client, picked)
        finally:
            server.close()
        self.assertGreater(setup_s, 0)
        self.assert_clean(run.served_records(warm + samples, references))


if __name__ == "__main__":
    unittest.main()
