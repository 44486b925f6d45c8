"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s benchmark/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
import benchlib  # noqa: E402


def span(name, start, end, parent=-1, units=1):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "units": units}


def ledger(generated, delivered, **drops):
    buckets = {site: 0 for site in benchlib.DROP_SITES}
    buckets.update(drops)
    return {"generated": generated,
            "apps": [{"sut": "swan", "app": 0, "delivered": delivered, "drops": buckets}]}


def outputs(x=50.0, capture=100.0):
    return {"variant": "", "x": x, "generated": 1000, "offered_mbps": 49.9,
            "suts": [{"name": "swan", "capture_pct": [capture], "cpu_pct": 12.5,
                      "nic_ring_drops": 0, "backlog_drops": 0, "buffer_drops": 0}]}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("root", 0, 100),
            span("a", 10, 40, parent=0),
            span("a.inner", 15, 25, parent=1),
            span("b", 50, 70, parent=0),
        ]
        self.assertEqual(benchlib.self_times(spans), [100 - 30 - 20, 30 - 10, 10, 20])

    def test_overlapping_and_clipped_children_count_once(self):
        spans = [
            span("root", 0, 100),
            span("c1", 10, 50, parent=0),
            span("c2", 40, 60, parent=0),    # overlaps c1: union is 10..60
            span("c3", 90, 120, parent=0),   # runs past the parent: clipped to 90..100
        ]
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 50 - 10)

    def test_child_inside_an_earlier_child_counts_once(self):
        spans = [span("root", 0, 100), span("c1", 10, 60, parent=0),
                 span("c2", 20, 30, parent=0)]
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 50)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([span("x", 5, 9)]), [4])

    def test_span_table_sums_per_name(self):
        spans = [span("w", 0, 10), span("r", 2, 6, parent=0), span("w", 10, 30),
                 span("r", 12, 20, parent=2)]
        table = benchlib.span_table(spans)
        self.assertEqual(table["w"], (2, 30, 18))
        self.assertEqual(table["r"], (2, 12, 12))


class FailedPoints(unittest.TestCase):
    def verified(self, **drops):
        return [{"outputs": outputs(), "ledger": ledger(1000, 990, **drops)}]

    def test_clean_point_passes(self):
        self.assertEqual(benchlib.check_points(self.verified(nic_ring=10), [outputs()], [False],
                                               [outputs()]), [[]])

    def test_broken_conservation_fails(self):
        reasons = benchlib.check_points(self.verified(nic_ring=9))
        self.assertTrue(reasons[0] and "generated" in reasons[0][0])

    def test_perturbed_expectation_fails(self):
        expected = [outputs(capture=99.99999999999999)]
        reasons = benchlib.check_points(self.verified(nic_ring=10), expected=expected)
        self.assertEqual(reasons, [["outputs differ from the committed expectation"]])

    def test_timed_run_disagreeing_with_verify_fails(self):
        reasons = benchlib.check_points(self.verified(nic_ring=10), [outputs(capture=50.0)])
        self.assertEqual(reasons, [["timed run outputs differ from the verify pass"]])

    def test_unstable_timed_passes_fail(self):
        reasons = benchlib.check_points(self.verified(nic_ring=10), [outputs()], [True])
        self.assertEqual(reasons, [["outputs changed between timed passes"]])

    def test_throwing_point_fails(self):
        reasons = benchlib.check_points([{"variant": "", "x": 50, "error": "boom"}])
        self.assertEqual(reasons, [["threw: boom"]])

    def test_point_count_mismatch_fails_every_point(self):
        verified = self.verified(nic_ring=10) * 2
        reasons = benchlib.check_points(verified, expected=[outputs()])
        self.assertTrue(all(reasons))

    def test_committed_expectation_perturbed_in_one_value(self):
        # Every committed point passes against itself and fails once one
        # number in it moves.
        for workload in benchlib.WORKLOADS:
            points = json.loads((BENCH / "expected" / f"{workload}.json").read_text())["points"]
            verified = [{"outputs": p, "ledger": ledger(p["generated"], p["generated"])}
                        for p in points]
            self.assertFalse(any(benchlib.check_points(verified, expected=points)), workload)
            perturbed = copy.deepcopy(points)
            perturbed[-1]["suts"][0]["nic_ring_drops"] += 1
            reasons = benchlib.check_points(verified, expected=perturbed)
            self.assertEqual(sum(1 for r in reasons if r), 1, workload)

    def test_digest_tracks_every_output(self):
        self.assertNotEqual(benchlib.digest(outputs()), benchlib.digest(outputs(capture=99.0)))
        self.assertEqual(benchlib.digest(outputs()), benchlib.digest(outputs()))


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units_match(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, benchlib.END_TO_END)

    def test_per_layer_names_and_units_match(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, benchlib.per_layer_units())

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), benchlib.WORKLOADS)

    def test_end_to_end_formula_emits_exactly_the_declared_metrics(self):
        ref = benchlib.REF_KERNEL_NS
        run = {"reps": [{"sim_ns": 2_000_000, "render_ns": 1000, "ref_ns": ref}],
               "arrivals": 4000, "peak_rss_kb": 2048}
        setups = [{"setup_ns": ns, "ref_ns": ref} for ns in (3000, 1000, 2000)]
        metrics = benchlib.end_to_end(run, setups, failed=1, attempted=4)
        self.assertEqual(list(metrics), list(benchlib.END_TO_END))
        self.assertEqual(metrics["host_ns_per_pkt"], 500.0)
        self.assertEqual(metrics["setup_s"], 2e-6)
        self.assertEqual(metrics["peak_rss_mb"], 2.0)
        self.assertEqual(metrics["pass_frac"], 0.75)

    def test_host_times_are_rescaled_by_their_own_reference_kernel(self):
        # A pass on a core running at half speed takes twice as long, and so
        # does the reference kernel paired with it: both passes read the same.
        ref = benchlib.REF_KERNEL_NS
        run = {"reps": [{"sim_ns": 1_000_000, "render_ns": 0, "ref_ns": ref},
                        {"sim_ns": 2_000_000, "render_ns": 0, "ref_ns": 2 * ref},
                        {"sim_ns": 3_000_000, "render_ns": 0, "ref_ns": ref}],
               "arrivals": 1000, "peak_rss_kb": 1024}
        setups = [{"setup_ns": 4000, "ref_ns": 2 * ref}]
        metrics = benchlib.end_to_end(run, setups, failed=0, attempted=1)
        self.assertEqual(metrics["host_ns_per_pkt"], 1000.0)
        self.assertEqual(metrics["wall_s"], 1e-3)
        self.assertEqual(metrics["setup_s"], 2e-6)
        raw = benchlib.unscaled(run, setups)
        self.assertEqual(raw["host_ns_per_pkt"], 2000.0)
        self.assertEqual(raw["setup_s"], 4e-6)

    def test_per_layer_formula_emits_exactly_the_declared_metrics(self):
        spans = [
            span("harness.testbed_build", 0, 1_000_000),
            span("workload.untraced", 0, 100, units=40),
            span("scenario.run", 0, 90, parent=1),
            span("report.render", 90, 100, parent=1),
            span("workload.traced", 100, 210, units=40),
            span("pktgen.replay", 0, 50, units=10),
            span("pktgen.replay.1sink", 0, 40, units=10),
            span("capture.alone.swan", 0, 100, units=10),
        ]
        counters = {"generated": 10, "arrivals": 40, "events": 90, "run.allocs": 8,
                    "harness.testbed_build.warm.allocs": 4, "ledger.opportunities": 40,
                    "ledger.delivered": 30, "ledger.drop.nic_ring": 10}
        metrics = benchlib.per_layer({"spans": spans, "counters": counters})
        self.assertEqual(list(metrics), list(benchlib.per_layer_units()))
        self.assertEqual(metrics["sim.events_per_pkt"], 9.0)
        self.assertEqual(metrics["sim.host_ns_per_event"], 1.0)
        self.assertEqual(metrics["capture.swan.host_ns_per_pkt"], 6.0)
        self.assertEqual(metrics["capture.snipe.host_ns_per_pkt"], 0.0)
        self.assertEqual(metrics["capture.drop_frac.nic_ring"], 0.25)
        self.assertEqual(metrics["harness.heap_allocs_per_pkt"], 0.1)
        self.assertAlmostEqual(metrics["obs.metrics_overhead_frac"], 0.1)

    def test_result_line_shape(self):
        line = benchlib.result_line(True, 3, 0, {"wall_s": 1.5}, benchlib.END_TO_END)
        self.assertEqual(json.loads(line), {"correct": True, "attempted": 3, "failed": 0,
                                            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}})


if __name__ == "__main__":
    unittest.main()
