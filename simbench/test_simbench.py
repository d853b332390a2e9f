#!/usr/bin/env python3
"""Self-tests of the benchmark harness (no build, no simulator run).

    python3 simbench/test_simbench.py
"""

import json
import math
import re
import sys
import tempfile
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class MetricTables(unittest.TestCase):
    def test_names_use_only_allowed_characters(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertRegex(name, NAME_RE)

    def test_every_metric_prints_with_a_unit(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            shown = run.with_units({k: 1.5 for k in table}, table)
            self.assertEqual(set(shown), set(table))
            for name, mv in shown.items():
                self.assertRegex(mv["unit"], UNIT_RE, name)
                self.assertEqual(mv["value"], 1.5)

    def test_conditional_metrics_are_per_layer(self):
        self.assertTrue(run.CONDITIONAL <= set(run.PER_LAYER))

    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads(
            (Path(run.HERE).parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, {k: v for k, v in run.PER_LAYER.items()
                                  if k not in run.CONDITIONAL})
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class Ratios(unittest.TestCase):
    def test_zero_base_is_absent(self):
        self.assertIsNone(run.ratio(5, 0))
        self.assertIsNone(run.ratio(0, 0))
        self.assertIsNone(run.ratio(1.0, 0.0))
        self.assertEqual(run.ratio(1, 4), 0.25)

    def test_absent_metrics_are_dropped_never_nan_or_inf(self):
        shown = run.with_units({"mem.l1_hit_ratio": run.ratio(3, 0),
                                "sim.share_est": float("inf"),
                                "trace.write_frac": float("nan"),
                                "sim.events": 7}, run.PER_LAYER)
        self.assertEqual(set(shown), {"sim.events"})
        json.dumps(shown, allow_nan=False)

    def test_median_skips_absent_values(self):
        self.assertIsNone(run.median([None, None]))
        self.assertEqual(run.median([None, 1.0, 3.0]), 2.0)


class OutputChecks(unittest.TestCase):
    def bench(self, workload):
        args = types.SimpleNamespace(workload=workload, seed=12345)
        b = run.Bench(args, None, None, Path("."))
        b.inputs = {"emitted": {"records": 2, "line_ops": 3, "writes": 1}}
        return b

    def check_file(self, workload, text, report):
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            if text is not None:
                f.write(text)
                f.flush()
            path = f.name if text is not None else f.name + ".missing"
            return self.bench(workload).check({"rc": 0}, path, report)[0]

    def test_missing_or_malformed_stats_fail_the_run(self):
        for text in (None, "", "{", "[]", '{"counters": {}}',
                     '{"counters": {"host.seconds": {"value": "x"}}}'):
            fails = self.check_file("phi-push", text, {"correct": 1})
            self.assertTrue(fails, repr(text))

    def stats(self, counters):
        counters = dict(counters, **{"host.seconds": 1.0})
        return json.dumps({"counters": {k: {"value": v}
                                        for k, v in counters.items()}})

    def test_kv_counts_must_match_the_generator(self):
        counts = {"trace.records": 2, "trace.line_ops": 3,
                  "trace.writes": 1}
        self.assertEqual(
            self.check_file("kv-replay", self.stats(counts), {}), [])
        bad = dict(counts, **{"trace.writes": 2})
        self.assertTrue(self.check_file("kv-replay", self.stats(bad), {}))

    def test_phi_must_report_correct(self):
        text = self.stats({"core.instrs": 1})
        self.assertEqual(self.check_file("phi-push", text,
                                         {"correct": 1.0}), [])
        self.assertTrue(self.check_file("phi-push", text, {"correct": 0}))
        self.assertTrue(self.check_file("phi-push", text, {}))

    def test_simulated_output_ignores_host_and_shard_counters(self):
        a = {"host.seconds": 1, "shard.rounds": 5, "l1.hits": 3}
        b = {"host.seconds": 2, "shard.rounds": 0, "l1.hits": 3}
        self.assertEqual(run.simulated(a, {}), run.simulated(b, {}))
        self.assertNotEqual(run.simulated(a, {}),
                            run.simulated(dict(a, **{"l1.hits": 4}), {}))

    def test_report_parser_reads_takosim_lines(self):
        rep = run.parse_report("variant      : phi\n"
                               "correct      : 1.000\n"
                               "inPlaceLines : 30157.000\n"
                               "host.seconds : 3.123\n")
        self.assertEqual(rep, {"correct": 1.0, "inPlaceLines": 30157.0,
                               "host.seconds": 3.123})
        self.assertTrue(all(math.isfinite(v) for v in rep.values()))


if __name__ == "__main__":
    unittest.main()
