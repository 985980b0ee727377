"""The benchmark's own smoke tests (not part of the tier-1 suite).

    python3 bench/smoke.py

They take about half a minute: one round of every workload, and two short
runs of the benchmark command.
"""

import json
import re
import subprocess
import sys
import unittest

import corpus as corpora
import run
import tracer
from harness import BENCH_DIR, ROOT, SRC

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SUBCOMMANDS = {
    "local classify", "local branch-enum", "local spinor-image", "local decompose",
    "local three-maximals", "tree ball", "tree dot", "global sigma", "global rep-field",
}
SHAPE_KINDS = {"full", "empty", "thick_path", "thick_ray", "thick_apartment", "fan"}


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, encoding="utf-8", timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


class CorpusTests(unittest.TestCase):
    def test_seed_fixes_the_corpus(self):
        for workload in corpora.WORKLOADS:
            first = corpora.draw(workload, 1)
            self.assertEqual(first.digest, corpora.draw(workload, 1).digest, workload)
            self.assertNotEqual(first.digest, corpora.draw(workload, 2).digest, workload)

    def test_pools_cover_every_subcommand_and_shape(self):
        with open(corpora.POOL_DIR / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        items = []
        for workload in corpora.WORKLOADS:
            pool = corpora.load_pool(workload)
            mine = [it for s in pool["strata"] for g in s["groups"] for it in g]
            self.assertEqual(manifest[workload], corpora.histograms(mine), workload)
            items += mine
        union = corpora.histograms(items)
        self.assertEqual(manifest["all"], union)
        self.assertEqual(set(union["subcommands"]), SUBCOMMANDS)
        self.assertEqual(set(union["shape_kinds"]), SHAPE_KINDS)


class MetricTests(unittest.TestCase):
    def test_declared_names_are_well_formed(self):
        spec = declared()
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)

    def test_per_layer_matches_the_tracer(self):
        units = {**tracer.metric_units(), **run.RUN_LEVEL_LAYER}
        spec = {m["name"]: m["unit"] for m in declared()["per_layer"]}
        self.assertEqual(spec, units)

    def test_printed_metrics_match_the_declaration(self):
        spec = declared()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench("global-classfield", trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want, key)
            for name in got:
                self.assertTrue(NAME.fullmatch(name), name)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)


class RunTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def test_one_round_of_each_workload_passes_every_check(self):
        for workload in corpora.WORKLOADS:
            sender = run.InProcess()
            corpus, _, warm_problems = run.set_up(sender, workload, 3)
            tally = run.measure(sender, corpus, 0, 0, rounds=1)
            self.assertEqual(warm_problems, [], workload)
            self.assertEqual(tally.problems, [], workload)
            self.assertEqual(tally.failed, 0, workload)

    def test_tracer_reaches_every_binding(self):
        sender = run.InProcess()
        sender.load()
        spans = tracer.Tracer()
        spans.install()
        try:
            self.assertEqual(spans.absent, [])
            self.assertEqual(spans.unbound, [])
        finally:
            spans.uninstall()
        self.assertFalse(hasattr(sys.modules["qlat.bt_tree"].distance, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
