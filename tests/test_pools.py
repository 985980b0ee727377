"""`bench/make_corpus.py` still builds the committed request pools.  Run on
a copy of `bench/` and `src/`, it writes every pool and the manifest as
committed, golden records included, apart from each item's `calls`: the
Python calls its request made, which change with the code and only order
a stratum's groups by cost."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOLS = ("local-orders", "tree-enum", "global-classfield")


def _items(pool: dict) -> list:
    return pool["warmup"] + [it for s in pool["strata"] for g in s["groups"] for it in g]


def _without_calls(path: Path) -> dict:
    pool = json.loads(path.read_text(encoding="utf-8"))
    for item in _items(pool):
        del item["calls"]
    return pool


def test_make_corpus_rebuilds_the_committed_pools(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    for path in (tmp_path / "bench" / "pools").glob("*.json"):
        path.unlink()
    proc = subprocess.run(
        [sys.executable, "bench/make_corpus.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    built, committed = tmp_path / "bench" / "pools", ROOT / "bench" / "pools"
    for name in POOLS:
        pool = _without_calls(built / f"{name}.json")
        assert pool == _without_calls(committed / f"{name}.json"), name
    manifest = "manifest.json"
    assert (built / manifest).read_bytes() == (committed / manifest).read_bytes()
