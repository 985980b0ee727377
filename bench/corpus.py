"""Seeded request corpora drawn from the checked-in request pools.

Each workload has a pool file in ``pools/`` written by ``make_corpus.py``:
strata of request groups, every request with the golden record of the
commit that wrote the pool.  A group is a few requests sent back to back
(for example ``classify`` then ``spinor-image`` on the same generators) so
that their outputs can be cross-checked.

A corpus is a list of rounds.  Each round holds ``per_round`` groups from
every stratum, so every round has the same mix of request kinds; the seed
picks which groups and their order inside the round.  Fixed strata ignore
the seed and cycle in pool order.

Groups inside a stratum differ in cost by up to 10x, and a run may send
only a third of a stratum's groups, so which groups a seed picks would
move the latency quantiles by more than host noise does.  The groups of a
stratum are therefore visited in order of cost (the Python calls their
requests made when the pool was written), in bit-reversed order rotated
by a seeded offset: any first k rounds take groups spread evenly over the
stratum's cost range, and the seed picks where that spread starts.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass

from harness import BENCH_DIR

POOL_DIR = BENCH_DIR / "pools"
WORKLOADS = ("local-orders", "tree-enum", "global-classfield")


class CorpusError(Exception):
    pass


@dataclass
class Corpus:
    rounds: list  # round -> group -> item {"argv", "request", "golden", "stdin", ...}
    warmup: list  # items sent during set-up, one per subcommand
    digest: str

    @property
    def size(self) -> int:
        return sum(len(group) for rnd in self.rounds for group in rnd)

    def manifest(self) -> dict:
        items = [item for rnd in self.rounds for group in rnd for item in group]
        return histograms(items)


def histograms(items) -> dict:
    """Subcommand, exit-code and shape-kind counts of a list of items."""
    return {
        "subcommands": dict(sorted(Counter(" ".join(i["argv"]) for i in items).items())),
        "exit_codes": dict(sorted(Counter(str(i["golden"]["exit"]) for i in items).items())),
        "shape_kinds": dict(sorted(Counter(i["shape"] for i in items if "shape" in i).items())),
    }


def missing_coverage(hist: dict, require: dict) -> list[str]:
    missing = [s for s in require.get("subcommands", ()) if s not in hist["subcommands"]]
    missing += [k for k in require.get("shape_kinds", ()) if k not in hist["shape_kinds"]]
    return missing


def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order: every prefix is spread evenly over them."""
    bits = max(1, (n - 1).bit_length())
    return [r for r in (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)) if r < n]


def load_pool(workload: str) -> dict:
    if workload not in WORKLOADS:
        raise CorpusError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    path = POOL_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def draw(workload: str, seed: int) -> Corpus:
    """The corpus of `workload` for `seed`; the same seed gives the same corpus."""
    pool = load_pool(workload)
    rng = random.Random(f"{workload}:{seed}")
    strata = pool["strata"]
    orders = []
    for stratum in strata:
        groups = stratum["groups"]
        idx = list(range(len(groups)))
        if not stratum.get("fixed"):
            idx.sort(key=lambda i: sum(it["calls"] for it in groups[i]))
            offset = rng.randrange(len(idx))
            idx = [idx[(j + offset) % len(idx)] for j in spread_order(len(idx))]
        orders.append(idx)
    rounds = []
    for i in range(pool["rounds"]):
        groups = []
        for stratum, idx in zip(strata, orders):
            k = stratum["per_round"]
            groups += [stratum["groups"][idx[(i * k + j) % len(idx)]] for j in range(k)]
        rng.shuffle(groups)
        rounds.append(groups)
    digest = hashlib.sha256(
        json.dumps(
            [[[[it["argv"], it["request"]] for it in g] for g in rnd] for rnd in rounds],
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()
    for item in pool["warmup"] + [it for s in strata for g in s["groups"] for it in g]:
        item["stdin"] = json.dumps(item["request"])
    corpus = Corpus(rounds, pool["warmup"], digest)
    missing = missing_coverage(corpus.manifest(), pool["require"])
    if missing:
        raise CorpusError(f"{workload} corpus for seed {seed} lacks {', '.join(missing)}")
    return corpus
