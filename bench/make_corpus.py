"""Write the request pools in ``pools/`` with this commit's golden records.

    python3 bench/make_corpus.py

The pools are generated from a fixed pool seed, so the output is
byte-identical from run to run.  The golden records pin the outputs of the
commit that wrote them: rewrite the pools only in a change that means to
alter CLI output, and say so in that change.  Nothing is filtered by
outcome: every generated request is kept with whatever exit code it got.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from collections import defaultdict
from fractions import Fraction

from harness import SRC, group_problems, golden_of, run_inprocess

sys.path.insert(0, str(SRC))

from qlat import cli  # noqa: E402
from qlat.bt_tree import neighbors, standard_vertex  # noqa: E402
from qlat.exact_padic import Mat2, is_local_square_rat  # noqa: E402
from qlat.global_classfield import BaseField  # noqa: E402
from qlat.local_orders import shifted_eichler_module  # noqa: E402
from qlat.quadforms import is_squarefree  # noqa: E402

from corpus import POOL_DIR, histograms, missing_coverage  # noqa: E402

POOL_SEED = 20111473
SUBCOMMANDS = (
    "local classify", "local branch-enum", "local spinor-image", "local decompose",
    "local three-maximals", "tree ball", "tree dot", "global sigma", "global rep-field",
)
SHAPE_KINDS = ("full", "empty", "thick_path", "thick_ray", "thick_apartment", "fan")

COST = defaultdict(list)  # stratum -> request seconds (calls counted), printed as a guide


def item(argv: str, request: dict) -> dict:
    return {"argv": argv.split(), "request": request}


def enc_rat(x) -> int | str:
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def enc_mat(m: Mat2) -> list:
    return [[enc_rat(m.m00), enc_rat(m.m01)], [enc_rat(m.m10), enc_rat(m.m11)]]


def enc_vertex(v) -> dict:
    return {"a": v.a, "b": v.b, "c": v.c}


def counting_calls(thunk):
    """(thunk(), the number of Python function calls it made).  The count is
    the pool's cost measure: unlike a time, it is the same on every host
    and every run, so the pools stay byte-identical."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(hook)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, calls


def run_group(stratum: str, items: list) -> list:
    """Send the group's requests, store golden records, call counts and
    shape kinds.

    A ``then`` callable on an item builds the next request from the
    outcome of this one (three-maximals on the endpoints decompose found).
    """
    done, outcomes = [], []
    queue = list(items)
    while queue:
        it = queue.pop(0)
        then = it.pop("then", None)
        out, it["calls"] = counting_calls(
            lambda: run_inprocess(cli.main, it["argv"], json.dumps(it["request"])))
        COST[stratum].append(out.elapsed)
        it["golden"] = golden_of(out)
        if out.crash:
            print(f"warning: {stratum}: {it['argv']} crashed: {out.crash}", file=sys.stderr)
        if out.code == 0 and it["argv"] == ["local", "classify"]:
            it["shape"] = json.loads(out.stdout)["shape"]["kind"]
        done.append(it)
        outcomes.append(out)
        if then is not None:
            queue[:0] = then(out)
    for it in done:  # depth-r shape behind each spinor-image answer
        if it["argv"] == ["local", "spinor-image"] and "shape" in done[0]:
            cls = json.loads(outcomes[0].stdout)["shape"]
            thick = cls.get("thickness")
            deep = thick is not None and it["request"].get("shift", 0) > thick
            it["shape"] = "empty" if deep else cls["kind"]
    problems = group_problems(done, outcomes)
    if problems:
        raise SystemExit(f"{stratum}: independent check failed at generation: {problems}")
    return done


# ---------------------------------------------------------------------------
# Local orders


def random_matrix(rng: random.Random, p: int, span: int = 2) -> Mat2:
    """Integral matrix with entries in [-p^span, p^span], biased toward p | entry."""

    def entry() -> int:
        k = rng.randrange(-(p**span), p**span + 1)
        return k * p if rng.random() < 0.3 else k

    return Mat2.of([[entry(), entry()], [entry(), entry()]])


def random_sl2(rng: random.Random) -> Mat2:
    """A short product of elementary integer matrices (determinant 1)."""
    g = Mat2.identity()
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        g = g * Mat2.of([[1, a], [0, 1]]) * Mat2.of([[1, 0], [b, 1]])
    return g


def conj(g: Mat2, m: Mat2) -> Mat2:
    return g * m * g.inverse()


def nonsquare_radicand(rng: random.Random, p: int) -> int:
    """n with -n not a square in Q_p, so x^2 = -n generates a field."""
    while True:
        n = rng.randint(1, 4 * p)
        if not is_local_square_rat(-n, p):
            return n


def order_group(p: int, gens, level: int, shift: int, decompose: bool = True) -> list:
    """classify, spinor-image and (optionally) decompose on one order."""
    req = {"p": p, "generators": [enc_mat(g) for g in gens]}
    group = [
        item("local classify", req),
        item("local spinor-image", {**req, "level": level, "shift": shift}),
    ]
    if decompose:
        group.append(eichler_pair(p, req))
    return group


def eichler_pair(p: int, req: dict) -> dict:
    """decompose, followed by three-maximals on its endpoints when it succeeds."""

    def then(out):
        if out.code != 0:
            return []
        doc = json.loads(out.stdout)
        return [
            item("local three-maximals",
                 {"p": p, "endpoints": doc["endpoints"], "shift": doc["shift"]})
        ]

    return {**item("local decompose", req), "then": then}


def walk(rng: random.Random, v, steps: int):
    prev = None
    for _ in range(steps):
        v, prev = rng.choice([n for n in neighbors(v) if n != prev]), v
    return v


def eichler_basis(rng: random.Random, p: int) -> tuple:
    """Module basis of Z + p^r (D_v1 cap D_v2) for seeded v1, v2 and r."""
    v1 = walk(rng, standard_vertex(p), rng.randint(0, 2))
    v2 = walk(rng, v1, rng.randint(0, 3))
    return shifted_eichler_module(v1, v2, rng.randint(0, 2)).basis


def eichler_group(rng: random.Random, p: int) -> list:
    """decompose + three-maximals on a shifted Eichler order."""
    basis = eichler_basis(rng, p)
    return [eichler_pair(p, {"p": p, "generators": [enc_mat(b) for b in basis]})]


def structured_group(rng: random.Random, family: str, p: int) -> list:
    g = random_sl2(rng)
    level, shift = rng.randint(0, 3), rng.randint(0, 2)
    s = rng.randint(-5, 5)
    if family == "scalar":
        gens = [Mat2.scalar(rng.randint(-20, 20)) for _ in range(rng.randint(1, 2))]
    elif family == "nilpotent":
        k = rng.randint(0, 2)
        gens = [conj(g, Mat2.of([[s, rng.choice([1, -1, 2]) * p**k], [0, s]]))]
    elif family == "commuting":
        a, b = rng.sample(range(-9, 10), 2)
        c, d = rng.sample(range(-9, 10), 2)
        gens = [conj(g, Mat2.of([[a, 0], [0, b]])), conj(g, Mat2.of([[c, 0], [0, d]]))]
    elif family == "shared-end":
        a, d = rng.sample(range(-9, 10), 2)
        x, k = rng.randint(-9, 9), rng.randint(0, 2)
        gens = [conj(g, Mat2.of([[a, x], [0, d]])), conj(g, Mat2.of([[0, p**k], [0, 0]]))]
    elif family == "field":
        n, j = nonsquare_radicand(rng, p), rng.randint(0, 2)
        gens = [conj(g, Mat2.scalar(s) + Mat2.of([[0, -n * p**j], [p**j, 0]]))]
    elif family == "disjoint":
        # Idempotents on two apartments at distance >= 1: the ring they
        # generate is not integral, so the closure diverges (exit 4).
        k = rng.randint(0, 2)
        a, c = p**k, p**k + p ** (k + 1)
        f = Mat2.of([[Fraction(c, c - a), Fraction(-1, c - a)],
                     [Fraction(a * c, c - a), Fraction(-a, c - a)]])
        gens = [conj(g, Mat2.of([[1, 0], [0, 0]])), conj(g, f)]
        return [item("local classify", {"p": p, "generators": [enc_mat(m) for m in gens]})]
    else:
        raise ValueError(family)
    return order_group(p, gens, level, shift, decompose=False)


def local_orders_pool(rng: random.Random) -> dict:
    strata = []
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            # One generator spans a rank-2 order, which decompose rejects
            # at once; only larger orders go on to decompose.
            groups = [
                order_group(p, [random_matrix(rng, p) for _ in range(k)],
                            rng.randint(0, 3), rng.randint(0, 2), decompose=k > 1)
                for _ in range(16)
            ]
            strata.append(stratum(f"random-p{p}-g{k}", groups))
        strata.append(stratum(f"eichler-p{p}", [eichler_group(rng, p) for _ in range(16)]))
    for family in ("scalar", "nilpotent", "commuting", "shared-end", "field", "disjoint"):
        groups = [structured_group(rng, family, rng.choice((2, 3, 5, 7))) for _ in range(16)]
        strata.append(stratum(family, groups))
    # The fixed p = 101 slice, whole in every round and the same for every
    # seed: climbs, shared-end walks and plateau searches that scan 102
    # neighbours a step.  Its ten slow requests are about an eighth of a
    # round, so the p90 falls inside them rather than on their edge, and
    # take about half of its time; a larger slice would leave time for
    # fewer rounds of the seeded strata, whose p50 then depends more on
    # the seed.
    big = [structured_group(rng, "shared-end", 101) for _ in range(3)]
    big += [structured_group(rng, "field", 101) for _ in range(2)]
    big.append(order_group(101, eichler_basis(rng, 101), rng.randint(0, 3), rng.randint(0, 2)))
    strata.append(stratum("p101", big, per_round=len(big), fixed=True))
    warmup = strata[0]["groups"][0] + strata[3]["groups"][0]
    return pool(strata, warmup, SUBCOMMANDS[:1] + SUBCOMMANDS[2:5], SHAPE_KINDS)


# ---------------------------------------------------------------------------
# Tree enumeration

# Radii that give balls of a few hundred to a few thousand vertices.
BALL_RADII = {2: (6, 7, 8, 9), 3: (4, 5, 6), 5: (3, 4)}
DOT_RADII = {2: (6, 7, 8), 3: (4, 5), 5: (3,)}
BRANCH_RADII = {2: (6, 7, 8), 3: (4, 5), 5: (3, 4)}


def centre(rng: random.Random, p: int) -> dict:
    return enc_vertex(walk(rng, standard_vertex(p), rng.randint(0, 4)))


def tree_enum_pool(rng: random.Random) -> dict:
    strata = []
    for p in (2, 3, 5):
        strata.append(stratum(f"ball-p{p}", [
            [item("tree ball", {"p": p, "radius": rng.choice(BALL_RADII[p]),
                                "center": centre(rng, p)})]
            for _ in range(24)
        ]))
        strata.append(stratum(f"dot-p{p}", [
            [item("tree dot", {"p": p, "radius": rng.choice(DOT_RADII[p]),
                               "center": centre(rng, p)})]
            for _ in range(24)
        ]))
        strata.append(stratum(f"branch-p{p}", [
            [item("local branch-enum", {
                "p": p,
                "generators": [enc_mat(random_matrix(rng, p))
                               for _ in range(rng.randint(1, 3))],
                "radius": rng.choice(BRANCH_RADII[p]),
                "depth": rng.randint(0, 2),
                "center": centre(rng, p),
            })]
            for _ in range(24)
        ]))
    budget = []  # balls over a per-request vertex budget: exit 3
    for _ in range(24):
        p = rng.choice((2, 3, 5))
        radius = rng.choice(BALL_RADII[p])
        budget.append([item(rng.choice(("tree ball", "tree dot")), {
            "p": p, "radius": radius, "max_vertices": rng.randint(10, 90)})])
    strata.append(stratum("over-budget", budget))
    warmup = run_group("warmup", [item("tree ball", {"p": 2, "radius": 3}),
                                  item("tree dot", {"p": 2, "radius": 3})])
    warmup.append(strata[2]["groups"][0][0])
    return pool(strata, warmup, ("local branch-enum", "tree ball", "tree dot"), ())


# ---------------------------------------------------------------------------
# Global class fields


def squarefree_radicand(rng: random.Random, sign: int) -> int:
    """Squarefree m, log-uniform in 10^3 <= |m| <= 10^5."""
    while True:
        m = int(math.exp(rng.uniform(math.log(1e3), math.log(1e5))))
        if is_squarefree(m):
            return sign * m


def place_keys(field: BaseField) -> dict:
    """Finite place keys over the primes below 40, by splitting type."""
    if field.is_rational:
        return {"rational": ["2", "3", "5", "7", "11"]}
    out = {"split": [], "inert": [], "ramified": []}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        places = field.places_over(p)
        if len(places) == 2:
            out["split"] += [f"{p}.1", f"{p}.2"]
        else:
            out[places[0].tag].append(str(p))
    return out


def ideal(rng: random.Random, keys: list, hi: int) -> dict:
    return {k: rng.randint(1, hi) for k in rng.sample(keys, min(len(keys), rng.randint(0, 2)))}


def global_request(rng: random.Random, kind: str, m: int | None) -> dict:
    field = BaseField.rationals() if m is None else BaseField.quadratic(m)
    fdoc = {"kind": "Q"} if m is None else {"kind": "quadratic", "d": m}
    by_type = place_keys(field)
    finite = [k for keys in by_type.values() for k in keys]
    real = list(field.real_place_keys())
    ramified = rng.choice(
        [[], [], rng.sample(finite, 2)]
        + ([real[:2]] if len(real) == 2 else [])
        + ([[real[0], rng.choice(finite)]] if real else [])
    )
    # Genus data at split, inert and ramified places alike (never at a
    # ramified place of the algebra).
    usable = [k for k in finite if k not in ramified]
    typed = [k for keys in by_type.values() for k in keys[:3] if k in usable]
    genus = {"level": ideal(rng, typed, 3), "I": ideal(rng, typed, 2)}
    req = {"field": fdoc, "algebra": {"ramified": ramified}, "genus": genus}
    if kind == "sigma":
        return item("global sigma", req)
    if kind == "comm":
        if m is None or rng.random() < 0.5:
            delta = rng.choice([-1, 1]) * rng.randint(2, 40)
        else:
            delta = {"x": rng.randint(-9, 9), "y": rng.choice([1, -1, 2])}
        sub = {"kind": "commutative-quadratic", "delta": delta,
               "conductor": ideal(rng, typed, 3)}
    elif rng.random() < 0.4:
        sub = {"kind": "rank3"}
    else:
        sub = {"kind": "rank4", "level": ideal(rng, typed, 4), "I": ideal(rng, typed, 3)}
    return item("global rep-field", {**req, "suborder": sub})


def global_pool(rng: random.Random) -> dict:
    strata = []
    for fname, sign in (("Q", 0), ("real", 1), ("imag", -1)):
        for kind in ("sigma", "comm", "rank34"):
            groups = []
            for _ in range(96):
                m = None if sign == 0 else squarefree_radicand(rng, sign)
                groups.append([global_request(rng, kind, m)])
            strata.append(stratum(f"{kind}-{fname}", groups))
    warmup = [strata[0]["groups"][0][0], strata[1]["groups"][0][0]]
    return pool(strata, warmup, SUBCOMMANDS[7:], ())


# ---------------------------------------------------------------------------
# Pools


def stratum(name: str, groups: list, per_round: int = 1, fixed: bool = False) -> dict:
    return {"name": name, "per_round": per_round, "fixed": fixed,
            "groups": [run_group(name, g) for g in groups]}


def pool(strata, warmup, subcommands, shape_kinds) -> dict:
    return {
        "pool_seed": POOL_SEED,
        "rounds": max(len(s["groups"]) for s in strata),
        "require": {"subcommands": list(subcommands), "shape_kinds": list(shape_kinds)},
        "warmup": warmup,
        "strata": strata,
    }


def main() -> int:
    pools = {}
    for name, build in (("local-orders", local_orders_pool), ("tree-enum", tree_enum_pool),
                        ("global-classfield", global_pool)):
        start = time.perf_counter()
        pools[name] = build(random.Random(f"{POOL_SEED}:{name}"))
        print(f"{name}: built in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    manifest = {}
    union = []
    for name, pl in pools.items():
        items = [it for s in pl["strata"] for g in s["groups"] for it in g]
        union += items
        manifest[name] = histograms(items)
        missing = missing_coverage(manifest[name], pl["require"])
        if missing:
            raise SystemExit(f"{name} pool lacks {', '.join(missing)}")
    manifest["all"] = histograms(union)
    missing = missing_coverage(manifest["all"], {"subcommands": SUBCOMMANDS,
                                                 "shape_kinds": SHAPE_KINDS})
    if missing:
        raise SystemExit(f"pools lack {', '.join(missing)}")
    POOL_DIR.mkdir(exist_ok=True)
    for name, pl in pools.items():
        with open(POOL_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(pl, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    with open(POOL_DIR / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    for name, costs in COST.items():
        print(f"  {name:16s} n={len(costs):4d} mean={1e3 * sum(costs) / len(costs):8.1f} ms"
              f" max={1e3 * max(costs):8.1f} ms", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
