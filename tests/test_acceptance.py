"""Acceptance suite: twelve end-to-end checks, one printed verdict each.

Each check freezes values computed by hand or by an independent
brute-force oracle written inline; every comparison is exact.  Run with
``pytest -s`` (the repository default) to see the per-check verdict
lines on stdout.
"""

import json
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt

from helpers import (
    connected_members,
    fe,
    fundamental_unit,
    has_unramified_residue_field,
    is_scalar,
    make_rng,
    odd_pair_oracle,
    order_from_module,
    pell_minimal,
    random_matrix,
    random_order,
    random_vertex_at,
    selectivity_ratio,
    shape_member,
    shift_order,
    spine_vertex,
    unit_norm_is_minus_one,
)
from qlat.branches import (
    Empty,
    ThickPath,
    branch_of_order,
    classify_single,
    eichler_envelope,
    enumerate_branch,
    intersect_shapes,
)
from qlat.bt_tree import (
    Vertex,
    ball,
    distance,
    geodesic,
    neighbors,
    standard_vertex,
)
from qlat.errors import EmbeddingInfeasible, Unbounded
from qlat.exact_padic import Mat2, module_intersect
from qlat.global_classfield import (
    BaseField,
    Genus,
    QuatAlgebra,
    parse_place_key,
    rep_field_comm_quadratic,
    rep_field_rank4,
    spinor_class_field,
)
from qlat.local_orders import (
    ShiftedEichler,
    decompose_shifted_eichler,
    maximal_order_module,
    order_closure,
    shifted_eichler_module,
    three_maximal_orders,
)
from qlat.quadforms import (
    QForm,
    class_group,
    class_rep,
    form_cycle,
    prime_form,
)
from qlat.spinor_local import SpinorImage, spinor_image

Q = BaseField.rationals()
K10 = BaseField.quadratic(10)

CLI = [sys.executable, "-m", "qlat.cli"]


@contextmanager
def criterion(n, label):
    """Print one ACCEPTANCE line per check; re-raise so pytest records it."""
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {n}: FAIL — {label} ({type(exc).__name__}: {exc})")
        raise
    print(f"ACCEPTANCE {n}: PASS — {label}")


# ---------------------------------------------------------------------------
# 1. two scaled nilpotents generate the thickness-2 edge order


def test_acceptance_01_edge_order_regression():
    with criterion(1, "scaled nilpotent pair: thick edge branch, module "
                      "equality, pointwise enumeration (p = 2, 3, 5)"):
        for p in (2, 3, 5):
            gens = [
                Mat2.of([[0, 0], [p**2, 0]]),
                Mat2.of([[0, p**3], [0, 0]]),
            ]
            order = order_closure(gens, p)
            shape = branch_of_order(order)

            v0 = standard_vertex(p)
            v1 = Vertex(p, 1, 0, 0)
            assert isinstance(shape, ThickPath)
            assert shape.level == 1 and shape.t == 2
            assert set(shape.path) == {v0, v1}
            assert eichler_envelope(shape) == (v0, v1, 1, 2)

            # the envelope module of the branch, computed two ways: the
            # shift-2 Eichler module of the edge equals the intersection
            # of the two shifted maximal orders, and it contains H with
            # the same branch
            edge_module = shifted_eichler_module(v0, v1, 2)
            shifted_pair = module_intersect(
                shift_order(order_from_module(maximal_order_module(v0)), 2).closure,
                shift_order(order_from_module(maximal_order_module(v1)), 2).closure,
            )
            assert edge_module == shifted_pair
            assert module_intersect(order.closure, edge_module) == order.closure
            assert branch_of_order(order_from_module(edge_module)) == shape

            # enumeration over the radius-5 ball matches the symbolic shape
            enum = enumerate_branch(order, 0, v0, 5)
            predicate = frozenset(
                v for v in ball(v0, 5) if shape_member(shape, v)
            )
            assert enum == predicate


# ---------------------------------------------------------------------------
# 2. the anti-commuting involution pair pins down one vertex


def test_acceptance_02_involution_pair_regression():
    with criterion(2, "anti-commuting involutions: single-vertex branch, "
                      "unramified residue field, apartment intersection "
                      "(p = 3, 5)"):
        i = Mat2.of([[1, 0], [0, -1]])
        j = Mat2.of([[0, 1], [1, 0]])
        for p in (3, 5):
            order = order_closure([i, j], p)
            v0 = standard_vertex(p)
            single = ThickPath((v0,), 0)
            assert branch_of_order(order) == single
            assert has_unramified_residue_field(order) is True
            crossing = intersect_shapes(
                classify_single(i, p), classify_single(j, p)
            )
            assert crossing == single


# ---------------------------------------------------------------------------
# 3. scaled involutions: envelope level 2(s - r), thickness r


def test_acceptance_03_scaled_involutions_envelope():
    with criterion(3, "scaled involution orders: envelope level 2(s-r) and "
                      "thickness r, symbolically and by enumeration"):
        p = 3
        i = Mat2.of([[1, 0], [0, -1]])
        j = Mat2.of([[0, 1], [1, 0]])
        v0 = standard_vertex(p)
        for r, s in ((0, 1), (1, 2), (1, 3)):
            order = order_closure([i * p**r, j * p**s], p)
            shape = branch_of_order(order)
            e1, e2, level, thick = eichler_envelope(shape)
            assert level == 2 * (s - r)
            assert thick == r
            assert distance(e1, e2) == level

            # the same branch, rebuilt from the envelope's Eichler module
            rebuilt = order_from_module(shifted_eichler_module(e1, e2, thick))
            radius = 5
            assert (
                enumerate_branch(order, 0, v0, radius)
                == enumerate_branch(rebuilt, 0, v0, radius)
                == frozenset(
                    v for v in ball(v0, radius) if shape_member(shape, v)
                )
            )


# ---------------------------------------------------------------------------
# 4. shift distributes over intersection; shifts compose


def test_acceptance_04_shift_intersection_identities():
    with criterion(4, "shift/intersection identity and shift composition on "
                      "200 random order pairs per p = 2, 3 (exact modules)"):
        rng = make_rng(11)
        for p in (2, 3):
            for _ in range(200):
                h1 = random_order(rng, p)
                h2 = random_order(rng, p)
                inter = module_intersect(h1.closure, h2.closure)
                for s in (1, 2, 3):
                    lhs = shift_order(order_from_module(inter), s).closure
                    rhs = module_intersect(
                        shift_order(h1, s).closure, shift_order(h2, s).closure
                    )
                    assert lhs == rhs
                # composition: (H^[a])^[b] = H^[a+b]
                assert (
                    shift_order(shift_order(h1, 1), 2).closure
                    == shift_order(h1, 3).closure
                )
                assert (
                    shift_order(shift_order(h2, 2), 1).closure
                    == shift_order(h2, 3).closure
                )


# ---------------------------------------------------------------------------
# 5. a shifted maximal order is the intersection over its ball


def test_acceptance_05_shifted_maximal_is_ball_intersection():
    with criterion(5, "Z + p^t * D_v equals the module intersection of the "
                      "maximal orders over ball(v, t)  (p = 2, 3; t = 1, 2)"):
        rng = make_rng(13)
        for p in (2, 3):
            centers = [
                standard_vertex(p),
                random_vertex_at(rng, standard_vertex(p), 2),
            ]
            for v in centers:
                for t in (1, 2):
                    lhs = shift_order(
                        order_from_module(maximal_order_module(v)), t
                    ).closure
                    rhs = None
                    for w in ball(v, t):
                        mw = maximal_order_module(w)
                        rhs = mw if rhs is None else module_intersect(rhs, mw)
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# 6. shifting an order grows its branch by one ring; deepening shrinks it


def test_acceptance_06_neighborhood_and_deep_laws():
    with criterion(6, "branch of H^[1] is the 1-neighborhood of the branch "
                      "of H; depth-1 members are those whose whole 1-ball "
                      "lies inside (50+ random orders)"):
        rng = make_rng(17)
        radius = 4
        nonempty = 0
        for _ in range(52):
            p = rng.choice([2, 3])
            order = random_order(rng, p)
            v0 = standard_vertex(p)
            base = enumerate_branch(order, 0, v0, radius)
            inner = frozenset(ball(v0, radius - 1))

            grown = enumerate_branch(shift_order(order, 1), 0, v0, radius)
            one_hood = frozenset(
                v
                for v in inner
                if v in base or any(w in base for w in neighbors(v))
            )
            assert frozenset(v for v in grown if v in inner) == one_hood

            deep = enumerate_branch(order, 1, v0, radius - 1)
            brute_deep = frozenset(
                v for v in inner if all(w in base for w in ball(v, 1))
            )
            assert deep == brute_deep
            nonempty += bool(base)
        assert nonempty >= 26  # the sample genuinely exercises both laws


# ---------------------------------------------------------------------------
# 7. every shifted Eichler order is an explicit triple intersection


def test_acceptance_07_three_maximal_orders_constructive():
    with criterion(7, "100 random shifted Eichler orders: the three "
                      "constructed maximal orders intersect to the order; "
                      "decomposition round-trips (d <= 3, t <= 2)"):
        rng = make_rng(19)
        for _ in range(100):
            p = rng.choice([2, 3])
            d = rng.randrange(4)
            t = rng.randrange(3)
            v1 = random_vertex_at(rng, standard_vertex(p), rng.randrange(3))
            v2 = random_vertex_at(rng, v1, d)
            se = ShiftedEichler((v1, v2), d, t)

            target = shifted_eichler_module(v1, v2, t)
            triple = None
            for w in three_maximal_orders(se):
                mw = maximal_order_module(w)
                triple = mw if triple is None else module_intersect(triple, mw)
            assert triple == target

            back = decompose_shifted_eichler(order_from_module(target))
            assert set(back.endpoints) == {v1, v2}
            assert back.level == d and back.shift == t


# ---------------------------------------------------------------------------
# 8. the spinor decision agrees with the explicit pair oracle


def _deep_vertices(shape, r, d):
    """(deep shape, certified member set) for the oracle comparison."""
    deep = shape.deepen(r)
    if isinstance(deep, Empty):
        return deep, frozenset()
    seed = spine_vertex(deep)
    if isinstance(deep, ThickPath):
        radius = deep.level + deep.t  # covers the whole finite shape
    else:
        radius = d + 2  # enough to expose a sliding (odd) pair
    return deep, connected_members(deep, seed, radius)


def _oracle_image(vertices, d):
    vs = sorted(vertices)
    anchor = None
    for idx, x in enumerate(vs):
        for y in vs[idx:]:
            if distance(x, y) == d:
                anchor = (x, y)
                break
        if anchor:
            break
    if anchor is None:
        return SpinorImage.NO_EMBEDDING
    if odd_pair_oracle(vertices, d, anchor):
        return SpinorImage.FULL
    return SpinorImage.UNIT_SQUARES


def test_acceptance_08_spinor_decision_vs_oracle():
    with criterion(8, "spinor decision equals the pair oracle on 100 random "
                      "(branch, d, r) instances; even-diameter parity lemma "
                      "on all sampled diametral pairs"):
        rng = make_rng(23)
        checked = 0
        while checked < 100:
            p = rng.choice([2, 3])
            if rng.random() < 0.5:
                v1 = standard_vertex(p)
                v2 = random_vertex_at(rng, v1, rng.randrange(4))
                t = rng.randrange(3)
                shape = branch_of_order(
                    order_from_module(shifted_eichler_module(v1, v2, t))
                )
            else:
                a = random_matrix(rng, p)
                if is_scalar(a):
                    continue
                try:
                    shape = classify_single(a, p)
                except Unbounded:
                    continue
            d = rng.randrange(5)
            r = rng.randrange(3)
            deep, vertices = _deep_vertices(shape, r, d)
            if isinstance(deep, ThickPath) and len(vertices) > 120:
                continue  # keep the quadratic pair scan fast
            assert spinor_image(shape, d, r) == _oracle_image(vertices, d)
            checked += 1

        # parity lemma: on an even-diameter thick path, every diametral
        # pair realizes only even displacements
        for _ in range(8):
            p = rng.choice([2, 3])
            v1 = standard_vertex(p)
            d0 = rng.choice([0, 2])
            v2 = random_vertex_at(rng, v1, d0)
            t = rng.randrange(2)
            shape = ThickPath(geodesic(v1, v2), t)
            d = d0 + 2 * t
            vertices = connected_members(shape, v1, d0 + t)
            pairs = [
                (x, y)
                for x in sorted(vertices)
                for y in sorted(vertices)
                if distance(x, y) == d
            ]
            assert pairs
            for anchor in pairs:
                assert odd_pair_oracle(vertices, d, anchor) is False
            assert spinor_image(shape, d, 0) == SpinorImage.UNIT_SQUARES


# ---------------------------------------------------------------------------
# 9. class data against inline brute-force oracles


def _brute_reduced_definite(disc):
    """All reduced positive definite primitive forms of discriminant disc."""
    out = set()
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):  # -a < b <= a
            num = b * b - disc
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if c >= a and gcd(gcd(a, b), c) == 1 and not (a == c and b < 0):
                    out.add(QForm(a, b, c))
        a += 1
    return out


def _brute_reduced_indefinite(disc):
    """All reduced indefinite primitive forms: |sqrt(disc) - 2|a|| < b < sqrt(disc)."""
    out = set()
    bound = isqrt(disc)
    for a in range(-bound, bound + 1):
        if a == 0:
            continue
        for b in range(1, bound + 1):
            if b * b >= disc or (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if gcd(gcd(a, b), c) != 1:
                continue
            s = 2 * abs(a)
            if (s + b) ** 2 > disc and (s - b < 0 or (s - b) ** 2 < disc):
                out.add(QForm(a, b, c))
    return out


def _brute_pell(m):
    """Minimal x + y*sqrt(m) > 1 with x^2 - m*y^2 = +-1, by direct search."""
    for x in range(2, 10_000):
        for eps in (1, -1):
            num = x * x - eps
            if num > 0 and num % m == 0:
                y = isqrt(num // m)
                if y > 0 and m * y * y == num:
                    return x, y, eps
    raise AssertionError("no unit found in search range")


def test_acceptance_09_class_groups_vs_brute_force():
    with criterion(9, "class numbers for -20, -23, 40 and the d = 10 unit "
                      "norm match brute-force enumeration; sigma degrees "
                      "Q -> 1 and Q(sqrt 10) -> 2"):
        g20 = class_group(-20)
        assert len(_brute_reduced_definite(-20)) == 2 == g20.order
        assert set(g20.reps) == _brute_reduced_definite(-20)

        g23 = class_group(-23)
        assert len(_brute_reduced_definite(-23)) == 3 == g23.order
        assert set(g23.reps) == _brute_reduced_definite(-23)
        # odd order: squaring permutes the classes (trivial 2-part)
        assert {g23.op(x, x) for x in g23.reps} == set(g23.reps)

        g40 = class_group(40)
        brute40 = _brute_reduced_indefinite(40)
        assert len(brute40) == 8
        cycles = [frozenset(form_cycle(r)) for r in g40.reps]
        assert g40.order == len(cycles) == 2
        assert cycles[0].isdisjoint(cycles[1])
        assert cycles[0] | cycles[1] == brute40

        assert _brute_pell(10) == (3, 1, -1) == pell_minimal(10)
        assert fundamental_unit(10) == (3, 1, 1, -1)
        assert unit_norm_is_minus_one(10) is True

        assert spinor_class_field(QuatAlgebra.of(Q), Genus.of()).degree == 1
        sig10 = spinor_class_field(QuatAlgebra.of(K10), Genus.of())
        assert sig10.degree == 2 == g40.order


# ---------------------------------------------------------------------------
# 10. selectivity over Q(sqrt 10), cross-checked against the local engine


def _global_verdict(t, r, d):
    """Local spinor image predicted by the global engine at the place 3.1
    of Q(sqrt 10) for L = K(sqrt 2), conductor depth t, genus (d, r)."""
    alg = QuatAlgebra.of(K10)
    p3 = parse_place_key(K10, "3.1")
    try:
        rep = rep_field_comm_quadratic(
            alg,
            Genus.of(level={p3: d}, shift={p3: r}),
            fe(Fraction(2), Fraction(0)),
            conductor={p3: t},
        )
    except EmbeddingInfeasible:
        return SpinorImage.NO_EMBEDDING
    if "3.1" in rep.strict_places:
        return SpinorImage.FULL
    return SpinorImage.UNIT_SQUARES


def test_acceptance_10_selectivity_end_to_end():
    with criterion(10, "Q(sqrt 10), L = K(sqrt 2): maximal genus is "
                       "1/2-selective, a depth-1 conductor at an inert "
                       "place restores ratio 1; global verdicts equal "
                       "local spinor images on the (t, r, d) grid"):
        alg = QuatAlgebra.of(K10)
        delta = fe(Fraction(2), Fraction(0))

        rep = rep_field_comm_quadratic(alg, Genus.of(), delta)
        assert rep.degree == 2
        assert selectivity_ratio(rep) == Fraction(1, 2)
        assert rep.strict_places == ()

        p3 = parse_place_key(K10, "3.1")  # inert in L = K(sqrt 2)
        rep1 = rep_field_comm_quadratic(
            alg, Genus.of(), delta, conductor={p3: 1}
        )
        assert rep1.degree == 1
        assert selectivity_ratio(rep1) == Fraction(1, 1)
        assert rep1.strict_places == ("3.1",)

        # cross-validation at the split rational prime 3: the completion
        # at 3.1 is Q_3 and the conductor-3^t local order is generated by
        # 3^t * [[0,1],[2,0]]
        for t in range(4):
            gen = Mat2.of([[0, 3**t], [2 * 3**t, 0]])
            shape = classify_single(gen, 3)
            for r in range(min(t, 2) + 1):
                for d in range(5):
                    local = spinor_image(shape, d, r)
                    assert local == _global_verdict(t, r, d), (t, r, d)


# ---------------------------------------------------------------------------
# 11. rank-4 suborder degrees match ideal classes from form reduction


def test_acceptance_11_rank4_degrees_match_ideal_classes():
    with criterion(11, "O + P*D0 in a maximal order over Q(sqrt 10): degree "
                       "2 exactly when the prime P is principal, computed "
                       "independently by form reduction (P over 3, 13, 31, "
                       "41)"):
        g40 = class_group(40)
        alg = QuatAlgebra.of(K10)
        degrees = []
        for p in (3, 13, 31, 41):
            cls = class_rep(prime_form(40, p, 1), 40)
            expected = 2 if cls == g40.identity else 1
            pl = parse_place_key(K10, f"{p}.1")
            rep = rep_field_rank4(alg, Genus.of(), Genus.of(shift={pl: 1}))
            assert rep.degree == expected
            degrees.append(rep.degree)
        assert degrees == [1, 1, 2, 2]  # 3, 13 non-principal; 31, 41 principal


# ---------------------------------------------------------------------------
# 12. CLI byte determinism on the regression fixtures


FIXTURES = [
    (
        ["local", "classify"],
        {"p": 3, "generators": [[[0, 0], [9, 0]], [[0, 27], [0, 0]]]},
    ),
    (
        ["local", "branch-enum"],
        {
            "p": 3,
            "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [3, 0]]],
            "radius": 2,
        },
    ),
    (
        ["local", "spinor-image"],
        {"p": 3, "generators": [[[0, 9], [18, 0]]], "level": 2, "shift": 1},
    ),
    (
        ["local", "decompose"],
        {
            "p": 3,
            "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [3, 0]]],
        },
    ),
    (
        ["local", "three-maximals"],
        {
            "p": 3,
            "endpoints": [{"a": 0, "b": 0, "c": 0}, {"a": 0, "b": 2, "c": 0}],
            "shift": 1,
        },
    ),
    (["tree", "ball"], {"p": 2, "radius": 2}),
    (["tree", "dot"], {"p": 3, "radius": 1}),
    (
        ["global", "sigma"],
        {"field": {"kind": "quadratic", "d": 10}, "algebra": {}, "genus": {}},
    ),
    (
        ["global", "rep-field"],
        {
            "field": {"kind": "quadratic", "d": 10},
            "algebra": {},
            "genus": {},
            "suborder": {
                "kind": "commutative-quadratic",
                "delta": 2,
                "conductor": {"3.1": 1},
            },
        },
    ),
    (
        ["global", "rep-field"],
        {
            "field": {"kind": "quadratic", "d": 10},
            "algebra": {},
            "genus": {},
            "suborder": {"kind": "rank4", "I": {"31.1": 1}},
        },
    ),
]


def test_acceptance_12_cli_byte_determinism():
    with criterion(12, "CLI regression fixtures: byte-identical output "
                       "across repeated runs, in canonical JSON"):
        for args, request in FIXTURES:
            data = json.dumps(request).encode()
            outs = []
            for _ in range(2):
                proc = subprocess.run(CLI + args, input=data, capture_output=True)
                assert proc.returncode == 0, (args, proc.stderr.decode())
                outs.append(proc.stdout)
            assert len(set(outs)) == 1, args
            text = outs[0].decode()
            doc = json.loads(text)
            assert (
                json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
                == text
            ), args
