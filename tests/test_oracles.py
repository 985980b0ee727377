"""Fast paths against the slow routines they replaced (`oracles.py`): the
integer disc-coordinate local layer on whole balls and seeded ends and
matrices, the integer module layer (Hermite forms, intersections, maximal
and shifted Eichler modules, order closure) on seeded generator sets and
vertex pairs, the closed-form closure of one or two generators against the
integer closure rounds, the class-group layer (reduced-form enumeration, and the
coset-extension closure against the breadth-first one) on discriminants
and generator sets, the genus-character class-field degrees against the
class-group closure on genera, the capped factorizer on integers, the
branch-based residue-field test on seeded and structured orders, the
tuple-backed vertex against the frozen dataclass on whole balls, the
ball read off the distance formula against the sorted link generator on
seeded centres with exponents up to MAX_VERTEX_EXPONENT, the
one square-class rule against the per-place local square and unramified
tests on every field Q(sqrt m), |m| <= 200, at every place over p <= 13,
the Newton-step dyadic square root against the bit-by-bit lift at
every precision up to 2,048 bits, the bound margin of every shape kind
against the margins read vertex by vertex (and a count of the valuations
a bound margin reads per vertex), the branch engine's one climb and one
level walk against its neighbor-scan loops on seeded shape pairs, budgets
and guard-tripping fakes, the branch of an order read from one margin
against the fold that classifies between intersections and the
enumeration that tests `contains_shifted`, and the exit codes carried by
the error classes against the old map.  The in-process argv differential of
`qlat.cli.main` against its argparse-only oracle is `test_cli_argv.py`."""

import copy
import gc
import itertools
import pickle
import time
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

import pytest
from sympy import factorint, nextprime
from sympy import isprime as sympy_isprime
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod
from sympy.solvers.diophantine.diophantine import diop_DN

import oracles
from helpers import (
    class_inverse,
    det,
    end_from_vector,
    entries,
    fundamental_discriminant,
    fundamental_unit,
    has_unramified_residue_field,
    is_scalar,
    make_rng,
    order_from_module,
    random_matrix,
    random_order,
    random_vertex,
    random_vertex_at,
    rows,
    scale,
    shift_order,
    spine_vertex,
    vertex_basis,
    zero_matrix,
)
from qlat.branches import (
    Empty,
    Fan,
    Full,
    Shape,
    ThickApartment,
    ThickPath,
    ThickRay,
    _climb,
    _level_neighbors,
    branch_of_order,
    classify_single,
    enumerate_branch,
    intersect_shapes,
    mu_margin,
)
from qlat.bt_tree import (
    MAX_VERTEX_EXPONENT,
    End,
    Vertex,
    ball,
    canonical_vertex,
    child,
    distance,
    end_of,
    export_dot,
    geodesic,
    horoball_slack,
    iter_neighbors,
    neighbors,
    parent,
    ray_distance,
    standard_vertex,
    step_toward_end,
    walk_toward_end,
)
from qlat.errors import (
    BudgetExceeded,
    InfiniteUnsupported,
    NotShiftedEichler,
    QlatError,
    ResourceLimit,
    SingularMatrix,
    Unbounded,
)
from qlat.cli import parse_field_element, parse_rational
from qlat.exact_padic import (
    MAX_TRIAL_DIVISOR,
    SPRP_BOUND,
    Mat2,
    commute,
    is_local_square_int,
    is_local_square_rat,
    is_prime,
    is_squarefree,
    module_hnf,
    module_intersect,
    prime_divisors,
    smith_local,
    sqrt_mod,
    valuation,
)
from qlat import branches, bt_tree, global_classfield
from qlat.global_classfield import (
    BaseField,
    Genus,
    QuatAlgebra,
    RepField,
    _prime_discriminants,
    hensel_sqrt,
    narrow_ray_class_group,
    parse_place_key,
    rep_field_comm_quadratic,
    rep_field_rank3,
    rep_field_rank4,
    spinor_class_field,
)
from qlat.local_orders import (
    ShiftedEichler,
    contains_shifted,
    decompose_shifted_eichler,
    maximal_order_module,
    order_closure,
    shifted_eichler_module,
)
from qlat import quadforms
from qlat.quadforms import (
    ClassGroup,
    _enumerate_definite,
    _enumerate_indefinite_reduced,
    class_group,
    class_rep,
    kronecker_at,
    negative_identity_class,
    prime_form,
)

BALLS = [(2, 5), (3, 4), (5, 3), (101, 1)]


@lru_cache(maxsize=None)
def whole_ball(p: int, radius: int):
    return sorted(ball(standard_vertex(p), radius))


def seeded_ends(p: int, seed: int) -> list[End]:
    """oo, 0, ends whose y carries a factor of p, and random ones."""
    rng = make_rng(seed)
    ends = [End(1, 0), End(0, 1), end_from_vector((1, p))]
    ends.append(end_from_vector((2, p * p)))
    for _ in range(4):
        x = rng.randrange(-50, 51)
        y = rng.randrange(1, 30) * p ** rng.randrange(3)
        ends.append(end_from_vector((x, y)))
    return sorted(set(ends))


def seeded_rational_matrix(rng, p: int) -> Mat2:
    """Entries with denominators mixing p and a prime-to-p factor."""
    q = next(x for x in (7, 11, 13) if x != p)
    dens = (1, 1, p, p * p, q, p * q)

    def entry() -> Fraction:
        return Fraction(rng.randrange(-40, 41), rng.choice(dens))

    while True:
        m = Mat2.of([[entry(), entry()], [entry(), entry()]])
        if not is_scalar(m):
            return m


@pytest.mark.parametrize("p,radius", BALLS)
def test_distance_matches_smith_form(p, radius):
    vs = whole_ball(p, radius)
    others = make_rng(p).sample(vs, 16)
    for v in vs:
        for w in others:
            assert distance(v, w) == oracles.distance(v, w), (v, w)


@pytest.mark.parametrize("p,radius", BALLS)
def test_neighbors_match_canonical_vertex(p, radius):
    for v in whole_ball(p, radius):
        assert neighbors(v) == oracles.neighbors(v), v
        # callers take the first passing neighbor as the least one
        assert list(neighbors(v)) == sorted(neighbors(v)), v


@pytest.mark.parametrize("p,radius", BALLS)
def test_steps_slacks_and_ray_distances_match_walks(p, radius):
    vs = whole_ball(p, radius)
    rng = make_rng(p)
    bases = [standard_vertex(p), rng.choice(vs)]
    for end in seeded_ends(p, 100 + p):
        for v in vs:
            assert step_toward_end(v, end) == oracles.step_toward_end(v, end)
        for base in bases:
            for v in rng.sample(vs, 12):
                assert horoball_slack(base, end)(v) == oracles.fan_slack(base, end, v)
                assert ray_distance(base, end)(v) == oracles.dist_to_ray(v, base, end)


@pytest.mark.parametrize("p,radius", BALLS)
def test_margins_and_shifted_membership_match_conjugation(p, radius):
    rng = make_rng(200 + p)
    mats = [seeded_rational_matrix(rng, p) for _ in range(3)]
    mats += [random_matrix(rng, p) for _ in range(2)]
    for a in mats:
        for v in whole_ball(p, radius):
            assert mu_margin(a, v) == oracles.mu_margin(a, v), (a, v)
            for r in (0, 1, 2):
                got = contains_shifted(v, a, r)
                assert got == oracles.contains_shifted(v, a, r), (a, v, r)


def seeded_witnesses(rng, p: int) -> list[tuple]:
    """5-tuples (den, al, be, ga, de) of every kind a margin kernel reads:
    ga = 0, be = 0, scalars plus nilpotents, den with a p-power part and a
    prime-to-p part, and tuples not in lowest terms (the five times a
    common factor), with valuations up to MAX_VERTEX_EXPONENT."""
    q = next(x for x in (7, 11, 13) if x != p)

    def entry() -> int:
        x = rng.randrange(-60, 61)
        return x * p ** rng.choice((0, 0, 1, 2, rng.randrange(MAX_VERTEX_EXPONENT + 1)))

    def den() -> int:
        unit = rng.choice((1, q, 3 * q))
        return unit * p ** rng.choice((0, 1, 3, MAX_VERTEX_EXPONENT))

    out = []
    for _ in range(8):
        al, be, ga, de = entry(), entry(), entry(), entry()
        out += [(den(), al, be, ga, de), (den(), al, be, 0, de), (den(), al, 0, ga, de)]
        # lam + k [[x y, -x^2], [y^2, -x y]]: a scalar plus a nilpotent
        lam, k, x, y = entry(), entry(), entry(), rng.randrange(1, 9)
        out.append((den(), lam + k * x * y, -k * x * x, k * y * y, lam - k * x * y))
        g = rng.choice((p, q * p**5, q))  # not in lowest terms
        out.append(tuple(g * z for z in (den(), al, be, ga, de)))
    out.append(tuple(random_matrix(rng, p)))  # a Mat2 reads as its 5-tuple
    return out


def seeded_vertices(rng, p: int) -> list[Vertex]:
    """Vertices near the standard vertex and far out, with exponents a and b
    up to MAX_VERTEX_EXPONENT."""
    out = [random_vertex(rng, p, 6) for _ in range(10)]
    for _ in range(10):
        a, b = (rng.randrange(MAX_VERTEX_EXPONENT + 1) for _ in range(2))
        if rng.random() < 0.3:
            a, b = rng.choice(((a, 0), (0, b), (MAX_VERTEX_EXPONENT, 0)))
        c = rng.randrange(p**a) if a else 0
        if a and b and c % p == 0:
            c += 1
        out.append(Vertex(p, a, b, c))
    return out + [random_vertex_at(rng, out[-1], 3) for _ in range(3)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_bound_margins_match_reference(p):
    """Each shape kind's bound margin, its `margin`, and `mu_margin`,
    `horoball_slack` and `ray_distance`, against the margins as they were read
    vertex by vertex before the shapes bound their fixed data once."""
    rng = make_rng(2300 + p)
    vs = seeded_vertices(rng, p)
    shapes = [Full(p), Empty(p)]
    for w in seeded_witnesses(rng, p):
        t, axis = rng.randrange(4), rng.randrange(-3, 4)
        shapes.append(ThickApartment(p, None, t, w, axis, rng.choice(vs)))
        for v in vs:
            assert mu_margin(w, v) == oracles.valued_mu_margin(w, v), (w, v)
    for end in seeded_ends(p, 2400 + p) + [End(1, p**MAX_VERTEX_EXPONENT)]:
        for base in rng.sample(vs, 4):
            shapes += [Fan(base, end), ThickRay(base, end, rng.randrange(4))]
            for v in vs:
                want = oracles.valued_fan_slack(base, end, v)
                assert horoball_slack(base, end)(v) == want, (base, end, v)
                want = oracles.valued_dist_to_ray(v, base, end)
                assert ray_distance(base, end)(v) == want, (base, end, v)
    for _ in range(8):
        x = rng.choice(vs)
        y = random_vertex_at(rng, x, rng.randrange(4))
        shapes.append(ThickPath(geodesic(x, y), rng.randrange(4)))
    for s in shapes:
        margin = s.bound_margin()
        for v in vs:
            want = oracles.valued_margin(s, v)
            assert margin(v) == s.margin(v) == want, (s, v)


@pytest.mark.parametrize("p", [3, 101])
def test_bound_margins_read_fixed_valuations_once(monkeypatch, p):
    """The valuations of den and ga, and of an end's y, are read when the
    margin is bound, not at each vertex: with den, ga and y of valuations in
    the thousands, no read per vertex is given any of them, in full or
    capped."""
    den, ga, y = 7 * p**3000, 5 * p**2000, p**2500
    witness = (den, 1 + p**2100, 3, ga, 1)
    shapes = [
        ThickApartment(p, None, 1, witness, 0, standard_vertex(p)),
        Fan(standard_vertex(p), End(1, y)),
        ThickRay(standard_vertex(p), End(1, y), 2),
    ]
    rng = make_rng(2500 + p)
    vs = seeded_vertices(rng, p)
    read = []

    def counting(valuation_of):
        def counted(n, q, *cap):
            read.append(n)
            return valuation_of(n, q, *cap)

        return counted

    for s in shapes:
        margin = s.bound_margin()
        read.clear()
        for module in (branches, bt_tree):
            monkeypatch.setattr(module, "int_valuation", counting(module.int_valuation))
        values = [margin(v) for v in vs]
        monkeypatch.undo()
        assert values == [oracles.valued_margin(s, v) for v in vs], s
        assert not {den, ga, y} & set(read), s
        # at most the two valuations that depend on v, and for a ray the
        # distance to its base and the slack
        assert len(read) <= 2 * len(vs), (s, len(read))


def _as_mat2(w: tuple) -> Mat2:
    den, al, be, ga, de = w
    rows = [[al, be], [ga, de]]
    return Mat2.of([[Fraction(x, den) for x in row] for row in rows])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_capped_margins_and_distances_match_conjugation(p):
    """mu, which reads each valuation only as deep as its minimum can use,
    and `distance`, whose meet is capped the same way, against conjugation
    and the Smith form.  Exponents and valuations reach MAX_VERTEX_EXPONENT,
    and the cases include ga = 0, scalars, and vertices at which the
    numerator of m00 - m11, of m01, or of the meet is 0."""
    rng = make_rng(2600 + p)
    top = MAX_VERTEX_EXPONENT
    vs = seeded_vertices(rng, p)
    vs += [Vertex(p, a, 0, 0) for a in (1, rng.randrange(2, top), top)]
    vs += [Vertex(p, 0, b, 0) for b in (1, rng.randrange(2, top), top)]
    pairs = [(w, v) for w in seeded_witnesses(rng, p) for v in rng.sample(vs, 6)]
    for v in vs:
        _, a, b, c = v
        q, h, de = p**b, rng.randrange(1, 9), rng.randrange(-9, 10)
        den = rng.choice((1, 3 * p, p**top))
        be, d = rng.randrange(-9, 10), rng.randrange(1, 9) * p ** rng.randrange(4)
        pairs += [
            # ga = q^2 h, al - de = 2 q h c, be = -h c^2: y = x = 0 at v
            ((den, de + 2 * q * h * c, -h * c * c, q * q * h, de), v),
            # ga = q h, al - de = 2 h c: y = 0 at v
            ((den, de + 2 * h * c, be, q * h, de), v),
            # be = 0: x = 0 where c = 0
            ((den, de + d, 0, h * p ** rng.randrange(top), de), v),
            # ga = 0: no m10 term, and with al = de, y = 0 everywhere
            ((den, de + d, be or 1, 0, de), v),
            ((den, de, be or 1, 0, de), v),
            ((den, de, 0, 0, de), v),  # a scalar: +inf
        ]
    for w, v in pairs:
        assert mu_margin(w, v) == oracles.mu_margin(_as_mat2(w), v), (w, v)
    others = rng.sample(vs, 6) + [standard_vertex(p), Vertex(p, top, 0, 0)]
    for v in vs:
        near = [v, parent(v), child(v, rng.randrange(p)), random_vertex_at(rng, v, 3)]
        for w in others + near:
            assert distance(v, w) == oracles.distance(v, w), (v, w)
            assert distance(w, v) == oracles.distance(w, v), (w, v)


def test_bounded_intersections_evaluate_each_vertex_once(monkeypatch):
    """At p = 101 a bounded intersection evaluates each shape's margin at
    most once at any vertex: the climb does not go back to the vertex it
    came from, and the plateau's sides come from the climb's last scan of
    the summit, not from a second one.  The orders: the level-40 path of
    e11 and [[0, p^40], [1, 0]], the rank-4 order of the benchmark's
    p = 101 slice, a pair, and two seeded orders of three generators."""
    p = 101
    rng = make_rng(2610)
    orders = [
        [[[1, 0], [0, 0]], [[0, p**40], [1, 0]]],
        [[[1, 0], [0, 1]], [[0, 1], [100, 63062483]],
         [[0, 0], [101, 101275427]], [[0, 0], [0, 104060401]]],
        [[[0, 2], [1, 0]], [[1, 0], [0, -1]]],
    ]
    orders = [[Mat2.of(g) for g in gens] for gens in orders]
    orders += [[random_matrix(rng, p) for _ in range(3)] for _ in range(2)]
    counts = []

    def counting(kind):
        bind = kind.bound_margin

        def bound_margin(self):
            margin, seen = bind(self), Counter()
            counts.append(seen)

            def counted(v):
                seen[v] += 1
                return margin(v)

            return counted

        return bound_margin

    for kind in (ThickApartment, ThickPath, ThickRay, Fan):
        monkeypatch.setattr(kind, "bound_margin", counting(kind))
    walks = 0
    for gens in orders:
        order = order_closure(gens, p)
        shape = Full(p)
        for s in [classify_single(b, p) for b in order.closure.basis]:
            counts.clear()
            out = intersect_shapes(shape, s)
            if shape.kind != "full" and out.kind == "thick_path":
                walks += 1
                assert len(counts) == 2, (shape, s)
                for seen in counts:
                    v, most = seen.most_common(1)[0]
                    assert most == 1, (shape, s, v)
            shape = out
    assert walks >= 5


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_eigenline_ascent_matches_full_scan(p):
    rng = make_rng(300 + p)
    starts = whole_ball(p, 1)
    for _ in range(12 if p < 101 else 3):
        if rng.random() < 0.5:
            a = random_matrix(rng, p)
        else:
            a = seeded_rational_matrix(rng, p)
        if is_scalar(a):
            continue
        for v in rng.sample(starts, 3):
            m = mu_margin(a, v)
            full = [n for n in oracles.neighbors(v) if oracles.mu_margin(a, n) >= m]
            assert sorted(_level_neighbors(a, p)(v, m)) == full, (a, v)
            mu = lambda w: mu_margin(a, w)  # noqa: E731
            got = _climb(mu, _level_neighbors(a, p), v, m, m + 6)[:2]
            assert got == oracles.climb(a, v, ceiling=m + 6)
            assert got == oracles.eigenline_climb(a, v, ceiling=m + 6)


def test_classify_single_reads_v_den_once_per_walk(monkeypatch):
    """The climb and the stem of a thick path read v_p(den) when their
    steps are bound, not at each step: with den = 7 * 3^3000, a climb of 20
    steps reads it as often as one of 5, and never more than four times."""
    p, den = 3, 7 * 3**3000
    read = []

    def counted(n, q, *cap):
        read.append(n)
        return valuation_of(n, q, *cap)

    valuation_of = branches.int_valuation
    monkeypatch.setattr(branches, "int_valuation", counted)
    counts = []
    for t in (5, 20):
        read.clear()
        shape = classify_single((den, 0, 2 * 3 ** (2 * t) * den, den, 0), p)
        assert shape == ThickPath((Vertex(p, t, 0, 0),), t)
        counts.append(read.count(den))
    assert counts[0] == counts[1] <= 4, counts


def test_sqrt_mod_matches_linear_search_and_sympy():
    for p in (2, 3, 5, 7, 13, 17, 41, 97, 101, 257):
        for a in range(p):
            roots = sympy_sqrt_mod(a, p, all_roots=True)
            want = min(roots) if roots else None
            assert sqrt_mod(a, p) == want == oracles.sqrt_mod(a, p), (a, p)
    # p - 1 = q * 2^s with s = 16 and s = 23
    for p in (65537, 1000003, 998244353):
        for a in (2, 3, 5, 10, 12345, 65536):
            roots = sympy_sqrt_mod(a, p, all_roots=True)
            assert sqrt_mod(a, p) == (min(roots) if roots else None), (a, p)


def test_fundamental_unit_1021():
    x, y, den, norm = fundamental_unit(1021)
    assert den == 2 and x * x - 1021 * y * y == 4 * norm
    assert (x, y, norm) == (85745895, 2683493, -1)


def test_fundamental_unit_matches_search_and_diop_dn():
    for m in range(5, 2000, 4):
        if not is_squarefree(m):
            continue
        got = fundamental_unit(m)
        x, y, den, norm = got
        assert den == 2 and x * x - m * y * y == 4 * norm
        # The unit with least y > 0 among sympy's solutions of x^2 - m y^2 =
        # +-4 and, doubled, of x^2 - m y^2 = +-1 (a unit in Z[sqrt m] can
        # share its class with the trivial solution (2, 0) of the first).
        sols = [s for n in (4, -4) for s in diop_DN(m, n)]
        sols += [(2 * s, 2 * t) for n in (1, -1) for s, t in diop_DN(m, n)]
        positive = [s for s in sols if s[0] > 0 and s[1] > 0]
        assert min(positive, key=lambda s: (s[1], s[0])) == (x, y), m
        if y < 20000:
            assert oracles.half_unit_search(m, 20000) == got, m


# ---------------------------------------------------------------------------
# Class groups


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _seeded_fundamental_discs(seed: int, count: int, lo: int, hi: int) -> list[int]:
    """`count` fundamental discriminants with lo <= |D| <= hi, both signs."""
    rng = make_rng(seed)
    out = set()
    while len(out) < count:
        m = rng.randrange(lo // 4, hi // 4) * rng.choice((1, -1))
        if m not in (0, 1) and is_squarefree(m):
            d = fundamental_discriminant(m)
            if lo <= abs(d) <= hi:
                out.add(d)
    return sorted(out)


def test_reduced_form_enumerations_match_for_small_discriminants():
    for disc in range(-5000, 5001):
        if disc % 4 not in (0, 1) or disc in (0, 1) or _is_square(disc):
            continue
        if disc < 0:
            assert _enumerate_definite(disc) == oracles.enumerate_definite(disc), disc
        else:
            assert _enumerate_indefinite_reduced(
                disc
            ) == oracles.enumerate_indefinite_reduced(disc), disc


def test_reduced_form_enumerations_match_on_seeded_large_discriminants():
    for disc in _seeded_fundamental_discs(11, 24, 10**4, 4 * 10**5):
        if disc < 0:
            assert _enumerate_definite(disc) == oracles.enumerate_definite(disc), disc
        else:
            assert _enumerate_indefinite_reduced(
                disc
            ) == oracles.enumerate_indefinite_reduced(disc), disc


def _generator_sets(group: ClassGroup, rng) -> list[list]:
    """Squares, the norm -1 class, and prime forms at split and ramified
    primes (raw and reduced), alone and mixed."""
    disc = group.disc
    squares = [group.op(x, x) for x in group.reps]
    primes = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        sym = kronecker_at(disc, p)
        if sym == 0:
            primes.append(prime_form(disc, p))
        elif sym == 1:
            primes.append(prime_form(disc, p, rng.choice((1, 2))))
    sets = [squares, primes, [class_rep(f, disc) for f in primes]]
    if disc > 0:
        sets.append([negative_identity_class(disc)])
        sets.append(squares + [negative_identity_class(disc)])
    sets.append(squares + rng.sample(primes, min(2, len(primes))))
    sets.append(rng.sample(group.reps, min(3, group.order)))
    return sets


class _OpCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        op = ClassGroup.op

        def counted(group, f, g):
            self.calls += 1
            return op(group, f, g)

        monkeypatch.setattr(ClassGroup, "op", counted)


def test_subgroup_matches_breadth_first_closure(monkeypatch):
    rng = make_rng(12)
    discs = _seeded_fundamental_discs(13, 12, 10**3, 2 * 10**4)
    for disc in discs + [-20, 40, 205, -820, -56, 168]:
        group = class_group(disc)
        for gens in _generator_sets(group, rng):
            counter = _OpCounter(monkeypatch)
            got = oracles.subgroup(group, gens)
            ops = counter.calls
            monkeypatch.undo()
            assert got == oracles.subgroup_bfs(group, gens), (disc, gens)
            # one op per new element and one per generator adjoined
            assert ops <= 2 * len(got), (disc, ops, len(got))


def _slow_class_groups(monkeypatch):
    monkeypatch.setattr(oracles, "subgroup", oracles.subgroup_bfs)
    monkeypatch.setattr(quadforms, "_enumerate_definite", oracles.enumerate_definite)
    monkeypatch.setattr(
        quadforms, "_enumerate_indefinite_reduced", oracles.enumerate_indefinite_reduced
    )


def _seeded_genera(seed: int):
    rng = make_rng(seed)
    for m in (-5, 10, -14, 34, -161, 399, -1155, 2310, -3315, 4199):
        field = BaseField.quadratic(m)
        real = ("inf1", "inf2") if m > 0 and rng.random() < 0.5 else ()
        level = {}
        for p in rng.sample((2, 3, 5, 7, 11, 13), 3):
            for place in field.places_over(p):
                if rng.random() < 0.6:
                    level[place] = rng.randrange(0, 4)
        yield QuatAlgebra.of(field, real=real), Genus.of(level=level)


def _sigma_facts(sigma) -> tuple:
    return sigma.degree, sigma.group_order, sigma.forced_split


def test_spinor_class_field_matches_breadth_first_closure(monkeypatch):
    genera = list(_seeded_genera(14))
    fast = [spinor_class_field(alg, genus) for alg, genus in genera]
    _slow_class_groups(monkeypatch)
    slow = [oracles.spinor_class_field(alg, genus) for alg, genus in genera]
    assert [_sigma_facts(s) for s in fast] == [_sigma_facts(s) for s in slow]
    assert len({s.degree for s in fast}) > 1


def test_spinor_class_field_makes_no_compositions(monkeypatch):
    # Q(sqrt(-72134)) has h = 390: the degree comes from genus characters,
    # with no composition of classes
    calls = []
    compose = quadforms.compose
    monkeypatch.setattr(
        quadforms, "compose", lambda f, g: calls.append(1) or compose(f, g)
    )
    alg, genus = QuatAlgebra.of(BaseField.quadratic(-72134)), Genus.of()
    sigma = spinor_class_field(alg, genus)
    assert (sigma.group_order, sigma.degree) == (390, 2)
    assert calls == []


@pytest.fixture
def cached_class_groups(monkeypatch):
    """Each class group, class representative and product of two classes
    computed once, and each closure-oracle ray group and spinor class
    field built once, for sweeps over thousands of genera."""
    cached = lru_cache(maxsize=None)(class_group)
    monkeypatch.setattr(global_classfield, "class_group", cached)
    monkeypatch.setattr(oracles, "class_group", cached)
    rep = lru_cache(maxsize=None)(quadforms.class_rep)
    monkeypatch.setattr(quadforms, "class_rep", rep)
    monkeypatch.setattr(oracles, "class_rep", rep)
    for name in ("narrow_ray_class_group", "spinor_class_field"):
        monkeypatch.setattr(oracles, name, lru_cache(None)(getattr(oracles, name)))
    memo: dict = {}

    def keyed(fn, key):
        def call(group, x):
            k = (group.disc, key(x))
            if k not in memo:
                memo[k] = fn(group, x)
            return memo[k]

        return call

    # an ideal class by its place, a subgroup by its generator set, and a
    # product of two classes by the pair (forms carry their discriminant)
    ideal_class = keyed(oracles._ideal_class, lambda place: place)
    monkeypatch.setattr(oracles, "_ideal_class", ideal_class)
    monkeypatch.setattr(oracles, "subgroup", keyed(oracles.subgroup, frozenset))
    op = ClassGroup.op
    monkeypatch.setattr(ClassGroup, "op", lambda group, f, g: (
        memo.get((f, g)) or memo.setdefault((f, g), op(group, f, g))))


def _fundamental_radicands(bound: int):
    """The squarefree m whose field discriminant has |D| <= bound."""
    for m in range(-bound, bound + 1):
        if m not in (0, 1) and is_squarefree(m):
            if abs(fundamental_discriminant(m)) <= bound:
                yield m


def genus_sweep(bound: int, seed: int, rank4_share: float) -> tuple[int, int, list]:
    """Genus-character degrees against the class-group closure on every
    fundamental discriminant with |D| <= bound, under both moduli and every
    forced set of at most three places over 2, 3, 5 and 7 (odd level).
    A seeded share of these genera also gets a rank-4 suborder strict at
    up to two seeded places over 2..13.  Returns the numbers of spinor and
    rank-4 comparisons and the mismatches."""
    rng = make_rng(seed)
    cases, cases4, bad = 0, 0, []
    for m in _fundamental_radicands(bound):
        field = BaseField.quadratic(m)
        small = [pl for p in (2, 3, 5, 7) for pl in field.places_over(p)]
        extra = small + [pl for p in (11, 13) for pl in field.places_over(p)]
        for real in [(), ("inf1", "inf2")] if m > 0 else [()]:
            alg = QuatAlgebra.of(field, real=real)
            for k in range(4):
                for forced in itertools.combinations(small, k):
                    level = {pl: 1 for pl in forced}
                    genus = Genus.of(level=level)
                    new = _sigma_facts(spinor_class_field(alg, genus))
                    old = _sigma_facts(oracles.spinor_class_field(alg, genus))
                    if new != old:
                        bad.append((m, real, forced, new, old))
                    cases += 1
                    if rng.random() >= rank4_share:
                        continue
                    strict = rng.sample(extra, rng.randrange(3))
                    sub = Genus.of(level=level, shift={pl: 1 for pl in strict})
                    new4 = rep_field_rank4(alg, genus, sub)
                    old4 = oracles.rep_field_rank4(alg, genus, sub)
                    new = new4.degree, new4.strict_places
                    old = old4.degree, old4.strict_places
                    if new != old:
                        bad.append((m, real, forced, strict, new, old))
                    cases4 += 1
    return cases, cases4, bad


def test_genus_degrees_match_class_group_closure(cached_class_groups):
    cases, cases4, bad = genus_sweep(2000, 15, 0.1)
    assert bad == []
    assert cases > 60_000 and cases4 > 5_000


def test_genus_count_is_two_to_the_prime_discriminants_minus_one(
    cached_class_groups,
):
    # [Cl+ : Cl+^2] on the closure oracle is 2^(t-1), t the number of
    # prime discriminants dividing D
    for m in _fundamental_radicands(2000):
        disc = fundamental_discriminant(m)
        group = class_group(disc)
        squares = oracles.subgroup(group, [group.op(x, x) for x in group.reps])
        t = len(_prime_discriminants(disc))
        assert group.order // len(squares) == 2 ** (t - 1), disc


# ---------------------------------------------------------------------------
# Factorizer


def _sympy_factors(n: int) -> list[int]:
    n = abs(n)
    if n < 2:
        return []
    return sorted(q for q, e in factorint(n).items() for _ in range(e))


def _check_factorizer(n: int):
    assert list(prime_divisors(n)) == _sympy_factors(n), n
    assert set(prime_divisors(n)) == oracles.prime_factors(n), n
    assert is_prime(n) == oracles.is_prime(n), n
    assert is_squarefree(n) == oracles.is_squarefree(n), n


def test_factorizer_matches_trial_division_loops_below_20000():
    for n in range(-50, 20000):
        _check_factorizer(n)


def test_factorizer_matches_sympy_on_seeded_integers_below_10_12():
    rng = make_rng(21)
    for _ in range(40):
        _check_factorizer(rng.randrange(2, 10**12))
    for _ in range(8):
        _check_factorizer(rng.randrange(2, 10**6) ** 2 * rng.randrange(1, 1000))
    # primes and semiprimes whose factors sit just under the cap
    for n in (999983, 999979 * 999983, 10**12 - 11, -(10**12 - 11)):
        assert list(prime_divisors(n)) == _sympy_factors(n), n


def test_factorizer_cap_edges():
    assert MAX_TRIAL_DIVISOR == 10**6
    assert list(prime_divisors(999983**2)) == [999983, 999983]
    assert is_prime(10**12 - 11)  # the largest prime below 10^12
    big = 10**12 + 39  # the least prime above 10^12
    assert is_prime(big)  # by the strong-pseudoprime test, past the cap
    with pytest.raises(ResourceLimit):
        list(prime_divisors(3 * big))
    # a small factor still decides without reaching the cap
    assert not is_prime(2 * big)
    assert not is_squarefree(4 * big)
    assert next(prime_divisors(3 * big)) == 3


# ---------------------------------------------------------------------------
# The request decoder against the factorizer-based one


def _result(f, *args):
    """f(*args), or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # compared, class and message, to the oracle's
        return type(exc), str(exc)


def test_cube_root_squarefree_test_matches_the_factorizer():
    for m in range(-(2 * 10**5), 2 * 10**5 + 1):
        assert is_squarefree(m) == oracles.factorizer_is_squarefree(m), m
    rng = make_rng(1901)
    below = [p for p in range(999_900, 10**6) if oracles.is_prime(p)][-4:]
    above = [p for p in range(10**6, 1_000_100) if oracles.is_prime(p)][:4]
    cases = [rng.randrange(1, 10**12) for _ in range(40)]
    cases += [rng.randrange(1, 10**6) ** 2 * rng.randrange(1, 10**4) for _ in range(40)]
    cases += [p * p for p in below + above]  # squares on both sides of the cap
    cases += [3 * below[0] ** 2, below[0] * below[1], below[-1] * above[0]]
    cases += [10**12 + k for k in range(-3, 4)] + [2 * (10**12 + 39)]
    cases += [(10**12 + 39) * (10**12 + 61), 4 * (10**12 + 39), 10**12 + 39]
    for m in cases:
        want = _result(oracles.factorizer_is_squarefree, m)
        assert _result(is_squarefree, m) == want, m
    assert _result(is_squarefree, -(10**12 + 39)) == (
        ResourceLimit, f"factoring {10**12 + 39} needs trial divisors past 1000000"
    )


def test_strong_pseudoprime_test_matches_trial_division():
    for n in range(-5, 10**6):
        assert is_prime(n) == oracles.factorizer_is_prime(n), n
    rng = make_rng(1902)
    cases = [rng.randrange(10**6, 10**12) for _ in range(120)]
    cases += [rng.randrange(10**3, 10**6) * rng.randrange(10**3, 10**6) for _ in range(20)]
    cases += [999979 * 999983, 10**12 - 11, 561, 3215031751, 2152302898747]
    for n in cases:
        assert is_prime(n) == oracles.factorizer_is_prime(n) == sympy_isprime(n), n


def test_strong_pseudoprime_test_past_the_cap():
    rng = make_rng(1903)
    cases = [rng.randrange(10**12, SPRP_BOUND) for _ in range(300)]
    cases += [nextprime(rng.randrange(10**12, SPRP_BOUND)) for _ in range(30)]
    # strong pseudoprimes to the first 9, 11 and 12 prime bases
    cases += [3825123056546413051, 3474749660383, 318665857834031151167461]
    cases += [10**12 + 39, 10**18 + 9, SPRP_BOUND - 1, 1000003 * 1000033]
    for n in cases:
        assert is_prime(n) == sympy_isprime(n), n
    assert SPRP_BOUND == 1287836182261 * 2575672364521  # the least psi_13
    for n in (SPRP_BOUND, nextprime(10**25)):
        with pytest.raises(ResourceLimit, match="needs trial divisors past 1000000"):
            is_prime(n)
    assert not is_prime(3 * nextprime(10**25))  # a small factor still decides


PLACE_KEYS = [
    " 7 ", " 7.1 ", "\t13.2\n", "07", "7.3", "7.1.2", "7.", ".1", "x", "", "0",
    "1", "4", "-3", "+5", "1_1", "13.01",
]
# each costs the factorizer half a million trial divisions
PAST_THE_CAP = [str(10**12 + 39), f"{10**12 + 39}.1", f"{10**12 + 39}.2", str(10**25 + 13)]


def _place_key_fields():
    yield BaseField.rationals()
    rng = make_rng(1904)
    seen = 0
    while seen < 40:
        m = rng.choice((-1, 1)) * rng.randrange(2, 10**5)
        if m != 1 and oracles.is_squarefree(m):
            seen += 1
            yield BaseField.quadratic(m)
    for m in (-1, 2, -3, 5, 17, -7, 10):
        yield BaseField.quadratic(m)


def test_place_keys_match_the_factorizer_decoder():
    past_cap = 10**12 + 39
    for i, field in enumerate(_place_key_fields()):
        keys = PLACE_KEYS + (PAST_THE_CAP if i % 8 == 0 else [])
        for p in (2, 3, 5, 7, 11, 13, 101, 10007):
            keys += [str(p), f"{p}.1", f"{p}.2"]
        for key in keys:
            got = _result(parse_place_key, field, key)
            want = _result(oracles.factorizer_parse_place_key, field, key)
            if key.partition(".")[0].strip() != str(past_cap):
                assert got == want, (field, key)
                continue
            # the one change: primality past the factorizer's cap is decided
            assert want == (
                ResourceLimit, f"factoring {past_cap} needs trial divisors past 1000000"
            )
            places = field.places_over(past_cap)
            _, dot, tail = key.partition(".")
            if dot and len(places) == 2:
                assert got == places[int(tail) - 1], (field, key)
            elif not dot and len(places) == 1:
                assert got == places[0], (field, key)
            else:
                assert got[0] is ValueError, (field, key, got)
        for p in (2, 3, 5, 7, 11, 13, 101, 10007):
            assert field.places_over(p) == oracles.factorizer_places_over(field, p)
        for p in (-3, 0, 1, 4, 91):
            assert _result(field.places_over, p) == _result(
                oracles.factorizer_places_over, field, p
            )


def test_rationals_parse_to_integer_pairs_in_lowest_terms():
    values = [
        0, 1, -7, 10**40, "3", " 3 ", "-4/6", "3/-4", "-6/-8", "0/-5", "4/2",
        "1/10000019", "x", "", "1/0", "1/x", "1.5", 1.5, True, None, [],
    ]
    for value in values:
        got = _result(parse_rational, value, "m")
        want = _result(oracles.fraction_parse_rational, value, "m")
        if isinstance(want, Fraction):
            want = (want.numerator, want.denominator)
        assert got == want, value


def test_field_elements_parse_to_the_same_values():
    values = [
        0, 1, -7, 30, 10**40, "3", " 3 ", "-4/6", "4/2", "1/10000019", "0/5",
        {"x": 3, "y": "1/2"}, {"x": "2/4", "y": 0}, {"x": 0, "y": 5},
        "x", "", "1/0", "1/x", "1.5", 1.5, True, None, [], {"x": 1}, {"y": 1},
    ]
    for field in (BaseField.rationals(), BaseField.quadratic(10)):
        for value in values:
            got = _result(parse_field_element, field, value, "suborder.delta")
            want = _result(
                oracles.fraction_parse_field_element, field, value, "suborder.delta"
            )
            if not isinstance(want[0], type):  # a value, not an error's class
                # the request reads delta up to squares, as its integral multiple
                want = global_classfield._integral(want)
            assert got == want, (field, value)
            if isinstance(value, int) and not isinstance(value, bool):
                assert type(got[0]) is int and type(got[1]) is int


# ---------------------------------------------------------------------------
# Residue field


def _nonresidue_generator(p: int) -> Mat2:
    """A matrix whose characteristic polynomial is irreducible mod p."""
    if p == 2:
        return Mat2.of([[0, -1], [1, 1]])
    n = next(n for n in range(2, p) if sqrt_mod(n, p) is None)
    return Mat2.of([[0, n], [1, 0]])


def _structured_orders(p: int, rng, count: int):
    """Conjugated field generators and their shifts, Eichler orders and
    maximal orders; `count` conjugates and vertex pairs of each kind."""
    fields = [
        _nonresidue_generator(p),
        Mat2.of([[0, p], [1, 0]]),
        Mat2.of([[1, p], [1, 1]]),
        _nonresidue_generator(p) + Mat2.of([[p, 0], [0, 0]]),
    ]
    for f in fields:
        for _ in range(count):
            g = random_matrix(rng, p, span=1)
            if det(g) == 0:
                continue
            order = order_closure([g * f * g.inverse()], p)
            yield order
            yield shift_order(order, 1)
        two = order_closure([f, Mat2.of([[1, 0], [0, -1]])], p)
        yield two
        yield shift_order(two, 1)
    for _ in range(2 * count):
        v1 = random_vertex(rng, p, 3)
        v2 = random_vertex(rng, p, 3)
        for r in (0, 1):
            yield order_from_module(shifted_eichler_module(v1, v2, r))
        yield order_from_module(maximal_order_module(v1))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_residue_field_branch_test_matches_enumeration(p):
    # the enumeration tries p^4 combinations on each rank-4 order
    count = 3 if p < 7 else 1
    rng = make_rng(40 + p)
    orders = list(_structured_orders(p, rng, count))
    for ngens in (1, 2, 3):
        orders += [random_order(rng, p, ngens) for _ in range(4 * count)]
    got = [has_unramified_residue_field(o) for o in orders]
    for o, answer in zip(orders, got):
        assert answer == oracles.has_unramified_residue_field(o), o
    assert True in got and False in got


# ---------------------------------------------------------------------------
# Integer module layer


def _generator_set(rng, p: int, rank: int) -> list[Mat2]:
    """Rational combinations of `rank` seeded matrices whose entries carry
    p-power and prime-to-p denominators, with a zero and a repeated
    generator mixed in."""
    base = [seeded_rational_matrix(rng, p) for _ in range(rank)]
    dens = (1, 1, p, next(x for x in (3, 5, 7) if x != p))
    gens = []
    for _ in range(rng.randrange(rank, rank + 3)):
        m = zero_matrix()
        for b in base:
            m = m + b * Fraction(rng.randrange(-9, 10), rng.choice(dens))
        gens.append(m)
    gens += [zero_matrix(), gens[0]]
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_module_hnf_and_intersection_match_fraction_layer(p):
    rng = make_rng(300 + p)
    sets = [_generator_set(rng, p, rank) for rank in (1, 2, 3, 4) for _ in range(12)]
    # the same spans again, from shuffled generators scaled by units
    units = [q for q in (1, -1, 2, 3, 5, 7) if q % p]
    sets += [
        [g * rng.choice(units) for g in rng.sample(gens, len(gens))]
        for gens in sets[::5]
    ]
    new = [module_hnf(gens, p) for gens in sets]
    old = [oracles.module_hnf(gens, p) for gens in sets]
    for gens, a, b in zip(sets, new, old):
        assert a.basis == b.basis and a.rank == b.rank, gens
    assert {1, 2, 3, 4} <= {b.rank for b in old}
    assert any(a.den % p and a.den > 1 for a in new)  # prime-to-p denominators
    for i, j in itertools.product(range(len(sets)), repeat=2):
        assert (new[i] == new[j]) == (old[i] == old[j]), (i, j)
    assert sum(new[i] == new[j] for i in range(len(sets)) for j in range(i)) >= 10
    for a, b, oa, ob in zip(new, new[1:], old, old[1:]):
        assert module_intersect(a, b).basis == oracles.module_intersect(oa, ob).basis


# Every vertex pair of these balls, except at p = 101: there the pairs
# through the centre or its parent and a seeded sample of the child pairs,
# since the oracle alone takes about 10 s for all 5,356 pairs.
MODULE_BALLS = [(2, 3), (3, 2), (5, 2), (101, 1)]
CHILD_PAIR_SAMPLE = 150


@pytest.mark.parametrize("p,radius", MODULE_BALLS)
def test_maximal_and_shifted_eichler_modules_match_conjugation(p, radius):
    vs = whole_ball(p, radius)
    old = {v: oracles.maximal_order_module(v) for v in vs}
    for v in vs:
        assert maximal_order_module(v).basis == old[v].basis, v
    pairs = list(itertools.combinations_with_replacement(vs, 2))
    if p == 101:
        hubs = {standard_vertex(p), *(v for v in vs if v.a == 0)}
        rest = [pair for pair in pairs if not hubs & set(pair)]
        pairs = [pair for pair in pairs if hubs & set(pair)]
        pairs += make_rng(p).sample(rest, CHILD_PAIR_SAMPLE)
    for v, w in pairs:
        inner = oracles.module_intersect(old[v], old[w])  # holds 1: r = 0
        assert shifted_eichler_module(v, w, 0).basis == inner.basis, (v, w)
        for r in (1, 2):
            scaled = [b * Fraction(p) ** r for b in inner.basis]
            want = oracles.module_hnf([Mat2.identity(), *scaled], p)
            assert shifted_eichler_module(v, w, r).basis == want.basis, (v, w, r)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_order_closure_matches_fraction_layer(p):
    rng = make_rng(400 + p)
    q = next(x for x in (3, 5, 7) if x != p)
    cases = [[random_matrix(rng, p, span=1) for _ in range(n)] for n in (1, 1, 2, 2, 3)]
    cases += [[g * Fraction(1, q) for g in gens] for gens in cases[:3]]
    cases.append([Mat2.of([[0, 1], [p, 0]]), Mat2.of([[1, 0], [0, 0]])])
    for gens in cases:
        new, old = order_closure(gens, p), oracles.order_closure(gens, p)
        assert new.closure.basis == old.closure.basis, gens
        assert new.rank == old.rank and new.generators == old.generators


@pytest.mark.parametrize("p", [2, 3, 101])
def test_unbounded_certificate_matches_fraction_layer(p):
    # three generators: the Fraction rounds stop on falling valuations, or at
    # a cap of 5 rounds, and tr g0 = 1/p certifies the closure unbounded
    gens = [
        Mat2.of([[Fraction(1, p), 1], [0, 0]]),
        Mat2.of([[0, 0], [Fraction(3, 7), 1]]),
        Mat2.identity(),
    ]
    reasons = {64: "entry valuations strictly decreasing", 5: "no stabilization within 5 rounds"}
    for rounds, reason in reasons.items():
        with pytest.raises(Unbounded) as old:
            oracles.order_closure(gens, p, rounds)
        assert old.value.certificate["reason"] == reason
    with pytest.raises(Unbounded) as new:
        order_closure(gens, p)
    _check_invariant_certificate(gens, p, new.value.certificate)
    assert new.value.certificate["element"] == "0"


def _check_invariant_certificate(gens, p: int, cert) -> None:
    """`cert` names the first of tr g_j, det g_j and then tr g_i g_j for
    i < j, j = 0, 1, ..., that is not p-integral, with its valuation, all
    read off `Fraction` entries."""
    values = []
    for j, g in enumerate(gens):
        values.append((f"{j}", "trace", g.m00 + g.m11))
        values.append((f"{j}", "determinant", det(g)))
        for i, f in enumerate(gens[:j]):
            fg = f * g
            values.append((f"{i}*{j}", "trace", fg.m00 + fg.m11))
    for name, invariant, x in values:
        if x and valuation(x, p) < 0:
            assert cert == {
                "reason": "non-integral invariant",
                "element": name,
                "invariant": invariant,
                "valuation": valuation(x, p),
            }, (gens, cert)
            return
    raise AssertionError(f"every invariant of {gens} is integral: {cert}")


def _sweep_entry(rng, p: int, q: int) -> Fraction:
    """A small rational, now and then with p or p^2 in its denominator,
    now and then with a prime-to-p factor there or a p-power on top."""
    den = p ** rng.choice((0,) * 10 + (1, 2)) * rng.choice((1, 1, 1, q))
    return Fraction(rng.randrange(-12, 13) * p ** rng.choice((0, 0, 1, 3)), den)


def _deep_generator(rng, p: int, k: int, j: int) -> Mat2:
    """[[t, u / p^k], [p^j, 0]], conjugated by a unimodular matrix half
    the time: det = -u p^(j - k), bounded exactly when j >= k."""
    unit = rng.choice([x for x in (1, 2, 3, 5, 7, 11) if x % p])
    m = Mat2.of([[rng.choice((0, 1, p)), Fraction(unit, p**k)], [p**j, 0]])
    if rng.random() < 0.5:
        return m
    g = _unimodular(rng, p)
    return g * m * g.inverse()


def _sweep_generator(rng, p: int, q: int) -> Mat2:
    """Entries from `_sweep_entry`, a scalar, or a nilpotent plus a scalar."""
    kind = rng.randrange(3)
    if kind == 0:
        return Mat2.of([[_sweep_entry(rng, p, q) for _ in range(2)] for _ in range(2)])
    if kind == 1:
        return Mat2.scalar(_sweep_entry(rng, p, q))
    x, y, c = (_sweep_entry(rng, p, q) for _ in range(3))
    s = rng.choice((0, 1, _sweep_entry(rng, p, q)))
    return Mat2.of([[c * x * y + s, -c * x * x], [c * y * y, s - c * x * y]])


def _closure_generators(rng, p: int, q: int) -> list[Mat2]:
    """One generator, two independent ones, two commuting ones (the second
    a polynomial in the first), a deep generator with valuations up to the
    vertex-exponent cap, alone or with a polynomial in it, or a pair of
    idempotents whose product's trace x / p^k diverges when k > 0."""
    kind = rng.randrange(5)
    if kind == 3:
        # below the cap some are unbounded; at it, where the rounds are slow,
        # a few, all bounded
        k = MAX_VERTEX_EXPONENT if rng.random() < 0.1 else rng.randrange(4, 40)
        j = k + rng.randrange(-1 if k < MAX_VERTEX_EXPONENT else 0, 3)
        a = _deep_generator(rng, p, k, j)
        return [a] if rng.random() < 0.5 else [a, Mat2.scalar(rng.randrange(-3, 4)) + a * a]
    if kind == 4:
        x = rng.choice([x for x in range(1, 12) if x % p])
        x = Fraction(x, p ** rng.choice((0,) * 8 + (1, 2)))
        b = Fraction(rng.choice((1, -2, 3)), rng.choice((1, p, q)))
        e, f = Mat2.of([[1, 0], [0, 0]]), Mat2.of([[x, b], [x * (1 - x) / b, 1 - x]])
        g = _unimodular(rng, p)
        return [g * e * g.inverse(), g * f * g.inverse()]
    a = _sweep_generator(rng, p, q)
    if kind == 0:
        return [a]
    if kind == 1:
        return [a, _sweep_generator(rng, p, q)]
    s, t = _sweep_entry(rng, p, q), _sweep_entry(rng, p, q)
    return [a, Mat2.scalar(s) + a * t]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_closed_form_closure_matches_rounds(p):
    """1,500 seeded sets of one or two generators per prime, 400 of three
    to five, and one unbounded generator past the rounds' denominator cap,
    alone and with the identity twice.  Where the rounds answer, the
    closure gives their `LocalOrder`; where they raise `Unbounded`, it
    raises `Unbounded` with a certificate checked on `Fraction` invariants;
    where they stop at their cap, its outcomes are counted."""
    rng = make_rng(2100 + p)
    q = next(x for x in (3, 5, 7) if x != p)
    # a square of valuation -2000 falls every other round, so the rounds
    # stop at their denominator cap, alone and with the identity twice
    deep = Mat2.of([[0, Fraction(1, p ** (2 * MAX_VERTEX_EXPONENT))], [1, 0]])
    sets = [[deep], [deep, Mat2.identity(), Mat2.identity()]]
    sets += [_closure_generators(rng, p, q) for _ in range(1500)]
    sets += [
        [_sweep_generator(rng, p, q) for _ in range(rng.randrange(3, 6))]
        for _ in range(400)
    ]
    outcomes = Counter()
    for gens in sets:
        try:
            new = order_closure(gens, p)
        except Unbounded as exc:
            _check_invariant_certificate(gens, p, exc.certificate)
            new = exc
        try:
            old = oracles.rounds_order_closure(gens, p)
        except ResourceLimit as exc:
            assert "denominators past" in str(exc), gens
            outcomes["cap", type(new).__name__] += 1
            continue
        except Unbounded:
            assert isinstance(new, Unbounded), gens
            outcomes["Unbounded", min(len(gens), 3)] += 1
            continue
        assert new == old, gens
        outcomes[min(len(gens), 3), new.rank] += 1
    assert outcomes["Unbounded", 1] + outcomes["Unbounded", 2] > 100, outcomes
    assert outcomes["Unbounded", 3] > 100 and outcomes["cap", "Unbounded"] == 2, outcomes
    assert {(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 4)} <= set(outcomes), outcomes


def test_order_closure_takes_one_hermite_form_up_to_three_generators(monkeypatch):
    """The closure puts its span in Hermite form before a generator when it
    has more than four rows, and once at the end: one form for up to three
    generators, one more for each past three.  The benchmark counts closure
    rounds as module_hnf calls minus one."""
    import qlat.local_orders as local_orders

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return hnf(*args, **kwargs)

    hnf = local_orders.module_hnf
    monkeypatch.setattr(local_orders, "module_hnf", counting)
    rng = make_rng(77)
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4, 5):
            gens = [random_matrix(rng, p) for _ in range(n)]
            calls.clear()
            order = order_closure(gens, p)
            assert len(calls) == max(1, n - 2)
            assert order.closure.basis == oracles.order_closure(gens, p).closure.basis


def test_module_layer_builds_no_fractions(monkeypatch):
    """Hermite forms, intersections, closure rounds, the closed-form
    modules and `basis` run on integers; only `m00`-`m11` and certificates
    convert."""
    import fractions

    rng = make_rng(78)
    gens = {p: [random_matrix(rng, p) for _ in range(2)] for p in (2, 3, 101)}

    def refuse(*args):
        raise AssertionError("Fraction built in the integer module layer")

    monkeypatch.setattr(fractions, "Fraction", refuse)
    for p, mats in gens.items():
        order = order_closure(mats, p)
        v, w = standard_vertex(p), neighbors(standard_vertex(p))[-1]
        se = shifted_eichler_module(v, w, 1)
        assert module_intersect(order.closure, se) == module_intersect(se, order.closure)
        assert module_hnf(order.closure.rows, p, order.closure.den) == order.closure
        assert module_hnf(order.closure.basis, p) == order.closure
    with pytest.raises(AssertionError, match="Fraction built"):
        order.closure.basis[0].m00


# ---------------------------------------------------------------------------
# Generated balls, parent-link DOT edges, climb-and-walk branch enumeration


# p: (r1, r2).  Balls of radius 0-3 and DOT texts of radius 0-2 are checked
# around every vertex within 2 of the standard vertex, radius-4 balls around
# those within r1, and radius-3 and radius-4 DOT texts around those within
# r2.  The oracle ball and DOT export scan the p + 1 neighbors of every
# vertex, so at p = 5 and 7 the large cases take fewer centres.
BIG_CASE_CENTRES = {2: (2, 2), 3: (2, 2), 5: (2, 1), 7: (1, 0)}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_generated_balls_and_dot_match_search(p):
    ball_reach, dot_reach = BIG_CASE_CENTRES[p]
    for centre in whole_ball(p, 2):
        d = distance(centre, standard_vertex(p))
        for radius in range(5 if d <= ball_reach else 4):
            got = ball(centre, radius)
            assert frozenset(got) == oracles.ball(centre, radius), (centre, radius)
            if radius < 3 or d <= dot_reach:
                assert export_dot(got) == oracles.export_dot(got), (centre, radius)


# p: the largest radius checked around centres whose exponents are at most
# 6; centres farther out take radius <= 2.
NEAR_RADIUS = {2: 6, 3: 4, 5: 3, 7: 2, 101: 1}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_ball_in_canonical_order_matches_link_generator(p):
    """`ball`, read off the distance formula level by level, against the
    parent- and child-link generator sorted: seeded centres, centres with
    a = 0 < b, b = 0 < a and both positive, exponents up to
    MAX_VERTEX_EXPONENT, and radius 0."""
    rng = make_rng(2700 + p)
    top = MAX_VERTEX_EXPONENT
    unit = rng.randrange(1, p**top) // p * p + 1  # a unit below p^top
    centres = seeded_vertices(rng, p) + [
        Vertex(p, 0, 2, 0), Vertex(p, 0, top, 0),
        Vertex(p, 2, 0, p), Vertex(p, 3, 0, 0), Vertex(p, top, 0, p * unit % p**top),
        Vertex(p, 2, 1, 1), Vertex(p, 1, 3, p - 1), Vertex(p, top, top, unit),
        Vertex(p, top, 1, unit), Vertex(p, 1, top, 1),
    ]
    for v in centres:
        far = max(v.a, v.b) > 6
        for radius in range(3 if far else NEAR_RADIUS[p] + 1):
            want = tuple(sorted(oracles.link_ball(v, radius)))
            assert ball(v, radius) == want, (v, radius)
    assert ball(centres[-1], 0) == (centres[-1],)


def test_far_ball_at_p101_is_read_off_not_generated():
    """A radius-2 ball around exponent-1000 centres at p = 101 (10,405
    vertices of about 6,700 bits) takes at most half the time of the link
    generator and its sort: best of three, with the collector paused."""
    p, top = 101, MAX_VERTEX_EXPONENT
    unit = p**top // 3 // p * p + 1

    def best(f):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            f()
            times.append(time.perf_counter() - start)
        return min(times)

    gc.disable()
    try:
        for v in (Vertex(p, top, 0, unit), Vertex(p, top, top, unit)):
            read_off = best(lambda: ball(v, 2))
            linked = best(lambda: sorted(oracles.link_ball(v, 2)))
            assert read_off < linked / 2, (v, read_off, linked)
    finally:
        gc.enable()


def _branch_orders(p: int, rng):
    """Orders of every branch kind: scalars (full), a nilpotent (fan), split
    semisimple with rational and with irrational eigenvalues (apartments),
    field elements (thick paths), a shared-end Borel pair (thick ray), and
    seeded orders on one to three generators."""
    gens = [
        [Mat2.scalar(7)],
        [Mat2.of([[2, p], [0, 2]])],
        [Mat2.of([[1, 0], [0, 1 + p * p]])],
        [_nonresidue_generator(p)],
        [Mat2.of([[0, p], [1, 0]])],
        [Mat2.of([[1, 0], [0, 0]]), Mat2.of([[0, 1], [0, 0]])],
        [Mat2.of([[1, 0], [0, 0]]), Mat2.of([[0, 0], [p, 0]])],
    ]
    # x^2 = q, q a p-adic square but not a rational one (irrational axis)
    q = next(q for q in range(2, 200) if is_local_square_rat(Fraction(q), p)
             and isqrt(q) ** 2 != q)
    gens.append([Mat2.of([[0, q], [1, 0]])])
    orders = [order_closure(g, p) for g in gens]
    for ngens in (1, 2, 3):
        orders += [random_order(rng, p, ngens) for _ in range(2)]
    return orders


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_walked_branch_enumeration_matches_ball_filter(p):
    rng = make_rng(700 + p)
    kinds, sizes = set(), set()
    for order in _branch_orders(p, rng):
        shape = branch_of_order(order)
        kinds.add(shape.kind)
        for depth in (0, 1, 2):
            deep = shape.deepen(depth)
            kinds.add(deep.kind)
            on = spine_vertex(deep) if deep.kind != "empty" else standard_vertex(p)
            near, far = random_vertex_at(rng, on, 2), random_vertex_at(rng, on, 5)
            for centre in (on, near, far):
                for radius in (0, 1, 3):
                    got = enumerate_branch(order, depth, centre, radius)
                    want = oracles.enumerate_branch(order, depth, centre, radius)
                    assert got == want, (order, depth, centre, radius)
                    sizes.add(min(len(got), 2))
    assert sizes == {0, 1, 2}
    assert kinds == {
        "full", "fan", "thick_apartment", "thick_path", "thick_ray", "empty"
    }


def test_branch_walk_scans_only_the_inside_of_the_ball(monkeypatch):
    # A depth-5 apartment at p = 101 holds the whole radius-2 ball: the walk
    # scans the neighbors of the centre and of its 102 neighbors, not of
    # the 10,302 vertices on the ball's edge.
    p = 101
    order = order_closure([Mat2.of([[1, 0], [0, 1 + p**5]])], p)
    scanned = []
    monkeypatch.setattr(
        branches, "neighbors", lambda v: scanned.append(v) or neighbors(v)
    )
    got = enumerate_branch(order, 0, standard_vertex(p), 2)
    assert got == oracles.enumerate_branch(order, 0, standard_vertex(p), 2)
    assert len(got) == 10405 and len(scanned) == 1 + (p + 1)


# ---------------------------------------------------------------------------
# The branch engine against its neighbor-scan loops


def _outcome(fn, *args):
    """("ok", shape, its JSON) or ("raise", exception class) of one call."""
    try:
        got = fn(*args)
    except QlatError as exc:
        return "raise", type(exc)
    return "ok", got, got.to_json()


def _engine_shapes(p: int, rng) -> list:
    """Shapes of every kind: apartments on one axis (commuting), fans toward
    one line at two depths (nested), an apartment and a fan sharing one line
    with them, field branches, an irrational axis, seeded matrices and
    orders, thick paths and rays placed at random, Full, Empty and
    deepenings."""
    q = next(q for q in range(2, 200) if is_local_square_rat(Fraction(q), p)
             and isqrt(q) ** 2 != q)
    mats = [
        [[1, 0], [0, 0]], [[1, 0], [0, 1 + p]], [[1, 0], [0, 1 + p * p]],
        [[0, 1], [0, 0]], [[0, p * p], [0, 0]], [[0, 0], [1, 0]],
        [[1, 1], [0, 0]], [[0, p], [1, 0]], [[0, q], [1, 0]],
    ]
    shapes = [classify_single(Mat2.of(m), p) for m in mats]
    shapes += [classify_single(_nonresidue_generator(p), p), Full(p), Empty(p)]
    for _ in range(3):
        a = random_matrix(rng, p)
        if not is_scalar(a):
            shapes.append(classify_single(a, p))
        shapes.append(branch_of_order(random_order(rng, p, 2)))
    ends = seeded_ends(p, rng.randrange(1000))
    for _ in range(3):
        v = random_vertex(rng, p, 3)
        w = random_vertex_at(rng, v, rng.randrange(4))
        shapes.append(ThickPath(geodesic(v, w), rng.randrange(3)))
        shapes.append(ThickRay(v, rng.choice(ends), rng.randrange(3)))
    shapes += [s.deepen(1) for s in shapes[:8]]
    return shapes


def _engine_case(s1, s2) -> str:
    """Which rule of `intersect_shapes` decides the pair."""
    if "empty" in (s1.kind, s2.kind):
        return "empty"
    if "full" in (s1.kind, s2.kind):
        return "full"
    if (s1.kind == s2.kind == "thick_apartment"
            and commute(s1.witness, s2.witness)):
        return "commuting"
    if s1.rational_ends & s2.rational_ends:
        return "nested-fan" if s1.kind == s2.kind == "fan" else "shared-end"
    return "bounded"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_intersection_engine_matches_neighbor_scans(p):
    rng = make_rng(1800 + p)
    shapes = _engine_shapes(p, rng)
    pairs = list(itertools.product(shapes, repeat=2))
    if p == 101:  # each scan there makes 102 vertices and 204 margins
        pairs = rng.sample(pairs, 300)
    cases = Counter()
    for s1, s2 in pairs:
        want = _outcome(oracles.scanned_intersect_shapes, s1, s2)
        assert _outcome(intersect_shapes, s1, s2) == want, (s1, s2)
        case = _engine_case(s1, s2)
        cases[case, want[0] == "ok" and want[1].kind] += 1
        if case not in ("shared-end", "bounded"):
            continue
        # The new walks scan each plateau vertex once, not three times: a
        # budget the scans fit in answers alike, and one they pass may now
        # answer, with the unbudgeted shape.
        for budget in (2 * (p + 1), 5 * (p + 1), 20 * (p + 1)):
            old = _outcome(oracles.scanned_intersect_shapes, s1, s2, budget)
            new = _outcome(intersect_shapes, s1, s2, budget)
            if old == ("raise", BudgetExceeded):
                assert new in (old, want), (s1, s2, budget)
            else:
                assert new == old, (s1, s2, budget)
    kinds = {case: {k for c, k in cases if c == case} for case, _ in cases}
    assert {"empty", "commuting", "nested-fan"} <= set(kinds)
    assert "thick_ray" in kinds["shared-end"]
    assert {"empty", "thick_path"} <= kinds["bounded"]


class _Star(Shape, namedtuple("_Star", "centre anchor")):
    """Margin 0 on the closed 1-ball around the centre: a summit plateau
    that is a star, not a path, climbed to from the anchor."""

    __slots__ = ()
    kind = "star"

    @property
    def p(self) -> int:
        return self.centre.p

    def bound_margin(self):
        centre = self.centre
        return lambda v: min(0, 1 - distance(v, centre))


class _HiddenFan(Fan):
    """A fan that hides its line, so the engine climbs toward it forever."""

    __slots__ = ()
    rational_ends = frozenset()


class _LongRay(ThickRay):
    """A thick ray whose margin is that of the whole axis of diag(1, 1 + p)
    through it: the walk away from its line never ends."""

    __slots__ = ()

    def bound_margin(self):
        t, p = self.t, self.p
        return lambda v: t - 1 + mu_margin((1, 1, 0, 0, 1 + p), v)


class _Shoulder(Shape, namedtuple("_Shoulder", "peak anchor")):
    """Margin 2 at the peak and 1 elsewhere.  Climbed from a neighbour of
    the peak, it can show a neighbour on the climb's own level before the
    step up: a shoulder, which no concave margin has."""

    __slots__ = ()
    kind = "shoulder"

    @property
    def p(self) -> int:
        return self.peak.p

    def bound_margin(self):
        peak = self.peak
        return lambda v: 2 if v == peak else 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_plateau_sides_come_from_the_summit_scan(p):
    """The plateau's sides are read off the scan at the summit, whatever
    the scans below it held.  From the standard vertex the climb meets its
    parent on its own level, then steps up to child 0, the peak.  The peak
    is a one-vertex plateau, which the scanning oracle finds too."""
    o = standard_vertex(p)
    peak = child(o, 0)
    pair = (_Shoulder(peak, o), ThickPath((peak,), 3))
    want = _outcome(oracles.scanned_intersect_shapes, *pair)
    path = ThickPath((peak,), 2)
    assert want == ("ok", path, path.to_json())
    assert _outcome(intersect_shapes, *pair) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_engine_guards_match_neighbor_scans(p):
    o = standard_vertex(p)
    e1, e3 = End(1, 0), End(1, 1)
    axis = classify_single(Mat2.of([[1, 0], [0, 1 + p]]), p)
    fan = classify_single(Mat2.of([[0, 1], [0, 0]]), p)
    fan3 = classify_single(Mat2.of([[1, -1], [1, -1]]), p)
    assert fan.end == e1 and fan3.end == e3
    # an apartment that claims two lines off its axis
    off_axis = ThickApartment(p, (e3, End(1, 2)), 1, axis.witness, 1, o)
    pairs = [
        (off_axis, fan3),  # the shared-line margin never settles
        (_HiddenFan(fan.base, fan.end), fan),  # the ascent never ends
        (_Star(o, o), ThickPath((o,), 3)),  # a star at the summit
        (_Star(o, child(o, 0)), ThickPath((o,), 3)),  # a star past it
        (_LongRay(o, e1, 1), axis._replace(t=1)),  # the spine never ends
    ]
    for s1, s2 in pairs:
        want = _outcome(oracles.scanned_intersect_shapes, s1, s2)
        assert want == ("raise", InfiniteUnsupported), (s1, s2)
        assert _outcome(intersect_shapes, s1, s2) == want, (s1, s2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_climbed_enumeration_matches_radius_loop(p):
    rng = make_rng(1900 + p)
    orders = _branch_orders(p, rng)
    if p == 101:
        orders = rng.sample(orders, 6)
    for order in orders:
        shape = branch_of_order(order)
        on = spine_vertex(shape) if shape.kind != "empty" else standard_vertex(p)
        for depth in (0, 1):
            for dist in (0, 2, 5):
                centre = random_vertex_at(rng, on, dist)
                for radius in (0, 1, 3) if p < 101 else (0, 1):
                    args = (order, depth, centre, radius)
                    want = oracles.climbed_enumerate_branch(*args)
                    assert enumerate_branch(*args) == want, args


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_one_margin_branch_matches_two_membership_tests(p):
    """`branch_of_order` and `enumerate_branch`, which read the branch as
    {sigma >= 0}, against the fold that classifies between intersections
    and the enumeration that tests `contains_shifted`: on every branch kind,
    orders of scalars only, radius 0, centres off the branch, depths past
    it and budgets that the walks pass."""
    rng = make_rng(2000 + p)
    orders = _branch_orders(p, rng)
    if p == 101:
        orders = rng.sample(orders, 6)
    orders += [order_closure([Mat2.scalar(s)], p) for s in (1, p, 6)]
    radii = (0, 1, 3) if p < 101 else (0, 1)
    kinds, sizes, folds = set(), set(), set()
    for order in orders:
        for budget in (None, 2 * (p + 1)):
            want = _outcome(oracles.interleaved_branch_of_order, order, budget)
            assert _outcome(branch_of_order, order, budget) == want, (order, budget)
            folds.add(want[:2])
        shape = branch_of_order(order)
        kinds.add(shape.kind)
        on = spine_vertex(shape) if shape.kind != "empty" else standard_vertex(p)
        centres = (on, random_vertex_at(rng, on, 2), random_vertex_at(rng, on, 5))
        for depth in (0, 1, shape.thickness + 1):
            for centre in centres:
                for radius in radii:
                    args = (order, depth, centre, radius)
                    want = _result(oracles.shifted_enumerate_branch, *args)
                    assert _result(enumerate_branch, *args) == want, args
                    sizes.add(min(len(want), 2))
                args = (order, depth, centre, 2, 2 * (p + 1))  # past the ball budget
                want = _result(oracles.shifted_enumerate_branch, *args)
                assert want[0] is ResourceLimit
                assert _result(enumerate_branch, *args) == want, args
    assert "full" in kinds and sizes == {0, 1, 2}
    assert ("raise", BudgetExceeded) in folds


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_margin_sign_is_shifted_containment(p):
    """On every vertex of seeded balls, around a branch vertex and around a
    random one, mu(b, v) >= r holds for a row b of a closed order exactly
    when `contains_shifted(v, b, r)` does, so sigma >= 0 is membership."""
    rng = make_rng(2100 + p)
    radius = {2: 4, 3: 3, 5: 2, 7: 2, 101: 1}[p]
    orders = _branch_orders(p, rng)
    seen = set()
    for order in orders:
        basis = order.closure.basis
        shape = branch_of_order(order)
        on = spine_vertex(shape) if shape.kind != "empty" else standard_vertex(p)
        for centre in (on, random_vertex(rng, p, 3)):
            for v in ball(centre, radius):
                for r in (0, 1, 2):
                    rows = [contains_shifted(v, b, r) for b in basis]
                    assert rows == [mu_margin(b, v) >= r for b in basis], (order, v, r)
                    sigma = min(mu_margin(b, v) for b in basis) - r
                    seen.add((sigma >= 0) == all(rows))
                    seen.add(sigma >= 0)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# Tuple-backed vertices against the frozen dataclass


VERTEX_BALLS = [(2, 5), (3, 4), (5, 3), (7, 2)]
INVALID_TRIPLES = [
    (3, 1, 0, 3), (3, 1, 0, -1), (3, 1, 1, 0), (3, -1, 0, 0), (3, 0, -1, 0),
    (3, 0, 2, 1), (2, 2, 1, 4), (5, 2, 3, 10), (7, 0, 0, 1),
]


def assert_rebuilds(vertices):
    """Each vertex is a Vertex whose triple passes the validated constructor."""
    for v in vertices:
        assert type(v) is Vertex and Vertex(*v) == v, v


@pytest.mark.parametrize("p,radius", VERTEX_BALLS)
def test_tuple_vertex_matches_dataclass(p, radius):
    new = whole_ball(p, radius)
    old = [oracles.Vertex(*v) for v in new]
    for v, o in zip(new, old):
        assert hash(v) == hash(o) and repr(v) == repr(o), v
        assert (v.p, v.a, v.b, v.c) == (o.p, o.a, o.b, o.c)
        assert v.to_json() == o.to_json() and vertex_basis(v) == o.basis()
    for (v, o), (w, q) in itertools.product(zip(new, old), repeat=2):
        assert (v == w) == (o == q) and (v < w) == (o < q), (v, w)
    assert old == sorted(old)  # `new` is in tuple order
    assert [tuple(v) for v in frozenset(new)] == [
        (o.p, o.a, o.b, o.c) for o in frozenset(old)
    ]


@pytest.mark.parametrize("p,radius", VERTEX_BALLS)
def test_unchecked_links_build_canonical_vertices(p, radius):
    vs = whole_ball(p, radius)
    for v in vs:
        assert_rebuilds([parent(v), *(child(v, j) for j in range(p))])
        assert_rebuilds(iter_neighbors(v))
    for v in whole_ball(p, 1):
        region = ball(v, radius)
        assert_rebuilds(region)
        as_dataclasses = frozenset(oracles.Vertex(*w) for w in region)
        assert [tuple(w) for w in frozenset(region)] == [
            (o.p, o.a, o.b, o.c) for o in as_dataclasses
        ]
    for v, w in itertools.combinations(vs[:: max(1, len(vs) // 12)], 2):
        assert_rebuilds(geodesic(v, w))


def test_invalid_triples_raise_like_the_dataclass():
    for triple in INVALID_TRIPLES:
        with pytest.raises(ValueError) as new:
            Vertex(*triple)
        with pytest.raises(ValueError) as old:
            oracles.Vertex(*triple)
        assert str(new.value) == str(old.value), triple


# ---------------------------------------------------------------------------
# The integer Mat2 against the Fraction matrix


def _mat2_cases(rng, p: int) -> list[Mat2]:
    """Zero, identity, and seeded integral, non-integral and singular
    matrices (rank 1, entries with denominators p and 7)."""
    mats = [Mat2.of([[0, 0], [0, 0]]), Mat2.identity()]
    for _ in range(12):
        x = Fraction(rng.randrange(-9, 10), rng.choice((1, p, 7)))
        y = rng.randrange(-9, 10)
        k = Fraction(rng.randrange(-5, 6), rng.choice((1, p)))
        mats += [
            random_matrix(rng, p),
            seeded_rational_matrix(rng, p),
            Mat2.of([[x, y], [k * x, k * y]]),
        ]
    return mats


@pytest.mark.parametrize("p", [2, 3, 101])
def test_integer_mat2_matches_fraction_mat2(p):
    mats = _mat2_cases(make_rng(1200 + p), p)
    twins = {m: oracles.FractionMat2(entries(m)) for m in mats}
    assert any(f.det() == 0 for f in twins.values())
    assert any(f.min_valuation(p) < 0 for f in twins.values())
    for m, f in twins.items():
        assert (entries(m), rows(m)) == (f.entries, f.rows())
        assert (m.m00, m.m01, m.m10, m.m11) == (f.m00, f.m01, f.m10, f.m11)
        assert tuple(m) == f.cleared and Mat2.of(f.rows()) == m  # lowest terms
        assert det(m) == f.det()
        assert entries(-m) == (-f).entries
        for x in (0, 3, Fraction(1, p), Fraction(-2, 7)):
            assert entries(m * x) == (f * x).entries
            assert entries(x * m) == (x * f).entries
            assert entries(scale(m, x)) == f.scale(x).entries
        if f.det() == 0:
            for call in (m.inverse, f.inverse, lambda: smith_local(m, p)):
                with pytest.raises(SingularMatrix):
                    call()
        else:
            assert entries(m.inverse()) == f.inverse().entries
            assert m * m.inverse() == Mat2.identity()
            assert smith_local(m, p) == oracles.smith_local_transforms(f, p)[:2]
        k = -3 * p  # the same matrix over another denominator
        same = Mat2(k * m.den, *(k * x for x in m[1:]))
        assert same == m and hash(same) == hash(m) and tuple(same) == tuple(m)
    for (m, f), (n, g) in itertools.product(list(twins.items())[:15], repeat=2):
        for got, want in ((m + n, f + g), (m - n, f - g), (m * n, f * g)):
            assert type(got) is Mat2 and entries(got) == want.entries
    for (m, f), (n, g) in itertools.product(twins.items(), repeat=2):
        assert (m == n) == (f == g) and (m != n or hash(m) == hash(n))


# ---------------------------------------------------------------------------
# Value tuples against the frozen dataclasses


def fields(value) -> tuple:
    """The field values of a value type or of its dataclass, in order."""
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def twin(value):
    """The frozen dataclass that `value`'s class replaced, on its fields."""
    return getattr(oracles, "Dataclass" + type(value).__name__)(*fields(value))


def old_repr(o) -> str:
    return repr(o).replace("Dataclass", "")


def kind_and_fields(x) -> tuple:
    """The class name without the "Dataclass" prefix, and the fields."""
    return type(x).__name__.removeprefix("Dataclass"), fields(x)


def assert_refuses_assignment(value, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def assert_like_dataclasses(values, ordered=False, cached=()):
    """==, !=, hash, repr, refused assignment, `<` when `ordered`, the
    cached properties named in `cached` and frozenset iteration order of
    the values against their dataclass twins; copies and pickles keep
    class and fields."""
    olds = [twin(v) for v in values]
    for v, o in zip(values, olds):
        assert hash(v) == hash(o) and repr(v) == old_repr(o), v
        for name in cached:
            assert repr(getattr(v, name)) == old_repr(getattr(o, name)), (v, name)
            assert getattr(v, name) is getattr(v, name), (v, name)
        names = (*type(v).__match_args__, *cached, "unknown")
        assert_refuses_assignment(v, names)
        assert_refuses_assignment(o, names)
        for copied in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert kind_and_fields(copied) == kind_and_fields(v), v
    for (v, o), (w, q) in itertools.product(zip(values, olds), repeat=2):
        assert (v == w) == (o == q) and (v != w) == (o != q), (v, w)
        if ordered:
            assert (v < w) == (o < q) and (v <= w) == (o <= q), (v, w)
    assert [fields(v) for v in frozenset(values)] == [
        fields(o) for o in frozenset(olds)
    ]
    return olds


def assert_raises_alike(new, old, *args, **kwargs):
    """`new(...)` and `old(...)` refuse the arguments with the same error."""
    with pytest.raises(ValueError) as got:
        new(*args, **kwargs)
    with pytest.raises(ValueError) as want:
        old(*args, **kwargs)
    assert str(got.value) == str(want.value), args


@pytest.mark.parametrize("p", [2, 3, 5])
def test_local_value_tuples_match_dataclasses(p):
    orders = _branch_orders(p, make_rng(1000 + p))
    rng = make_rng(1010 + p)
    for _ in range(3):
        v1, v2 = random_vertex(rng, p, 3), random_vertex(rng, p, 3)
        orders += [order_from_module(shifted_eichler_module(v1, v2, r)) for r in (0, 1)]
    shapes = [branch_of_order(o) for o in orders]
    shapes += [s.deepen(r) for s in shapes for r in (1, 2)]
    assert {type(s).__name__ for s in shapes} == {
        "Full", "Empty", "Fan", "ThickPath", "ThickRay", "ThickApartment"
    }
    assert_like_dataclasses(shapes)
    for s in shapes:
        o = twin(s)
        assert s.to_json() == o.to_json()
        assert kind_and_fields(s.deepen(1)) == kind_and_fields(o.deepen(1))
        assert (s.thickness, s.level, s.rational_ends) == (
            o.thickness, o.level, o.rational_ends
        )
    assert_like_dataclasses([e for s in shapes for e in s.rational_ends], ordered=True)
    assert_like_dataclasses(orders)
    modules = [o.closure for o in orders] + [maximal_order_module(v1)]
    assert_like_dataclasses(modules)
    for m in modules:  # the integer Mat2 basis: same entries, own repr and hash
        assert [entries(b) for b in m.basis] == [b.entries for b in twin(m).basis]
    # Mat2 is integer fields (den, a, b, c, d), not the dataclass's entries,
    # so its repr and hash differ by design; values and equality do not.
    mats = [m for o in orders for m in (*o.generators, *o.closure.basis)]
    olds = {m: oracles.DataclassMat2(entries(m)) for m in mats}
    for m in mats:
        assert_refuses_assignment(m, (*Mat2._fields, "entries", "unknown"))
        for copied in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(copied) is Mat2 and copied == m
    for m, n in itertools.product(mats, repeat=2):
        assert (m == n) == (olds[m] == olds[n]) and (m != n) == (olds[m] != olds[n])
    for m, n in itertools.product(mats[:12], repeat=2):
        o, q = olds[m], olds[n]
        pairs = [(m + n, o + q), (m - n, o - q), (m * n, o * q), (3 * m, 3 * o),
                 (m * Fraction(1, p), o * Fraction(1, p)), (-m, -o)]
        for got, want in pairs:
            assert type(got) is Mat2 and entries(got) == want.entries
    eichler = []
    for order in orders:
        try:
            eichler.append(decompose_shifted_eichler(order))
        except NotShiftedEichler:
            pass
    assert len(eichler) >= 6 and {e.shift for e in eichler} == {0, 1}
    assert_like_dataclasses(eichler)
    for e in eichler:
        assert e.endpoints[0].p == twin(e).p and e.module().basis == twin(e).module().basis


def test_global_value_tuples_match_dataclasses():
    genera = list(_seeded_genera(1020))
    algebras = [alg for alg, _ in genera]
    algebras += [QuatAlgebra.of(alg.field, finite=alg.field.places_over(2)[:2])
                 for alg in algebras if len(alg.field.places_over(2)) == 2]
    fields = [BaseField.rationals(), *(alg.field for alg in algebras)]
    places = [pl for f in fields for p in (2, 3, 5, 7) for pl in f.places_over(p)]
    rays = [narrow_ray_class_group(f, keys) for f in fields
            for keys in dict.fromkeys([(), f.real_place_keys()])]
    sigmas = [spinor_class_field(alg, genus) for alg, genus in genera]
    subs = [Genus.of(level=dict(genus.level), shift={pl: 1 for pl in sigma.forced})
            for (_, genus), sigma in zip(genera, sigmas)]
    reps = [rep_field_rank4(alg, genus, sub) for (alg, genus), sub in zip(genera, subs)]
    reps.append(rep_field_rank3(QuatAlgebra.of(fields[1]), Genus.of()))
    assert len({r.degree for r in reps}) > 1 and any(r.strict_places for r in reps)
    groups = [class_group(d) for d in (-20, -23, -84, -420, 40, 145, 1365)]
    forms = [f for g in groups for f in g.reps]
    assert_like_dataclasses(places, ordered=True)
    assert_like_dataclasses(fields)
    assert_like_dataclasses(rays)
    assert_like_dataclasses(algebras)
    assert_like_dataclasses([genus for _, genus in genera] + subs,
                            cached=("_levels", "_shifts"))
    assert_like_dataclasses(sigmas)
    assert_like_dataclasses(reps)
    assert_like_dataclasses(forms, ordered=True)
    olds = assert_like_dataclasses(groups)
    for g, o in zip(groups, olds):
        assert (g.order, g.identity) == (o.order, o.identity)
        assert [class_inverse(g, f) for f in g.reps] == [o.inverse(f) for f in g.reps]
    for f in places:
        assert f.key() == twin(f).key()
    for sigma in sigmas:
        o = twin(sigma)
        assert (sigma.group_order, sigma.forced_split) == (o.group_order, o.forced_split)


def test_value_tuple_defaults_and_keywords_match_dataclasses():
    field = BaseField.quadratic(10)
    for new in (QuatAlgebra(field), Genus(), RepField(2, None),
                Genus(shift=((field.places_over(3)[0], 1),))):
        assert fields(twin(new)) == fields(new)
    assert QuatAlgebra(field=field, real=("inf1", "inf2")) == QuatAlgebra(
        field, (), ("inf1", "inf2")
    )


def test_value_tuples_refuse_what_the_dataclasses_refused():
    p, v = 3, standard_vertex(3)
    w, far = neighbors(v)[0], walk_toward_end(v, End(1, 0), 2)
    a = Mat2.of([[0, 2], [1, 0]])
    cases = [
        (End, [(0, 0), (2, 4), (-1, 2), (0, -1), (-2, 3)]),
        (ShiftedEichler, [((v, w), 1, -1), ((v, w), 2, 0), ((v, far), 1, 0)]),
        (ThickPath, [((), 0), ((v,), -1), ((v, far), 0), ((v, far), -1), ((w, v), -2)]),
        (ThickRay, [(v, End(1, 0), -1)]),
    ]
    for cls, bad in cases:
        old = getattr(oracles, "Dataclass" + cls.__name__)
        for args in bad:
            assert_raises_alike(cls, old, *args)
    assert_raises_alike(ThickApartment, oracles.DataclassThickApartment,
                        p, None, -1, witness=a, axis_margin=0, anchor=v)
    assert_raises_alike(BaseField.quadratic, oracles.DataclassBaseField.quadratic, 12)
    field = BaseField.quadratic(10)
    odd = field.places_over(3)[:1]
    assert_raises_alike(QuatAlgebra.of, oracles.DataclassQuatAlgebra.of, field, odd)
    assert_raises_alike(QuatAlgebra.of, oracles.DataclassQuatAlgebra.of,
                        field, (), ("inf",))
    assert_raises_alike(Genus.of, oracles.DataclassGenus.of, {odd[0]: -1})


def test_shape_equality_compares_the_kind():
    # Full(p) and Empty(p) are both the tuple (p,)
    full, empty = Full(3), Empty(3)
    assert fields(full) == fields(empty) and hash(full) == hash(empty)
    assert full != empty and not full == empty and len({full, empty}) == 2
    assert full != (3,) and (3,) != full and not full == (3,)
    assert (twin(full) == twin(empty)) is False
    assert full == Full(3) and not full != Full(3)


def test_irrational_apartments_are_equal_when_their_witnesses_commute():
    p, v = 3, standard_vertex(3)
    a = Mat2.of([[0, 7], [1, 0]])  # x^2 = 7: a 3-adic square, not a rational one
    b = Mat2.of([[0, 10], [1, 0]])  # the same kind, not commuting with a
    made = [ThickApartment(p, None, 1, witness=w, axis_margin=0, anchor=v)
            for w in (a, a * 2 + Mat2.identity(), a * a * a, b)]
    rational = [ThickApartment(p, ends, 1, witness=w, axis_margin=0, anchor=v)
                for ends in ([End(1, 0), End(0, 1)], (End(0, 1), End(1, 0)))
                for w in (a, b)]
    assert made[0] == made[1] == made[2] != made[3]
    assert rational[0] == rational[1] == rational[2] == rational[3] != made[0]
    assert rational[0].ends == (End(0, 1), End(1, 0))
    assert repr(rational[1]) == old_repr(twin(rational[1]))
    assert_like_dataclasses(made + rational)


def test_deepening_builds_through_the_validated_constructor():
    v = standard_vertex(3)
    good = ThickPath(tuple(geodesic(v, walk_toward_end(v, End(1, 0), 2))), 2)
    assert kind_and_fields(good.deepen(1)) == kind_and_fields(twin(good).deepen(1))
    # shapes built past the checks: deepening rebuilds them through the
    # constructor, which orients the path and refuses a gap in it
    backwards = tuple.__new__(ThickPath, (good.path[::-1], 2))
    assert backwards.deepen(1).path == good.path
    gap = tuple.__new__(ThickPath, ((good.path[0], good.path[-1]), 2))
    old = twin(good)
    object.__setattr__(old, "path", gap.path)
    for shape in (gap, old):
        with pytest.raises(ValueError, match="consecutive neighbors"):
            shape.deepen(1)


# ---------------------------------------------------------------------------
# Integer classification, canonical vertices and Eichler modules against the
# Fraction path


def _unimodular(rng, p: int) -> Mat2:
    """A seeded element of GL2(Z_(p)) with prime-to-p denominators."""
    q = next(x for x in (3, 5, 7) if x != p)
    g = Mat2.identity()
    for _ in range(3):
        k = Fraction(rng.randrange(-9, 10), rng.choice((1, q)))
        g = g * Mat2.of([[1, k], [0, 1]]) * Mat2.of([[1, 0], [rng.randrange(-3, 4), 1]])
    unit = rng.choice([x for x in (1, -1, 2, 3, 5, 7) if x % p])
    u = Fraction(unit, rng.choice((1, q)))
    return g * Mat2.of([[u, 0], [0, 1]])


@pytest.mark.parametrize("p,radius", BALLS)
def test_canonical_vertex_matches_fraction_path(p, radius):
    rng = make_rng(1100 + p)
    q = next(x for x in (3, 5, 7) if x != p)
    scales = [1, p, Fraction(1, p), Fraction(-2, p * q), Fraction(q, p**3)]
    for v in whole_ball(p, radius):
        for _ in range(2):
            g = vertex_basis(v) * _unimodular(rng, p) * rng.choice(scales)
            assert canonical_vertex(g, p) == oracles.canonical_vertex(g, p) == v, g
    for _ in range(60):
        g = seeded_rational_matrix(rng, p)
        if det(g) == 0:
            continue
        assert canonical_vertex(g, p) == oracles.canonical_vertex(g, p), g
    singular = [Mat2.of([[1, 2], [2, 4]]), Mat2.of([[0, 0], [0, Fraction(1, p)]])]
    for g in singular:
        with pytest.raises(SingularMatrix):
            canonical_vertex(g, p)
        with pytest.raises(SingularMatrix):
            oracles.canonical_vertex(g, p)


def test_end_from_vector_matches_fraction_path():
    rng = make_rng(1110)
    dens = (1, 2, 3, 4, 9, 10, 49, 101)
    vectors = [(0, 1), (0, -3), (5, 0), (-5, 0), (Fraction(1, 2), Fraction(-1, 3))]
    for _ in range(300):
        x = Fraction(rng.randrange(-60, 61), rng.choice(dens))
        y = Fraction(rng.randrange(-60, 61), rng.choice(dens))
        if x or y:
            vectors.append((x, y))
    for vec in vectors:
        assert end_from_vector(vec) == oracles.end_from_vector(vec), vec
        ints = tuple(Fraction(z) for z in vec)
        if all(z.denominator == 1 for z in ints):
            assert end_of(*(int(z) for z in ints)) == end_from_vector(vec)
    for bad in ((0, 0), (Fraction(0), 0)):
        with pytest.raises(ValueError, match="nonzero vector"):
            end_from_vector(bad)
        with pytest.raises(ValueError, match="nonzero vector"):
            oracles.end_from_vector(bad)


def _classify_outcome(classify, a: Mat2, p: int):
    """(kind, JSON, shape) of a classification, or ("unbounded", None,
    certificate); an apartment also gives its witness, ends or not."""
    try:
        shape = classify(a, p)
    except Unbounded as exc:
        return ("unbounded", None, exc.certificate)
    extra = None
    if isinstance(shape, ThickApartment):
        extra = (shape.witness, shape.axis_margin, shape.ends is None)
    return (type(shape).__name__, shape.to_json(), extra)


def _kind_generators(p: int) -> list[Mat2]:
    """A scalar, a nilpotent plus scalar, split semisimple with rational and
    with irrational eigenvalues, and unramified and ramified field elements."""
    q = next(q for q in range(2, 200) if is_local_square_rat(Fraction(q), p)
             and isqrt(q) ** 2 != q)
    return [
        Mat2.scalar(5),
        Mat2.of([[3, 1], [0, 3]]),
        Mat2.of([[1, 0], [0, 1 + p]]),
        Mat2.of([[0, p * p], [1, 0]]),
        Mat2.of([[0, q], [1, 0]]),
        Mat2.of([[0, q * p * p], [1, 0]]),
        _nonresidue_generator(p),
        Mat2.of([[0, p], [1, 0]]),
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_square_classes_match_fraction_path(p):
    rng = make_rng(1115 + p)
    q = next(x for x in (3, 5, 7) if x != p)
    values = [Fraction(n) for n in range(-70, 71) if n]
    for _ in range(300):
        n = rng.randrange(-10**6, 10**6) or 1
        values.append(Fraction(n * p ** rng.randrange(4), rng.choice((1, p, p * p, q))))
    for x in values:
        got = is_local_square_rat(x, p)
        assert got == oracles.is_local_square_rat(x, p), x
        if x.denominator == 1:
            assert is_local_square_int(x.numerator, p) == got, x
    with pytest.raises(ZeroDivisionError):
        is_local_square_int(0, p)


def test_commute_matches_matrix_products():
    rng = make_rng(1116)
    entries = (0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 4))
    mats = [Mat2.of([[rng.choice(entries) for _ in range(2)] for _ in range(2)])
            for _ in range(120)]
    mats += [Mat2.of([[0, 0], [1, 0]]), Mat2.of([[0, 0], [0, 1]]), Mat2.scalar(3)]
    pairs = 0
    for a in mats:
        for b in mats:
            want = a * b == b * a
            assert commute(a, b) == want, (a, b)
            pairs += want and not is_scalar(a) and not is_scalar(b) and a != b
    assert pairs > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_classify_single_matches_fraction_path(p):
    rng = make_rng(1120 + p)
    mats = []
    for v in whole_ball(p, 2 if p < 101 else 1):
        g = vertex_basis(v)
        mats += [g * f * g.inverse() for f in _kind_generators(p)]
    for _ in range(40 if p < 101 else 10):
        mats.append(random_matrix(rng, p))
        mats.append(seeded_rational_matrix(rng, p))
        g = _unimodular(rng, p)
        mats.append(g * rng.choice(_kind_generators(p)) * g.inverse())
    kinds = set()
    for a in mats:
        got = _classify_outcome(classify_single, a, p)
        want = _classify_outcome(oracles.classify_single, a, p)
        if got[0] == "unbounded":
            # the oracle certifies by closure rounds, the engine by the
            # first non-integral invariant
            _check_invariant_certificate([a], p, got[2])
            got, want = got[:2], want[:2]
        assert got == want, a
        if got[0] == "ThickApartment":
            kinds.add("irrational" if got[2][2] else "rational")
        else:
            kinds.add(got[0])
    assert kinds == {"Full", "Fan", "rational", "irrational", "ThickPath", "unbounded"}


@pytest.mark.parametrize("p,radius", MODULE_BALLS + [(7, 1)])
def test_shifted_eichler_closed_form_matches_intersection(p, radius):
    vs = whole_ball(p, radius)
    pairs = list(itertools.combinations_with_replacement(vs, 2))
    if p == 101:
        hubs = {standard_vertex(p), *(v for v in vs if v.a == 0)}
        rest = [pair for pair in pairs if not hubs & set(pair)]
        pairs = [pair for pair in pairs if hubs & set(pair)]
        pairs += make_rng(p).sample(rest, CHILD_PAIR_SAMPLE)
    for v, w in pairs:
        for r in (0, 1, 2):
            want = oracles.shifted_eichler_module_by_intersection(v, w, r)
            assert shifted_eichler_module(v, w, r) == want, (v, w, r)
            assert shifted_eichler_module(w, v, r) == want, (w, v, r)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_branch_of_order_matches_fraction_path(p):
    rng = make_rng(1130 + p)
    orders = _branch_orders(p, rng) + list(_structured_orders(p, rng, 1))
    for ngens in (1, 2, 3):
        orders += [random_order(rng, p, ngens) for _ in range(6 if p < 101 else 2)]
    kinds = set()
    for order in orders:
        got, want = branch_of_order(order), oracles.branch_of_order(order)
        assert (type(got), got.to_json()) == (type(want), want.to_json()), order
        assert got == want, order
        kinds.add(got.kind)
    assert {"full", "fan", "thick_apartment", "thick_path", "thick_ray"} <= kinds


def _fraction_count_orders():
    """Seeded orders on one to three generators at p = 2, 3, 5 and 7, and
    one order of every branch kind at p = 3."""
    rng = make_rng(1140)
    orders = [random_order(rng, p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3)]
    return orders + _branch_orders(3, rng)


def test_branch_of_order_makes_few_fractions(monkeypatch):
    """The branch of an order is computed on the integer rows of its module,
    and a thick apartment keeps its integer row as the witness: no Fraction
    is made."""
    orders = _fraction_count_orders()
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    shapes = [branch_of_order(order) for order in orders]
    monkeypatch.undo()
    # With Fraction witnesses, 34 apartment witnesses of 4 entries each made
    # 136.  Classifying `closure.basis` with Fraction traces, discriminants
    # and eigenvectors made 3,487 on Python 3.11 (where Fraction arithmetic
    # also builds through `__new__`).
    assert len(made) == 0
    assert sum(s.kind == "thick_apartment" for s in shapes) == 5


SQUARE_CLASS_FIELDS = [BaseField.rationals()] + [
    BaseField.quadratic(m)
    for m in range(-200, 201)
    if m not in (0, 1) and is_squarefree(m)
]


def _square_class_elements(rng, p: int, rational: bool):
    """Seeded x + y sqrt(m): rational ones, pure irrational ones, mixed ones,
    with p in numerators and denominators, and valuations near +-40."""

    def coord(big=False):
        e = rng.choice((-41, -40, 40, 41)) if big else rng.randrange(-3, 4)
        n = rng.choice((-1, 1)) * rng.randrange(1, 60)
        return Fraction(n, rng.randrange(1, 30)) * Fraction(p) ** e

    zero = Fraction(0)
    out = [(coord(), zero) for _ in range(3)] + [(coord(True), zero) for _ in range(2)]
    if not rational:
        out += [(zero, coord()) for _ in range(2)] + [(zero, coord(True))]
        out += [(coord(), coord()) for _ in range(3)] + [(coord(True), coord(True))]
        out += [(coord(True), coord()), (coord(), coord(True))]
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_square_class_rule_matches_per_place_bodies(p):
    """`is_local_square` and `is_unramified_or_split` share one square-class
    rule; the per-place bodies they replaced decide every field and place."""
    rng = make_rng(1300 + p)
    predicates = [
        (global_classfield.is_local_square, oracles.is_local_square),
        (global_classfield.is_unramified_or_split, oracles.is_unramified_or_split),
    ]
    tags = set()
    for field in SQUARE_CLASS_FIELDS:
        for place in field.places_over(p):
            tags.add(place.tag)
            for el in _square_class_elements(rng, p, field.is_rational):
                got = [new(field, el, place) for new, _ in predicates]
                assert got == [old(field, el, place) for _, old in predicates], (
                    field, place, el,
                )
                square, unram = got
                assert unram or not square
    assert tags == {"rational", "inert", "ramified", "split"}
    field = SQUARE_CLASS_FIELDS[1]
    for new, _ in predicates:
        with pytest.raises(ZeroDivisionError):
            new(field, (Fraction(0), Fraction(0)), field.places_over(p)[0])


def _integral_elements(rng, p: int, rational: bool):
    """Seeded integral x + y sqrt(m) with powers of p in both coordinates."""

    def coord():
        return rng.choice((-1, 1)) * rng.randrange(1, 60) * p ** rng.randrange(0, 6)

    out = [(coord(), 0) for _ in range(3)]
    if not rational:
        out += [(0, coord()), (coord(), coord()), (coord(), coord())]
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_integral_valuation_matches_fraction_oracle(p):
    """`val_at_place` on integers agrees with the Fraction body it replaced."""
    rng = make_rng(1400 + p)
    for field in SQUARE_CLASS_FIELDS:
        for place in field.places_over(p):
            for x, y in _integral_elements(rng, p, field.is_rational):
                old = oracles.val_at_place(field, (Fraction(x), Fraction(y)), place)
                assert global_classfield.val_at_place(field, (x, y), place) == old


def test_fe_is_square_matches_fraction_oracle():
    """On Q and every squarefree |m| <= 200: seeded squares (a + b sqrt(m))^2
    / c^2, and non-squares from multiplying them by small rationals and by
    sqrt(m), agree with the Fraction body, which takes square roots."""
    rng = make_rng(1414)
    seen = {True: 0, False: 0}
    for field in SQUARE_CLASS_FIELDS:
        m = 0 if field.is_rational else field.m
        for _ in range(12):
            a = Fraction(rng.randrange(-40, 41), rng.randrange(1, 30))
            b = Fraction(0) if not m or rng.random() < 0.2 else Fraction(
                rng.randrange(-40, 41), rng.randrange(1, 30)
            )
            if a == 0 and b == 0:
                continue
            square = (a * a + m * b * b, 2 * a * b)
            q = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 12))
            q /= rng.randrange(1, 12)
            cases = [square, (square[0] * q, square[1] * q)]
            if m:
                cases.append((m * square[1], square[0]))  # times sqrt(m)
            for el in cases:
                want = oracles.fe_is_square(field, el)
                assert global_classfield.fe_is_square(field, el) == want, (field, el)
                seen[want] += 1
            assert global_classfield.fe_is_square(field, square)
    assert min(seen.values()) > 1000


def test_sign_at_real_matches_case_analysis():
    """One comparison of |x| with |y| sqrt(m) gives the sign at each real
    place, as the case analysis it replaced did, also where x^2 and m y^2
    are one apart."""
    rng = make_rng(1415)
    for field in SQUARE_CLASS_FIELDS:
        keys = field.real_place_keys()
        m = 0 if field.is_rational else field.m
        els = []
        for _ in range(10):
            x = Fraction(rng.randrange(-50, 51), rng.randrange(1, 9))
            y = Fraction(rng.randrange(-50, 51), rng.randrange(1, 9)) if m else 0
            els.append((x, Fraction(y)))
        if m > 0:
            for y in range(1, 20):
                r = isqrt(m * y * y)
                els += [(Fraction(s * x), Fraction(t * y)) for x in (r, r + 1)
                        for s in (1, -1) for t in (1, -1)]
        for el in els:
            if el == (0, 0):
                continue
            for key in keys:
                want = oracles.sign_at_real(field, el, key)
                assert global_classfield.sign_at_real(field, el, key) == want


def test_rep_field_builds_no_fraction_below_its_entry(monkeypatch):
    """A commutative-quadratic rep-field request takes delta to its integral
    representative on entry: every place test, the global square test and
    the containment in sigma run on ints."""
    k10, k5, k3 = (BaseField.quadratic(m) for m in (10, 5, 3))
    half = Fraction(1, 2)
    requests = []
    for field, keys, delta in [
        (BaseField.rationals(), ("2", "3", "7"), (Fraction(2, 9), Fraction(0))),
        (BaseField.rationals(), ("2", "5"), (Fraction(-7, 4), Fraction(0))),
        (k10, ("2", "3.1", "3.2", "5", "7"), (Fraction(2), Fraction(0))),
        (k10, ("3.1", "13.2"), (Fraction(7, 3), Fraction(1, 6))),
        (k5, ("2", "3", "5", "11.1"), (Fraction(9, 4), half)),
        (k3, ("2", "3", "11.2"), (half, Fraction(3, 8))),
    ]:
        places = [parse_place_key(field, key) for key in keys]
        level = {place: i % 3 for i, place in enumerate(places)}
        shift = {place: i % 2 for i, place in enumerate(places)}
        conductor = {place: 2 for place in places}
        genus = Genus.of(level=level, shift=shift)
        requests.append((QuatAlgebra.of(field), genus, delta, conductor))
    # L = K(sqrt 2) lies in sigma, and 3.1 is inert in L and balanced
    p31 = parse_place_key(k10, "3.1")
    delta = (Fraction(2, 9), Fraction(0))
    requests.append((QuatAlgebra.of(k10), Genus.of(), delta, {}))
    requests.append((QuatAlgebra.of(k10), Genus.of(level={p31: 2}), delta, {p31: 1}))
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    degrees = [rep_field_comm_quadratic(*request).degree for request in requests]
    monkeypatch.undo()
    # The Fraction global layer (tests/oracles.py) made 960 here on Python
    # 3.11: Fraction valuations, residues, norms and square roots.
    assert len(made) == 0
    assert degrees == [1, 1, 1, 1, 1, 1, 2, 2]


def _sigma_cases(rng, field):
    """Seeded (algebra, genus) pairs over the field: split everywhere, or
    ramified at two places among the real ones and those over 3 and 5, with
    levels 0..3 at places over p <= 13, so some are forced (odd level)."""
    finite = [place for p in (2, 3, 5, 7, 11, 13) for place in field.places_over(p)]
    ramifiable = [place for place in finite if place.p in (3, 5)]
    ramifiable += list(field.real_place_keys())
    out = []
    for _ in range(3):
        ram = rng.sample(ramifiable, 2) if rng.random() < 0.4 else []
        fin = [x for x in ram if not isinstance(x, str)]
        algebra = QuatAlgebra.of(field, fin, [x for x in ram if isinstance(x, str)])
        free = [place for place in finite if place not in fin]
        level = {place: rng.randrange(4) for place in rng.sample(free, 2)}
        out.append((algebra, Genus.of(level=level)))
    return out


def _genus_field_deltas(rng, field):
    """Seeded delta = d_S (a + b sqrt(m))^2 / c for c a square or not, with
    d_S the product of a random subset S of the prime discriminants, also
    times -1, 3 or sqrt(m), and a few random elements."""
    m = 0 if field.is_rational else field.m
    qs = _prime_discriminants(field.discriminant) if m else ()

    def coord():
        return Fraction(rng.randrange(-8, 9), rng.randrange(1, 6))

    out = []
    for _ in range(6):
        a, b = coord(), coord() if m else Fraction(0)
        d = prod(q for q in qs if rng.random() < 0.5)
        c = rng.choice((1, 4, 9, rng.randrange(1, 10)))
        x, y = (a * a + m * b * b) * d / c, 2 * a * b * d / c
        out.append((x, y))
        twist = rng.choice((-1, 3, 0))
        out.append((m * y, x) if twist == 0 and m else (twist * x, twist * y))
    out += [(coord(), coord() if m else Fraction(0)) for _ in range(2)]
    return [el for el in out if el[0] or el[1]]


def test_quadratic_in_sigma_matches_place_by_place_oracle():
    """The genus-character test of K(sqrt(delta)) in sigma agrees with the
    place-by-place test it replaced on Q and every squarefree |m| <= 200,
    over seeded algebras, levels and delta = d_S times squares."""
    rng = make_rng(1500)
    seen = {True: 0, False: 0}
    for field in SQUARE_CLASS_FIELDS:
        for algebra, genus in _sigma_cases(rng, field):
            sigma = spinor_class_field(algebra, genus)
            for delta in _genus_field_deltas(rng, field):
                el = global_classfield._integral(delta)
                if global_classfield.fe_is_square(field, el):
                    continue
                dens = (delta[0].denominator, delta[1].denominator)
                want = oracles._quadratic_in_sigma(field, algebra, sigma, el, dens)
                got = global_classfield._quadratic_in_sigma(sigma, el)
                assert got == want, (field, algebra, genus, delta)
                seen[want] += 1
    assert seen[True] >= 500 and seen[False] >= 500, seen


def test_dyadic_hensel_sqrt_matches_bitwise_lift():
    """Newton steps give the bit-by-bit root at every precision up to
    2,048 bits, for seeded m = 1 mod 8 of both signs and sizes: the root
    = 1 mod 4, so every truncation is that of one 2-adic root."""
    rng = make_rng(1600)
    ms = [1, -7, 2**64 + 1]
    ms += [8 * rng.randrange(-(10**6), 10**6) + 1 for _ in range(2)]
    ms.append(8 * rng.randrange(2**400) + 1)
    top = 2048
    for m in ms:
        root = oracles.bitwise_hensel_sqrt(m, 2, top)
        for prec in range(top + 1):
            assert hensel_sqrt(m, 2, prec) == root % 2 ** max(prec, 1), (m, prec)
        for prec in (*range(12), 64, 65, 1000, 1001):
            assert hensel_sqrt(m, 2, prec) == oracles.bitwise_hensel_sqrt(m, 2, prec)
    for m, p in ((10, 3), (2, 7), (-1, 5), (5, 101)):
        for prec in range(40):
            assert hensel_sqrt(m, p, prec) == oracles.bitwise_hensel_sqrt(m, p, prec)


def test_error_classes_carry_the_exit_code_map():
    from qlat import errors

    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.QlatError)]
    assert len(classes) == 14
    for cls in classes:
        exc = cls.__new__(cls)  # isinstance is all the map reads
        assert exc.exit_code == oracles.exit_code_for(exc), cls
    assert {c.exit_code for c in classes} == {2, 3, 4}
