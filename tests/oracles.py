"""Slow reference versions of replaced primitives.

These are the matrix-based routines that the integer disc-coordinate
implementations in `qlat.bt_tree`, `qlat.branches` and `qlat.local_orders`
replaced, kept verbatim (renamed, with their helpers inlined where needed)
so `test_oracles.py` can check old and new agree.  They work on `Fraction`
matrices: Smith forms for distances, `canonical_vertex` for neighbors,
lattice arithmetic for steps toward ends, walks for horoball slacks and
ray distances, and conjugation for margins.

The class-group section keeps the breadth-first subgroup closure and the
reduced-form enumerations that `qlat.quadforms` replaced.  The spinor
class-field section keeps the class-group closure that the genus-character
degree of `qlat.global_classfield` replaced: the coset-extension subgroup,
ray class groups carried as a form class group with a kernel, and the
spinor class field and rank-4 representation-field degree as the index of
a closed kernel.  The last two sections keep the three unbounded
trial-division loops that `exact_padic.prime_divisors` replaced, and the
enumeration of residue combinations that the branch test of
`has_unramified_residue_field` replaced (its seeded sampling for p > 13
is left out: it decided nothing).

The section after it keeps the Fraction module layer that the integer
`Module4` of `qlat.exact_padic` replaced: the canonical Hermite basis as
a tuple of exact matrices, the Hermite form by rational elimination, the
intersection through an integer row echelon with transform, the maximal
orders as conjugated matrix units, the shifted Eichler modules built on
them, and the order closure over exact matrix products.  After them comes
the integer order closure in rounds of products, with its round cap,
divergence window and denominator cap, as it was before the one closure
rule of `qlat.local_orders` (span{1, a, b, ab} for two generators, S_j =
S_(j-1) + S_(j-1) a_j for any number) replaced it; it reads the integer
`module_hnf` and `integer_rows` through `exact_padic.`.  Both closures
raise `RoundsUnbounded`, an `Unbounded` that carries their growth
certificate.

The section after it keeps the searches that the generated balls of
`qlat.bt_tree` and the climb-and-walk of `qlat.branches.enumerate_branch`
replaced: the breadth-first ball over neighbor scans, the DOT export that
finds its edges by scanning the neighbors of every vertex, and the branch
enumeration that filters the whole ball through `contains_shifted`.

The section after it keeps the classification of a single matrix on
`Fraction` matrices that the integer bodies of `qlat.branches` and
`qlat.bt_tree` replaced: `canonical_vertex` and `end_from_vector` on
rationals, the p-adic square class of a rational, the classification's
head on `Fraction` trace, determinant and discriminant, and
`branch_of_order` over `Module4.basis`; the shifted
Eichler module as an intersection of two maximal orders, which the closed
form of `qlat.local_orders` replaced; and the certificate of
`three_maximal_orders` as two intersections of three maximal orders, of
which the closed-form Eichler order of the first two leaves one.  The
classification resolves `mu_margin`, `order_closure` and `sqrt_mod` to
the slow versions above.

The section after it keeps `FractionMat2`, the matrix of four `Fraction`
entries that the integer `qlat.exact_padic.Mat2` replaced, with its
`cleared` integers.  The routines above build and compare the integer
`Mat2` through its rational surface (`Mat2.of`, `entries`, products).

The section after it keeps the frozen dataclass `Vertex` that the
tuple-backed `qlat.bt_tree.Vertex` replaced.  The routines above take
either: they read only the fields p, a, b and c.

The section after it keeps the twenty other frozen dataclasses that value
tuples replaced across `qlat` (matrices, modules, ends, orders, the six
shapes, forms and class groups, places, fields and class-field records),
renamed with the prefix "Dataclass".

The section after it keeps the local square and unramified tests of
`qlat.global_classfield` as one body per kind of place each, with the
residue-field power, the dyadic unit and the dyadic square searches that
the one square-class rule replaced.

The section after it keeps the `Fraction` global layer that the integral
representatives of `qlat.global_classfield` replaced: the valuation at a
place, the split-place embedding that clears denominators, the global
square test and the sign at a real place, with the Fraction residues
modulo powers of p and the rational square test of `qlat.exact_padic`
that only they and the routines above still called.

The section after it keeps the test of K(sqrt(delta)) in the spinor class
field that the genus characters of `qlat.global_classfield` replaced: it
factors the norm and the coordinate denominators of delta and tests every
place above them, the real places and the forced places one by one.

The section after it keeps `hensel_sqrt` of `qlat.global_classfield` with
the dyadic lift that settles one bit per step, which Newton steps replaced.

The section after it keeps the branch engine of `qlat.branches` as it was
before one margin climb and one level walk replaced its loops: the
eigenline climb of a single matrix, the budgeted neighbor scans, the
shared-line spine loop, the bounded intersection with its plateau search,
degree map and tip sort, the dispatch over them, and the branch
enumeration with its radius loop.

The section after it keeps `branch_of_order` and `enumerate_branch` of
`qlat.branches` as they were before the branch was read as the one set
{sigma >= 0}: the fold that classifies each row after intersecting the
rows before it, and the enumeration that tests membership with
`contains_shifted` and filters the whole ball for orders of scalars only.

The section after it keeps the margins of `qlat.branches` and
`qlat.bt_tree` as they were before each shape bound its fixed data once
per walk: `mu_margin`, which read all four valuations at every vertex,
the Busemann function with the horoball slack and ray distance built on
it, and the margin of each of the four shape kinds, one vertex at a time.

The section after it keeps `qlat.cli.main` as it was when every argv went
through argparse, which the plain-grammar loop now serves but for help
and usage errors, with the exit-code map that each error class's
`exit_code` replaced.

The section after it keeps the request decoder as it was when `is_prime` and
`is_squarefree` read the factorizer: those two, `places_over` and
`parse_place_key` above them, which the cube-root squarefree test, the
strong-pseudoprime test and the one-pass place key replaced, and the
rational parsing that made every JSON integer a `Fraction`.  Below
`SIEVE_BOUND` the two tests read a sieve of smallest prime factors
instead, which decides the same and costs a lookup.

The last section keeps `rep_field_comm_quadratic` of
`qlat.global_classfield` as it was when it wrote the local spinor rule
inline at each place, before it read `spinor_local.image_of_diameter`.
"""

from __future__ import annotations

import itertools
from array import array
from collections import namedtuple
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from math import gcd, inf, isqrt, lcm

from helpers import (
    apply,
    conjugate,
    det,
    discriminant,
    entries,
    fe,
    fe_pow,
    fe_sub,
    is_primitive,
    is_scalar,
    trace,
    unit_part,
    vertex_basis,
    zero_matrix,
)
from qlat import branches, bt_tree, exact_padic, local_orders
from qlat import global_classfield as gc
from qlat.branches import (
    Empty,
    Fan,
    Full,
    ThickApartment,
    ThickPath,
    ThickRay,
    canonical_fan,
    intersect_shapes,
)
from qlat.bt_tree import End, child, parent, standard_vertex
from qlat.cli import (
    _HANDLERS,
    _read_request,
    _require,
    _write_error,
    _write_response,
    build_parser,
)
from qlat.errors import (
    BudgetExceeded,
    EmbeddingInfeasible,
    InfiniteUnsupported,
    QlatError,
    ResourceLimit,
    SchemaError,
    SingularMatrix,
    Unbounded,
)
from qlat.exact_padic import (
    Frozen,
    Mat2,
    commute,
    int_valuation,
    legendre,
    prime_divisors,
    valuation,
)
from qlat.global_classfield import (
    FE,
    BaseField,
    Genus,
    PrimeIdeal,
    QuatAlgebra,
    RepField,
    _normalize_ideal_map,
    fe_is_zero,
    fe_mul,
    fe_norm,
    hensel_sqrt,
    validate_genus,
)
from qlat.local_orders import LocalOrder
from qlat.quadforms import (
    ClassGroup,
    QForm,
    _divisors_signed,
    class_group,
    class_rep,
    compose,
    is_reduced_indefinite,
    kronecker_at,
    negative_identity_class,
    prime_form,
    principal_form,
)


def smith_local_transforms(g: Mat2, p: int):
    """(e1, e2, u, v) with u*g*v = diag(p^e1, p^e2), u and v in GL2(Z_(p)).

    e1 <= e2, e1 is the minimal entry valuation, and e1 + e2 = v_p(det g).
    """
    if isinstance(g, Mat2):
        g = FractionMat2(entries(g))
    if g.det() == 0:
        raise SingularMatrix("smith form requires an invertible matrix")
    a = [list(r) for r in g.rows()]
    u = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    v = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]

    # Bring a minimal-valuation entry to position (0, 0).
    pos = min(
        ((i, j) for i in range(2) for j in range(2)),
        key=lambda ij: (valuation(a[ij[0]][ij[1]], p), ij),
    )
    if pos[0] == 1:
        a[0], a[1] = a[1], a[0]
        u[0], u[1] = u[1], u[0]
    if pos[1] == 1:
        for row in a:
            row[0], row[1] = row[1], row[0]
        for row in v:
            row[0], row[1] = row[1], row[0]

    # Clear the rest of the first column and row; quotients are in Z_(p).
    f = a[1][0] / a[0][0]
    a[1] = [x - f * y for x, y in zip(a[1], a[0])]
    u[1] = [x - f * y for x, y in zip(u[1], u[0])]
    fc = a[0][1] / a[0][0]
    for row in a:
        row[1] -= fc * row[0]
    for row in v:
        row[1] -= fc * row[0]

    e1 = valuation(a[0][0], p)
    e2 = valuation(a[1][1], p)
    s1 = Fraction(p) ** e1 / a[0][0]
    s2 = Fraction(p) ** e2 / a[1][1]
    a[0] = [x * s1 for x in a[0]]
    u[0] = [x * s1 for x in u[0]]
    a[1] = [x * s2 for x in a[1]]
    u[1] = [x * s2 for x in u[1]]
    return e1, e2, Mat2.of(u), Mat2.of(v)


def smith_local(g: Mat2, p: int) -> tuple[int, int]:
    """Elementary-divisor exponents (e1, e2), e1 <= e2, of g over Z_(p)."""
    e1, e2, _, _ = smith_local_transforms(g, p)
    return e1, e2


def distance(v: Vertex, w: Vertex) -> int:
    """Graph distance: spread of the elementary divisors of the transition."""
    if v.p != w.p:
        raise ValueError("vertices live on trees of different primes")
    if v == w:
        return 0
    m = vertex_basis(v).inverse() * vertex_basis(w)
    e1, e2 = smith_local(m, v.p)
    return e2 - e1


def neighbors(v: Vertex) -> tuple[Vertex, ...]:
    """The p+1 adjacent classes, sorted canonically."""
    p = v.p
    g = vertex_basis(v)
    out = set()
    for j in range(p):
        out.add(canonical_vertex(g * Mat2.of([[1, 0], [j, p]]), p))
    out.add(canonical_vertex(g * Mat2.of([[p, 0], [0, 1]]), p))
    assert len(out) == p + 1
    return tuple(sorted(out))


def step_toward_end(v: Vertex, end: End) -> Vertex:
    """The neighbor of v on the ray from v to the given boundary line."""
    p = v.p
    g = vertex_basis(v)
    # Coordinates of the line direction in the lattice basis, made primitive.
    u = apply(g.inverse(), (Fraction(end.x), Fraction(end.y)))
    m = min(valuation(x, p) for x in u)
    u = (u[0] * Fraction(p) ** (-m), u[1] * Fraction(p) ** (-m))
    w = apply(g, u)  # primitive lattice vector spanning the line's direction
    # New lattice: Z*w + p*Lambda, using a basis vector completing w.
    if valuation(u[1], p) == 0:
        other = (g.m00, g.m10)  # column 1 completes
    else:
        other = (g.m01, g.m11)  # column 2 completes
    nb = Mat2.of([[w[0], p * other[0]], [w[1], p * other[1]]])
    return canonical_vertex(nb, p)


def walk_toward_end(v: Vertex, end: End, steps: int) -> Vertex:
    for _ in range(steps):
        v = step_toward_end(v, end)
    return v


def dist_to_ray(v: Vertex, base: Vertex, end: End) -> int:
    """Distance from v to the ray; the distance along the ray is convex."""
    cur = base
    best = distance(v, base)
    while True:
        nxt = step_toward_end(cur, end)
        d = distance(v, nxt)
        if d >= best:
            return best
        best = d
        cur = nxt


def fan_slack(base: Vertex, end: End, v: Vertex) -> int:
    """Horoball slack of v relative to the zero level through base."""
    k = distance(v, base) + 2
    tip = walk_toward_end(base, end, k)
    return k - distance(v, tip)


def mu_margin(a: Mat2, v: Vertex):
    """Largest r with a in Z_(p) + p^r * D_v (may be negative or infinite)."""
    m = conjugate(a, vertex_basis(v))
    p = v.p
    return min(
        valuation(m.m01, p),
        valuation(m.m10, p),
        valuation(m.m00 - m.m11, p),
    )


def contains_shifted(v: Vertex, h: Mat2, r: int) -> bool:
    """Is h in Z_(p) + p^r * D_v?"""
    m = conjugate(h, vertex_basis(v))
    p = v.p
    if any(valuation(x, p) < 0 for x in entries(m)):
        return False
    return (
        valuation(m.m01, p) >= r
        and valuation(m.m10, p) >= r
        and valuation(m.m00 - m.m11, p) >= r
    )


def climb(a: Mat2, start: Vertex, ceiling=None) -> tuple[Vertex, int]:
    """Greedy margin ascent from start, scanning all p+1 neighbors."""
    cur = start
    m = mu_margin(a, cur)
    while ceiling is None or m < ceiling:
        better = [n for n in neighbors(cur) if mu_margin(a, n) > m]
        if not better:
            break
        cur = min(better)
        m += 1
        assert mu_margin(a, cur) == m
    return cur, m


def sqrt_mod(a: int, p: int) -> int | None:
    a %= p
    for x in range(p):
        if x * x % p == a:
            return x
    return None


def half_unit_search(m: int, bound: int = 10**6):
    """Fundamental unit (x, y, 2, norm) for m = 1 mod 4 by a linear search
    for the least y with m*y^2 +- 4 a square; None past the bound."""
    y = 1
    while y < bound:
        for sign in (-1, 1):
            t = m * y * y + 4 * sign
            if t > 0:
                x = isqrt(t)
                if x * x == t:
                    return x, y, 2, sign
        y += 1
    return None


# ---------------------------------------------------------------------------
# Class groups


def subgroup_bfs(group, gens) -> frozenset[QForm]:
    """Closure of the identity and the given class representatives."""
    have = {group.identity}
    frontier = [group.identity]
    gens = [class_rep(g, group.disc) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.op(x, g)
                if y not in have:
                    have.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(have)


def enumerate_definite(disc: int) -> tuple[QForm, ...]:
    out = []
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b - disc) % 2 != 0:
                continue
            num = b * b - disc
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            f = QForm(a, b, c)
            if is_primitive(f):
                out.append(f)
        a += 1
    return tuple(sorted(out))


def enumerate_indefinite_reduced(disc: int) -> list[QForm]:
    s0 = isqrt(disc)
    out = []
    for b in range(1, s0 + 1):
        if (b - disc) % 2 != 0:
            continue
        n4 = (disc - b * b) // 4  # = -a*c > 0
        if n4 <= 0:
            continue
        for a in _divisors_signed(n4):
            c = -n4 // a
            f = QForm(a, b, c)
            if is_primitive(f) and is_reduced_indefinite(f):
                out.append(f)
    return out


# ---------------------------------------------------------------------------
# Spinor class fields by class-group closure


def subgroup(group: ClassGroup, gens) -> frozenset[QForm]:
    """Closure of the identity and the given class representatives.

    The group is abelian, so adjoining g to a subgroup H adds the cosets
    g*H, g^2*H, ... up to the first power of g that lies in H: one `op`
    per new element and one per generator adjoined, so at most twice
    the order of the result.  A generator already in the subgroup costs
    a set lookup; `class_rep` runs only on the others.
    """
    elems = [group.identity]
    have = set(elems)
    for g in gens:
        if g in have:
            continue
        g = class_rep(g, group.disc)
        if g in have:
            continue
        old = elems[1:]
        x = g
        while x not in have:
            elems.append(x)
            have.add(x)
            for h in old:
                y = group.op(x, h)
                elems.append(y)
                have.add(y)
            x = group.op(x, g)
    return frozenset(have)


@dataclass(frozen=True)
class RayClassGroup:
    """Narrow ray class group of conductor = a set of real places,
    realized as (narrow form class group) / kernel."""

    field: BaseField
    modulus: tuple[str, ...]
    base: ClassGroup | None = dc_field(repr=False, default=None)
    kernel: frozenset[QForm] = frozenset()

    @property
    def order(self) -> int:
        if self.base is None:
            return 1
        return self.base.order // len(self.kernel)


def _ideal_class(base: ClassGroup, place: PrimeIdeal) -> QForm:
    if place.tag == "inert":
        return base.identity  # the ideal is (p), principal and totally positive
    return class_rep(prime_form(base.disc, place.p, place.selector or 1), base.disc)


def narrow_ray_class_group(field: BaseField, modulus=()) -> RayClassGroup:
    keys = tuple(sorted(set(modulus)))
    for key in keys:
        if key not in field.real_place_keys():
            raise ValueError(f"{key!r} is not a real place of this field")
    if field.is_rational:
        return RayClassGroup(field, keys, None, frozenset())
    disc = field.discriminant
    base = class_group(disc)
    if field.m < 0 or len(keys) == 2:
        kernel = frozenset({base.identity})
    else:
        # Dropping a real place from the modulus absorbs the class of the
        # norm -1 form (ideals become identified with their totally
        # negative twists); dropping one place or both gives the same
        # quotient, the wide class group.
        kernel = subgroup(base, [negative_identity_class(disc)])
    return RayClassGroup(field, keys, base, kernel)


@dataclass(frozen=True)
class SigmaField:
    """The spinor class field of a genus, presented by class-group data:
    degree over the base field, the ray class group order it sits in, the
    finite places whose Frobenius classes are forced to die, and the
    ideal-class kernel cutting it out."""

    field: BaseField
    modulus: tuple[str, ...]
    degree: int
    group_order: int
    forced_split: tuple[str, ...]
    base: ClassGroup | None = dc_field(repr=False, default=None)
    kernel: frozenset[QForm] = dc_field(repr=False, default=frozenset())


def spinor_class_field(algebra: QuatAlgebra, genus: Genus) -> SigmaField:
    """Degree, forced split places, and kernel of the spinor class field.

    The class field is the largest exponent-2 extension of the base field
    that is unramified at all finite places, unramified at the real places
    where the algebra is split (those stay in the modulus), and split at
    every finite division place and every place of odd level.
    """
    field = algebra.field
    validate_genus(algebra, genus)
    forced = sorted(set(algebra.finite) | {p for p, d in genus.level if d % 2 == 1})
    fkeys = tuple(p.key() for p in forced)
    ray = narrow_ray_class_group(field, algebra.real)
    if ray.base is None:
        return SigmaField(field, ray.modulus, 1, 1, fkeys, None, frozenset())
    base = ray.base
    gens = set(ray.kernel)
    gens.update(base.op(x, x) for x in base.reps)
    gens.update(_ideal_class(base, p) for p in forced)
    kernel = subgroup(base, gens)
    degree = base.order // len(kernel)
    return SigmaField(field, ray.modulus, degree, ray.order, fkeys, base, kernel)


def rep_field_rank4(algebra: QuatAlgebra, genus: Genus, sub: Genus) -> RepField:
    """Representation field of a rank-4 Eichler-type suborder genus: the
    index of the spinor kernel extended by the classes of the places where
    the suborder is strictly deeper."""
    validate_genus(algebra, genus)
    validate_genus(algebra, sub, path="suborder")
    support = sorted(set(genus.support()) | set(sub.support()))
    strict: list[PrimeIdeal] = []
    for place in support:
        r1, d1 = genus.shift_at(place), genus.level_at(place)
        r2, d2 = sub.shift_at(place), sub.level_at(place)
        if r2 < r1:
            raise EmbeddingInfeasible(
                place.key(), "the suborder shift is shallower than the genus shift"
            )
        if d2 + 2 * r2 < d1 + 2 * r1:
            raise EmbeddingInfeasible(
                place.key(), "the suborder diameter is smaller than the genus level"
            )
        if d2 + 2 * r2 > d1 + 2 * r1:
            strict.append(place)
    sigma = spinor_class_field(algebra, genus)
    keys = tuple(p.key() for p in strict)
    if sigma.base is None:
        return RepField(1, sigma, keys)
    kernel = subgroup(
        sigma.base, set(sigma.kernel) | {_ideal_class(sigma.base, p) for p in strict}
    )
    degree = sigma.base.order // len(kernel)
    return RepField(degree, sigma, keys)


# ---------------------------------------------------------------------------
# Trial division


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_squarefree(m: int) -> bool:
    m = abs(m)
    if m == 0:
        return False
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        while m % d == 0:
            m //= d
        d += 1
    return True


def prime_factors(n: int) -> set[int]:
    n = abs(n)
    out: set[int] = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# ---------------------------------------------------------------------------
# Residue field detection


def _char_poly_residues(m: Mat2, p: int) -> tuple[int, int]:
    """(trace, det) of m reduced mod p; well-defined on elements of a
    bounded order even when matrix entries are non-integral, because trace
    and det of order elements are local integers."""
    s = int(reduce_mod_ppow(trace(m), p, 1))
    n = int(reduce_mod_ppow(det(m), p, 1))
    return s, n


def _residue_poly_irreducible(s: int, n: int, p: int) -> bool:
    return all((z * z - s * z + n) % p != 0 for z in range(p))


def has_unramified_residue_field(order: LocalOrder) -> bool:
    """Some residue combination of the basis has an irreducible quadratic
    characteristic polynomial; every combination is tried (p <= 13)."""
    p = order.p
    basis = order.closure.basis
    k = len(basis)

    def test(coeffs) -> bool:
        m = zero_matrix()
        for c, b in zip(coeffs, basis):
            if c:
                m = m + b * c
        if is_scalar(m):
            return False
        s, n = _char_poly_residues(m, p)
        return _residue_poly_irreducible(s, n, p)

    assert p <= 13, "the enumeration is exhaustive only for small p"
    for coeffs in itertools.product(range(p), repeat=k):
        if any(coeffs) and test(coeffs):
            return True
    return False


# ---------------------------------------------------------------------------
# The Fraction module layer

Rat = Fraction


def _flatten(m: Mat2) -> list[Rat]:
    return list(entries(m))


def _unflatten(row) -> Mat2:
    return Mat2.of([row[:2], row[2:]])


def _min_valuation(m: Mat2, p: int):
    """Least valuation of an entry of m; +infinity for zero."""
    return min(valuation(x, p) for x in entries(m))


@dataclass(frozen=True)
class Module4:
    """A finitely generated Z_(p)-submodule of the 2x2 matrices.

    The basis is the unique canonical Hermite basis: each basis element has a
    pivot coordinate (in row-major flat order) equal to a power of p, pivots
    sit at strictly increasing coordinates, each pivot coordinate of the
    other basis elements is reduced to the canonical representative modulo
    the pivot power, and everything below a pivot is zero.  Two spans are
    equal iff their canonical bases are identical, so `==` is exact module
    equality.
    """

    p: int
    basis: tuple[Mat2, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def pivot_columns(self) -> tuple[int, ...]:
        cols = []
        for m in self.basis:
            flat = entries(m)
            cols.append(next(i for i in range(4) if flat[i] != 0))
        return tuple(cols)


def module_hnf(gens, p: int) -> Module4:
    """Canonical Hermite basis of the Z_(p)-span of the given matrices."""
    rows = [_flatten(g) for g in gens if any(x != 0 for x in entries(g))]
    pivots: list[tuple[int, list[Rat]]] = []
    for col in range(4):
        best = None
        for r in rows:
            if r[col] != 0 and (
                best is None or valuation(r[col], p) < valuation(best[col], p)
            ):
                best = r
        if best is None:
            continue
        rows.remove(best)
        e = valuation(best[col], p)
        s = Fraction(p) ** e / best[col]
        best = [x * s for x in best]
        remaining = []
        for r in rows:
            if r[col] != 0:
                f = r[col] / best[col]
                r = [x - f * y for x, y in zip(r, best)]
            if any(x != 0 for x in r):
                remaining.append(r)
        rows = remaining
        pivots.append((col, best))

    # Reduce entries above each pivot to canonical residues.
    for i in range(len(pivots)):
        ci, bi = pivots[i]
        for j in range(i + 1, len(pivots)):
            cj, bj = pivots[j]
            ej = valuation(bj[cj], p)
            x = bi[cj]
            red = reduce_mod_ppow(x, p, ej)
            if red != x:
                f = (x - red) / bj[cj]
                bi = [a - f * b for a, b in zip(bi, bj)]
        pivots[i] = (ci, bi)
    return Module4(p, tuple(_unflatten(b) for _, b in pivots))


def _integer_rows(mats, p: int, k: int):
    """Scale by p^k then clear prime-to-p denominators row by row."""
    out = []
    for m in mats:
        flat = [x * Fraction(p) ** k for x in entries(m)]
        den = 1
        for x in flat:
            den = den * x.denominator // gcd(den, x.denominator)
        # den is prime to p because every x has v_p >= 0 after scaling.
        out.append([int(x * den) for x in flat])
    return out


def _integer_row_hnf(rows):
    """Row echelon over Z with transform: returns (H, U), H = U * rows."""
    m = len(rows)
    H = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pr = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        if pr >= m:
            break
        while True:
            idxs = [i for i in range(pr, m) if H[i][col] != 0]
            if not idxs:
                break
            i0 = min(idxs, key=lambda i: (abs(H[i][col]), i))
            done = True
            for i in idxs:
                if i == i0:
                    continue
                q = H[i][col] // H[i0][col]
                H[i] = [x - q * y for x, y in zip(H[i], H[i0])]
                U[i] = [x - q * y for x, y in zip(U[i], U[i0])]
                if H[i][col] != 0:
                    done = False
            if done:
                H[pr], H[i0] = H[i0], H[pr]
                U[pr], U[i0] = U[i0], U[pr]
                break
        if pr < m and H[pr][col] != 0:
            if H[pr][col] < 0:
                H[pr] = [-x for x in H[pr]]
                U[pr] = [-x for x in U[pr]]
            pr += 1
    return H, U


def module_intersect(a: Module4, b: Module4) -> Module4:
    """Canonical basis of the intersection of two Z_(p)-modules.

    Both modules are rescaled to integer lattices (a global p-power scaling
    plus prime-to-p row scalings, neither of which changes the local span),
    the integer intersection is extracted from the kernel rows of a row
    echelon transform of the stacked bases, and the result is rescaled back.
    Localization at p is flat, so the integer-lattice intersection localizes
    to the intersection of the local spans.
    """
    if a.p != b.p:
        raise ValueError("modules over different primes")
    p = a.p
    if not a.basis or not b.basis:
        return Module4(p, ())
    k = 0
    for m in list(a.basis) + list(b.basis):
        v = _min_valuation(m, p)
        if v < -k:
            k = -v
    k = max(0, k)
    ma = _integer_rows(a.basis, p, k)
    mb = _integer_rows(b.basis, p, k)
    stacked = ma + [[-x for x in row] for row in mb]
    H, U = _integer_row_hnf(stacked)
    gens = []
    for i in range(len(stacked)):
        if all(x == 0 for x in H[i]):
            coeffs = U[i][: len(ma)]
            vec = [0, 0, 0, 0]
            for c, row in zip(coeffs, ma):
                for j in range(4):
                    vec[j] += c * row[j]
            if any(vec):
                gens.append(_unflatten(vec) * Fraction(1, p**k))
    if not gens:
        return Module4(p, ())
    return module_hnf(gens, p)


# The closure rounds' cap, divergence window and denominator cap, as
# `qlat.local_orders` had them before one closure rule replaced the rounds.
CLOSURE_MAX_ROUNDS = 64
_DIVERGENCE_WINDOW = 8
CLOSURE_MAX_BITS = 1 << 15


class RoundsUnbounded(Unbounded):
    """`Unbounded` with the rounds' growth certificate: why they stopped,
    their minimal entry valuations and the last basis."""

    def __init__(self, certificate):
        self.certificate = certificate
        QlatError.__init__(self, f"module closure: {certificate['reason']}")


def _exact_text(x) -> str:
    """The rational x as 'a/b' in decimal or, past Python's limit on the
    digits of an int-to-str conversion, in hexadecimal, which has none."""
    try:
        return str(x)
    except ValueError:
        return f"{x.numerator:#x}/{x.denominator:#x}"


def _module_min_valuation(span) -> int:
    """Least valuation of a basis entry of an integer `Module4` (nonzero)."""
    p = span.p
    least = min(int_valuation(x, p) for r in span.rows for x in r if x)
    return least - int_valuation(span.den, p)


def order_closure(gens, p: int, max_rounds: int = CLOSURE_MAX_ROUNDS) -> LocalOrder:
    """Saturate {1} + gens into the order they generate.

    Raises `Unbounded` (with a growth certificate) if the module keeps
    growing: the minimum entry valuation strictly decreasing over a window
    of rounds, or no stabilization within the round cap.  For bounded input
    the iteration stabilizes and the result is multiplicatively closed.
    """
    gens = tuple(gens)
    mats = [Mat2.identity(), *gens]
    span = module_hnf(mats, p)
    minvals = []
    for _ in range(max_rounds):
        prods = [g * b for g in gens for b in span.basis]
        grown = module_hnf(list(span.basis) + prods, p)
        if grown == span:
            return LocalOrder(p, gens, span)
        span = grown
        minvals.append(min(_min_valuation(b, p) for b in span.basis))
        window = minvals[-_DIVERGENCE_WINDOW:]
        if len(window) == _DIVERGENCE_WINDOW and all(
            x > y for x, y in zip(window, window[1:])
        ):
            raise RoundsUnbounded(
                {
                    "reason": "entry valuations strictly decreasing",
                    "min_valuations": minvals,
                    "basis": [[str(x) for x in entries(b)] for b in span.basis],
                }
            )
    raise RoundsUnbounded(
        {
            "reason": f"no stabilization within {max_rounds} rounds",
            "min_valuations": minvals,
            "basis": [[str(x) for x in entries(b)] for b in span.basis],
        }
    )


def rounds_order_closure(
    gens, p: int, max_rounds: int = CLOSURE_MAX_ROUNDS
) -> LocalOrder:
    """Saturate {1} + gens into the order they generate.

    Raises `Unbounded` (with a growth certificate) if the module keeps
    growing: the minimum entry valuation strictly decreasing over a window
    of rounds, or no stabilization within the round cap.  For bounded input
    the iteration stabilizes and the result is multiplicatively closed.
    Each round multiplies integer matrices (the generators over one power
    of p, see `integer_rows`) and compares integer canonical forms.
    """
    gens = tuple(gens)
    mats, q = exact_padic.integer_rows(gens, p)
    span = exact_padic.module_hnf([(q, 0, 0, q), *mats], p, q)
    minvals = []
    reason = f"no stabilization within {max_rounds} rounds"
    for _ in range(max_rounds):
        rows = [[x * q for x in r] for r in span.rows]
        rows += [
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for a, b, c, d in mats
            for e, f, g, h in span.rows
        ]
        grown = exact_padic.module_hnf(rows, p, q * span.den)
        if grown == span:
            return LocalOrder(p, gens, span)
        span = grown
        minvals.append(_module_min_valuation(span))
        window = minvals[-_DIVERGENCE_WINDOW:]
        if len(window) == _DIVERGENCE_WINDOW and all(
            x > y for x, y in zip(window, window[1:])
        ):
            reason = "entry valuations strictly decreasing"
            break
        if span.den.bit_length() > CLOSURE_MAX_BITS:
            raise ResourceLimit(
                f"order closure denominators past {CLOSURE_MAX_BITS} bits"
            )
    raise RoundsUnbounded(
        {
            "reason": reason,
            "min_valuations": minvals,
            "basis": [[_exact_text(x) for x in entries(b)] for b in span.basis],
        }
    )


def maximal_order_module(v: Vertex) -> Module4:
    """The stabilizer order of the lattice class v, as a canonical module."""
    g = vertex_basis(v)
    units = [
        Mat2.of([[1, 0], [0, 0]]),
        Mat2.of([[0, 1], [0, 0]]),
        Mat2.of([[0, 0], [1, 0]]),
        Mat2.of([[0, 0], [0, 1]]),
    ]
    return module_hnf([g * e * g.inverse() for e in units], v.p)


def shifted_eichler_module(v1: Vertex, v2: Vertex, r: int) -> Module4:
    """Canonical module of Z_(p) + p^r * (D_v1 intersect D_v2)."""
    inner = module_intersect(maximal_order_module(v1), maximal_order_module(v2))
    p = v1.p
    mats = [Mat2.identity()] + [b * Fraction(p) ** r for b in inner.basis]
    return module_hnf(mats, p)


# ---------------------------------------------------------------------------
# Balls, DOT edges and branch enumeration by search


def ball(v: Vertex, radius: int, max_vertices=None) -> frozenset[Vertex]:
    """All vertices within the given distance of v."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    budget = bt_tree.vertex_budget(max_vertices)
    size = bt_tree.ball_size(v.p, radius)
    if size > budget:
        raise ResourceLimit(
            f"ball of radius {radius} at p={v.p} has {size} vertices, "
            f"budget is {budget}"
        )
    seen = {v}
    frontier = [v]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for n in bt_tree.neighbors(u):
                if n not in seen:
                    seen.add(n)
                    nxt.append(n)
        frontier = nxt
    return frozenset(seen)


def link_ball(v: Vertex, radius: int, max_vertices=None) -> list[Vertex]:
    """All vertices within the given distance of v, each built once from
    parent and child links, in the order they are built.

    A vertex at distance d from v is reached by climbing k <= d parents and
    then descending d - k levels, into a child off the climbed path when
    k > 0.  So for each k <= radius the ball holds the k-th ancestor of v
    and its descendants down to radius - k levels, less the branch of the
    ancestor below it.
    """
    p = v.p
    bt_tree.check_ball_budget(p, radius, max_vertices)
    out = []
    below, top = None, v
    for k in range(radius + 1):
        out.append(top)
        if k < radius:
            level = [w for j in range(p) if (w := bt_tree.child(top, j)) != below]
            out += level
            for _ in range(radius - k - 1):
                level = [bt_tree.child(u, j) for u in level for j in range(p)]
                out += level
        below, top = top, bt_tree.parent(top)
    return out


def export_dot(vertices, highlights=None) -> str:
    """Graphviz DOT source for the induced subgraph on the given vertices.

    `highlights` maps vertices to extra label strings.  Output is
    deterministic: vertices sorted canonically, edges listed once.
    """
    verts = sorted(set(vertices))
    highlights = highlights or {}
    vset = set(verts)

    def name(v: Vertex) -> str:
        return f"v_{v.a}_{v.b}_{v.c}"

    lines = ["graph lattice_classes {", "  node [shape=circle];"]
    for v in verts:
        label = f"({v.a},{v.b},{v.c})"
        if v in highlights:
            label += f"\\n{highlights[v]}"
        lines.append(f'  {name(v)} [label="{label}"];')
    for v in verts:
        for n in bt_tree.neighbors(v):
            if n in vset and v < n:
                lines.append(f"  {name(v)} -- {name(n)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def enumerate_branch(
    order: LocalOrder, r: int, center: Vertex, radius: int, max_vertices=None
) -> frozenset[Vertex]:
    """Brute-force probe: depth-r branch vertices within a ball (exact there)."""
    region = ball(center, radius, max_vertices)
    return frozenset(
        v
        for v in region
        if all(local_orders.contains_shifted(v, b, r) for b in order.closure.basis)
    )


# ---------------------------------------------------------------------------
# Classification on Fraction matrices


def canonical_vertex(g: Mat2, p: int) -> Vertex:
    """Canonical form of the lattice class spanned by the columns of g."""
    if det(g) == 0:
        raise SingularMatrix("lattice basis must be invertible")
    cols = [(g.m00, g.m10), (g.m01, g.m11)]
    # Column 2 takes the minimal-valuation second coordinate.
    if valuation(cols[0][1], p) < valuation(cols[1][1], p):
        cols.reverse()
    (x1, y1), (x2, y2) = cols
    # Clear the second coordinate of column 1; the quotient is in Z_(p).
    if y1 != 0:
        f = y1 / y2
        x1 -= f * x2
    alpha = valuation(x1, p)
    x1 = Fraction(p) ** alpha
    beta = valuation(y2, p)
    u2 = Fraction(p) ** beta / y2
    y2 = Fraction(p) ** beta
    x2 *= u2
    c = reduce_mod_ppow(x2, p, alpha)
    shift = min(alpha, beta, valuation(c, p))
    a = alpha - shift
    b = beta - shift
    cq = c * Fraction(p) ** (-shift)
    assert cq.denominator == 1
    return bt_tree.Vertex(p, a, b, int(cq))


def end_from_vector(vec) -> End:
    """Normalize any nonzero rational vector to a canonical end."""
    x, y = Fraction(vec[0]), Fraction(vec[1])
    if x == 0 and y == 0:
        raise ValueError("end requires a nonzero vector")
    den = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    xi, yi = int(x * den), int(y * den)
    g = gcd(xi, yi)
    xi, yi = xi // g, yi // g
    lead = xi if xi != 0 else yi
    if lead < 0:
        xi, yi = -xi, -yi
    return End(xi, yi)


def is_local_square_rat(x, p: int) -> bool:
    """Is the nonzero rational x a square in the p-adic completion?"""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("square class of zero")
    v = valuation(x, p)
    if v % 2 != 0:
        return False
    u = x / Fraction(p) ** v
    if p == 2:
        return int(reduce_mod_ppow(u, 2, 3)) == 1
    r = int(reduce_mod_ppow(u, p, 1))
    return legendre(r, p) == 1


def _quadratic_ext_disc_val(disc, p: int) -> int:
    """Valuation of the discriminant of the quadratic extension generated by
    a root of x^2 = disc (disc not a local square)."""
    v = valuation(disc, p)
    if p != 2:
        return 0 if v % 2 == 0 else 1
    if v % 2 != 0:
        return 3
    u = int(reduce_mod_ppow(unit_part(disc, 2), 2, 3))
    assert u != 1, "square discriminant has no field extension"
    return 0 if u == 5 else 2


def _level_neighbors(a: Mat2, v: Vertex, m: int) -> list[Vertex]:
    """The at most two neighbors w of v with mu(a, w) >= m = mu(a, v).

    A neighbor of v is a line of L_v / p L_v, and mu(a, w) >= m holds
    exactly when that line is an eigenline of the residue mod p of
    (g^-1 a g - m00) / p^m, a non-scalar matrix [[0, r01], [r10, r11]]
    (scaled by the unit part of den).  The line [s : t] is the parent when
    t = 0 mod p and otherwise the child with digit s / t.
    """
    den, al, be, ga, de = a
    p, b, c = v.p, v.b, v.c
    q = p**b
    d = al - de
    k = int_valuation(den, p) + b + m

    def residue(x: int, e: int) -> int:  # x / p^e mod p, given v_p(x) >= e
        return x // p**e % p if e >= 0 else 0

    r01 = residue(be * q * q + d * c * q - ga * c * c, k + v.a)
    r10 = residue(ga, k - v.a)
    r11 = residue(2 * ga * c - d * q, k)
    if p == 2:
        roots = [x for x in (0, 1) if (x * x - r11 * x - r01 * r10) % 2 == 0]
    else:
        root = sqrt_mod(r11 * r11 + 4 * r01 * r10, p)
        if root is None:
            return []
        half = (p + 1) // 2
        roots = {(r11 + root) * half % p, (r11 - root) * half % p}
    out = []
    for lam in roots:
        if lam or r01:
            s, t = r01, lam
        else:
            s, t = r11 - lam, -r10
        out.append(child(v, s * pow(t, -1, p) % p) if t % p else parent(v))
    return out


def _climb(a: Mat2, start: Vertex, ceiling=None) -> tuple[Vertex, int]:
    """Greedy margin ascent from start; returns (summit vertex, margin)."""
    cur = start
    m = mu_margin(a, cur)
    while ceiling is None or m < ceiling:
        better = [n for n in _level_neighbors(a, cur, m) if mu_margin(a, n) > m]
        if not better:
            break
        cur = min(better)
        m += 1
        assert mu_margin(a, cur) == m
    return cur, m


def _stable_start(a: Mat2, p: int) -> Vertex:
    """A vertex whose lattice is stable under a: the class of (e, a*e)."""
    if a.m10 != 0:
        cols = [[1, a.m00], [0, a.m10]]
    elif a.m01 != 0:
        cols = [[0, a.m01], [1, a.m11]]
    else:  # diagonal: any vertex works
        return standard_vertex(p)
    return canonical_vertex(Mat2.of(cols), p)


def classify_single(a: Mat2, p: int) -> Shape:
    """Exact shape of {v : a in D_v}, i.e. the depth-0 branch of Z_(p)[a].

    Scalars give Full; nilpotent-plus-scalar gives a Fan toward the image
    line; split semisimple gives the ThickApartment around the axis of the
    eigenline pair; the field (non-split) case gives a ThickPath whose stem
    is a vertex or an edge.  Raises Unbounded for non-integral input.
    """
    # Z_(p)[a] is bounded exactly when the characteristic polynomial is
    # integral; the closure then only runs to certify Unbounded.
    if valuation(trace(a), p) < 0 or valuation(det(a), p) < 0:
        order_closure([a], p)
    if is_scalar(a):
        return Full(p)
    disc = discriminant(a)
    half_trace = trace(a) / 2

    if disc == 0:
        nil = a - Mat2.scalar(half_trace)
        col = (nil.m00, nil.m10)
        if col == (0, 0):
            col = (nil.m01, nil.m11)
        end = end_from_vector(col)
        return canonical_fan(p, end, lambda v: mu_margin(nil, v))

    v_disc = valuation(disc, p)
    if is_local_square_rat(disc, p):
        t = v_disc // 2
        if is_rational_square(disc):
            root = Fraction(isqrt(disc.numerator), isqrt(disc.denominator))
            eigs = ((trace(a) + root) / 2, (trace(a) - root) / 2)
            vecs = []
            for lam in eigs:
                w = (a.m01, lam - a.m00)
                if w == (0, 0):
                    w = (lam - a.m11, a.m10)
                vecs.append(w)
            ends = tuple(sorted(end_from_vector(w) for w in vecs))
            anchor = canonical_vertex(
                Mat2.of([[vecs[0][0], vecs[1][0]], [vecs[0][1], vecs[1][1]]]), p
            )
            assert mu_margin(a, anchor) == t
            return ThickApartment(p, ends, t, witness=a, axis_margin=t, anchor=anchor)
        anchor, reached = _climb(a, _stable_start(a, p), ceiling=t)
        assert reached == t
        return ThickApartment(p, None, t, witness=a, axis_margin=t, anchor=anchor)

    # Field case: the margin summit is a single vertex or a single edge.
    summit, t = _climb(a, _stable_start(a, p))
    assert t == (v_disc - _quadratic_ext_disc_val(disc, p)) // 2
    stem = [summit] + [
        n for n in _level_neighbors(a, summit, t) if mu_margin(a, n) == t
    ]
    assert len(stem) <= 2
    return ThickPath(tuple(sorted(stem)), t)


def branch_of_order(order: LocalOrder, max_vertices=None) -> Shape:
    """Shape of {v : order contained in D_v}: fold intersections over the basis."""
    shape: Shape = Full(order.p)
    for b in order.closure.basis:
        if is_scalar(b):
            continue
        shape = intersect_shapes(shape, classify_single(b, order.p), max_vertices)
    return shape


def _plus_scalars(module, t: int):
    """Z_(p) + p^t * module."""
    den, q = module.den, module.p**t
    rows = [(den, 0, 0, den)] + [[x * q for x in r] for r in module.rows]
    return exact_padic.module_hnf(rows, module.p, den)


def shifted_eichler_module_by_intersection(v1: Vertex, v2: Vertex, r: int):
    """Canonical module of Z_(p) + p^r * (D_v1 intersect D_v2)."""
    inner = exact_padic.module_intersect(
        local_orders.maximal_order_module(v1), local_orders.maximal_order_module(v2)
    )
    return _plus_scalars(inner, r)


def three_maximal_intersection(d3: Vertex, d4: Vertex, d5: Vertex):
    """Canonical module of D_d3 intersect D_d4 intersect D_d5 by two
    Zassenhaus intersections, the certificate of `three_maximal_orders`."""
    maximal = local_orders.maximal_order_module
    inner = exact_padic.module_intersect(maximal(d3), maximal(d4))
    return exact_padic.module_intersect(inner, maximal(d5))


# ---------------------------------------------------------------------------
# The Fraction matrix


class FractionMat2(Frozen, namedtuple("FractionMat2", "entries")):
    """Immutable exact 2x2 matrix; entries row-major (m00, m01, m10, m11)."""

    @staticmethod
    def of(rows) -> "FractionMat2":
        (a, b), (c, d) = rows
        return FractionMat2((Fraction(a), Fraction(b), Fraction(c), Fraction(d)))

    @staticmethod
    def over(den: int, row) -> "FractionMat2":
        """The integer row (m00, m01, m10, m11) over the denominator den."""
        return FractionMat2(tuple(Fraction(x, den) for x in row))

    @staticmethod
    def identity() -> "FractionMat2":
        return FractionMat2.of([[1, 0], [0, 1]])

    @staticmethod
    def scalar(x) -> "FractionMat2":
        return FractionMat2.of([[x, 0], [0, x]])

    @property
    def m00(self) -> Rat:
        return self.entries[0]

    @property
    def m01(self) -> Rat:
        return self.entries[1]

    @property
    def m10(self) -> Rat:
        return self.entries[2]

    @property
    def m11(self) -> Rat:
        return self.entries[3]

    def rows(self) -> tuple[tuple[Rat, Rat], tuple[Rat, Rat]]:
        a, b, c, d = self.entries
        return ((a, b), (c, d))

    def __add__(self, other: "FractionMat2") -> "FractionMat2":
        return FractionMat2(tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "FractionMat2") -> "FractionMat2":
        return FractionMat2(tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self) -> "FractionMat2":
        return FractionMat2(tuple(-x for x in self.entries))

    def __mul__(self, other):
        if isinstance(other, FractionMat2):
            a, b, c, d = self.entries
            e, f, g, h = other.entries
            return FractionMat2((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))
        x = Fraction(other)
        return FractionMat2(tuple(v * x for v in self.entries))

    def __rmul__(self, other) -> "FractionMat2":
        x = Fraction(other)
        return FractionMat2(tuple(x * v for v in self.entries))

    def scale(self, x) -> "FractionMat2":
        return self * Fraction(x)

    def det(self) -> Rat:
        a, b, c, d = self.entries
        return a * d - b * c

    def inverse(self) -> "FractionMat2":
        dt = self.det()
        if dt == 0:
            raise SingularMatrix("matrix is not invertible")
        a, b, c, d = self.entries
        return FractionMat2((d / dt, -b / dt, -c / dt, a / dt))

    @cached_property
    def cleared(self) -> tuple[int, int, int, int, int]:
        """(den, a, b, c, d) in integers with self = [[a, b], [c, d]] / den.

        den > 0 is the least common denominator of the entries; the value
        is computed once per matrix and then kept on it.
        """
        den = 1
        for x in self.entries:
            den = den * x.denominator // gcd(den, x.denominator)
        return (den, *(x.numerator * (den // x.denominator) for x in self.entries))

    def min_valuation(self, p: int):
        return min(valuation(x, p) for x in self.entries)


# ---------------------------------------------------------------------------
# The frozen-dataclass vertex


@dataclass(frozen=True, order=True)
class Vertex:
    """Canonical lattice class; sorts by the canonical triple."""

    p: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        p, a, b, c = self.p, self.a, self.b, self.c
        if a < 0 or b < 0 or not (0 <= c < p**a):
            raise ValueError(f"non-canonical vertex triple ({a}, {b}, {c})")
        if a and b and c % p == 0:
            raise ValueError(f"vertex triple ({a}, {b}, {c}) is not primitive")

    def basis(self) -> Mat2:
        """Column basis matrix of the canonical lattice representative."""
        return Mat2.of([[self.p**self.a, self.c], [0, self.p**self.b]])

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}


# ---------------------------------------------------------------------------
# The frozen dataclasses that the value tuples replaced
#
# Each class keeps its dataclass text, renamed with the prefix "Dataclass"
# (so the repr names differ by that prefix) and building its twins where
# it built itself.  The helpers they call resolve in this module: the
# slow oracles above where one exists, else the functions of qlat.


@dataclass(frozen=True)
class DataclassMat2:
    """Immutable exact 2x2 matrix; entries row-major (m00, m01, m10, m11)."""

    entries: tuple[Rat, Rat, Rat, Rat]

    @staticmethod
    def of(rows) -> "DataclassMat2":
        (a, b), (c, d) = rows
        return DataclassMat2((Fraction(a), Fraction(b), Fraction(c), Fraction(d)))

    @staticmethod
    def identity() -> "DataclassMat2":
        return DataclassMat2.of([[1, 0], [0, 1]])

    @staticmethod
    def zero() -> "DataclassMat2":
        return DataclassMat2.of([[0, 0], [0, 0]])

    @staticmethod
    def scalar(x) -> "DataclassMat2":
        return DataclassMat2.of([[x, 0], [0, x]])

    @property
    def m00(self) -> Rat:
        return self.entries[0]

    @property
    def m01(self) -> Rat:
        return self.entries[1]

    @property
    def m10(self) -> Rat:
        return self.entries[2]

    @property
    def m11(self) -> Rat:
        return self.entries[3]

    def rows(self) -> tuple[tuple[Rat, Rat], tuple[Rat, Rat]]:
        a, b, c, d = self.entries
        return ((a, b), (c, d))

    def __add__(self, other: "DataclassMat2") -> "DataclassMat2":
        pairs = zip(self.entries, other.entries)
        return DataclassMat2(tuple(x + y for x, y in pairs))

    def __sub__(self, other: "DataclassMat2") -> "DataclassMat2":
        pairs = zip(self.entries, other.entries)
        return DataclassMat2(tuple(x - y for x, y in pairs))

    def __neg__(self) -> "DataclassMat2":
        return DataclassMat2(tuple(-x for x in self.entries))

    def __mul__(self, other):
        if isinstance(other, DataclassMat2):
            a, b, c, d = self.entries
            e, f, g, h = other.entries
            return DataclassMat2(
                (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            )
        x = Fraction(other)
        return DataclassMat2(tuple(v * x for v in self.entries))

    def __rmul__(self, other) -> "DataclassMat2":
        x = Fraction(other)
        return DataclassMat2(tuple(x * v for v in self.entries))

    def scale(self, x) -> "DataclassMat2":
        return self * Fraction(x)

    def trace(self) -> Rat:
        return self.entries[0] + self.entries[3]

    def det(self) -> Rat:
        a, b, c, d = self.entries
        return a * d - b * c

    def discriminant(self) -> Rat:
        """Discriminant of the characteristic polynomial, trace^2 - 4 det."""
        t = self.trace()
        return t * t - 4 * self.det()

    def inverse(self) -> "DataclassMat2":
        dt = self.det()
        if dt == 0:
            raise SingularMatrix("matrix is not invertible")
        a, b, c, d = self.entries
        return DataclassMat2((d / dt, -b / dt, -c / dt, a / dt))

    def is_scalar(self) -> bool:
        a, b, c, d = self.entries
        return b == 0 and c == 0 and a == d

    def apply(self, vec):
        a, b, c, d = self.entries
        x, y = vec
        return (a * x + b * y, c * x + d * y)

    @cached_property
    def cleared(self) -> tuple[int, int, int, int, int]:
        """(den, a, b, c, d) in integers with self = [[a, b], [c, d]] / den.

        den > 0 is the least common denominator of the entries; the value
        is computed once per matrix and then kept on it.
        """
        den = 1
        for x in self.entries:
            den = den * x.denominator // gcd(den, x.denominator)
        return (den, *(x.numerator * (den // x.denominator) for x in self.entries))

    def min_valuation(self, p: int):
        return min(valuation(x, p) for x in self.entries)


@dataclass(frozen=True)
class DataclassModule4:
    """A finitely generated Z_(p)-submodule of the 2x2 matrices.

    It is kept in its unique canonical Hermite basis: each basis element
    has a pivot coordinate (in row-major flat order) equal to a power of p,
    pivots sit at strictly increasing coordinates, each pivot coordinate of
    the other basis elements is reduced to its representative in Z[1/p] and
    [0, p^e) modulo the pivot power p^e, and everything before a pivot is
    zero.  The basis is stored as integer `rows` over `den`, the least
    common denominator of its entries: a power of p at rank 4, where every
    coordinate has a pivot, and possibly with a prime-to-p part below.
    Equal spans have identical (den, rows), so `==` is exact module
    equality.  `basis` is the same basis as exact matrices.
    """

    p: int
    den: int
    rows: tuple[tuple[int, int, int, int], ...]

    @staticmethod
    def of(p: int, den: int, rows) -> "DataclassModule4":
        """The module of canonical rows over den, common factors cancelled."""
        rows = list(rows)
        g = gcd(den, *chain.from_iterable(rows))
        rows = tuple(tuple(x // g for x in r) for r in rows)
        return DataclassModule4(p, den // g, rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple[DataclassMat2, ...]:
        den = self.den
        return tuple(
            DataclassMat2(tuple(Fraction(x, den) for x in r)) for r in self.rows
        )

    def min_valuation(self) -> int:
        """Least valuation of a basis entry (the module must be nonzero)."""
        p = self.p
        least = min(int_valuation(x, p) for r in self.rows for x in r if x)
        return least - int_valuation(self.den, p)


@dataclass(frozen=True, order=True)
class DataclassEnd:
    """A boundary point: the line spanned by the primitive vector (x, y)."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == 0 and self.y == 0:
            raise ValueError("end requires a nonzero vector")
        if gcd(self.x, self.y) != 1:
            raise ValueError("end vector must be primitive")
        lead = self.x if self.x != 0 else self.y
        if lead < 0:
            raise ValueError("end vector must have positive leading entry")

    def to_json(self) -> list:
        return [self.x, self.y]


@dataclass(frozen=True)
class DataclassLocalOrder:
    """An order presented by generators plus its canonical module basis."""

    p: int
    generators: tuple[Mat2, ...]
    closure: Module4

    @property
    def rank(self) -> int:
        return self.closure.rank


@dataclass(frozen=True)
class DataclassShiftedEichler:
    """Invariants (endpoint pair, level d, shift r) of Z + p^r * Eichler(d)."""

    endpoints: tuple[Vertex, Vertex]
    level: int
    shift: int

    def __post_init__(self):
        v1, v2 = self.endpoints
        if self.shift < 0:
            raise ValueError("shift must be >= 0")
        if distance(v1, v2) != self.level:
            raise ValueError("level must equal the distance between endpoints")

    @property
    def p(self) -> int:
        return self.endpoints[0].p

    def module(self) -> Module4:
        v1, v2 = self.endpoints
        return shifted_eichler_module(v1, v2, self.shift)


class DataclassShape:
    """A branch shape: the vertex set where its margin is >= 0.

    Each kind carries its own margin, deepening, diameter and JSON form.
    The defaults here are those of the unbounded kinds: infinite diameter,
    no rational ends, thickness 0, no Eichler level, and deepening that
    keeps the set (exact for Full and Empty).  `anchor` is a vertex on the
    core of every kind but Full and Empty.
    """

    kind: str
    level = None
    thickness = 0
    rational_ends: frozenset[End] = frozenset()

    def margin(self, v: Vertex):
        """How far v sits inside the shape; membership is margin >= 0."""
        raise NotImplementedError

    def deepen(self, r: int) -> DataclassShape:
        """The depth-r branch {v : ball-depth r inside}: erode the margin by r."""
        if r < 0:
            raise ValueError("depth must be >= 0")
        return self

    def diameter(self):
        """Vertex-set diameter: finite only for thick paths."""
        return inf

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p}


@dataclass(frozen=True)
class DataclassFull(DataclassShape):
    p: int
    kind = "full"

    def margin(self, v: Vertex):
        return inf


@dataclass(frozen=True)
class DataclassEmpty(DataclassShape):
    p: int
    kind = "empty"

    def margin(self, v: Vertex):
        return -inf

    def diameter(self):
        return -inf


class DataclassThick(DataclassShape):
    """The kinds made of the vertices within t of a core."""

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("thickness must be >= 0")

    @property
    def thickness(self) -> int:
        return self.t

    def deepen(self, r: int) -> DataclassShape:
        if r <= 0:
            return super().deepen(r)
        return replace(self, t=self.t - r) if r <= self.t else DataclassEmpty(self.p)

    def to_json(self) -> dict:
        return {**super().to_json(), "thickness": self.t}


class DataclassBased(DataclassShape):
    """The kinds built on the ray from `base` toward the boundary line `end`."""

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def anchor(self) -> Vertex:
        return self.base

    @property
    def rational_ends(self) -> frozenset[End]:
        return frozenset([self.end])

    def to_json(self) -> dict:
        base, end = self.base.to_json(), self.end.to_json()
        return {**super().to_json(), "base": base, "end": end}


@dataclass(frozen=True)
class DataclassThickPath(DataclassThick):
    """Vertices within t of a finite path (path listed in canonical order)."""

    path: tuple[Vertex, ...]
    t: int
    kind = "thick_path"

    def __post_init__(self):
        if not self.path:
            raise ValueError("thick path needs at least one vertex")
        super().__post_init__()
        for u, w in zip(self.path, self.path[1:]):
            if distance(u, w) != 1:
                raise ValueError("path vertices must be consecutive neighbors")
        if self.path[0] > self.path[-1]:
            object.__setattr__(self, "path", tuple(reversed(self.path)))

    @property
    def p(self) -> int:
        return self.path[0].p

    @property
    def level(self) -> int:
        return len(self.path) - 1

    @property
    def anchor(self) -> Vertex:
        return self.path[0]

    def margin(self, v: Vertex):
        return self.t - min(distance(v, x) for x in self.path)

    def diameter(self):
        return self.level + 2 * self.t

    def to_json(self) -> dict:
        path = [v.to_json() for v in self.path]
        return {**super().to_json(), "path": path, "level": self.level}


@dataclass(frozen=True)
class DataclassThickRay(DataclassThick, DataclassBased):
    """Vertices within t of the ray from base toward one boundary line."""

    base: Vertex
    end: End
    t: int
    kind = "thick_ray"

    def margin(self, v: Vertex):
        return self.t - dist_to_ray(v, self.base, self.end)


@dataclass(frozen=True, eq=False)
class DataclassThickApartment(DataclassThick):
    """Vertices within t of the axis of a split semisimple witness.

    `ends` is the sorted pair of rational boundary lines when the witness
    has rational eigenvalues, and None when the eigenvalues are irrational
    (then only the witness pins the axis down, and equality of shapes is
    decided by whether the witnesses commute).  `axis_margin` is the value
    of mu(witness, .) on the axis and `anchor` is a vertex on the axis.
    """

    p: int
    ends: tuple[End, End] | None
    t: int
    witness: Mat2 = dc_field(repr=False)
    axis_margin: int = dc_field(repr=False)
    anchor: Vertex = dc_field(repr=False)
    kind = "thick_apartment"

    def __post_init__(self):
        super().__post_init__()
        if self.ends is not None and tuple(sorted(self.ends)) != self.ends:
            object.__setattr__(self, "ends", tuple(sorted(self.ends)))

    def __eq__(self, other):
        if not isinstance(other, DataclassThickApartment):
            return NotImplemented
        if self.p != other.p or self.t != other.t:
            return False
        if (self.ends is None) != (other.ends is None):
            return False
        if self.ends is not None:
            return self.ends == other.ends
        return commute(self.witness, other.witness)

    def __hash__(self):
        return hash((self.p, self.ends, self.t))

    @property
    def rational_ends(self) -> frozenset[End]:
        return frozenset(self.ends or ())

    def margin(self, v: Vertex):
        return self.t - (self.axis_margin - mu_margin(self.witness, v))

    def to_json(self) -> dict:
        ends = None if self.ends is None else [e.to_json() for e in self.ends]
        return {**super().to_json(), "ends": ends, "anchor": self.anchor.to_json()}


@dataclass(frozen=True)
class DataclassFan(DataclassBased):
    """A horoball: vertices whose slack toward one boundary line is >= 0.

    The base is canonical (the zero-slack vertex reached by a deterministic
    walk from the standard vertex), so structural equality is set equality.
    """

    base: Vertex
    end: End
    kind = "fan"

    def margin(self, v: Vertex):
        return fan_slack(self.base, self.end, v)

    def deepen(self, r: int) -> DataclassShape:
        if r <= 0:
            return super().deepen(r)
        return canonical_fan(self.p, self.end, lambda v: self.margin(v) - r)


@dataclass(frozen=True, order=True)
class DataclassQForm:
    """Primitive integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1


@dataclass(frozen=True)
class DataclassClassGroup:
    """The form class group of a fundamental discriminant.

    For disc > 0 this is the narrow class group (proper equivalence of
    forms).  `reps` lists one canonical representative per class, sorted.
    """

    disc: int
    reps: tuple[QForm, ...]

    @property
    def order(self) -> int:
        return len(self.reps)

    @property
    def identity(self) -> QForm:
        return class_rep(principal_form(self.disc), self.disc)

    def op(self, f: QForm, g: QForm) -> QForm:
        return class_rep(compose(f, g), self.disc)

    def inverse(self, f: QForm) -> QForm:
        return class_rep(DataclassQForm(f.a, -f.b, f.c), self.disc)


@dataclass(frozen=True, order=True)
class DataclassPrimeIdeal:
    """A finite place: the prime below, its splitting type, and — at split
    primes — which of the two branches (selector 1 or 2) this place is."""

    p: int
    selector: int  # 0 unless split, else 1 or 2
    tag: str  # "rational" | "inert" | "ramified" | "split"

    def key(self) -> str:
        if self.selector:
            return f"{self.p}.{self.selector}"
        return str(self.p)


@dataclass(frozen=True)
class DataclassBaseField:
    """Q (m is None) or the quadratic field Q(sqrt(m)), m squarefree."""

    m: int | None

    @staticmethod
    def rationals() -> "DataclassBaseField":
        return DataclassBaseField(None)

    @staticmethod
    def quadratic(m: int) -> "DataclassBaseField":
        if m in (0, 1) or not is_squarefree(m):
            raise ValueError("radicand must be squarefree and not 0 or 1")
        return DataclassBaseField(m)

    @property
    def is_rational(self) -> bool:
        return self.m is None

    @property
    def discriminant(self) -> int:
        """The field discriminant, in closed form (`quadratic` checked m)."""
        if self.m is None:
            return 1
        return self.m if self.m % 4 == 1 else 4 * self.m

    def real_place_keys(self) -> tuple[str, ...]:
        if self.m is None:
            return ("inf",)
        return ("inf1", "inf2") if self.m > 0 else ()

    def places_over(self, p: int) -> tuple[DataclassPrimeIdeal, ...]:
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
        if self.m is None:
            return (DataclassPrimeIdeal(p, 0, "rational"),)
        sym = kronecker_at(self.discriminant, p)
        if sym == 0:
            return (DataclassPrimeIdeal(p, 0, "ramified"),)
        if sym == -1:
            return (DataclassPrimeIdeal(p, 0, "inert"),)
        return (
            DataclassPrimeIdeal(p, 1, "split"), DataclassPrimeIdeal(p, 2, "split")
        )


@dataclass(frozen=True)
class DataclassRayClassGroup:
    """Narrow ray class group of conductor = a set of real places."""

    field: BaseField
    modulus: tuple[str, ...]
    order: int

    @property
    def wide(self) -> bool:
        """Does the modulus drop a real place?"""
        return len(self.modulus) < len(self.field.real_place_keys())


@dataclass(frozen=True)
class DataclassQuatAlgebra:
    """A quaternion algebra over the base field, given by its ramified
    places (finite prime ideals and real place keys); the set must have
    even size."""

    field: BaseField
    finite: tuple[PrimeIdeal, ...] = ()
    real: tuple[str, ...] = ()

    @staticmethod
    def of(field: BaseField, finite=(), real=()) -> "DataclassQuatAlgebra":
        fin = tuple(sorted(set(finite)))
        re = tuple(sorted(set(real)))
        for key in re:
            if key not in field.real_place_keys():
                raise ValueError(f"{key!r} is not a real place of this field")
        if (len(fin) + len(re)) % 2:
            raise ValueError("a ramification set must have even size")
        return DataclassQuatAlgebra(field, fin, re)

    @property
    def is_split_everywhere(self) -> bool:
        return not self.finite and not self.real


@dataclass(frozen=True)
class DataclassGenus:
    """Eichler-type genus data: per-place level exponents and the shift
    ideal exponents (the r in O + p^r * intersection)."""

    level: tuple[tuple[PrimeIdeal, int], ...] = ()
    shift: tuple[tuple[PrimeIdeal, int], ...] = ()

    @staticmethod
    def of(level=None, shift=None) -> "DataclassGenus":
        return DataclassGenus(_normalize_ideal_map(level), _normalize_ideal_map(shift))

    @cached_property
    def _levels(self) -> dict:
        return dict(self.level)

    @cached_property
    def _shifts(self) -> dict:
        return dict(self.shift)

    def level_at(self, place: PrimeIdeal) -> int:
        return self._levels.get(place, 0)

    def shift_at(self, place: PrimeIdeal) -> int:
        return self._shifts.get(place, 0)

    def support(self) -> tuple[PrimeIdeal, ...]:
        return tuple(sorted({p for p, _ in self.level} | {p for p, _ in self.shift}))


@dataclass(frozen=True)
class DataclassSigmaField:
    """The spinor class field of a genus: the ray class group it is a
    quotient of, its degree over the base field, and the finite places
    whose Frobenius classes are forced to die."""

    ray: RayClassGroup
    degree: int
    forced: tuple[PrimeIdeal, ...]

    @property
    def group_order(self) -> int:
        return self.ray.order

    @property
    def forced_split(self) -> tuple[str, ...]:
        return tuple(p.key() for p in self.forced)


@dataclass(frozen=True)
class DataclassRepField:
    """Representation field of a suborder genus: its degree over the base
    field, the ambient spinor class field, and the places whose conditions
    push the field down (strict/unbalanced places)."""

    degree: int
    sigma: SigmaField
    strict_places: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Local square classes, one body per kind of place
#
# `is_local_square` and `is_unramified_or_split` as they were before the one
# square-class rule of `qlat.global_classfield` replaced them, with their
# residue and dyadic helpers, verbatim.  `is_local_square_rat` resolves to
# the Fraction version above, and `val_at_place`, `_split_embed` and
# `reduce_mod_ppow` to the Fraction versions below; `fe`, `fe_pow` and
# `fe_sub` come from `tests/helpers.py`, and the rest from
# `qlat.global_classfield`.


def _fp2_pow(a0: int, a1: int, e: int, p: int, mbar: int) -> tuple[int, int]:
    """(a0 + a1*s)^e in F_p[s]/(s^2 - mbar)."""
    r0, r1 = 1, 0
    while e:
        if e & 1:
            r0, r1 = (r0 * a0 + r1 * a1 * mbar) % p, (r0 * a1 + r1 * a0) % p
        a0, a1 = (a0 * a0 + a1 * a1 * mbar) % p, 2 * a0 * a1 % p
        e >>= 1
    return r0, r1


def _dyadic_ram_unit(field: BaseField, el: FE, v: int) -> FE:
    """el / pi^v at the ramified dyadic place (v = val_at_place(el), even)."""
    m = field.m
    if m % 4 == 2:  # pi = sqrt(m), pi^2 = m
        s = Fraction(m) ** (v // 2)
        return (el[0] / s, el[1] / s)
    return fe_mul(el, fe_pow(fe(1, 1), -v, m), m)  # pi = 1 + sqrt(m)


def _omega_basis_mod(field: BaseField, u: FE, e: int) -> tuple[int, int]:
    """Coordinates of u in the (1, omega) basis modulo 2^e, for m = 1 mod 4
    (omega = (1 + sqrt(m))/2): u = A + B*omega with A = x - y, B = 2y."""
    a = reduce_mod_ppow(u[0] - u[1], 2, e)
    b = reduce_mod_ppow(2 * u[1], 2, e)
    return int(a), int(b)


def _inert_dyadic_square_search(field: BaseField, u: FE, modexp: int) -> bool:
    """Is the unit u a square of O/2^modexp at the inert dyadic place?"""
    m = field.m
    au, bu = _omega_basis_mod(field, u, modexp)
    mod = 1 << modexp
    c = (m - 1) // 4
    for a in range(mod):
        for b in range(mod):
            if (a * a + b * b * c - au) % mod == 0 and (2 * a * b + b * b - bu) % mod == 0:
                return True
    return False


def _ram_dyadic_square_search(
    field: BaseField, u: FE, place: PrimeIdeal, threshold: int
) -> bool:
    """Is u congruent to a square below the given pi-adic threshold?"""
    m = field.m
    for a in range(8):
        for b in range(8):
            x2 = (Fraction(a * a + m * b * b), Fraction(2 * a * b))
            if val_at_place(field, fe_sub(x2, u), place) >= threshold:
                return True
    return False


def is_local_square(field: BaseField, el: FE, place: PrimeIdeal) -> bool:
    """Is the nonzero element el a square in the completion at the place?"""
    if fe_is_zero(el):
        raise ZeroDivisionError("square class of zero")
    p = place.p
    if place.tag == "rational":
        return is_local_square_rat(el[0], p)
    m = field.m
    if place.tag == "split":
        w, prec, k = _split_embed(field, el, place)
        vw = int(valuation(w, p))
        if (vw - k) % 2:
            return False
        u = w // p**vw % p ** (prec - vw)
        if p == 2:
            return u % 8 == 1
        return legendre(u, p) == 1
    v = val_at_place(field, el, place)
    if v % 2:
        return False
    if place.tag == "inert":
        u = (el[0] / Fraction(p) ** v, el[1] / Fraction(p) ** v)
        if p != 2:
            xr = int(reduce_mod_ppow(u[0], p, 1))
            yr = int(reduce_mod_ppow(u[1], p, 1))
            return _fp2_pow(xr, yr, (p * p - 1) // 2, p, m % p) == (1, 0)
        return _inert_dyadic_square_search(field, u, 3)
    # ramified
    if p != 2:
        u0 = el[0] / Fraction(m) ** (v // 2)
        return legendre(int(reduce_mod_ppow(u0, p, 1)), p) == 1
    u = _dyadic_ram_unit(field, el, v)
    return _ram_dyadic_square_search(field, u, place, 5)


def is_unramified_or_split(field: BaseField, el: FE, place: PrimeIdeal) -> bool:
    """Is K_place(sqrt(el)) unramified (possibly split) over the completion?

    At odd residue characteristic this is just evenness of the valuation;
    at dyadic places the unit part must additionally be a square modulo 4.
    """
    if fe_is_zero(el):
        raise ZeroDivisionError("square class of zero")
    p = place.p
    v = val_at_place(field, el, place)
    if v % 2:
        return False
    if p != 2:
        return True
    if place.tag == "rational":
        u = el[0] / Fraction(2) ** v
        return int(reduce_mod_ppow(u, 2, 2)) == 1
    if place.tag == "split":
        w, _, _ = _split_embed(field, el, place)
        vw = int(valuation(w, 2))
        return w // 2**vw % 4 == 1
    if place.tag == "inert":
        u = (el[0] / Fraction(2) ** v, el[1] / Fraction(2) ** v)
        return _inert_dyadic_square_search(field, u, 2)
    u = _dyadic_ram_unit(field, el, v)
    return _ram_dyadic_square_search(field, u, place, 4)


# ---------------------------------------------------------------------------
# The Fraction global layer
#
# `val_at_place`, `_split_embed`, `fe_is_square` and `_fraction_sqrt` of
# `qlat.global_classfield` as they were before each entry point took its
# element to one integral representative of its square class, with the
# case analysis of `sign_at_real` that one comparison replaced, and
# `reduce_mod_ppow` and `is_rational_square` of `qlat.exact_padic`,
# verbatim; `valuation` is still `exact_padic.valuation`.


def reduce_mod_ppow(x, p: int, e: int) -> Fraction:
    """Canonical representative of x modulo p^e * Z_(p).

    The representative lies in Z[1/p] and in [0, p^e); it is 0 exactly when
    v_p(x) >= e.  Denominators prime to p are inverted modulo the relevant
    power of p, so the result differs from x by an element of p^e * Z_(p).
    """
    x = Fraction(x)
    if valuation(x, p) >= e:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    s = 0
    while d % p == 0:
        d //= p
        s += 1
    mod = p ** (e + s)  # e + s >= 1 whenever v_p(x) < e
    r = n * pow(d, -1, mod) % mod
    return Fraction(r, p**s)


def is_rational_square(x) -> bool:
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    return rn * rn == n and rd * rd == d


def _fraction_sqrt(x: Fraction) -> Fraction:
    from math import isqrt

    return Fraction(isqrt(x.numerator), isqrt(x.denominator))


def _split_embed(field: BaseField, el: FE, place: PrimeIdeal) -> tuple[int, int, int]:
    """Image of p^k * el in Z/p^prec under the split-place embedding.

    Returns (w, prec, k) with w nonzero mod p^prec and k the power of p
    used to clear denominators, so v_place(el) = v_p(w) - k.
    """
    p, m = place.p, field.m
    x, y = el
    k = max(0, -min(valuation(x, p), valuation(y, p)))
    if k:
        x, y = x * p**k, y * p**k
    n = x * x - m * y * y
    prec = int(valuation(n, p)) + 5
    rho = hensel_sqrt(m, p, prec)
    mod = p**prec
    if place.selector == 2:
        rho = (-rho) % mod
    w = (int(reduce_mod_ppow(x, p, prec)) + int(reduce_mod_ppow(y, p, prec)) * rho) % mod
    assert w != 0, "split embedding lost all precision"
    return w, prec, k


def val_at_place(field: BaseField, el: FE, place: PrimeIdeal):
    """Normalized valuation of el at the place (uniformizer has value 1);
    +infinity for zero."""
    if fe_is_zero(el):
        return inf
    p = place.p
    x, y = el
    if place.tag == "rational":
        return valuation(x, p)
    m = field.m
    if place.tag == "inert":
        v = valuation(fe_norm(el, m), p)
        assert v % 2 == 0
        return v // 2
    if place.tag == "ramified":
        if p != 2:
            return valuation(fe_norm(el, m), p)
        if m % 4 == 2:
            return min(2 * valuation(x, 2), 2 * valuation(y, 2) + 1)
        # m = 3 mod 4: write el = (x - y) + y * (1 + sqrt(m))
        return min(2 * valuation(x - y, 2), 2 * valuation(y, 2) + 1)
    w, _, k = _split_embed(field, el, place)
    return valuation(w, p) - k


def fe_is_square(field: BaseField, el: FE) -> bool:
    """Is el a square already in the base field (globally)?"""
    x, y = el
    if field.is_rational:
        return is_rational_square(x)
    m = field.m
    if y == 0:
        return is_rational_square(x) or is_rational_square(x / m)
    n = fe_norm(el, m)
    if not is_rational_square(n):
        return False
    r = _fraction_sqrt(n)
    for rr in (r, -r):
        cand = (x + rr) / 2
        if cand != 0 and is_rational_square(cand):
            s = _fraction_sqrt(cand)
            t = y / (2 * s)
            if s * s + m * t * t == x and 2 * s * t == y:
                return True
    return False


def sign_at_real(field: BaseField, el: FE, key: str) -> int:
    """Sign of el under the real embedding named by key (exact)."""
    if fe_is_zero(el):
        raise ZeroDivisionError("sign of zero")
    if key not in field.real_place_keys():
        raise ValueError(f"{key!r} is not a real place of this field")
    x, y = el
    if field.is_rational:
        return 1 if x > 0 else -1
    if key == "inf2":
        y = -y
    m = field.m
    if y == 0:
        return 1 if x > 0 else -1
    if x == 0:
        return 1 if y > 0 else -1
    if x > 0 and y > 0:
        return 1
    if x < 0 and y < 0:
        return -1
    n = x * x - m * y * y  # compare |x| against |y|*sqrt(m)
    if x > 0:  # y < 0: positive iff x outweighs
        return 1 if n > 0 else -1
    return 1 if n < 0 else -1


# ---------------------------------------------------------------------------
# Containment in the spinor class field, place by place
#
# `_quadratic_in_sigma` of `qlat.global_classfield` as it was before the
# genus characters replaced it, verbatim.  `is_unramified_or_split`,
# `is_local_square` and `sign_at_real` resolve to the per-place and case
# analysis versions above, which the tests check against the package.


def _quadratic_in_sigma(
    field: BaseField, algebra: QuatAlgebra, sigma: SigmaField, delta: FE, dens
) -> bool:
    """Is K(sqrt(delta)) contained in the spinor class field?  delta is
    integral: the given element times d^2, d = lcm of its denominators dens."""
    # (a) unramified at every finite place.  Any place where the given
    # element has a nonzero valuation divides its norm's numerator or
    # denominator or a coordinate denominator, so this candidate set is
    # exhaustive (dyadic places always included); d itself is not factored.
    d = lcm(*dens)
    if field.is_rational:
        n, q = delta[0], d * d
    else:
        n, q = fe_norm(delta, field.m), d**4
    g = gcd(n, q)
    cand = {2, *prime_divisors(field.discriminant)}
    for k in (n // g, q // g, *dens):
        cand.update(prime_divisors(k))
    for p in sorted(cand):
        for place in field.places_over(p):
            if not is_unramified_or_split(field, delta, place):
                return False
    # (b) split at every real place where the algebra is split.
    for key in field.real_place_keys():
        if key not in algebra.real and sign_at_real(field, delta, key) < 0:
            return False
    # (c) the forced classes must split in K(sqrt(delta)).  After (a) the
    # extension is unramified at these places, so splitting is exactly the
    # local square condition.
    for place in sigma.forced:
        if not is_local_square(field, delta, place):
            return False
    return True


# ---------------------------------------------------------------------------
# Square roots modulo p^prec, one dyadic bit per step
#
# `hensel_sqrt` of `qlat.global_classfield` before the dyadic branch lifted
# by Newton steps, verbatim; `sqrt_mod` resolves to the residue search above.


def bitwise_hensel_sqrt(m: int, p: int, prec: int) -> int:
    """Canonical square root of m modulo p^prec.

    Requires m to be a unit square locally (odd p: nonzero QR mod p;
    p = 2: m = 1 mod 8).  The branch is pinned deterministically: odd p
    lifts the smaller of the two residue roots, p = 2 lifts the dyadic
    root congruent to 1 mod 4.  Truncations are compatible across prec.
    """
    prec = max(prec, 1)
    if p == 2:
        if m % 8 != 1:
            raise ValueError("dyadic square root requires m = 1 mod 8")
        # refine one step past prec: the adjustment at stage k touches bit
        # k - 1, so stopping at k = prec would leave bit prec - 1 unsettled
        # and truncations would disagree with higher-precision calls
        r, k = 1, 3
        while k <= prec:
            if (r * r - m) % (1 << (k + 1)):
                r += 1 << (k - 1)
            k += 1
        return r % (1 << prec)
    r0 = sqrt_mod(m % p, p)
    if r0 is None or r0 == 0:
        raise ValueError(f"{m} is not a unit square modulo {p}")
    r = min(r0, p - r0)
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        mod = p**k
        r = (r + m * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    return r


# ---------------------------------------------------------------------------
# The branch engine on neighbor scans
#
# `_climb`, `_neighbor_scanner`, `_resolve_shared_end`, `_bounded_intersection`,
# `intersect_shapes` and `enumerate_branch` of `qlat.branches` before one
# margin climb and one level walk replaced their loops, verbatim, renamed:
# `eigenline_climb`, `neighbor_scanner` and the prefixes "scanned_" and
# "climbed_".  Several qlat helpers share their names with the slow oracles
# above, so every qlat function they call is read through its module.


def eigenline_climb(a, start: Vertex, ceiling=None) -> tuple[Vertex, int]:
    """Greedy margin ascent of a from start: (summit, margin)."""
    cur = start
    m = branches.mu_margin(a, cur)
    while ceiling is None or m < ceiling:
        better = [
            n for n in branches._level_neighbors(a, cur.p)(cur, m)
            if branches.mu_margin(a, n) > m
        ]
        if not better:
            break
        cur = min(better)
        m += 1
        assert branches.mu_margin(a, cur) == m
    return cur, m


def _reach(s1: Shape, s2: Shape) -> int:
    """Anchor distance plus both thicknesses: a scale for the engine's walks."""
    return bt_tree.distance(s1.anchor, s2.anchor) + s1.thickness + s2.thickness


def _is_scalar(a) -> bool:
    _, al, be, ga, de = a
    return be == 0 and ga == 0 and al == de


def neighbor_scanner(max_vertices=None):
    """`neighbors`, charging each scan's p+1 vertices to the vertex budget;
    a scan that would pass the budget raises BudgetExceeded instead."""
    budget = bt_tree.vertex_budget(max_vertices)
    spent = 0

    def scan(v: Vertex) -> tuple[Vertex, ...]:
        nonlocal spent
        spent += v.p + 1
        if spent > budget:
            raise BudgetExceeded(
                f"neighbor scans exceeded budget of {budget} vertices"
            )
        return bt_tree.neighbors(v)

    return scan


def scanned_resolve_shared_end(
    s1: Shape, s2: Shape, end: End, max_vertices=None
) -> Shape:
    """Intersection of two shapes sharing exactly one boundary line.

    Asymptotically toward the shared line the joint margin stabilizes at
    t* = min of the non-horoball thicknesses; the result is the thick ray of
    thickness t* based at the farthest-back spine vertex still attaining t*.
    """
    t_star = min(s.t for s in (s1, s2) if not isinstance(s, Fan))
    scan = neighbor_scanner(max_vertices)

    def sigma(v: Vertex):
        return min(branches.shape_margin(s1, v), branches.shape_margin(s2, v))

    far = _reach(s1, s2) + 8
    cur = bt_tree.walk_toward_end(s1.anchor, end, far)
    if sigma(cur) != t_star:
        cur = bt_tree.walk_toward_end(cur, end, far)
        if sigma(cur) != t_star:
            raise InfiniteUnsupported(s1, s2, "shared-line margin failed to settle")
    steps = 0
    while True:
        toward = bt_tree.step_toward_end(cur, end)
        back = [n for n in scan(cur) if n != toward and sigma(n) == t_star]
        if not back:
            break
        cur = min(back)
        steps += 1
        if steps > 2 * far + 8:
            raise InfiniteUnsupported(s1, s2, "shared-line spine failed to terminate")
    return ThickRay(cur, end, t_star)


def scanned_bounded_intersection(s1: Shape, s2: Shape, max_vertices=None) -> Shape:
    """Intersection when no boundary line is shared, hence a bounded set.

    The joint margin sigma = min of the two margins is concave and
    1-Lipschitz, so (a) greedy ascent reaches the global summit, and (b) the
    distance from any vertex to the summit plateau is exactly the margin
    drop, which makes the intersection the thick path around the plateau.
    """
    scan = neighbor_scanner(max_vertices)

    def sigma(v: Vertex):
        return min(branches.shape_margin(s1, v), branches.shape_margin(s2, v))

    cap = _reach(s1, s2) + 64
    cur = s1.anchor
    val = sigma(cur)
    steps = 0
    while True:
        better = [n for n in scan(cur) if sigma(n) > val]
        if not better:
            break
        cur = min(better)
        val += 1
        assert sigma(cur) == val
        steps += 1
        if steps > cap:
            raise InfiniteUnsupported(s1, s2, "margin ascent failed to terminate")
    if val < 0:
        return Empty(s1.p)

    plateau = {cur}
    frontier = [cur]
    while frontier:
        nxt = []
        for u in frontier:
            for n in scan(u):
                if n not in plateau and sigma(n) == val:
                    plateau.add(n)
                    nxt.append(n)
        frontier = nxt

    if len(plateau) == 1:
        return ThickPath((cur,), val)
    deg = {u: sum(1 for n in scan(u) if n in plateau) for u in plateau}
    tips = sorted(u for u, k in deg.items() if k == 1)
    if any(k > 2 for k in deg.values()) or len(tips) != 2:
        raise InfiniteUnsupported(s1, s2, "summit plateau is not a path")
    path = [tips[0]]
    prev = None
    while path[-1] != tips[1]:
        nxt = next(n for n in scan(path[-1]) if n in plateau and n != prev)
        prev = path[-1]
        path.append(nxt)
    return ThickPath(tuple(path), val)


def scanned_intersect_shapes(s1: Shape, s2: Shape, max_vertices=None) -> Shape:
    """Exact intersection of two branch shapes, again a branch shape."""
    if s1.p != s2.p:
        raise ValueError("shapes live on trees of different primes")
    p = s1.p
    if isinstance(s1, Empty) or isinstance(s2, Empty):
        return Empty(p)
    if isinstance(s1, Full):
        return s2
    if isinstance(s2, Full):
        return s1

    if (
        isinstance(s1, ThickApartment)
        and isinstance(s2, ThickApartment)
        and commute(s1.witness, s2.witness)
    ):
        return s1 if s1.t <= s2.t else s2

    shared = s1.rational_ends & s2.rational_ends
    if shared:
        assert len(shared) == 1, "two shared lines imply a common axis"
        end = next(iter(shared))
        if isinstance(s1, Fan) and isinstance(s2, Fan):
            # Horoballs around the same line are nested.
            return s1 if s2.margin(s1.base) >= 0 else s2
        return scanned_resolve_shared_end(s1, s2, end, max_vertices)

    return scanned_bounded_intersection(s1, s2, max_vertices)


def climbed_enumerate_branch(
    order: LocalOrder, r: int, center: Vertex, radius: int, max_vertices=None
) -> frozenset[Vertex]:
    """The depth-r branch vertices within `radius` of `center` (exact there).

    The branch and the ball are subtrees, so their intersection is connected
    and a breadth-first search from one member, expanding members inside
    the ball, finds all of it.  The member is found by climbing sigma(v) =
    min over the non-scalar basis of mu_margin(b, v) - r: each set
    {mu(b, .) >= r} is a subtree whose distance from v outside it is
    r - mu(b, v), and on a tree the distance to an intersection of subtrees
    is the largest distance to one of them.  So sigma(center) is minus the
    distance to the branch, each greedy step raises it by exactly 1, and a
    branch within `radius` is met in at most `radius` steps.  An order of
    scalars only has a full (or empty) branch and keeps the ball filter.
    The basis is the integer `Mat2`s of the order's module rows.
    """
    bt_tree.check_ball_budget(center.p, radius, max_vertices)
    r = max(r, 0)
    basis = order.closure.basis
    margins = [b for b in basis if not _is_scalar(b)]

    def member(v: Vertex) -> bool:
        return all(local_orders.contains_shifted(v, b, r) for b in basis)

    def filtered() -> frozenset[Vertex]:
        return frozenset(filter(member, bt_tree.ball(center, radius, max_vertices)))

    if not margins:
        return filtered()

    def sigma(v: Vertex):
        return min(branches.mu_margin(b, v) for b in margins) - r

    seed, s = center, sigma(center)
    for _ in range(radius):
        if s >= 0:
            break
        seed = next(
            (n for n in bt_tree.iter_neighbors(seed) if sigma(n) > s), None
        )
        if seed is None:  # a summit below 0: the branch is empty
            return frozenset()
        s += 1
    if s < 0:
        return frozenset()
    if not member(seed):  # sigma >= 0 certifies membership; stay exact anyway
        return filtered()
    # Along a geodesic between two vertices of the ball the distance to the
    # centre is convex and changes by 1 per step, so only its ends can sit
    # on the ball's edge: members there, but the seed, are not expanded.
    found = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for u in frontier:
            for n in bt_tree.neighbors(u):
                if n in found or (d := bt_tree.distance(center, n)) > radius:
                    continue
                if member(n):
                    found.add(n)
                    if d < radius:
                        nxt.append(n)
        frontier = nxt
    return frozenset(found)


# ---------------------------------------------------------------------------
# The branch engine with two membership tests
#
# `branch_of_order` and `enumerate_branch` of `qlat.branches` before the
# branch was read as {sigma >= 0} alone, verbatim, renamed with the prefixes
# "interleaved_" (each row is classified after the rows before it are
# intersected, scalars skipped) and "shifted_" (membership by
# `contains_shifted`, the ball filter for orders of scalars only and as a
# fallback).  Every qlat function they call is read through its module.


def interleaved_branch_of_order(order: LocalOrder, max_vertices=None) -> Shape:
    """Shape of {v : order contained in D_v}: fold intersections over the
    basis, the integer `Mat2`s of the order's module rows."""
    shape: Shape = Full(order.p)
    for b in order.closure.basis:
        if not _is_scalar(b):
            shape = branches.intersect_shapes(
                shape, branches.classify_single(b, order.p), max_vertices
            )
    return shape


def shifted_enumerate_branch(
    order: LocalOrder, r: int, center: Vertex, radius: int, max_vertices=None
) -> frozenset[Vertex]:
    """The depth-r branch vertices within `radius` of `center` (exact there).

    The branch and the ball are subtrees, so their intersection is connected
    and a breadth-first search from one member, expanding members inside
    the ball, finds all of it.  The member is found by climbing sigma(v) =
    min over the non-scalar basis of mu_margin(b, v) - r: each set
    {mu(b, .) >= r} is a subtree whose distance from v outside it is
    r - mu(b, v), and on a tree the distance to an intersection of subtrees
    is the largest distance to one of them.  So sigma(center) is minus the
    distance to the branch: below -radius the branch misses the ball, and
    otherwise the climb to 0 meets it in at most `radius` steps.  An order of
    scalars only has a full (or empty) branch and keeps the ball filter.
    The basis is the integer `Mat2`s of the order's module rows.
    """
    bt_tree.check_ball_budget(center.p, radius, max_vertices)
    r = max(r, 0)
    basis = order.closure.basis
    margins = [b for b in basis if not _is_scalar(b)]

    def member(v: Vertex) -> bool:
        return all(local_orders.contains_shifted(v, b, r) for b in basis)

    def filtered() -> frozenset[Vertex]:
        return frozenset(filter(member, bt_tree.ball(center, radius, max_vertices)))

    if not margins:
        return filtered()

    def sigma(v: Vertex):
        return min(branches.mu_margin(b, v) for b in margins) - r

    m = sigma(center)
    if m < -radius:  # the branch is farther than radius
        return frozenset()
    steps = lambda v, m: bt_tree.iter_neighbors(v)  # noqa: E731
    seed, s, _ = branches._climb(sigma, steps, center, m, 0)
    if s < 0:  # a summit below 0: the branch is empty
        return frozenset()
    if not member(seed):  # sigma >= 0 certifies membership; stay exact anyway
        return filtered()
    # Along a geodesic between two vertices of the ball the distance to the
    # centre is convex and changes by 1 per step, so only its ends can sit
    # on the ball's edge: members there, but the seed, are not expanded.  A
    # ball of radius 0 is its centre, the seed: its p + 1 neighbors are not
    # built.
    found = {seed}
    frontier = [seed] if radius else []
    while frontier:
        nxt = []
        for u in frontier:
            for n in bt_tree.neighbors(u):
                if n in found or (d := bt_tree.distance(center, n)) > radius:
                    continue
                if member(n):
                    found.add(n)
                    if d < radius:
                        nxt.append(n)
        frontier = nxt
    return frozenset(found)


# ---------------------------------------------------------------------------
# Margins read vertex by vertex
#
# `mu_margin` of `qlat.branches`, `busemann` and `dist_to_ray` of
# `qlat.bt_tree`, `fan_slack` of `qlat.branches`, and the `margin` bodies of
# the four shape kinds, before each shape bound its margin once per walk,
# verbatim, renamed with the prefix "valued_" (the shape margins as
# functions of the shape).  Every qlat function they call is read through
# its module.


def valued_mu_margin(a, v: Vertex):
    """Largest r with a in Z_(p) + p^r * D_v (may be negative or infinite).

    a is a matrix or an integer 5-tuple (den, al, be, ga, de), that is
    a = [[al, be], [ga, de]] / den; a factor common to all five leaves the
    margin unchanged.  The conjugate m = g^-1 a g by the basis
    g = [[p^(v.a), c], [0, q]] of v, q = p^(v.b), has

        m01 = (be q^2 + (al - de) c q - ga c^2) / (den p^(v.a + v.b)),
        m10 = ga p^(v.a - v.b) / den,
        m00 - m11 = ((al - de) q - 2 ga c) / (den q),

    so the margin is a minimum of three integer valuations.
    """
    den, al, be, ga, de = a
    p, c = v.p, v.c
    q = p**v.b
    d = al - de
    return min(
        int_valuation(be * q * q + d * c * q - ga * c * c, p) - v.a - v.b,
        int_valuation(ga, p) + v.a - v.b,
        int_valuation(d * q - 2 * ga * c, p) - v.b,
    ) - int_valuation(den, p)


def valued_busemann(v: Vertex, end: End) -> int:
    """Busemann function toward end: n - 2 min(n, v(x - z)), or n toward oo.

    It drops by 1 along each step toward the end and rises by 1 along
    every other edge.
    """
    n = v.a - v.b
    if not end.y:
        return n
    p = v.p
    e = int_valuation(end.y, p)
    # x - z = -num / (end.y p^b), so min(n, v(x - z)) = min(a + e, v(num)) - b - e
    num = end.x * p**v.b - v.c * end.y
    return n - 2 * (min(int_valuation(num, p), v.a + e) - v.b - e)


def valued_dist_to_ray(v: Vertex, base: Vertex, end: End) -> int:
    """Distance from v to the ray from base toward end."""
    return (
        bt_tree.distance(v, base) + valued_busemann(v, end) - valued_busemann(base, end)
    ) // 2


def valued_fan_slack(base: Vertex, end: End, v: Vertex) -> int:
    """Horoball slack of v relative to the zero level through base."""
    return valued_busemann(base, end) - valued_busemann(v, end)


def valued_margin(s: Shape, v: Vertex):
    """The margin of each shape kind at v, as its `margin` method read it."""
    if isinstance(s, ThickPath):
        # in a tree the distance from v to the geodesic [x, y] is
        # (d(v, x) + d(v, y) - d(x, y)) / 2
        x, y = s.path[0], s.path[-1]
        if x is y:
            return s.t - bt_tree.distance(v, x)
        return s.t - (bt_tree.distance(v, x) + bt_tree.distance(v, y) - s.level) // 2
    if isinstance(s, ThickRay):
        return s.t - valued_dist_to_ray(v, s.base, s.end)
    if isinstance(s, ThickApartment):
        return s.t - (s.axis_margin - valued_mu_margin(s.witness, v))
    if isinstance(s, Fan):
        return valued_fan_slack(s.base, s.end, v)
    return inf if isinstance(s, Full) else -inf


# ---------------------------------------------------------------------------
# The CLI entry point with every argv through argparse
#
# `qlat.cli.main` before a bare two-word argv skipped argparse, verbatim, with
# the exit-code map of `qlat.errors` that each error class's `exit_code`
# replaced.

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_RESOURCE = 3
EXIT_INFEASIBLE = 4


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code contract."""
    if isinstance(exc, SchemaError):
        return EXIT_SCHEMA
    if isinstance(exc, (ResourceLimit, InfiniteUnsupported)):
        return EXIT_RESOURCE
    if isinstance(exc, QlatError):
        return EXIT_INFEASIBLE
    raise exc


def cli_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, not kept in the cached parser: a handler rebound
    # in _HANDLERS (by a tracer, say) is the one that runs.
    handler = _HANDLERS[args.domain, args.op]
    try:
        response = handler(_read_request(args), args)
        _write_response(response, args)
    except QlatError as exc:
        _write_error(exc)
        return exit_code_for(exc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# The decoder that reads every prime through the factorizer
#
# `is_prime` and `is_squarefree` of `qlat.exact_padic` as they were when
# both read `prime_divisors`, `BaseField.places_over` and `parse_place_key`
# of `qlat.global_classfield` on top of them, and `parse_rational` and
# `parse_field_element` of `qlat.cli` when every rational became a
# `Fraction`, verbatim; the method is a function of the field here.


SIEVE_BOUND = 10**6


@cache
def smallest_prime_factors() -> array:
    """spf[n] for 0 <= n < SIEVE_BOUND: the least prime factor of n >= 2,
    and n itself for 0 and 1.  Each d from the square root down to 2 stamps
    the multiples of d from d^2 on, so the least prime divisor stamps last;
    a prime is stamped by nothing and keeps its own value."""
    spf = array("i", range(SIEVE_BOUND))
    for d in range(isqrt(SIEVE_BOUND - 1), 1, -1):
        spf[d * d :: d] = array("i", [d]) * len(range(d * d, SIEVE_BOUND, d))
    return spf


def factorizer_is_prime(n: int) -> bool:
    if n < SIEVE_BOUND:
        return n > 1 and smallest_prime_factors()[n] == n
    return next(prime_divisors(n)) == n


def factorizer_is_squarefree(m: int) -> bool:
    n = abs(m)
    if n < SIEVE_BOUND:
        spf = smallest_prime_factors()
        while n > 1:
            q = spf[n]
            n //= q
            if n % q == 0:
                return False
        return m != 0
    return all(a != b for a, b in itertools.pairwise(prime_divisors(m)))


def factorizer_places_over(self: BaseField, p: int) -> tuple[PrimeIdeal, ...]:
    if not factorizer_is_prime(p):
        raise ValueError(f"{p} is not a prime")
    if self.m is None:
        return (PrimeIdeal(p, 0, "rational"),)
    sym = kronecker_at(self.discriminant, p)
    if sym == 0:
        return (PrimeIdeal(p, 0, "ramified"),)
    if sym == -1:
        return (PrimeIdeal(p, 0, "inert"),)
    return (PrimeIdeal(p, 1, "split"), PrimeIdeal(p, 2, "split"))


def factorizer_parse_place_key(field: BaseField, key: str) -> PrimeIdeal:
    """Parse a finite place key: "p" or, at split primes, "p.1" / "p.2"."""
    parts = str(key).strip().split(".")
    try:
        p = int(parts[0])
    except ValueError:
        raise ValueError(f"bad place key {key!r}") from None
    places = factorizer_places_over(field, p)
    if len(parts) == 1:
        if len(places) == 2:
            raise ValueError(f"prime {p} splits: use '{p}.1' or '{p}.2'")
        return places[0]
    if len(parts) == 2 and parts[1] in ("1", "2"):
        if len(places) != 2:
            raise ValueError(f"prime {p} does not split in this field")
        return places[int(parts[1]) - 1]
    raise ValueError(f"bad place key {key!r}")


def fraction_parse_rational(value, path: str) -> Fraction:
    """An exact rational: an int, or a string 'a/b' (or 'a')."""
    if isinstance(value, bool):
        raise SchemaError(path, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SchemaError(
            path, f"floats are not exact; write {value!r} as an 'a/b' string"
        )
    if isinstance(value, str):
        text = value.strip()
        num, sep, den = text.partition("/")
        try:
            if sep:
                n, d = int(num), int(den)
                if d == 0:
                    raise SchemaError(path, f"zero denominator in {value!r}")
                return Fraction(n, d)
            return Fraction(int(text))
        except ValueError:
            raise SchemaError(path, f"malformed rational {value!r}") from None
    raise SchemaError(path, f"expected a rational, got {type(value).__name__}")


def fraction_parse_field_element(field: BaseField, value, path: str):
    if isinstance(value, dict):
        x = fraction_parse_rational(_require(value, "x", path), f"{path}.x")
        y = fraction_parse_rational(_require(value, "y", path), f"{path}.y")
    else:
        x, y = fraction_parse_rational(value, path), Fraction(0)
    if field.is_rational and y != 0:
        raise SchemaError(f"{path}.y", "the rational field has no irrational part")
    return (x, y)


# ---------------------------------------------------------------------------
# The commutative representation field with its local rule inline


def inline_rep_field_comm_quadratic(
    algebra: QuatAlgebra, genus: Genus, delta: FE, conductor=()
) -> RepField:
    """`rep_field_comm_quadratic` as it was when it wrote the local rule
    inline: infeasible when core + 2(t - r) < d, and unbalanced at an
    unramified place unless d is even and t = r + d/2.

    Representation field of the genus of D = O + I*D0, where D0 is the
    quadratic suborder O_K + f*O_L of L = K(sqrt(delta)) with conductor f.

    Feasibility is checked first and raises EmbeddingInfeasible; then the
    field is L exactly when L lies in the spinor class field and at every
    place inert in L the conductor depth matches shift + level/2.
    """
    field = algebra.field
    gc.validate_genus(algebra, genus)
    if gc.fe_is_zero(delta):
        raise ValueError("delta must be nonzero")
    if field.is_rational and delta[1] != 0:
        raise ValueError("delta must be rational over Q")
    delta = gc._integral(delta)
    cond = gc._normalize_ideal_map(conductor)

    # --- feasibility, checked before any class field computation ---
    for key in algebra.real:
        if gc.sign_at_real(field, delta, key) > 0:
            raise EmbeddingInfeasible(
                key, "the quadratic algebra splits at a ramified real place"
            )
    for place in algebra.finite:
        if gc.is_local_square(field, delta, place):
            raise EmbeddingInfeasible(
                place.key(), "the quadratic algebra splits at a division place"
            )
    # one local kind per place: split, unramified or (failing sigma) ramified
    support = sorted(set(genus.support()) | {p for p, _ in cond})
    unbalanced = []
    for place in support:
        if place in algebra.finite:
            continue  # any integral quadratic order embeds; no distance condition
        t = gc._map_at(cond, place)
        r = genus.shift_at(place)
        d = genus.level_at(place)
        if t < r:
            raise EmbeddingInfeasible(
                place.key(), "the conductor is shallower than the genus shift"
            )
        # a split place is embedded once, for both tests
        embedded = (
            gc._split_embed(field, delta, place) if place.tag == "split" else None
        )
        if gc.is_local_square(field, delta, place, embedded=embedded):
            continue  # split in L
        unramified = gc.is_unramified_or_split(field, delta, place, embedded=embedded)
        core = 0 if unramified else 1
        if core + 2 * (t - r) < d:
            raise EmbeddingInfeasible(
                place.key(), "the suborder branch is smaller than the genus level"
            )
        if unramified and (d % 2 == 1 or t != r + d // 2):
            unbalanced.append(place.key())

    sigma = gc.spinor_class_field(algebra, genus)
    if gc.fe_is_square(field, delta):
        return gc.RepField(1, sigma, ())  # L is not a field: K x K collapses
    in_sigma = gc._quadratic_in_sigma(sigma, delta)
    degree = 2 if in_sigma and not unbalanced else 1
    return gc.RepField(degree, sigma, tuple(unbalanced))
