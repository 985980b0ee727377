"""Orders in the algebra of 2x2 rational matrices, localized at p.

An order is a unital subring that is finitely generated as a Z_(p)-module.
`order_closure` saturates a generating set into the canonical module basis
of the generated order in closed form: by Cayley-Hamilton the order of
a_0, ..., a_(n-1) is spanned by their increasing square-free products once
every tr a_j, det a_j and tr a_i a_j is p-integral, and the first of these
that is not certifies unbounded (non-integral) input.  The
maximal orders are the lattice stabilizers: one per tree vertex.  A shifted
Eichler order is Z_(p) + p^r * E for E the intersection of the two maximal
orders at the endpoints of a path of length d, whose module is one Hermite
form of a conjugated standard Eichler basis; `decompose_shifted_eichler`
recognizes members of that family exactly, and `three_maximal_orders`
produces three maximal orders whose intersection realizes a given shifted
Eichler order.  Matrices are read as their integer fields (den, a, b, c,
d): `order_closure` takes `Mat2`s or such 5-tuples, and `contains_shifted`
tests one against a vertex with integer divisibilities.
"""

from __future__ import annotations

from collections import namedtuple

from .bt_tree import Vertex, distance, geodesic, iter_neighbors
from .errors import (
    EmptyShape,
    NotFinite,
    NotShiftedEichler,
    QlatError,
    Unbounded,
)
from .exact_padic import (
    Module4,
    int_valuation,
    integer_rows,
    module_hnf,
    module_intersect,
)


class LocalOrder(namedtuple("LocalOrder", "p generators closure")):
    """An order presented by generators plus its canonical module basis."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.closure.rank


def order_closure(gens, p: int) -> LocalOrder:
    """Saturate {1} + gens into the order they generate.

    The generators a_0, ..., a_(n-1) are read as integer matrices over one
    power q of p (see `integer_rows`).  For 2x2 matrices x^2 = tr(x) x -
    det(x) and yx = -xy + tr(x) y + tr(y) x + tr(xy) - tr(x) tr(y)
    (Cayley-Hamilton and its polarisation; Voight, Quaternion Algebras,
    GTM 288).  So every word in the generators is a combination of their
    increasing square-free products, with coefficients that are
    polynomials in the tr a_j, det a_j and tr a_i a_j.  When these are
    p-integral the order is S_n, for S_0 = Z_(p) and S_j = S_(j-1) +
    S_(j-1) a_j; when one is not, `certify_integral` raises `Unbounded`,
    as every element of an order has an integral trace and determinant.
    The span is kept as integer rows over one denominator, put in Hermite
    form before a step whenever it has more than four rows, and once at
    the end: for up to three generators that is one Hermite form, of
    span{1, a, b, ab} over q^2 for two.
    """
    gens = tuple(gens)
    mats, q = integer_rows(gens, p)
    den, rows = 1, [(1, 0, 0, 1)]
    for j, (e, f, g, h) in enumerate(mats):
        certify_integral(mats, j, q, p)
        if len(rows) > 4:
            span = module_hnf(rows, p, den)
            den, rows = span.den, span.rows
        rows = [(a * q, b * q, c * q, d * q) for a, b, c, d in rows] + [
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for a, b, c, d in rows
        ]
        den *= q
    return LocalOrder(p, gens, module_hnf(rows, p, den))


def certify_integral(mats, j: int, q: int, p: int) -> None:
    """Raise `Unbounded` unless mats[j] / q has a p-integral trace and
    determinant and each product mats[i] mats[j] / q^2, i < j, a p-integral
    trace, as every element of an order has; the mats are integer rows and
    q a power of p.  The certificate names the first that fails, in that
    order: the element ("j" or "i*j"), the invariant and its negative
    valuation."""
    a, b, c, d = mats[j]
    invariants = [
        (f"{j}", "trace", a + d, q),
        (f"{j}", "determinant", a * d - b * c, q * q),
    ]
    invariants += [
        (f"{i}*{j}", "trace", e * a + f * c + g * b + h * d, q * q)
        for i, (e, f, g, h) in enumerate(mats[:j])
    ]
    for element, invariant, x, n in invariants:
        if x % n:
            v = int_valuation(x, p) - int_valuation(n, p)
            raise Unbounded({"reason": "non-integral invariant", "element": element,
                             "invariant": invariant, "valuation": v})


def maximal_order_module(v: Vertex) -> Module4:
    """The stabilizer order of the lattice class v, as a canonical module.

    It is {m : h^-1 m h integral} for h = [[p^(a-b), c / p^b], [0, 1]].
    With m = v_p(c) (m = a when c = 0), k = a - m, s = m - b, c' = c / p^m,
    u = 1 / c' mod p^k and e = -c' mod p^k, its canonical basis is

        (p^-k, p^(s-k) e, p^(-s-k) u, (u e mod p^2k) / p^k),
        (0, p^s, 0, u),  (0, 0, p^-s, e),  (0, 0, 0, p^k).
    """
    p, a, b, c = v.p, v.a, v.b, v.c
    m = int_valuation(c, p) if c else a
    k, s = a - m, m - b
    pk, cu = p**k, c // p**m
    u, e = pow(cu, -1, pk), -cu % pk
    z = k + abs(s)  # the rows are scaled by p^z to integers
    top = p ** (z - k)
    rows = (
        (top, e * p ** (z + s - k), u * p ** (z - s - k), u * e % (pk * pk) * top),
        (0, p ** (z + s), 0, u * p**z),
        (0, 0, p ** (z - s), e * p**z),
        (0, 0, 0, p ** (z + k)),
    )
    return Module4.of(p, p**z, rows)


def shifted_eichler_module(v1: Vertex, v2: Vertex, r: int) -> Module4:
    """Canonical module of Z_(p) + p^r * (D_v1 intersect D_v2).

    In the basis [[p^n, x], [0, 1]] of v1 (n = a - b, x = c / p^b), v2 is
    the class of [[p^e, delta], [0, 1]].  Times p^-mu, mu = min(e, v(delta),
    0), that lattice is Z_p u + p^d Z_p^2 for d = e - 2 mu, the distance,
    and u the primitive one of its columns.  So with U unimodular of first
    column u and g = [[p^a, c], [0, p^b]] U, D_v1 intersect D_v2 is
    g [[Z, Z], [p^d Z, Z]] g^-1, and the module is spanned by 1 and
    g X adj(g) / det g for X = p^r e11, p^r e12 and p^(r+d) e21.
    """
    p, a, b, c = v1
    _, a2, b2, c2 = v2
    e = (a2 - b2) - (a - b)
    num = c2 * p**b - c * p**b2  # delta = num / p^(a + b2)
    lead = min(int_valuation(num, p) - a - b2, 0)
    mu = min(e, lead)
    if mu == lead:  # the column (delta, 1) p^-mu is primitive
        u1, u2 = num * p**-mu // p ** (a + b2), p**-mu
    else:  # the column (1, 0) is
        u1, u2 = 1, 0
    u3, u4 = (1, 0) if u2 % p else (0, 1)  # U = [[u1, u3], [u2, u4]], a unit det
    pa, pb = p**a, p**b
    g0, g1, g2, g3 = pa * u1 + c * u2, pa * u3 + c * u4, pb * u2, pb * u4
    x, y = p**r, p ** (r + e - 2 * mu)
    det = g0 * g3 - g1 * g2
    rows = [
        (det, 0, 0, det),
        (x * g0 * g3, -x * g0 * g1, x * g2 * g3, -x * g1 * g2),
        (-x * g0 * g2, x * g0 * g0, -x * g2 * g2, x * g0 * g2),
        (y * g1 * g3, -y * g1 * g1, y * g3 * g3, -y * g1 * g3),
    ]
    return module_hnf(rows, p, det)


def _divisible(x: int, p: int, e: int) -> bool:
    return e <= 0 or x % p**e == 0


def contains_shifted(v: Vertex, h, r: int) -> bool:
    """Is h in Z_(p) + p^r * D_v?

    h is a matrix or an integer 5-tuple (den, al, be, ga, de), that is
    [[al, be], [ga, de]] / den, not necessarily in lowest terms.  In the
    coordinates of the lattice class this says: all entries local
    integers, both off-diagonal entries and the diagonal difference
    divisible by p^r.  With the entries of g^-1 h g written over integers
    as in `branches.mu_margin`, each condition is the divisibility of an
    integer by a power of p (m11 is integral once m00 and m00 - m11 are).
    """
    den, al, be, ga, de = h
    p, a, b, c = v.p, v.a, v.b, v.c
    k = int_valuation(den, p) + b
    r = max(r, 0)
    q = p**b
    d = al - de
    return (
        _divisible(al * q - ga * c, p, k)
        and _divisible(ga, p, k + r - a)
        and _divisible(d * q - 2 * ga * c, p, k + r)
        and _divisible(be * q * q + d * c * q - ga * c * c, p, k + r + a)
    )


# ---------------------------------------------------------------------------
# Shifted Eichler orders


class ShiftedEichler(namedtuple("ShiftedEichler", "endpoints level shift")):
    """Invariants (endpoint pair, level d, shift r) of Z + p^r * Eichler(d)."""

    __slots__ = ()

    def __new__(cls, endpoints: tuple[Vertex, Vertex], level: int, shift: int):
        v1, v2 = endpoints
        if shift < 0:
            raise ValueError("shift must be >= 0")
        if distance(v1, v2) != level:
            raise ValueError("level must equal the distance between endpoints")
        return tuple.__new__(cls, (endpoints, level, shift))

    def module(self) -> Module4:
        v1, v2 = self.endpoints
        return shifted_eichler_module(v1, v2, self.shift)


def decompose_shifted_eichler(order: LocalOrder, max_vertices=None) -> ShiftedEichler:
    """Recognize Z + p^r * E for an Eichler order E, or raise NotShiftedEichler.

    The branch of the order must be a path-with-thickness, the candidate
    invariants are read off its envelope, and the candidate is confirmed by
    exact module equality.  `max_vertices` bounds the branch computation as
    in `branch_of_order`.
    """
    from .branches import branch_of_order, eichler_envelope

    if order.rank != 4:
        raise NotShiftedEichler(f"rank is {order.rank}, need 4")
    shape = branch_of_order(order, max_vertices)
    try:
        v1, v2, level, shift = eichler_envelope(shape)
    except (NotFinite, EmptyShape):
        kind = type(shape).__name__
        raise NotShiftedEichler(f"branch is {kind}, not a thick path") from None
    if shifted_eichler_module(v1, v2, shift) != order.closure:
        raise NotShiftedEichler("module differs from its branch envelope order")
    return ShiftedEichler((v1, v2), level, shift)


def _extend_away(start: Vertex, banned_first, steps: int):
    """Walk `steps` from start: first step outside `banned_first`, then
    non-backtracking; the canonically least option each time.  Returns
    (endpoint, first_step_or_None)."""
    if steps == 0:
        return start, None
    first = next(n for n in iter_neighbors(start) if n not in banned_first)
    prev, cur = start, first
    for _ in range(steps - 1):
        prev, cur = cur, next(n for n in iter_neighbors(cur) if n != prev)
    return cur, first


def three_maximal_orders(order: ShiftedEichler) -> tuple[Vertex, Vertex, Vertex]:
    """Three vertices whose maximal orders intersect in the given order.

    The first two hang `shift` steps beyond the endpoints (pointing away
    from the path), the third hangs `shift` steps off the middle of the path
    in a fresh direction.  The construction is certified by module
    equality with the one intersection of the Eichler order of the first
    two and the third maximal order; a failed certificate raises QlatError.
    """
    v1, v2 = order.endpoints
    d, r = order.level, order.shift
    path = geodesic(v1, v2)

    banned3 = {path[1]} if d > 0 else set()
    d3, f3 = _extend_away(v1, banned3, r)
    banned4 = {path[-2]} if d > 0 else ({f3} if f3 is not None else set())
    d4, f4 = _extend_away(v2, banned4, r)

    mid = d // 2
    anchor = path[mid]
    banned = {path[i] for i in (mid - 1, mid + 1) if 0 <= i < len(path)}
    if anchor == d3 or (anchor == v1 and f3 is not None):
        banned.add(f3 if f3 is not None else d3)
    if anchor == d4 or (anchor == v2 and f4 is not None):
        banned.add(f4 if f4 is not None else d4)
    d5, _ = _extend_away(anchor, banned, r)
    # D_d3 and D_d4 meet in the Eichler order of (d3, d4), a closed form
    eichler = shifted_eichler_module(d3, d4, 0)
    if module_intersect(eichler, maximal_order_module(d5)) != order.module():
        raise QlatError("the three maximal orders do not intersect in the order")
    return d3, d4, d5
