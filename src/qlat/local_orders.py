"""Orders in the algebra of 2x2 rational matrices, localized at p.

An order is a unital subring that is finitely generated as a Z_(p)-module.
`order_closure` saturates a generating set into the canonical module basis
of the generated order, detecting unbounded (non-integral) input.  The
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
    ResourceLimit,
    Unbounded,
)
from .exact_padic import (
    Mat2,
    Module4,
    int_valuation,
    integer_rows,
    module_hnf,
    module_intersect,
)

CLOSURE_MAX_ROUNDS = 64
_DIVERGENCE_WINDOW = 8
# A round's cost grows with the square of the module's size, and a closure
# whose valuations fall every other round escapes the divergence window:
# one whose common denominator passes this many bits stops with
# ResourceLimit.  At p < 2^32 that denominator is p^k with k > 1024, and a
# bounded order that large lies only in maximal orders at vertices whose
# exponents pass the engine's cap of 1000.
CLOSURE_MAX_BITS = 1 << 15


class LocalOrder(namedtuple("LocalOrder", "p generators closure")):
    """An order presented by generators plus its canonical module basis."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.closure.rank


def order_closure(gens, p: int, max_rounds: int = CLOSURE_MAX_ROUNDS) -> LocalOrder:
    """Saturate {1} + gens into the order they generate.

    Raises `Unbounded` (with a growth certificate) if the module keeps
    growing: the minimum entry valuation strictly decreasing over a window
    of rounds, or no stabilization within the round cap.  For bounded input
    the iteration stabilizes and the result is multiplicatively closed.
    Each round multiplies integer matrices (the generators over one power
    of p, see `integer_rows`) and compares integer canonical forms.
    """
    gens = tuple(gens)
    mats, q = integer_rows(gens, p)
    span = module_hnf([(q, 0, 0, q), *mats], p, q)
    minvals = []
    reason = f"no stabilization within {max_rounds} rounds"
    for _ in range(max_rounds):
        rows = [[x * q for x in r] for r in span.rows]
        rows += [
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for a, b, c, d in mats
            for e, f, g, h in span.rows
        ]
        grown = module_hnf(rows, p, q * span.den)
        if grown == span:
            return LocalOrder(p, gens, span)
        span = grown
        minvals.append(span.min_valuation())
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
    raise Unbounded(
        {
            "reason": reason,
            "min_valuations": minvals,
            "basis": [[_exact_text(x) for x in b.entries] for b in span.basis],
        }
    )


def _exact_text(x) -> str:
    """The rational x as 'a/b' in decimal or, past Python's limit on the
    digits of an int-to-str conversion, in hexadecimal, which has none."""
    try:
        return str(x)
    except ValueError:
        return f"{x.numerator:#x}/{x.denominator:#x}"


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


def shift_order(order: LocalOrder, t: int) -> LocalOrder:
    """Z_(p) + p^t * O for an order O; again an order, no resaturation needed."""
    if t < 0:
        raise ValueError("shift must be >= 0")
    p, den, q = order.p, order.closure.den, order.p**t
    rows = [[x * q for x in r] for r in order.closure.rows]
    scaled = tuple(Mat2(den, *r) for r in rows)
    return LocalOrder(p, scaled, module_hnf([(den, 0, 0, den), *rows], p, den))


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

    @property
    def p(self) -> int:
        return self.endpoints[0].p

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


# ---------------------------------------------------------------------------
# Residue field detection


def has_unramified_residue_field(order: LocalOrder) -> bool:
    """Does the order contain an element whose residue generates the
    quadratic extension of the residue field?

    For the order inside D_v, this says its image in D_v / p D_v is F_{p^2}
    or all of M2(F_p), i.e. it fixes no line mod p.  A fixed line is a
    neighbor of v whose maximal order also contains the order, so the test
    holds exactly when the branch, never empty, is the single vertex v: the
    one shape of diameter 0.  At large p the branch computation may raise
    BudgetExceeded.
    """
    from .branches import branch_of_order

    return branch_of_order(order).diameter() == 0
