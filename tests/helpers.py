"""Deterministic generators shared by the test modules.

Everything is driven by an explicitly seeded ``random.Random`` so every
test run samples the identical instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

from qlat.bt_tree import (
    End,
    Vertex,
    distance,
    neighbors,
    standard_vertex,
    step_toward_end,
)
from qlat.errors import AnchorInvalid
from qlat.exact_padic import (
    Mat2,
    Module4,
    _common_rows,
    int_valuation,
    is_squarefree,
    module_hnf,
)
from qlat.global_classfield import FE, fe_mul, fe_norm
from qlat.local_orders import LocalOrder, order_closure
from qlat.quadforms import ClassGroup, QForm, class_rep


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_matrix(rng: random.Random, p: int, span: int = 2) -> Mat2:
    """Integral 2x2 matrix; entries biased toward multiples of p."""

    def entry() -> int:
        k = rng.randrange(-(p**span), p**span + 1)
        if rng.random() < 0.3:
            k *= p
        return k

    return Mat2.of([[entry(), entry()], [entry(), entry()]])


def random_order(rng: random.Random, p: int, ngens: int = 2) -> LocalOrder:
    """A random integral order (closure always stabilizes inside M2(Z_(p)))."""
    return order_closure([random_matrix(rng, p) for _ in range(ngens)], p)


def random_vertex(rng: random.Random, p: int, steps: int) -> Vertex:
    """Endpoint of a random walk from the standard vertex (<= steps edges)."""
    v = standard_vertex(p)
    for _ in range(rng.randrange(steps + 1)):
        v = rng.choice(neighbors(v))
    return v


def random_vertex_at(rng: random.Random, start: Vertex, dist: int) -> Vertex:
    """A vertex at exactly the given distance: a non-backtracking walk."""
    cur, prev = start, None
    for _ in range(dist):
        options = [n for n in neighbors(cur) if n != prev]
        cur, prev = rng.choice(options), cur
    return cur


def spine_vertex(shape) -> Vertex:
    """A vertex guaranteed to lie in the (nonempty) shape."""
    from qlat.branches import Fan, Full, ThickApartment, ThickPath, ThickRay

    if isinstance(shape, ThickPath):
        return shape.path[0]
    if isinstance(shape, (ThickRay, Fan)):
        return shape.base
    if isinstance(shape, ThickApartment):
        return shape.anchor
    if isinstance(shape, Full):
        return standard_vertex(shape.p)
    raise ValueError(f"no spine vertex for {shape!r}")


def connected_members(shape, seed: Vertex, radius: int) -> frozenset[Vertex]:
    """All shape members within `radius` of a member seed.

    Branches are connected subtrees, so members within the ball are exactly
    what a membership-restricted BFS from the seed reaches; this avoids
    scanning the whole (exponentially large) ball.
    """
    from qlat.branches import shape_member

    assert shape_member(shape, seed)
    seen = {seed}
    frontier = [(seed, 0)]
    while frontier:
        nxt = []
        for u, dist in frontier:
            if dist == radius:
                continue
            for n in neighbors(u):
                if n not in seen and shape_member(shape, n):
                    seen.add(n)
                    nxt.append((n, dist + 1))
        frontier = nxt
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Helpers that only the tests use, moved out of the package: the package
# keeps what the command line and the public API reach.


def zero_matrix() -> Mat2:
    return Mat2.of([[0, 0], [0, 0]])


def is_scalar(m: Mat2) -> bool:
    a, b, c, d = m.entries
    return b == 0 and c == 0 and a == d


def trace(m: Mat2):
    return m.entries[0] + m.entries[3]


def discriminant(m: Mat2):
    """Discriminant of the characteristic polynomial, trace^2 - 4 det."""
    t = trace(m)
    return t * t - 4 * m.det()


def apply(m: Mat2, vec):
    """m times the column vector vec."""
    a, b, c, d = m.entries
    x, y = vec
    return (a * x + b * y, c * x + d * y)


def conjugate(h: Mat2, g: Mat2) -> Mat2:
    """g^-1 h g."""
    return g.inverse() * h * g


def module_sum(a: Module4, b: Module4) -> Module4:
    ra, rb, q = _common_rows(a, b)
    return module_hnf(ra + rb, a.p, q)


def module_contains(mod: Module4, m: Mat2) -> bool:
    """Is m in the Z_(p)-span?"""
    return module_sum(mod, module_hnf([m], mod.p)) == mod


def module_contains_module(inner: Module4, outer: Module4) -> bool:
    return module_sum(inner, outer) == outer


def module_index_valuation(sub: Module4, sup: Module4) -> int:
    """v_p of the module index [sup : sub] for modules of equal rank.

    Requires sub to be contained in sup with matching pivot coordinates
    (always true at full rank 4).
    """
    if sub.p != sup.p or sub.rank != sup.rank:
        raise ValueError("index requires equal rank over the same prime")
    cols = [next(i for i in range(4) if r[i]) for r in sub.rows]
    if cols != [next(i for i in range(4) if r[i]) for r in sup.rows]:
        raise ValueError("pivot mismatch: modules not comparable by index")
    p = sub.p
    total = sup.rank * (int_valuation(sup.den, p) - int_valuation(sub.den, p))
    for c, rsub, rsup in zip(cols, sub.rows, sup.rows):
        total += int_valuation(rsub[c], p) - int_valuation(rsup[c], p)
    return total


def order_from_module(module: Module4, generators=()) -> LocalOrder:
    return LocalOrder(module.p, tuple(generators), module)


def ray_vertices(base: Vertex, end: End, count: int) -> tuple[Vertex, ...]:
    """The first `count + 1` vertices of the ray from base toward end."""
    out = [base]
    cur = base
    for _ in range(count):
        cur = step_toward_end(cur, end)
        out.append(cur)
    return tuple(out)


def fe(x, y=0) -> FE:
    """The field element x + y sqrt(m) as a pair of Fractions."""
    return (Fraction(x), Fraction(y))


def fe_sub(a: FE, b: FE) -> FE:
    return (a[0] - b[0], a[1] - b[1])


def fe_inv(a: FE, m: int) -> FE:
    n = fe_norm(a, m)
    if n == 0:
        raise ZeroDivisionError("inverse of a zero-norm element")
    return (a[0] / n, -a[1] / n)


def fe_pow(a: FE, k: int, m: int) -> FE:
    if k < 0:
        return fe_pow(fe_inv(a, m), -k, m)
    out = fe(1)
    while k:
        if k & 1:
            out = fe_mul(out, a, m)
        a = fe_mul(a, a, m)
        k >>= 1
    return out


def fe_conj(a):
    """The Galois conjugate of the field element a = (x, y), x + y sqrt(m)."""
    return (a[0], -a[1])


def fundamental_discriminant(m: int) -> int:
    """Field discriminant of Q(sqrt(m)) for squarefree m not in {0, 1}."""
    if m in (0, 1):
        raise ValueError("m must be a squarefree integer other than 0 and 1")
    if not is_squarefree(m):
        raise ValueError(f"{m} is not squarefree")
    return m if m % 4 == 1 else 4 * m


def is_primitive(f: QForm) -> bool:
    return gcd(gcd(f.a, f.b), f.c) == 1


def class_inverse(group: ClassGroup, f: QForm) -> QForm:
    """The inverse of the class of f in the form class group."""
    return class_rep(QForm(f.a, -f.b, f.c), group.disc)


def unit_norm_is_minus_one(m: int) -> bool:
    return fundamental_unit(m)[3] == -1


def pell_minimal(m: int) -> tuple[int, int, int]:
    """Minimal (x, y, x^2 - m*y^2) with x, y > 0 solving x^2 - m*y^2 = +-1."""
    a0 = isqrt(m)
    if a0 * a0 == m:
        raise ValueError("m must not be a square")
    pp, qq, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - m * k * k not in (1, -1):
        pp = a * qq - pp
        qq = (m - pp * pp) // qq
        a = (a0 + pp) // qq
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, k, h * h - m * k * k


def fundamental_unit(m: int) -> tuple[int, int, int, int]:
    """Fundamental unit (x + y*sqrt(m))/den of the maximal order, m > 1
    squarefree; returns (x, y, den, norm) with norm in {1, -1}."""
    if m <= 1 or not is_squarefree(m):
        raise ValueError("m must be a squarefree integer > 1")
    if m % 4 != 1:
        x, y, n = pell_minimal(m)
        return x, y, 1, n
    # Half-integer units allowed: (x + y*sqrt(m))/2 = h - k*(1 - sqrt(m))/2
    # for the first convergent h/k of (1 + sqrt(m))/2 whose norm
    # h^2 - h*k - k^2*(m - 1)/4 is +-1.
    r, c = isqrt(m), (m - 1) // 4
    pp, qq = 1, 2  # complete quotient (pp + sqrt(m)) / qq
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    while True:
        a = (pp + r) // qq
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        norm = h * h - h * k - c * k * k
        if norm in (1, -1):
            return 2 * h - k, k, 2, norm
        pp = a * qq - pp
        qq = (m - pp * pp) // qq


def odd_pair_oracle(vertices, d: int, anchor: tuple[Vertex, Vertex]) -> bool:
    """Reference decision on an enumerated branch: is there a vertex pair at
    distance d displaced oddly from the anchor pair?

    The anchor must itself be a pair of branch vertices at distance d
    (otherwise AnchorInvalid).  Spinor images beyond the unit squares exist
    exactly when some realizing pair sits at odd distance from the anchor.
    """
    vs = sorted(set(vertices))
    a0, a1 = anchor
    if a0 not in set(vs) or a1 not in set(vs) or distance(a0, a1) != d:
        raise AnchorInvalid(f"anchor pair is not a distance-{d} pair of the set")
    for x in vs:
        dx = distance(a0, x)
        for y in vs:
            if distance(x, y) == d and dx % 2 == 1:
                return True
    return False
