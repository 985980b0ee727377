"""The (p+1)-regular tree of local lattice classes.

A vertex is a homothety class of rank-2 lattices over Z_(p).  Each class has
a unique canonical upper-triangular basis

    [[p^a, c], [0, p^b]],   a, b >= 0,  0 <= c < p^a an integer,
                            min(a, b, v_p(c)) = 0,

so vertices compare and hash structurally.  Dividing by p^b shows the
class is that of span{(p^n, 0), (x, 1)} with n = a - b and x = c / p^b,
which depends only on the disc x + p^n Z_p of the p-adic line: the tree is
the tree of discs D(x, n) (Serre, *Trees*, ch. II.1).  Every operation
here works on these integer disc coordinates, with no matrices:

- the parent of D(x, n) is D(x, n - 1) and its p children are
  D(x + j p^n, n + 1); read back as triples, b = max(0, -n, -v(x));
- the distance is n + m - 2 min(n, m, v(x - y)), the least disc holding
  both vertices being at level min(n, m, v(x - y));
- an end of the tree (a boundary point) is a line in the plane, encoded
  by a primitive integer vector (x_e, y_e), that is the point
  z = x_e / y_e of the projective line (z = oo when y_e = 0); the ray
  toward z descends into the child holding z when z lies in the disc and
  climbs to the parent otherwise;
- the Busemann function toward z is n - 2 min(n, v(x - z)), and n toward
  oo, so horoball slacks and distances to rays are closed forms, each
  bound once to its base and end (`horoball_slack`, `ray_distance`) and
  then evaluated vertex by vertex.

`canonical_vertex` turns the integer columns of a lattice basis into its
triple.

Ball enumeration checks its vertex budget (default 200,000, overridable via
the QLAT_MAX_VERTICES environment variable or an explicit argument) before
allocating anything, then reads the ball off the distance formula: on each
level (a, b) its vertices are one arithmetic progression of c, so walking
the levels in order yields the ball in canonical order, the order of the
integer triple, with no hashing and no sort.  The DOT export takes the
ball in that order and reads its edges off the parent links.

A vertex is the tuple (p, a, b, c), so hashing, equality, order and field
access run in C.  The public constructor validates the triple; `parent`
and `child` build theirs unchecked, as they are canonical by construction.
"""

from __future__ import annotations

import os
from collections import namedtuple
from contextlib import suppress
from math import gcd

from .errors import ResourceLimit, SchemaError, SingularMatrix
from .exact_padic import int_valuation

DEFAULT_MAX_VERTICES = 200_000
MAX_SIZE_BITS = 1 << 16  # ball sizes surely past 2^65536 are never formed
# Largest exponent a or b a request may give a vertex: Vertex(p, a, b, c)
# forms p^a, and every vertex built near it forms a power as large.
MAX_VERTEX_EXPONENT = 1000


def vertex_budget(max_vertices=None) -> int:
    """Effective vertex budget: explicit argument, else env var, else default."""
    if max_vertices is not None:
        return int(max_vertices)
    env = os.environ.get("QLAT_MAX_VERTICES")
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n <= 0:
            raise SchemaError(
                "QLAT_MAX_VERTICES", f"must be a positive integer, got {env!r}"
            )
        return n
    return DEFAULT_MAX_VERTICES


class Vertex(namedtuple("Vertex", "p a b c")):
    """Canonical lattice class: the tuple (p, a, b, c), sorted by the triple
    within one tree."""

    __slots__ = ()

    def __new__(cls, p: int, a: int, b: int, c: int):
        if a < 0 or b < 0 or not (0 <= c < p**a):
            raise ValueError(f"non-canonical vertex triple ({a}, {b}, {c})")
        if a and b and c % p == 0:
            raise ValueError(f"vertex triple ({a}, {b}, {c}) is not primitive")
        return tuple.__new__(cls, (p, a, b, c))

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}


# Builds a Vertex without the canonical-triple check, for links whose
# triples are canonical by construction.
_link = tuple.__new__


def standard_vertex(p: int) -> Vertex:
    return Vertex(p, 0, 0, 0)


def canonical_vertex(g, p: int) -> Vertex:
    """Canonical form of the lattice class spanned by the columns of g, a
    matrix or an integer 5-tuple (den, x1, x2, y1, y2): the columns are
    (x1, y1) and (x2, y2), and den scales the lattice only.

    Column 2 takes the second coordinate y2 = p^beta w (w a unit) of least
    valuation; clearing y1 leaves det / y2, of valuation alpha, above it.
    The class is [[p^alpha, x2 / w mod p^alpha], [0, p^beta]] over the
    power of p common to alpha, beta and that corner.
    """
    _, x1, x2, y1, y2 = g
    det = x1 * y2 - x2 * y1
    if det == 0:
        raise SingularMatrix("lattice basis must be invertible")
    if int_valuation(y1, p) < int_valuation(y2, p):
        x2, y2 = x1, y1  # the columns swap; det only changes sign
    beta = int_valuation(y2, p)
    alpha = int_valuation(det, p) - beta
    q = p**alpha
    c = x2 * pow(y2 // p**beta, -1, q) % q
    shift = min(alpha, beta, int_valuation(c, p))
    return Vertex(p, alpha - shift, beta - shift, c // p**shift)


def parent(v: Vertex) -> Vertex:
    """D(x, n - 1)."""
    p, a, b, c = v
    if a == 0:
        return _link(Vertex, (p, 0, b + 1, 0))
    return _link(Vertex, (p, a - 1, b, c % p ** (a - 1)))


def child(v: Vertex, j: int) -> Vertex:
    """D(x + j p^n, n + 1) for a digit 0 <= j < p."""
    p, a, b, c = v
    if a == 0 and b:  # x = 0, n = -b < 0
        return _link(Vertex, (p, 1, b, j) if j else (p, 0, b - 1, 0))
    return _link(Vertex, (p, a + 1, b, c + j * p**a))


def _meet(v: Vertex, w: Vertex) -> int:
    """min(n, m, v(x - y)): the level of the least disc holding both.

    x - y = num / p^(v.b + w.b) for num = v.c p^(w.b) - w.c p^(v.b), and
    n, m are v.a - v.b and w.a - w.b, so the level is v_p(num) capped at
    min(v.a + w.b, w.a + v.b), less v.b + w.b: the valuation is read only
    that deep (`int_valuation` with a cap)."""
    p = v.p
    num = v.c * p**w.b - w.c * p**v.b
    return int_valuation(num, p, min(v.a + w.b, w.a + v.b)) - v.b - w.b


def distance(v: Vertex, w: Vertex) -> int:
    """Graph distance n + m - 2 min(n, m, v(x - y))."""
    if v.p != w.p:
        raise ValueError("vertices live on trees of different primes")
    return v.a - v.b + w.a - w.b - 2 * _meet(v, w)


def iter_neighbors(v: Vertex):
    """The p+1 adjacent classes one by one, in canonical (sorted) order, so
    the first that passes a test is the least: parent and children."""
    first = 0
    if v.a == 0 and v.b:  # child 0 is (0, b - 1, 0), before the parent
        yield child(v, 0)
        first = 1
    yield parent(v)
    for j in range(first, v.p):
        yield child(v, j)


def neighbors(v: Vertex) -> tuple[Vertex, ...]:
    """The p+1 adjacent classes, sorted canonically: parent and children."""
    return tuple(iter_neighbors(v))


def geodesic(v: Vertex, w: Vertex) -> tuple[Vertex, ...]:
    """The unique path from v to w, inclusive: up to their meet, then down."""
    n, m = v.a - v.b, w.a - w.b
    k = (n + m - distance(v, w)) // 2
    up, down = [v], [w]
    for _ in range(n - k):
        up.append(parent(up[-1]))
    for _ in range(m - k):
        down.append(parent(down[-1]))
    return tuple(up + down[-2::-1])


def ball_size(p: int, radius: int) -> int:
    if radius <= 0:
        return 1
    return 1 + (p + 1) * (p**radius - 1) // (p - 1)


def check_ball_budget(p: int, radius: int, max_vertices=None) -> None:
    """Refuse a ball of this radius over the vertex budget, before building it.

    The diagnostic states the exact size when Python can print it, and else
    "more than 2^radius" (ball_size(p, R) > p^R >= 2^R).  A radius past the
    budget's bit length with R (bit_length(p) - 1) >= MAX_SIZE_BITS is
    refused without forming p^R, whose size would be far past printing.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    budget = vertex_budget(max_vertices)
    count = f"more than 2^{radius}"
    bits = radius * (p.bit_length() - 1)  # p^radius has more bits than this
    if radius < budget.bit_length() or bits < MAX_SIZE_BITS:
        size = ball_size(p, radius)
        if size <= budget:
            return
        with suppress(ValueError):  # past the int-to-str digit limit
            count = str(size)
    raise ResourceLimit(
        f"ball of radius {radius} at p={p} has {count} vertices, budget is {budget}"
    )


def ball(v: Vertex, radius: int, max_vertices=None) -> tuple[Vertex, ...]:
    """All vertices within the given distance of v, in canonical order.

    Read off the distance formula, not searched.  Each step along an edge
    moves exactly one of a, b by 1, so the ball lies in the levels (a, b)
    with |a - a0| + |b - b0| <= radius, v = (a0, b0, c0).  On level (a, b),
    n = a - b, D(x, n) is within the radius of D(x0, n0) exactly when
    min(n, n0, v(x - x0)) >= m = ceil((n + n0 - radius) / 2).  The range
    of levels already gives min(n, n0) >= m, and v(x - x0) >= m reads
    c p^b0 = c0 p^b (mod p^(m + b + b0)): one residue class of c modulo
    p^(m + b), or every c, or none.  So each level is one increasing
    progression of c in [0, p^a), units only when a, b > 0, and walking
    the levels in (a, b) order yields the ball sorted, with no hashing.
    """
    p, a0, b0, c0 = v
    check_ball_budget(p, radius, max_vertices)
    out = []
    for a in range(max(0, a0 - radius), a0 + radius + 1):
        width = radius - abs(a - a0)
        q = p**a
        for b in range(max(0, b0 - width), b0 + width + 1):
            m = -((radius - a + b - a0 + b0) // 2)
            k = m + b  # c p^b0 = c0 p^b modulo p^(k + b0)
            if k > 0:  # c = c0 p^(b - b0) modulo p^k, a unit or never one
                y, r = divmod(c0 * p**b, p**b0)
                if r or a and b and y % p == 0:
                    continue
                step = p**k
                cs = range(y % step, q, step)
            elif k + b0 > 0 and c0 * p**b % p ** (k + b0):
                continue
            elif a and b:
                cs = [c for c in range(1, q) if c % p]
            else:
                cs = range(q)
            out += [_link(Vertex, (p, a, b, c)) for c in cs]
    return tuple(out)


# ---------------------------------------------------------------------------
# Ends of the tree


class End(namedtuple("End", "x y")):
    """A boundary point: the line spanned by the primitive vector (x, y)."""

    __slots__ = ()

    def __new__(cls, x: int, y: int):
        if x == 0 and y == 0:
            raise ValueError("end requires a nonzero vector")
        if gcd(x, y) != 1:
            raise ValueError("end vector must be primitive")
        lead = x if x != 0 else y
        if lead < 0:
            raise ValueError("end vector must have positive leading entry")
        return tuple.__new__(cls, (x, y))

    def to_json(self) -> list:
        return [self.x, self.y]


def end_of(x: int, y: int) -> End:
    """The canonical end of the line through the nonzero integer vector (x, y)."""
    if x == 0 and y == 0:
        raise ValueError("end requires a nonzero vector")
    g = gcd(x, y)
    if (x or y) < 0:
        g = -g
    return End(x // g, y // g)


def step_toward_end(v: Vertex, end: End) -> Vertex:
    """The neighbor of v on the ray from v to the given boundary line.

    That is the child of D(x, n) holding z = end.x / end.y when
    v(z - x) >= n, and the parent otherwise (always for z = oo).
    """
    if end.y:
        p, a, b = v.p, v.a, v.b
        e = int_valuation(end.y, p)
        # (z - x) / p^n = num / (end.y p^a)
        num = end.x * p**b - v.c * end.y
        q = p ** (a + e)
        if num % q == 0:
            return child(v, num // q * pow(end.y // p**e, -1, p) % p)
    return parent(v)


def walk_toward_end(v: Vertex, end: End, steps: int) -> Vertex:
    for _ in range(steps):
        v = step_toward_end(v, end)
    return v


def horoball_slack(base: Vertex, end: End):
    """v -> beta_z(base) - beta_z(v) on the tree of base, z = end: how far v
    sits inside the horoball through base.

    The Busemann function beta_z(D(x, n)) = n - 2 min(n, v(x - z)), or n
    toward oo, drops by 1 along each step toward the end and rises by 1
    along every other edge.  v_p(end.y) and beta_z(base) are read once,
    here; per vertex is left one valuation, read only when p divides its
    argument and only as deep as the cap a + v_p(end.y) of the minimum.
    """
    p, (x, y) = base.p, end
    e = int_valuation(y, p) if y else 0
    top = 0

    def slack(v: Vertex) -> int:
        _, a, b, c = v
        if not y:
            return top - a + b
        # x - z = -num / (y p^b), so min(n, v(x - z)) = min(a + e, v(num)) - b - e
        num = x * p**b - c * y
        k = int_valuation(num, p, a + e) if num % p == 0 else 0
        return top - a + b + 2 * (k - b - e)

    top = -slack(base)  # beta_z(base); slack reads top when it is called
    return slack


def ray_distance(base: Vertex, end: End):
    """v -> the distance from v to the ray from base toward end, which is
    (d(v, base) - slack(v)) / 2 for the horoball slack through base."""
    slack = horoball_slack(base, end)
    return lambda v: (distance(v, base) - slack(v)) // 2


# ---------------------------------------------------------------------------
# DOT export


def export_dot(vertices) -> str:
    """Graphviz DOT source for the induced subgraph on the given vertices,
    distinct and in canonical order, as `ball` returns them.

    Vertices are listed in the order given and edges once each.  Every
    tree edge joins a vertex to its parent, so the induced edges are those
    of the vertices whose parent is in the set too.
    """
    index = {v: i for i, v in enumerate(vertices)}
    names = [f"v_{v.a}_{v.b}_{v.c}" for v in vertices]

    lines = ["graph lattice_classes {", "  node [shape=circle];"]
    lines += [
        f'  {name} [label="({v.a},{v.b},{v.c})"];' for v, name in zip(vertices, names)
    ]
    edges = sorted(
        (min(i, j), max(i, j))
        for v, i in index.items()
        if (j := index.get(parent(v))) is not None
    )
    lines += [f"  {names[i]} -- {names[j]};" for i, j in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
