"""Branches: the vertex sets on which an order embeds with a given depth.

For a single integral non-scalar matrix `a` and a vertex v, the margin

    mu(a, v) = min(v_p(m01), v_p(m10), v_p(m00 - m11)),  m = g^-1 a g,

measures how deep `a` sits inside the shifted maximal order at v: `a` lies
in Z_(p) + p^r * D_v exactly when mu(a, v) >= r.  No conjugate is formed:
`a` is the integers (den, al, be, ga, de) of a `Mat2` or of any such
5-tuple, and the three valuations are those of integer expressions in
them and the disc coordinates of v (see `mu_margin`).  Classification
reads valuations, the square class of the discriminant, eigenlines and
anchor vertices off the same integers.  The sets {mu >= 0} come in four
exactly-representable families, each carried by a margin function that
changes by at most 1 along edges and is concave along geodesics:

- `ThickPath`: all vertices within t of a finite path (field case),
- `ThickApartment`: within t of the axis fixed by a split semisimple matrix
  (ends are rational lines when the eigenvalues are rational, otherwise the
  axis is carried by a witness, the classified 5-tuple itself),
- `Fan`: a horoball around one boundary line z (nilpotent-plus-scalar
  case), whose slack is a difference of Busemann functions
  beta_z(base) - beta_z(v), with beta_z(D(x, n)) = n - 2 min(n, v(x - z)),
- `Full` / `Empty`.

Each shape class carries its own bound margin, deepening, diameter and
JSON form; only the pair rules of `intersect_shapes` match on two kinds.
Every kind has a diameter, the sup of its distances: level + 2t for a
`ThickPath`, +oo for the unbounded kinds and -oo for `Empty`, which is
what `spinor_local.image_of_diameter` reads.  A bound margin is a closure
built once over the shape's fixed integers; a walk evaluates it vertex by
vertex, and `Shape.margin(v)` builds it and evaluates it at one vertex.
A `ThickApartment` holds al - de, be, ga, v_p(ga) and v_p(den), with
t - axis_margin folded in, so per vertex it reads two valuations, each
only as deep as the margin's minimum can use; a `Fan` and a `ThickRay`
hold beta_z(base) and v_p of their line's y; a `ThickPath` holds its
endpoints.  `classify_single` climbs on the bound mu of the matrix it
classifies.

Thick rays use the same Busemann function: the distance from v to the ray
from base toward z is (d(v, base) + beta_z(v) - beta_z(base)) / 2, so no
membership test walks along a ray.

Margins are concave and 1-Lipschitz, so every walk here is one of two:
`_climb` steps to the least candidate neighbor that raises a margin until
none does, and `_level_walk` follows a level set of a margin without
stepping back.  Classifying a single matrix climbs along the eigenlines of
its residue mod p (a neighbor can keep or raise the margin only there, so
each step looks at two neighbors at most, whatever p is); enumeration
climbs to its first member; and intersection climbs sigma, the min of
two bound margins, to its summit, then walks the summit plateau, a path,
to both sides for a bounded intersection, or the level t* away from a
shared boundary line to the base of a `ThickRay`.  Every neighbor scan of
the intersection engine is charged to the vertex budget, so a large p
exits with BudgetExceeded instead of hanging.  The branch of a whole order
is {sigma >= 0}, sigma = min over its basis of mu: `branch_of_order`
classifies every row, then folds the intersections, and `enumerate_branch`
tests membership by the sign of the sigma it climbs, built from each row's
bound mu.  Deepening by r erodes every margin by r.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf, isqrt

from .bt_tree import (
    MAX_VERTEX_EXPONENT,
    End,
    Vertex,
    canonical_vertex,
    check_ball_budget,
    child,
    distance,
    end_of,
    horoball_slack,
    iter_neighbors,
    neighbors,
    parent,
    ray_distance,
    standard_vertex,
    step_toward_end,
    vertex_budget,
    walk_toward_end,
)
from .errors import BudgetExceeded, InfiniteUnsupported, ResourceLimit
from .exact_padic import commute, int_valuation, is_square_mod, sqrt_mod
from .local_orders import LocalOrder, certify_integral

# ---------------------------------------------------------------------------
# Shapes


class Shape:
    """A branch shape: the vertex set where its margin is >= 0.

    Each kind carries its own bound margin, deepening, diameter and JSON
    form.  The defaults here are those of the unbounded kinds: infinite
    diameter, no rational ends, thickness 0, no Eichler level, and
    deepening that keeps the set (exact for Full and Empty).  `anchor` is
    a vertex on the core of every kind but Full and Empty.  Shapes are
    value tuples whose equality also compares the kind, since Full(p) and
    Empty(p) are both the tuple (p,).
    """

    __slots__ = ()
    kind: str
    level = None
    thickness = 0
    rational_ends: frozenset[End] = frozenset()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the negated __eq__; tuple's would ignore the kind
    __hash__ = tuple.__hash__

    def margin(self, v: Vertex):
        """How far v sits inside the shape; membership is margin >= 0.
        Each kind defines `bound_margin`, the margin as a function of a
        vertex with the shape's fixed data read once, which is what a walk
        evaluates vertex by vertex."""
        return self.bound_margin()(v)

    def deepen(self, r: int) -> Shape:
        """The depth-r branch {v : ball-depth r inside}: erode the margin by r."""
        if r < 0:
            raise ValueError("depth must be >= 0")
        return self

    def diameter(self):
        """Vertex-set diameter: finite only for thick paths."""
        return inf

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p}


class Full(Shape, namedtuple("Full", "p")):
    __slots__ = ()
    kind = "full"

    def bound_margin(self):
        return lambda v: inf


class Empty(Shape, namedtuple("Empty", "p")):
    __slots__ = ()
    kind = "empty"

    def bound_margin(self):
        return lambda v: -inf

    def diameter(self):
        return -inf  # the sup of the empty set


class _Thick(Shape):
    """The kinds made of the vertices within t of a core."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.t < 0:
            raise ValueError("thickness must be >= 0")
        return self

    @property
    def thickness(self) -> int:
        return self.t

    def deepen(self, r: int) -> Shape:
        if r <= 0:
            return super().deepen(r)
        if r > self.t:
            return Empty(self.p)
        # the constructor validates the new shape, as _replace would not
        return type(self)(**{**self._asdict(), "t": self.t - r})

    def to_json(self) -> dict:
        return {**super().to_json(), "thickness": self.t}


class _Based(Shape):
    """The kinds built on the ray from `base` toward the boundary line `end`."""

    __slots__ = ()

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


class ThickPath(_Thick, namedtuple("ThickPath", "path t")):
    """Vertices within t of a finite geodesic path (listed in canonical order)."""

    __slots__ = ()
    kind = "thick_path"

    def __new__(cls, path: tuple[Vertex, ...], t: int):
        if not path:
            raise ValueError("thick path needs at least one vertex")
        if path[0] > path[-1]:
            path = tuple(reversed(path))
        self = super().__new__(cls, path, t)
        for u, w in zip(path, path[1:]):
            if distance(u, w) != 1:
                raise ValueError("path vertices must be consecutive neighbors")
        if distance(path[0], path[-1]) != len(path) - 1:
            raise ValueError("path must not backtrack")
        return self

    @property
    def p(self) -> int:
        return self.path[0].p

    @property
    def level(self) -> int:
        return len(self.path) - 1

    @property
    def anchor(self) -> Vertex:
        return self.path[0]

    def bound_margin(self):
        # in a tree the distance from v to the geodesic [x, y] is
        # (d(v, x) + d(v, y) - d(x, y)) / 2
        x, y, level, t = self.path[0], self.path[-1], self.level, self.t
        if not level:
            return lambda v: t - distance(v, x)
        return lambda v: t - (distance(v, x) + distance(v, y) - level) // 2

    def diameter(self):
        return self.level + 2 * self.t

    def to_json(self) -> dict:
        path = [v.to_json() for v in self.path]
        return {**super().to_json(), "path": path, "level": self.level}


class ThickRay(_Thick, _Based, namedtuple("ThickRay", "base end t")):
    """Vertices within t of the ray from base toward one boundary line."""

    __slots__ = ()
    kind = "thick_ray"

    def bound_margin(self):
        t, dist = self.t, ray_distance(self.base, self.end)
        return lambda v: t - dist(v)


class ThickApartment(
    _Thick, namedtuple("ThickApartment", "p ends t witness axis_margin anchor")
):
    """Vertices within t of the axis of a split semisimple witness.

    `ends` is the sorted pair of rational boundary lines when the witness
    has rational eigenvalues, and None when the eigenvalues are irrational
    (then only the witness pins the axis down, and equality of shapes is
    decided by whether the witnesses commute).  `axis_margin` is the value
    of mu(witness, .) on the axis and `anchor` is a vertex on the axis;
    `repr` leaves out these last three.
    """

    __slots__ = ()
    kind = "thick_apartment"

    def __new__(cls, p, ends, t, witness, axis_margin, anchor):
        if ends is not None:
            ends = tuple(sorted(ends))
        return super().__new__(cls, p, ends, t, witness, axis_margin, anchor)

    def __eq__(self, other):
        if not isinstance(other, ThickApartment):
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

    def __repr__(self):
        return f"ThickApartment(p={self.p!r}, ends={self.ends!r}, t={self.t!r})"

    @property
    def rational_ends(self) -> frozenset[End]:
        return frozenset(self.ends or ())

    def bound_margin(self):
        return _bound_mu(self.witness, self.p, self.t - self.axis_margin)

    def to_json(self) -> dict:
        ends = None if self.ends is None else [e.to_json() for e in self.ends]
        return {**super().to_json(), "ends": ends, "anchor": self.anchor.to_json()}


class Fan(_Based, namedtuple("Fan", "base end")):
    """A horoball: vertices whose slack toward one boundary line is >= 0.

    The base is canonical (the zero-slack vertex reached by a deterministic
    walk from the standard vertex), so structural equality is set equality.
    """

    __slots__ = ()
    kind = "fan"

    def bound_margin(self):
        return horoball_slack(self.base, self.end)

    def deepen(self, r: int) -> Shape:
        if r <= 0:
            return super().deepen(r)
        if r > MAX_VERTEX_EXPONENT:  # refused before walking r steps on
            raise ResourceLimit(f"fan depth {r} is above {MAX_VERTEX_EXPONENT}")
        return canonical_fan(self.p, self.end, lambda v: self.margin(v) - r)


# ---------------------------------------------------------------------------
# Margins


def mu_margin(a, v: Vertex):
    """Largest r with a in Z_(p) + p^r * D_v (may be negative or infinite).

    a is a matrix or an integer 5-tuple (den, al, be, ga, de), that is
    a = [[al, be], [ga, de]] / den; a factor common to all five leaves the
    margin unchanged.  The conjugate m = g^-1 a g by the basis
    g = [[p^(v.a), c], [0, q]] of v, q = p^(v.b), has

        m01 = (be q^2 + (al - de) c q - ga c^2) / (den p^(v.a + v.b)),
        m10 = ga p^(v.a - v.b) / den,
        m00 - m11 = ((al - de) q - 2 ga c) / (den q),

    so the margin is a minimum of three integer valuations.  Only the
    first and last depend on v: a walk binds the rest once with `_bound_mu`
    and evaluates the closure, and this is the same kernel at one vertex.
    """
    return _bound_mu(a, v.p)(v)


def _bound_mu(a, p: int, shift=0):
    """v -> mu(a, v) + shift on the tree of p, with a's fixed data read once:
    al - de, be, ga, v_p(ga) and v_p(den).

    With x and y the numerators of m01 and m00 - m11 (see `mu_margin`), the
    margin is shift - va - vb + min(v_p(x), k) for k = va + min(v_p(y),
    v_p(ga) + va).  So per vertex each valuation is read only as deep as
    the minimum can use: v_p(y) up to v_p(ga) + va, then v_p(x) up to the
    running minimum k, and x is not formed when k is 0.  A numerator that
    p does not divide costs one residue."""
    den, al, be, ga, de = a
    d = al - de
    shift -= int_valuation(den, p)
    v_ga = int_valuation(ga, p)

    def mu(v: Vertex):
        _, va, vb, c = v
        q = p**vb
        y = d * q - 2 * ga * c
        k = va + (int_valuation(y, p, v_ga + va) if y % p == 0 else 0)
        if k:
            x = (be * q + d * c) * q - ga * c * c
            k = int_valuation(x, p, k) if x % p == 0 else 0
        return shift - va - vb + k

    return mu


def shape_margin(s: Shape, v: Vertex):
    """How far v sits inside s; membership is margin >= 0.

    Margins change by at most 1 along tree edges and are concave along
    geodesics, which is what the intersection engine relies on.
    """
    return s.margin(v)


def canonical_fan(p: int, end: End, slack_at) -> Fan:
    """Fan with the canonical base for an intrinsic horoball slack function."""
    v = standard_vertex(p)
    s = slack_at(v)
    if abs(s) > MAX_VERTEX_EXPONENT:  # refused before walking |s| steps out
        raise ResourceLimit(
            f"fan base distance {abs(s)} is above {MAX_VERTEX_EXPONENT}"
        )
    if s < 0:
        for _ in range(-s):
            v = step_toward_end(v, end)
    elif s > 0:
        for _ in range(s):
            toward = step_toward_end(v, end)
            v = next(n for n in iter_neighbors(v) if n != toward)
    assert slack_at(v) == 0
    return Fan(v, end)


# ---------------------------------------------------------------------------
# Walks on a concave margin
#
# sigma is concave and 1-Lipschitz on the tree (Serre, Trees, ch. II.1), so
# greedy ascent reaches its summit and a level set at the summit is a path.
# `steps(v, m)` gives the candidate neighbors of v at margin m in canonical
# order: all p + 1 of them, or only those that can keep or raise the margin.


def _climb(sigma, steps, v: Vertex, m, ceiling):
    """Greedy ascent from v, where sigma(v) = m: (summit, margin, sides).

    Each step moves to the least candidate that raises sigma, until none
    does or sigma reaches ceiling, and no step evaluates sigma again at the
    vertex it came from, which sits one below.  `sides` are the summit's
    candidates that keep its margin, read off the scan that found none to
    raise it, so a walk on from the summit needs no second scan there; it
    is None when the climb stopped at the ceiling.  The climb holds one
    scan's sides at a time."""
    back = None
    while m < ceiling:
        sides = []
        for n in steps(v, m):
            if n == back:
                continue
            k = sigma(n)
            if k > m:
                back, v, m = v, n, k
                break
            if k == m:
                sides.append(n)
        else:
            return v, m, sides
    return v, m, None


def _level_walk(sigma, steps, v: Vertex, level, back, shapes, most=inf):
    """The walk along {sigma == level} from v that never steps back to the
    vertex it came from (`back` at v): [v, ...] up to the vertex with no way
    on.  A second way on (the level set is not a path) or a walk past `most`
    steps raises InfiniteUnsupported for the two intersected shapes."""
    walk = [v]
    while True:
        on = [n for n in steps(v, level) if n != back and sigma(n) == level]
        if not on:
            return walk
        if len(on) > 1:
            raise InfiniteUnsupported(*shapes, "level set is not a path")
        back, v = v, on[0]
        walk.append(v)
        if len(walk) > most + 1:
            raise InfiniteUnsupported(*shapes, "level walk failed to end")


# ---------------------------------------------------------------------------
# Classification of a single matrix


def _level_neighbors(a, p: int):
    """(v, m) -> the at most two neighbors w of v with mu(a, w) >= m =
    mu(a, v), for a = (den, al, be, ga, de) on the tree of p, with v_p(den)
    read once.

    A neighbor of v is a line of L_v / p L_v, and mu(a, w) >= m holds
    exactly when that line is an eigenline of the residue mod p of
    (g^-1 a g - m00) / p^m, a non-scalar matrix [[0, r01], [r10, r11]]
    (scaled by the unit part of den).  The line [s : t] is the parent when
    t = 0 mod p and otherwise the child with digit s / t.
    """
    den, al, be, ga, de = a
    d = al - de
    v_den = int_valuation(den, p)

    def residue(x: int, e: int) -> int:  # x / p^e mod p, given v_p(x) >= e
        return x // p**e % p if e >= 0 else 0

    def steps(v: Vertex, m: int) -> list[Vertex]:
        b, c = v.b, v.c
        q = p**b
        k = v_den + b + m
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
        return sorted(out)

    return steps


def _refuse_past_cap(vertices) -> None:
    """Refuse a shape on a vertex whose exponent a or b is above the cap,
    as `cli.parse_vertex` refuses such a vertex."""
    e = max(max(v.a, v.b) for v in vertices)
    if e > MAX_VERTEX_EXPONENT:
        raise ResourceLimit(f"vertex exponent {e} is above {MAX_VERTEX_EXPONENT}")


def _stable_start(a, p: int) -> Vertex:
    """A vertex whose lattice is stable under a: the class of (e, a*e)."""
    den, al, be, ga, de = a
    if ga:
        return canonical_vertex((1, den, al, 0, ga), p)
    if be:
        return canonical_vertex((1, 0, be, den, de), p)
    return standard_vertex(p)  # diagonal: any vertex works


def classify_single(a, p: int) -> Shape:
    """Exact shape of {v : a in D_v}, i.e. the depth-0 branch of Z_(p)[a].

    a is a matrix or an integer 5-tuple (den, al, be, ga, de), that is
    [[al, be], [ga, de]] / den; a thick apartment keeps it as its witness.
    Scalars give Full; nilpotent-plus-scalar gives a Fan toward the image
    line; split semisimple gives the ThickApartment around the axis of the
    eigenline pair; the field (non-split) case gives a ThickPath whose stem
    is a vertex or an edge.  Raises Unbounded for non-integral input, and
    ResourceLimit for a branch thicker than `MAX_VERTEX_EXPONENT` or with
    its anchor or path past that exponent (a fan base lies at most that
    many steps out).  Scaled by den, trace, determinant, discriminant,
    eigenlines and image lines are all integral.
    """
    den, al, be, ga, de = a
    k = int_valuation(den, p)
    # Z_(p)[a] is bounded exactly when its characteristic polynomial is integral
    certify_integral([(al, be, ga, de)], 0, p**k, p)
    if be == 0 and ga == 0 and al == de:
        return Full(p)
    d = al - de
    disc = d * d + 4 * be * ga  # den^2 times the discriminant of a

    if disc == 0:
        # a - trace/2 = (d, 2 be, 2 ga, -d) / (2 den): its first column spans
        # its image, or e1 does when that column is zero
        nil = (2 * den, d, 2 * be, 2 * ga, -d)
        end = end_of(d, 2 * ga) if d or ga else End(1, 0)
        return canonical_fan(p, end, lambda v: mu_margin(nil, v))

    v_disc = int_valuation(disc, p) - 2 * k
    split = is_square_mod(disc, p, 3)  # modulo p^3 decides a square at every p
    # t = (v_disc - w) / 2 for w the valuation of the discriminant of
    # Q_p(sqrt(disc)): w = v_disc mod 2 at odd p; at p = 2, w = 0 when it is
    # unramified or split, else 2 or 3 as v_disc is even or odd
    t = v_disc // 2 - (1 if p == 2 and not is_square_mod(disc, 2, 2) else 0)
    if t > MAX_VERTEX_EXPONENT:  # the branch holds vertices t steps off its core
        raise ResourceLimit(f"branch thickness {t} is above {MAX_VERTEX_EXPONENT}")
    if split:
        root = isqrt(disc) if disc > 0 else 0
        if root * root == disc:
            # the kernel of a - lam, lam = (al + de +- root) / (2 den), holds
            # (a01, lam - a00), or else (lam - a11, a10): here times 2 den
            vecs = []
            for r in (root, -root):
                w = (2 * be, r - d)
                if w == (0, 0):
                    w = (d + r, 2 * ga)
                vecs.append(w)
            ends = tuple(sorted(end_of(*w) for w in vecs))
            (x1, y1), (x2, y2) = vecs
            anchor = canonical_vertex((1, x1, x2, y1, y2), p)
            _refuse_past_cap([anchor])
            assert mu_margin(a, anchor) == t
            return ThickApartment(p, ends, t, a, t, anchor)

    mu, steps, start = _bound_mu(a, p), _level_neighbors(a, p), _stable_start(a, p)
    summit, reached, _ = _climb(mu, steps, start, mu(start), t)
    assert reached == t
    if split:  # irrational eigenvalues: the witness carries the axis
        _refuse_past_cap([summit])
        return ThickApartment(p, None, t, a, t, summit)
    # Field case: the margin summit is a single vertex or a single edge.
    stem = [summit] + [n for n in steps(summit, t) if mu(n) == t]
    assert len(stem) <= 2
    _refuse_past_cap(stem)
    return ThickPath(tuple(sorted(stem)), t)


# ---------------------------------------------------------------------------
# Intersection engine


def _resolve_shared_end(s1: Shape, s2: Shape, end: End, sigma, scan, reach) -> Shape:
    """Intersection of two shapes sharing exactly one boundary line.

    Asymptotically toward the shared line the joint margin stabilizes at
    t* = min of the non-horoball thicknesses; the result is the thick ray of
    thickness t* based where the level walk at t* away from the line ends.
    """
    t_star = min(s.t for s in (s1, s2) if not isinstance(s, Fan))
    far = reach + 8
    cur = walk_toward_end(s1.anchor, end, far)
    if sigma(cur) != t_star:
        cur = walk_toward_end(cur, end, far)
        if sigma(cur) != t_star:
            raise InfiniteUnsupported(s1, s2, "shared-line margin failed to settle")
    toward = step_toward_end(cur, end)
    spine = _level_walk(sigma, scan, cur, t_star, toward, (s1, s2), 2 * far + 8)
    return ThickRay(spine[-1], end, t_star)


def _bounded_intersection(s1: Shape, s2: Shape, sigma, scan, reach) -> Shape:
    """Intersection when no boundary line is shared, hence a bounded set.

    The joint margin sigma = min of the two margins is concave and
    1-Lipschitz, so (a) greedy ascent reaches the global summit, and (b) the
    distance from any vertex to the summit plateau is exactly the margin
    drop, which makes the intersection the thick path around the plateau.
    The plateau is walked from the summit to both sides, which the climb's
    last scan found: sigma is evaluated once at the anchor and at most once
    at every vertex after it, and the summit is scanned once.
    """
    m = sigma(s1.anchor)
    ceiling = m + reach + 65
    summit, val, sides = _climb(sigma, scan, s1.anchor, m, ceiling)
    if val >= ceiling:
        raise InfiniteUnsupported(s1, s2, "margin ascent failed to terminate")
    if val < 0:
        return Empty(s1.p)
    if len(sides) > 2:
        raise InfiniteUnsupported(s1, s2, "summit plateau is not a path")
    path = (summit,)
    for n in sides:  # extend the far end by one side, then turn the path round
        path = (*path, *_level_walk(sigma, scan, n, val, summit, (s1, s2)))[::-1]
    return ThickPath(path, val)


def intersect_shapes(s1: Shape, s2: Shape, max_vertices=None) -> Shape:
    """Exact intersection of two branch shapes, again a branch shape."""
    if s1.p != s2.p:
        raise ValueError("shapes live on trees of different primes")
    if isinstance(s1, Empty) or isinstance(s2, Empty):
        return Empty(s1.p)
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
    assert len(shared) <= 1, "two shared lines imply a common axis"
    if shared and isinstance(s1, Fan) and isinstance(s2, Fan):
        # Horoballs around the same line are nested.
        return s1 if s2.margin(s1.base) >= 0 else s2

    # both walks step by `scan`: every neighbor, charged before it is made
    budget, spent = vertex_budget(max_vertices), 0

    margin1, margin2 = s1.bound_margin(), s2.bound_margin()

    def sigma(v: Vertex):
        return min(margin1(v), margin2(v))

    def scan(v: Vertex, level=None) -> tuple[Vertex, ...]:
        nonlocal spent
        spent += v.p + 1
        if spent > budget:
            raise BudgetExceeded(f"neighbor scans exceeded budget of {budget} vertices")
        return neighbors(v)

    reach = distance(s1.anchor, s2.anchor) + s1.thickness + s2.thickness
    if shared:
        return _resolve_shared_end(s1, s2, next(iter(shared)), sigma, scan, reach)
    return _bounded_intersection(s1, s2, sigma, scan, reach)


# ---------------------------------------------------------------------------
# Whole-order branches


def branch_of_order(order: LocalOrder, max_vertices=None) -> Shape:
    """Shape of {v : order contained in D_v}: classify every row of the
    basis, the integer `Mat2`s of the order's module rows, then fold
    intersections over their shapes (a refused row stops before any walk)."""
    shape: Shape = Full(order.p)
    for s in [classify_single(b, order.p) for b in order.closure.basis]:
        shape = intersect_shapes(shape, s, max_vertices)
    return shape


def enumerate_branch(
    order: LocalOrder, r: int, center: Vertex, radius: int, max_vertices=None
) -> frozenset[Vertex]:
    """The depth-r branch vertices within `radius` of `center` (exact there).

    The branch and the ball are subtrees, so their intersection is connected
    and a breadth-first search from one member, expanding members inside
    the ball, finds all of it.  Membership is sigma(v) >= 0 for sigma(v) =
    min over the basis of mu(b, v) - r, a scalar row giving +inf, each row's
    margin bound once (`_bound_mu`).
    Every row of a closed order is integral, and then mu(b, v) >= r is
    `contains_shifted(v, b, r)`: the margin makes m00 - m11 integral, the
    trace then 2 m00, and at p = 2 the determinant rules out m00 in 1/2 + Z.
    Each set {mu(b, .) >= r} is a subtree whose distance from v outside it
    is r - mu(b, v), and on a tree the distance to an intersection of
    subtrees is the largest distance to one of them.  So sigma(center) is
    minus the distance to the branch: below -radius the branch misses the
    ball, and otherwise the climb to 0 meets it in at most `radius` steps.
    The basis is the integer `Mat2`s of the order's module rows.
    """
    check_ball_budget(center.p, radius, max_vertices)
    margins = [_bound_mu(b, center.p, -max(r, 0)) for b in order.closure.basis]

    def sigma(v: Vertex):
        return min(mu(v) for mu in margins)

    m = sigma(center)
    if m < -radius:  # the branch is farther than radius
        return frozenset()
    seed, s, _ = _climb(sigma, lambda v, m: iter_neighbors(v), center, m, 0)
    if s < 0:  # a summit below 0: the branch is empty
        return frozenset()
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
            for n in neighbors(u):
                if n in found or (d := distance(center, n)) > radius:
                    continue
                if sigma(n) >= 0:
                    found.add(n)
                    if d < radius:
                        nxt.append(n)
        frontier = nxt
    return frozenset(found)

