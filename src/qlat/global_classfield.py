"""Quadratic base fields, places, local symbols, and spinor class fields.

Global arithmetic over Q and over quadratic fields Q(sqrt(m)):

* places — finite prime ideals with a deterministic branch selector at
  split primes, plus real embeddings — with exact local valuations,
  local square tests, and unramifiedness tests for field elements; the
  split-place branch is pinned by a canonical Hensel square root, so every
  answer is reproducible; each entry point takes an element to one integral
  representative of its square class, and all below it runs on ints;
* narrow ray class groups with real moduli, known by their order;
* the spinor class field of an Eichler-type quaternion genus (its degree
  and forced split places), representation fields of suborder genera
  (commutative quadratic suborders with a conductor, rank-3 suborders,
  rank-4 Eichler-type suborders), each of selectivity ratio 1/degree,
  with degrees read off the F_2 rank of genus characters, and K(sqrt(delta))
  in the spinor class field read off the same characters; a commutative
  suborder's local condition at each place is the local layer's rule
  `spinor_local.image_of_diameter`, whose module runs on the first such
  request and loads no other.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import inf, isqrt, prod

from . import spinor_local  # bound unrun: its body runs on first use
from .errors import AlgebraNotSplit, EmbeddingInfeasible, SchemaError
from .exact_padic import (
    Frozen,
    int_valuation,
    is_prime,
    is_square_mod,
    is_squarefree,
    over_lcm,
    prime_divisors,
    sqrt_mod,
)
from .quadforms import (
    class_group,
    kronecker_at,
    negative_identity_class,
)

#: Field element x + y*sqrt(m): a pair of rationals at the entry points
#: (ints, `Fraction`s or anything else with a numerator and a denominator),
#: a pair of ints below them.
FE = tuple


def _integral(el: FE) -> tuple[int, int]:
    """el d^2 for d the lcm of the coordinate denominators: an integral
    element in the square class of el."""
    d, x, y = over_lcm([(z.numerator, z.denominator) for z in el])
    return x * d, y * d


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def fe_is_zero(e: FE) -> bool:
    return e[0] == 0 and e[1] == 0


def fe_mul(a: FE, b: FE, m: int) -> FE:
    return (a[0] * b[0] + m * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def fe_norm(a: FE, m: int):
    return a[0] * a[0] - m * a[1] * a[1]


# ---------------------------------------------------------------------------
# Fields and places


class PrimeIdeal(namedtuple("PrimeIdeal", "p selector tag")):
    """A finite place: the prime below, its splitting type, and — at split
    primes — which of the two branches (selector 1 or 2) this place is.
    `selector` is 0 unless split, else 1 or 2; `tag` is one of "rational",
    "inert", "ramified" and "split"."""

    __slots__ = ()

    def key(self) -> str:
        if self.selector:
            return f"{self.p}.{self.selector}"
        return str(self.p)


class BaseField(namedtuple("BaseField", "m")):
    """Q (m is None) or the quadratic field Q(sqrt(m)), m squarefree."""

    __slots__ = ()

    @staticmethod
    def rationals() -> "BaseField":
        return BaseField(None)

    @staticmethod
    def quadratic(m: int) -> "BaseField":
        if m in (0, 1) or not is_squarefree(m):
            raise ValueError("radicand must be squarefree and not 0 or 1")
        return BaseField(m)

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

    def splitting(self, p: int) -> str:
        """The tag of the places over the prime p: "rational" over Q, else
        "ramified", "split" or "inert" by the Kronecker symbol (D/p)."""
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
        if self.m is None:
            return "rational"
        return _SPLITTING[kronecker_at(self.discriminant, p)]

    def places_over(self, p: int) -> tuple[PrimeIdeal, ...]:
        tag = self.splitting(p)
        if tag == "split":
            return (PrimeIdeal(p, 1, tag), PrimeIdeal(p, 2, tag))
        return (PrimeIdeal(p, 0, tag),)


_SPLITTING = {0: "ramified", 1: "split", -1: "inert"}


def parse_place_key(field: BaseField, key: str) -> PrimeIdeal:
    """Parse a finite place key: "p" or, at split primes, "p.1" / "p.2"."""
    head, dot, tail = str(key).strip().partition(".")
    try:
        p = int(head)
    except ValueError:
        raise ValueError(f"bad place key {key!r}") from None
    tag = field.splitting(p)
    if not dot:
        if tag == "split":
            raise ValueError(f"prime {p} splits: use '{p}.1' or '{p}.2'")
        return PrimeIdeal(p, 0, tag)
    if tail in ("1", "2"):
        if tag != "split":
            raise ValueError(f"prime {p} does not split in this field")
        return PrimeIdeal(p, int(tail), tag)
    raise ValueError(f"bad place key {key!r}")


# ---------------------------------------------------------------------------
# Canonical local square roots and embeddings


def hensel_sqrt(m: int, p: int, prec: int) -> int:
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
        # Newton steps r -> (r^2 + m) / (2r): if r = s mod 2^k for the root
        # s = 1 mod 4, the step gives s mod 2^(2k - 1); r^2 + m is even.
        r, k = 1, 2
        while k < prec:
            k = min(2 * k - 1, prec)
            mod = 1 << k
            r = ((r * r + m) >> 1) * pow(r, -1, mod) % mod
        return r
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


def _split_embed(field: BaseField, el: FE, place: PrimeIdeal) -> int:
    """Image w of the integral element el in Z/p^prec under the split-place
    embedding, prec = v_p(N(el)) + 5, so w is nonzero, v_place(el) = v_p(w)
    and w / p^v_p(w) is the unit part of el modulo p^5."""
    p, m = place.p, field.m
    x, y = el
    prec = int_valuation(x * x - m * y * y, p) + 5
    rho = hensel_sqrt(m, p, prec)
    mod = p**prec
    if place.selector == 2:
        rho = (-rho) % mod
    w = (x + y * rho) % mod
    assert w != 0, "split embedding lost all precision"
    return w


# ---------------------------------------------------------------------------
# Local valuations, squares, and ramification


def val_at_place(field: BaseField, el: FE, place: PrimeIdeal):
    """Normalized valuation of the integral element el at the place
    (uniformizer has value 1); +infinity for zero."""
    if fe_is_zero(el):
        return inf
    p = place.p
    x, y = el
    if place.tag == "rational":
        return int_valuation(x, p)
    m = field.m
    if place.tag == "inert":
        v = int_valuation(fe_norm(el, m), p)
        assert v % 2 == 0
        return v // 2
    if place.tag == "ramified":
        if p != 2:
            return int_valuation(fe_norm(el, m), p)
        if m % 4 == 2:
            return min(2 * int_valuation(x, 2), 2 * int_valuation(y, 2) + 1)
        # m = 3 mod 4: write el = (x - y) + y * (1 + sqrt(m))
        return min(2 * int_valuation(x - y, 2), 2 * int_valuation(y, 2) + 1)
    return int_valuation(_split_embed(field, el, place), p)


def _is_square_mod(
    field: BaseField, el: FE, place: PrimeIdeal, k: int, embedded=None
) -> bool:
    """Is the integral el = pi^v u with v even and the unit u a square
    modulo P^k?

    With e = v_P(2), the local square theorem (O'Meara, *Introduction to
    Quadratic Forms*, §63) makes k = 2e + 1 the test for a local square and
    k = 2e the test for K_P(sqrt(el)) unramified or split.

    Rational, split and odd places read `exact_padic.is_square_mod` at an
    integer in the square class over Q_p of el, or of its norm at an odd
    inert place (the norm map of F_(p^2)* onto F_p* takes squares exactly
    to squares).  Dyadic inert and ramified places search the roots
    a + b theta, 0 <= a, b < 4, of O = Z[theta], theta^2 = t theta + c:
    squares modulo P^(2e+1) depend only on the root modulo P^(e+1), which
    holds 4 O.  Inert: pi = 2, theta = (1 + sqrt(m)) / 2, P^k = 2^k O and
    u = (x - y) / 2^v + (2y / 2^v) theta.  Ramified: theta = sqrt(m) and
    pi = s + sqrt(m), s = m mod 2, so pi^2 = 2 eps for the unit eps =
    (m + s) / 2 + s sqrt(m), and el eps^(j mod 2) / 2^j (j = v / 2) is u
    times a unit square; X + Y pi lies in P^k exactly when 2^ceil(k/2)
    divides X and 2^floor(k/2) divides Y.

    A split place reads `embedded`, el's image under `_split_embed`, when
    the caller passes one.
    """
    if fe_is_zero(el):
        raise ZeroDivisionError("square class of zero")
    p, m, (x, y), tag = place.p, field.m, el, place.tag
    if tag == "split":
        n = _split_embed(field, el, place) if embedded is None else embedded
    elif tag == "rational":
        n = x
    else:
        v = val_at_place(field, el, place)
        if v % 2:
            return False
        if p != 2:  # at a ramified place u = x / m^(v/2) mod P
            n = fe_norm(el, m) if tag == "inert" else x * m ** (v // 2)
        else:
            if tag == "inert":  # exact shifts: u and its coordinates are integral
                a0, b0 = ((x - y) >> v) % 8, (2 * y >> v) % 8
                t, c, s, k0, k1 = 1, (m - 1) // 4, 0, k, k
            else:
                s, j = m % 2, v // 2
                if j % 2:
                    x, y = fe_mul(el, ((m + s) // 2, s), m)
                a0, b0 = (x >> j) % 8, (y >> j) % 8
                t, c, k0, k1 = 0, m, (k + 1) // 2, k // 2
            for a in range(4):
                for b in range(4):
                    da, db = a * a + c * b * b - a0, 2 * a * b + t * b * b - b0
                    if (da - s * db) % 2**k0 == 0 and db % 2**k1 == 0:
                        return True
            return False
    return is_square_mod(n, p, k)


def _two_valuation(place: PrimeIdeal) -> int:
    """e = v_P(2): 0 over odd p, 2 at a ramified place over 2, else 1."""
    return 0 if place.p != 2 else 2 if place.tag == "ramified" else 1


def is_local_square(
    field: BaseField, el: FE, place: PrimeIdeal, *, embedded=None
) -> bool:
    """Is the nonzero element el a square in the completion at the place?
    At a split place, `embedded` may give el's image under `_split_embed`,
    for a caller that runs both this and the unramified test."""
    k = 2 * _two_valuation(place) + 1
    return _is_square_mod(field, _integral(el), place, k, embedded)


def is_unramified_or_split(
    field: BaseField, el: FE, place: PrimeIdeal, *, embedded=None
) -> bool:
    """Is K_place(sqrt(el)) unramified (possibly split) over the completion?
    `embedded` is as for `is_local_square`."""
    k = 2 * _two_valuation(place)
    return _is_square_mod(field, _integral(el), place, k, embedded)


def sign_at_real(field: BaseField, el: FE, key: str) -> int:
    """Sign of el under the real embedding named by key (exact)."""
    if fe_is_zero(el):
        raise ZeroDivisionError("sign of zero")
    if key not in field.real_place_keys():
        raise ValueError(f"{key!r} is not a real place of this field")
    x, y = el
    if key == "inf2":
        y = -y
    # x + y sqrt(m) has the sign of the larger of |x| and |y| sqrt(m)
    big = x if field.is_rational or x * x > field.m * y * y else y
    return 1 if big > 0 else -1


def fe_is_square(field: BaseField, el: FE) -> bool:
    """Is el a square already in the base field (globally)?  Read on x + y
    sqrt(m) integral: for y != 0, (s + t sqrt(m))^2 exactly when its norm is
    r^2 and 2(x + r) or 2(x - r), that is 4 s^2, is a nonzero square."""
    x, y = _integral(el)
    if y == 0:
        return _is_square(x) or not field.is_rational and _is_square(x * field.m)
    m = field.m
    n = x * x - m * y * y
    if not _is_square(n):
        return False
    r = isqrt(n)
    return any(c != 0 and _is_square(c) for c in (2 * (x + r), 2 * (x - r)))


# ---------------------------------------------------------------------------
# Ray class groups


class RayClassGroup(namedtuple("RayClassGroup", "field modulus order")):
    """Narrow ray class group of conductor = a set of real places."""

    __slots__ = ()

    @property
    def wide(self) -> bool:
        """Does the modulus drop a real place?"""
        return len(self.modulus) < len(self.field.real_place_keys())


def narrow_ray_class_group(field: BaseField, modulus=()) -> RayClassGroup:
    keys = tuple(sorted(set(modulus)))
    for key in keys:
        if key not in field.real_place_keys():
            raise ValueError(f"{key!r} is not a real place of this field")
    if field.is_rational:
        return RayClassGroup(field, keys, 1)
    disc = field.discriminant
    base = class_group(disc)
    ray = RayClassGroup(field, keys, base.order)
    # Dropping a real place from the modulus absorbs the class of the norm
    # -1 form, of order 1 or 2; dropping one place or both gives the same
    # quotient, the wide class group.
    if ray.wide and negative_identity_class(disc) != base.identity:
        return RayClassGroup(field, keys, base.order // 2)
    return ray


# ---------------------------------------------------------------------------
# Genus characters


def _prime_discriminants(disc: int) -> tuple[int, ...]:
    """The prime discriminants with product disc: -4, 8 or -8, then
    p* = +-p = 1 mod 4 for each odd p | disc, ascending in p."""
    qs = [p if p % 4 == 1 else -p for p in sorted(set(prime_divisors(disc))) if p > 2]
    if disc % 2 == 0:
        qs.insert(0, disc // prod(qs))
    return tuple(qs)


def _genus_row(qs: tuple[int, ...], place: PrimeIdeal) -> int:
    """Genus characters at the class of a prime ideal: bit i is set when
    (q_i / N(place)) = -1.  An inert ideal (p) gives 0; at a ramified one
    over p | q_j, bit j makes the bits sum to zero, as in every row."""
    if place.tag == "inert":
        return 0
    row, ramified = 0, None
    for i, q in enumerate(qs):
        if q % place.p == 0:
            ramified = i
        elif kronecker_at(q, place.p) == -1:
            row |= 1 << i
    if ramified is not None and row.bit_count() % 2:
        row |= 1 << ramified
    return row


def _f2_rank(rows) -> int:
    """Rank over F_2 of integer bit rows (an XOR basis keyed by top bit)."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def _genus_rows(ray: RayClassGroup, places) -> tuple[tuple[int, ...], list[int]]:
    """The prime discriminants q_i of the field, and the genus characters at
    the places' classes; a wide modulus adds the row of the norm -1 class,
    bit i set when q_i < 0."""
    qs = _prime_discriminants(ray.field.discriminant)
    rows = [_genus_row(qs, place) for place in places]
    if ray.wide:
        rows.append(sum(1 << i for i, q in enumerate(qs) if q < 0))
    return qs, rows


def _genus_degree(ray: RayClassGroup, places) -> int:
    """Index in the ray class group of the squares and the places' classes.

    Genus theory maps the narrow class group onto the sum-zero rows of
    F_2^t with kernel the squares (Cox, *Primes of the form x^2 + ny^2*,
    §§3, 6), so the index is 2^(t - 1 - rank) over the rows of `_genus_rows`.
    """
    if ray.field.is_rational:
        return 1
    qs, rows = _genus_rows(ray, places)
    return 2 ** (len(qs) - 1 - _f2_rank(rows))


# ---------------------------------------------------------------------------
# Quaternion genera


class QuatAlgebra(namedtuple("QuatAlgebra", "field finite real", defaults=((), ()))):
    """A quaternion algebra over the base field, given by its ramified
    places (finite prime ideals and real place keys); the set must have
    even size."""

    __slots__ = ()

    @staticmethod
    def of(field: BaseField, finite=(), real=()) -> "QuatAlgebra":
        fin = tuple(sorted(set(finite)))
        re = tuple(sorted(set(real)))
        for key in re:
            if key not in field.real_place_keys():
                raise ValueError(f"{key!r} is not a real place of this field")
        if (len(fin) + len(re)) % 2:
            raise ValueError("a ramification set must have even size")
        return QuatAlgebra(field, fin, re)

    @property
    def is_split_everywhere(self) -> bool:
        return not self.finite and not self.real


def _normalize_ideal_map(entries) -> tuple[tuple[PrimeIdeal, int], ...]:
    if entries is None:
        return ()
    items = entries.items() if hasattr(entries, "items") else entries
    out: dict[PrimeIdeal, int] = {}
    for place, e in items:
        if not isinstance(e, int) or e < 0:
            raise ValueError("ideal exponents must be nonnegative integers")
        if place in out:
            raise ValueError(f"duplicate place {place.key()}")
        if e:
            out[place] = e
    return tuple(sorted(out.items()))


class Genus(Frozen, namedtuple("Genus", "level shift", defaults=((), ()))):
    """Eichler-type genus data: per-place level exponents and the shift
    ideal exponents (the r in O + p^r * intersection)."""

    @staticmethod
    def of(level=None, shift=None) -> "Genus":
        return Genus(_normalize_ideal_map(level), _normalize_ideal_map(shift))

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


def validate_genus(algebra: QuatAlgebra, genus: Genus, path: str = "genus") -> None:
    for place in algebra.finite:
        if genus.level_at(place) or genus.shift_at(place):
            raise SchemaError(
                f"{path}.{place.key()}",
                "level and shift must vanish at division places",
            )


# ---------------------------------------------------------------------------
# Spinor class fields


class SigmaField(namedtuple("SigmaField", "ray degree forced")):
    """The spinor class field of a genus: the ray class group it is a
    quotient of, its degree over the base field, and the finite places
    whose Frobenius classes are forced to die."""

    __slots__ = ()

    @property
    def group_order(self) -> int:
        return self.ray.order

    @property
    def forced_split(self) -> tuple[str, ...]:
        return tuple(p.key() for p in self.forced)


def spinor_class_field(algebra: QuatAlgebra, genus: Genus) -> SigmaField:
    """Degree and forced split places of the spinor class field.

    The class field is the largest exponent-2 extension of the base field
    that is unramified at all finite places, unramified at the real places
    where the algebra is split (those stay in the modulus), and split at
    every finite division place and every place of odd level.
    """
    validate_genus(algebra, genus)
    forced = tuple(
        sorted(set(algebra.finite) | {p for p, d in genus.level if d % 2 == 1})
    )
    ray = narrow_ray_class_group(algebra.field, algebra.real)
    return SigmaField(ray, _genus_degree(ray, forced), forced)


# ---------------------------------------------------------------------------
# Representation fields


class RepField(namedtuple("RepField", "degree sigma strict_places", defaults=((),))):
    """Representation field of a suborder genus: its degree over the base
    field, the ambient spinor class field, and the places whose conditions
    push the field down (strict/unbalanced places)."""

    __slots__ = ()


def _quadratic_in_sigma(sigma: SigmaField, delta: tuple[int, int]) -> bool:
    """Is K(sqrt(delta)) in the spinor class field?  delta is integral and
    not a square of K.

    The quadratic extensions unramified at all finite places are the
    K(sqrt(d_S)) in the genus field, d_S the product of the q_i over a
    nonempty S (S and its complement give one field, D being a square of K).
    One lies in sigma when S meets every row of `_genus_rows` evenly: each
    forced place splits, and for a wide modulus d_S, of the sign of delta at
    both real places, is positive.  Over Q there is none.
    """
    ray = sigma.ray
    if ray.field.is_rational:
        return False
    qs, rows = _genus_rows(ray, sigma.forced)
    for s in range(1, 2 ** (len(qs) - 1)):
        d = prod(q for i, q in enumerate(qs) if s >> i & 1)
        if fe_is_square(ray.field, (delta[0] * d, delta[1] * d)):
            return all((row & s).bit_count() % 2 == 0 for row in rows)
    return False


def _map_at(entries: tuple[tuple[PrimeIdeal, int], ...], place: PrimeIdeal) -> int:
    return dict(entries).get(place, 0)


def rep_field_comm_quadratic(
    algebra: QuatAlgebra, genus: Genus, delta: FE, conductor=()
) -> RepField:
    """Representation field of the genus of D = O + I*D0, where D0 is the
    quadratic suborder O_K + f*O_L of L = K(sqrt(delta)) with conductor f.

    Feasibility is checked first and raises EmbeddingInfeasible; then the
    field is L exactly when L lies in the spinor class field and at every
    place inert in L the conductor depth matches shift + level/2.  Both
    read the local rule `spinor_local.image_of_diameter` at each place of
    the support, on the diameter of the depth-r branch of the local order:
    +oo where the place splits in L, and otherwise core + 2(t - r) for t
    the conductor depth and a core of one vertex (L unramified there) or
    one edge (L ramified).  No embedding is infeasibility; a full image at
    a place inert in L is a strict place.
    """
    field = algebra.field
    validate_genus(algebra, genus)
    if fe_is_zero(delta):
        raise ValueError("delta must be nonzero")
    if field.is_rational and delta[1] != 0:
        raise ValueError("delta must be rational over Q")
    delta = _integral(delta)
    cond = _normalize_ideal_map(conductor)

    # --- feasibility, checked before any class field computation ---
    for key in algebra.real:
        if sign_at_real(field, delta, key) > 0:
            raise EmbeddingInfeasible(
                key, "the quadratic algebra splits at a ramified real place"
            )
    for place in algebra.finite:
        if is_local_square(field, delta, place):
            raise EmbeddingInfeasible(
                place.key(), "the quadratic algebra splits at a division place"
            )
    # one local kind per place: split, unramified or (failing sigma) ramified
    support = sorted(set(genus.support()) | {p for p, _ in cond})
    unbalanced = []
    for place in support:
        if place in algebra.finite:
            continue  # any integral quadratic order embeds; no distance condition
        t = _map_at(cond, place)
        r = genus.shift_at(place)
        d = genus.level_at(place)
        if t < r:
            raise EmbeddingInfeasible(
                place.key(), "the conductor is shallower than the genus shift"
            )
        # a split place is embedded once, for both tests
        embedded = _split_embed(field, delta, place) if place.tag == "split" else None
        if is_local_square(field, delta, place, embedded=embedded):
            inert, diameter = False, inf  # split in L
        else:
            inert = is_unramified_or_split(field, delta, place, embedded=embedded)
            diameter = (0 if inert else 1) + 2 * (t - r)
        image = spinor_local.image_of_diameter(diameter, d)
        if image is spinor_local.SpinorImage.NO_EMBEDDING:
            raise EmbeddingInfeasible(
                place.key(), "the suborder branch is smaller than the genus level"
            )
        if inert and image is spinor_local.SpinorImage.FULL:
            unbalanced.append(place.key())

    sigma = spinor_class_field(algebra, genus)
    if fe_is_square(field, delta):
        return RepField(1, sigma, ())  # L is not a field: K x K collapses
    in_sigma = _quadratic_in_sigma(sigma, delta)
    degree = 2 if in_sigma and not unbalanced else 1
    return RepField(degree, sigma, tuple(unbalanced))


def rep_field_rank3(algebra: QuatAlgebra, genus: Genus) -> RepField:
    """Representation field of a rank-3 suborder genus: admitting one
    forces the algebra to be split everywhere, and the field is the base
    field itself."""
    if not algebra.is_split_everywhere:
        raise AlgebraNotSplit(
            "rank-3 suborders only occur in the everywhere-split algebra"
        )
    validate_genus(algebra, genus)
    sigma = spinor_class_field(algebra, genus)
    return RepField(1, sigma, ())


def rep_field_rank4(algebra: QuatAlgebra, genus: Genus, sub: Genus) -> RepField:
    """Representation field of a rank-4 Eichler-type suborder genus.

    The suborder genus (level D2, shift J) embeds into the ambient genus
    (level D1, shift I) iff at every place v(J) >= v(I) and
    l(D2) + 2 v(J) >= l(D1) + 2 v(I); the representation field is the
    largest subfield of the spinor class field split at every place where
    the second inequality is strict.
    """
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
    degree = _genus_degree(sigma.ray, sigma.forced + tuple(strict))
    return RepField(degree, sigma, tuple(p.key() for p in strict))
