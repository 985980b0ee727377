"""Exact arithmetic over Z localized at a prime p.

Everything is computed over exact rationals (`fractions.Fraction`).  The
local ring Z_(p) = {a/b : p does not divide b} enters only through p-adic
valuations: an element is local-integral iff its valuation is >= 0, and a
rational is a unit iff its valuation is 0.  No p-adic approximation is ever
needed because every quantity we derive is decided by finitely many
valuations.

The module provides:

- `valuation` / `int_valuation` / `reduce_mod_ppow`: valuations of rationals
  and of integers, and canonical residues modulo powers of p
  (representatives live in Z[1/p] and in [0, p^e)).
- `sqrt_mod`: the smallest square root modulo a prime (Tonelli-Shanks).
- `prime_divisors`: the one trial-division factorizer, capped at
  `MAX_TRIAL_DIVISOR`; `is_prime` and `is_squarefree` read it lazily.
- `Mat2`: immutable exact 2x2 matrices, with their entries cleared to
  integers over a common denominator.
- `smith_local`: elementary-divisor exponents of an invertible 2x2 matrix.
- `Module4`: finitely generated Z_(p)-submodules of the 4-dimensional space
  of 2x2 matrices, kept in a unique canonical Hermite basis so that module
  equality is plain structural equality.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, pairwise
from math import gcd, inf, isqrt

from .errors import ResourceLimit, SingularMatrix

# Trial division stops here: every prime below 10^12 is still decided, and
# factoring one integer costs at most about half a million divisions.
MAX_TRIAL_DIVISOR = 10**6

Rat = Fraction

#: Flat coordinate order used for matrices throughout: row-major
#: (m00, m01, m10, m11).


def valuation(x, p: int):
    """p-adic valuation of a rational; +infinity for zero."""
    x = Fraction(x)
    if x == 0:
        return inf
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def int_valuation(n: int, p: int):
    """p-adic valuation of an integer; +infinity for zero."""
    if n == 0:
        return inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def unit_part(x, p: int) -> Rat:
    """x / p^v(x), a p-adic unit (x must be nonzero)."""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("unit_part of zero")
    return x / Fraction(p) ** valuation(x, p)


def reduce_mod_ppow(x, p: int, e: int) -> Rat:
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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p: 1, -1, or 0."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """Smallest x in [0, p) with x^2 = a mod the prime p, or None.

    Tonelli-Shanks: write p - 1 = q * 2^s with q odd and correct the
    candidate a^((q+1)/2) by powers of a quadratic non-residue.
    """
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def is_rational_square(x) -> bool:
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    return rn * rn == n and rd * rd == d


def prime_divisors(n: int):
    """The prime factors of |n| in ascending order, with multiplicity;
    none for 0 and +-1.

    Lazy trial division by 2 and the odd numbers below `MAX_TRIAL_DIVISOR`.
    A cofactor of at least MAX_TRIAL_DIVISOR^2 left without a factor below
    the cap raises ResourceLimit, after the factors found before it.
    """
    n = abs(n)
    for d in chain((2,), range(3, MAX_TRIAL_DIVISOR, 2)):
        if d * d > n:
            break
        while n % d == 0:
            yield d
            n //= d
    else:
        if n >= MAX_TRIAL_DIVISOR**2:
            raise ResourceLimit(
                f"factoring {n} needs trial divisors past {MAX_TRIAL_DIVISOR}"
            )
    if n > 1:
        yield n


def is_prime(n: int) -> bool:
    return n > 1 and next(prime_divisors(n)) == n


def is_squarefree(m: int) -> bool:
    return m != 0 and all(a != b for a, b in pairwise(prime_divisors(m)))


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


# ---------------------------------------------------------------------------
# 2x2 matrices


@dataclass(frozen=True)
class Mat2:
    """Immutable exact 2x2 matrix; entries row-major (m00, m01, m10, m11)."""

    entries: tuple[Rat, Rat, Rat, Rat]

    @staticmethod
    def of(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2((Fraction(a), Fraction(b), Fraction(c), Fraction(d)))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2.of([[1, 0], [0, 1]])

    @staticmethod
    def zero() -> "Mat2":
        return Mat2.of([[0, 0], [0, 0]])

    @staticmethod
    def scalar(x) -> "Mat2":
        return Mat2.of([[x, 0], [0, x]])

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

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self) -> "Mat2":
        return Mat2(tuple(-x for x in self.entries))

    def __mul__(self, other):
        if isinstance(other, Mat2):
            a, b, c, d = self.entries
            e, f, g, h = other.entries
            return Mat2((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))
        x = Fraction(other)
        return Mat2(tuple(v * x for v in self.entries))

    def __rmul__(self, other) -> "Mat2":
        x = Fraction(other)
        return Mat2(tuple(x * v for v in self.entries))

    def scale(self, x) -> "Mat2":
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

    def inverse(self) -> "Mat2":
        dt = self.det()
        if dt == 0:
            raise SingularMatrix("matrix is not invertible")
        a, b, c, d = self.entries
        return Mat2((d / dt, -b / dt, -c / dt, a / dt))

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


def conjugate(h: Mat2, g: Mat2) -> Mat2:
    """g^-1 h g."""
    return g.inverse() * h * g


def commute(a: Mat2, b: Mat2) -> bool:
    return a * b == b * a


# ---------------------------------------------------------------------------
# Local Smith form


def smith_local(g: Mat2, p: int) -> tuple[int, int]:
    """Elementary-divisor exponents (e1, e2), e1 <= e2, of g over Z_(p).

    e1 is the minimal entry valuation and e1 + e2 = v_p(det g).
    """
    dt = g.det()
    if dt == 0:
        raise SingularMatrix("smith form requires an invertible matrix")
    e1 = g.min_valuation(p)
    return e1, valuation(dt, p) - e1


# ---------------------------------------------------------------------------
# Canonical modules of 2x2 matrices


def _flatten(m: Mat2) -> list[Rat]:
    return list(m.entries)


def _unflatten(row) -> Mat2:
    return Mat2((Fraction(row[0]), Fraction(row[1]), Fraction(row[2]), Fraction(row[3])))


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
            flat = m.entries
            cols.append(next(i for i in range(4) if flat[i] != 0))
        return tuple(cols)


def module_hnf(gens, p: int) -> Module4:
    """Canonical Hermite basis of the Z_(p)-span of the given matrices."""
    rows = [_flatten(g) for g in gens if any(x != 0 for x in g.entries)]
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


def module_sum(a: Module4, b: Module4) -> Module4:
    if a.p != b.p:
        raise ValueError("modules over different primes")
    return module_hnf(list(a.basis) + list(b.basis), a.p)


def module_contains(mod: Module4, m: Mat2) -> bool:
    """Is m in the Z_(p)-span?  Coefficients must be local integers."""
    p = mod.p
    r = _flatten(m)
    for col, b in zip(mod.pivot_columns(), mod.basis):
        if r[col] != 0:
            f = r[col] / b.entries[col]
            if valuation(f, p) < 0:
                return False
            r = [x - f * y for x, y in zip(r, b.entries)]
    return all(x == 0 for x in r)


def module_contains_module(inner: Module4, outer: Module4) -> bool:
    return all(module_contains(outer, m) for m in inner.basis)


def _integer_rows(mats, p: int, k: int):
    """Scale by p^k then clear prime-to-p denominators row by row."""
    out = []
    for m in mats:
        flat = [x * Fraction(p) ** k for x in m.entries]
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
        v = m.min_valuation(p)
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


def module_index_valuation(sub: Module4, sup: Module4) -> int:
    """v_p of the module index [sup : sub] for modules of equal rank.

    Requires sub to be contained in sup with matching pivot coordinates
    (always true at full rank 4).
    """
    if sub.p != sup.p or sub.rank != sup.rank:
        raise ValueError("index requires equal rank over the same prime")
    if sub.pivot_columns() != sup.pivot_columns():
        raise ValueError("pivot mismatch: modules not comparable by index")
    p = sub.p
    total = 0
    for msub, msup in zip(sub.basis, sup.basis):
        col = next(i for i in range(4) if msub.entries[i] != 0)
        total += valuation(msub.entries[col], p) - valuation(msup.entries[col], p)
    return total
