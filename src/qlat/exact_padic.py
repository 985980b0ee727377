"""Exact arithmetic over Z localized at a prime p.

The local ring Z_(p) = {a/b : p does not divide b} enters only through
p-adic valuations and residues modulo powers of p: an element is
local-integral iff its valuation is >= 0, a prime-to-p integer is a unit,
and no p-adic approximation is ever needed.  Everything is integers: a
matrix is integers over one denominator, and so is each row of a module.
The few functions that take a rational (`valuation`, `is_local_square_rat`,
`Mat2.of` and `Mat2`'s scalar product) read its `numerator` and
`denominator`, which ints and `fractions.Fraction`s both have.

- `valuation` / `int_valuation`: valuations of rationals and of integers,
  the latter read only as deep as an optional cap.
- `sqrt_mod`: the smallest square root modulo a prime (Tonelli-Shanks).
- `is_square_mod`: the one square-class rule, on integers, behind every
  local square and unramified test; `is_local_square_int` / `_rat`.
- `prime_divisors`: the one trial-division factorizer, capped at
  `MAX_TRIAL_DIVISOR`.  `is_prime` divides by the numbers below 64 and
  then runs a strong-pseudoprime test, proven below `SPRP_BOUND`;
  `is_squarefree` divides up to the cube root of the cofactor.
- `Mat2`: immutable exact 2x2 matrices, the integer tuple (den, a, b, c, d)
  in lowest terms; `commute` compares two of them on those integers.
- `smith_local`: elementary-divisor exponents of an invertible 2x2 matrix.
- `Module4`: finitely generated Z_(p)-submodules of the 2x2 matrices in
  their unique canonical Hermite basis, held as integer rows over one
  denominator, so module equality is tuple equality.  `module_hnf` and
  `module_intersect` eliminate on integers: rows are scaled by prime-to-p
  units and reduced with inverses modulo powers of p.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, pairwise
from math import gcd, inf, isqrt, lcm

from .errors import ResourceLimit, SingularMatrix

# Trial division stops here: every prime below 10^12 is still decided, and
# factoring one integer costs at most about half a million divisions.
MAX_TRIAL_DIVISOR = 10**6

# Strong-pseudoprime tests to the first 13 prime bases decide primality
# below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017): no composite below it passes all 13.
SPRP_BOUND = 3317044064679887385961981
SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_DIVISORS = (2, *range(3, 64, 2))

#: Flat coordinate order used for matrices throughout: row-major
#: (m00, m01, m10, m11).


def valuation(x, p: int):
    """p-adic valuation of a rational; +infinity for zero."""
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def int_valuation(n: int, p: int, cap=inf):
    """min(v_p(n), cap) for an integer n and a cap >= 0, with v_p(0) =
    +infinity: the p-adic valuation, read only as deep as a minimum it
    feeds can use.  It takes at most cap divisions by p, and past 32 the
    rest by `valuation_by_squares`, unless one division by p^(cap - 32)
    shows the cap is reached."""
    if n == 0:
        return cap
    if p == 2:
        return min((n & -n).bit_length() - 1, cap)
    v = 0
    while v < cap and n % p == 0:
        if v == 32:  # below about 32, one division at a time is cheaper
            if cap != inf and n % p ** (cap - v) == 0:
                return cap
            return v + valuation_by_squares(n, p)
        n //= p
        v += 1
    return v


def valuation_by_squares(n: int, p: int) -> int:
    """v_p(n) for n != 0, dividing by p, p^2, p^4, ... while they divide and
    then by the same powers in falling order: O(log v) divisions, not v."""
    powers, q, v = [], p, 0
    while n % q == 0:
        n //= q
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    for k in reversed(range(len(powers))):
        if n % powers[k] == 0:
            n //= powers[k]
            v += 1 << k
    return v


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
    """Is n prime?  Trial division by 2 and the odd d below 64 decides n as
    soon as d divides it or d^2 > n; any other n below `SPRP_BOUND` is
    decided by the strong-pseudoprime test to `SPRP_BASES`.  At or above
    the bound, `prime_divisors` runs to its cap."""
    if n >= SPRP_BOUND:
        return next(prime_divisors(n)) == n
    if n < 2:
        return False
    for d in _SMALL_DIVISORS:
        if d * d > n:
            return True
        if n % d == 0:
            return False
    return all(_is_strong_probable_prime(n, a) for a in SPRP_BASES)


def _is_strong_probable_prime(n: int, a: int) -> bool:
    """Does the odd n > a pass the strong-pseudoprime test to base a: with
    n - 1 = 2^s q and q odd, a^q = 1 or a^(2^i q) = -1 mod n for some i < s?"""
    q = n - 1
    s = (q & -q).bit_length() - 1
    x = pow(a, q >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_squarefree(m: int) -> bool:
    """Is m nonzero and free of square factors?

    Below MAX_TRIAL_DIVISOR^2, divide by d while d^3 <= the cofactor n: the
    n left then has no prime factor up to its cube root, so it is 1, a
    prime, a product of two primes or the square of one, and is squarefree
    unless it is a square above 1.  At or above it, `prime_divisors` runs
    to its cap.
    """
    n = abs(m)
    if n >= MAX_TRIAL_DIVISOR**2:
        return all(a != b for a, b in pairwise(prime_divisors(n)))
    if n % 4 == 0:  # 0 too
        return False
    if n % 2 == 0:
        n //= 2
    d = 3
    while d * d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        d += 2
    return n == 1 or isqrt(n) ** 2 != n


def is_local_square_rat(x, p: int) -> bool:
    """Is the nonzero rational x a square in the p-adic completion?"""
    # n / d and n d differ by the square d^2
    return is_local_square_int(x.numerator * x.denominator, p)


def is_local_square_int(n: int, p: int) -> bool:
    """Is the nonzero integer n a square in the p-adic completion?"""
    return is_square_mod(n, p, 3 if p == 2 else 1)


def is_square_mod(n: int, p: int, k: int) -> bool:
    """Is the nonzero integer n = p^v u with v even and the unit u a square
    modulo p^k?  With e = v_p(2), k = 2e + 1 decides a p-adic square and
    k = 2e decides Q_p(sqrt(n)) unramified or split (O'Meara, §63).  An odd
    unit square modulo 8 is one modulo every 2^k, and the Legendre symbol
    decides every k >= 1 at odd p."""
    if n == 0:
        raise ZeroDivisionError("square class of zero")
    v = int_valuation(n, p)
    if v % 2:
        return False
    u = n // p**v
    if p == 2:
        return (u - 1) % (1 << min(k, 3)) == 0
    return k == 0 or legendre(u, p) == 1


# ---------------------------------------------------------------------------
# 2x2 matrices


def over_lcm(pairs) -> tuple[int, ...]:
    """(den, n_1 * den / d_1, ...) for rationals given as (numerator,
    denominator) pairs with denominators > 0: the rationals as integers over
    den, the lcm of their denominators."""
    den = lcm(*(d for _, d in pairs))
    return (den, *(n * (den // d) for n, d in pairs))


class Frozen:
    """Base of the value types whose instances hold attributes besides
    tuple fields, and refuse every assignment: the slots of `QForm`, and
    the dict where `cached_property` stores the values of `Genus` once."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Mat2(namedtuple("Mat2", "den a b c d")):
    """Immutable exact 2x2 matrix [[a, b], [c, d]] / den in integers, in
    lowest terms with den > 0, so equal matrices are equal tuples.

    The local algorithms read the fields, and take any integer 5-tuple
    (den, a, b, c, d) alike, in lowest terms or not, such as a `Module4`
    row over its denominator.  `m00`-`m11` are the entries as `Fraction`s,
    row-major, for callers outside the package.
    """

    __slots__ = ()

    def __new__(cls, den: int, a: int, b: int, c: int, d: int):
        if den == 0:
            raise ZeroDivisionError("matrix over a zero denominator")
        g = gcd(den, a, b, c, d) if den > 0 else -gcd(den, a, b, c, d)
        return tuple.__new__(cls, (den // g, a // g, b // g, c // g, d // g))

    @staticmethod
    def of(rows) -> "Mat2":
        """The matrix of rational rows [[a, b], [c, d]]: ints, `Fraction`s or
        anything else with a numerator and a denominator."""
        (a, b), (c, d) = rows
        return Mat2(*over_lcm([(x.numerator, x.denominator) for x in (a, b, c, d)]))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 1, 0, 0, 1)

    @staticmethod
    def scalar(x) -> "Mat2":
        return Mat2.of([[x, 0], [0, x]])

    def _entry(self, i: int):
        # No request reads an entry as a rational, so `fractions` loads here.
        from fractions import Fraction

        return Fraction(self[i], self.den)

    m00 = property(lambda self: self._entry(1))
    m01 = property(lambda self: self._entry(2))
    m10 = property(lambda self: self._entry(3))
    m11 = property(lambda self: self._entry(4))

    def __add__(self, other: "Mat2") -> "Mat2":
        n, a, b, c, d = self
        m, e, f, g, h = other
        return Mat2(n * m, a * m + e * n, b * m + f * n, c * m + g * n, d * m + h * n)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return self + -other

    def __neg__(self) -> "Mat2":
        n, a, b, c, d = self
        return Mat2(n, -a, -b, -c, -d)

    def __mul__(self, other):
        n, a, b, c, d = self
        if isinstance(other, Mat2):
            m, e, f, g, h = other
            return Mat2(
                n * m, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            )
        k = other.numerator  # a rational scalar
        return Mat2(n * other.denominator, a * k, b * k, c * k, d * k)

    def __rmul__(self, other) -> "Mat2":
        return self * other  # a scalar: Mat2 * Mat2 runs __mul__

    def inverse(self) -> "Mat2":
        """n adj(A) / det A for self = A / n."""
        n, a, b, c, d = self
        dt = a * d - b * c
        if dt == 0:
            raise SingularMatrix("matrix is not invertible")
        return Mat2(dt, n * d, -n * b, -n * c, n * a)


def commute(a, b) -> bool:
    """ab = ba, for two matrices or integer 5-tuples: ab - ba has diagonal
    +-(a01 b10 - a10 b01) and corners a01 (b11 - b00) - b01 (a11 - a00)
    and its mirror, and a common denominator does not change that."""
    _, a0, a1, a2, a3 = a
    _, b0, b1, b2, b3 = b
    return (
        a1 * b2 == a2 * b1
        and a1 * (b3 - b0) == b1 * (a3 - a0)
        and a2 * (b3 - b0) == b2 * (a3 - a0)
    )


# ---------------------------------------------------------------------------
# Local Smith form


def smith_local(g, p: int) -> tuple[int, int]:
    """Elementary-divisor exponents (e1, e2), e1 <= e2, over Z_(p) of g, a
    matrix or an integer 5-tuple (den, a, b, c, d).

    e1 is the minimal entry valuation and e1 + e2 = v_p(det g).
    """
    den, a, b, c, d = g
    dt = a * d - b * c
    if dt == 0:
        raise SingularMatrix("smith form requires an invertible matrix")
    k = int_valuation(den, p)
    e1 = min(int_valuation(x, p) for x in (a, b, c, d)) - k
    return e1, int_valuation(dt, p) - 2 * k - e1


# ---------------------------------------------------------------------------
# Canonical modules of 2x2 matrices


class Module4(namedtuple("Module4", "p den rows")):
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

    __slots__ = ()

    @staticmethod
    def of(p: int, den: int, rows) -> "Module4":
        """The module of canonical rows over den, common factors cancelled."""
        rows = list(rows)
        g = gcd(den, *chain.from_iterable(rows))
        return Module4(p, den // g, tuple(tuple(x // g for x in r) for r in rows))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[Mat2, ...]:
        return tuple(Mat2(self.den, *r) for r in self.rows)


def _over_ppow(parts, p: int):
    """The rows of each (den, rows) part as integers over one power q of p,
    and q.  The prime-to-p part of a denominator is a unit and is dropped."""
    parts = [(p ** int_valuation(den, p), rows) for den, rows in parts]
    q = max((k for k, _ in parts), default=1)
    return [[[x * (q // k) for x in r] for r in rows] for k, rows in parts], q


def integer_rows(mats, p: int):
    """The matrices as flat integer rows over one power q of p, and q: each
    is scaled by a unit, so the rows span the same module and generate the
    same order."""
    parts, q = _over_ppow([(m[0], [m[1:]]) for m in mats], p)
    return [r for (r,) in parts], q


def _echelon(rows, p: int):
    """Pivot rows of an echelon form over Z_(p) of integer rows.

    Returns (column, row, p^e) for each pivot, p^e the p-part of its pivot
    entry.  The pivot of a column is the first row whose entry there has
    the least valuation; every other row r with entry y becomes
    (x/g) r - (y/g) pivot, for the pivot entry x and g = gcd(x, y).  The
    factor x/g is prime to p, so no step changes the Z_(p)-span.
    """
    rows = [r for r in rows if any(r)]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        live = [i for i, r in enumerate(rows) if r[col]]
        if not live:
            continue
        pe = p ** int_valuation(gcd(*(rows[i][col] for i in live)), p)
        pivot = rows.pop(next(i for i in live if rows[i][col] // pe % p))
        x = pivot[col]
        rest = []
        for r in rows:
            y = r[col]
            if y:
                g = gcd(x, y)
                r = [x // g * s - y // g * t for s, t in zip(r, pivot)]
                if not any(r):
                    continue
            rest.append(r)
        rows = rest
        out.append((col, pivot, pe))
    return out


def _hermite(pivots, p: int, den: int) -> Module4:
    """The canonical module of echelon rows (as from `_echelon`) over den.

    Row i is held as X_i / (d w_i), d the p-part of den and w_i > 0 the
    prime-to-p part of its pivot entry, so its pivot is a power of p.  Its
    entry y at the pivot of a later row j, with pivot entry p^e w_j, is
    reduced with the inverse of w_i mod p^e: row i loses t / w_i times row
    j for t = (y - w_i R) / p^e and the residue R = y / w_i mod p^e, so X_i
    becomes w_j X_i - t X_j over d w_i w_j.  At rank 4 every w_i ends at 1.
    """
    rows = []
    for col, x, pe in pivots:
        w = x[col] // pe
        g = gcd(w, *x) if w > 0 else -gcd(w, *x)
        rows.append([col, [s // g for s in x], pe, w // g])
    for i in range(len(rows) - 2, -1, -1):
        _, x, _, w = rows[i]
        for col, xj, pe, wj in rows[i + 1 :]:
            y = x[col]
            t = y // pe if w == 1 else (y - w * (y * pow(w, -1, pe) % pe)) // pe
            if t:
                x = [wj * s - t * u for s, u in zip(x, xj)]
                w *= wj
                if w > 1:
                    g = gcd(w, *x)
                    x, w = [s // g for s in x], w // g
        rows[i][1], rows[i][3] = x, w
    m = lcm(*(w for *_, w in rows))
    d = p ** int_valuation(den, p)
    return Module4.of(p, d * m, ([s * (m // w) for s in x] for _, x, _, w in rows))


def module_hnf(gens, p: int, den: int | None = None) -> Module4:
    """Canonical Hermite basis of the Z_(p)-span of the given matrices.

    `gens` are Mat2s or, when `den` is given, integer rows
    (m00, m01, m10, m11) of matrices over the common denominator den.
    """
    if den is None:
        gens, den = integer_rows(gens, p)
    return _hermite(_echelon(gens, p), p, den)


def _common_rows(a: Module4, b: Module4):
    """The rows of two modules over one power q of p, and q."""
    if a.p != b.p:
        raise ValueError("modules over different primes")
    (ra, rb), q = _over_ppow(((a.den, a.rows), (b.den, b.rows)), a.p)
    return ra, rb, q


def module_intersect(a: Module4, b: Module4) -> Module4:
    """Canonical basis of the intersection of two Z_(p)-modules.

    Zassenhaus: over one power of p, the echelon form of the rows (x, x)
    for x in a and (y, 0) for y in b has, in the rows whose first half is
    zero, second halves that are an echelon basis of the intersection.
    """
    ra, rb, q = _common_rows(a, b)
    stacked = [r + r for r in ra] + [r + [0, 0, 0, 0] for r in rb]
    pivots = _echelon(stacked, a.p)
    return _hermite([(c - 4, r[4:], pe) for c, r, pe in pivots if c >= 4], a.p, q)
