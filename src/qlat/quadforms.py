"""Binary quadratic forms: reduction, composition, class groups.

Class groups of quadratic orders are computed through primitive integral
binary quadratic forms of the field discriminant: reduced-form enumeration
for negative discriminants, reduction-cycle enumeration for positive ones
(proper equivalence = same cycle, so the narrow class group is exactly the
cycle set).  Composition uses concordant forms, and ideals enter through
the classical prime-form correspondence.
"""

from __future__ import annotations

from collections import namedtuple
from functools import total_ordering
from math import gcd, isqrt

from .errors import ResourceLimit
# is_squarefree is unused here; bench/make_corpus.py imports it from this module.
from .exact_padic import Frozen, is_squarefree, legendre, sqrt_mod  # noqa: F401

# Largest |discriminant| whose class group is computed: reduced-form
# enumeration takes O(|disc|) steps, so larger requests exit with
# ResourceLimit instead of running for minutes.
MAX_CLASS_GROUP_DISC = 10**7


@total_ordering
class QForm(Frozen):
    """Primitive integral binary quadratic form a*x^2 + b*x*y + c*y^2.

    A class with the frozen dataclass's methods rather than a tuple: a
    tuple's `+` and `*` would concatenate and repeat forms, and its
    comparisons in C make global-classfield about 1.15x faster, which waits
    on ROADMAP item 1 (the benchmark's peak_rss_mb grows with the requests
    a run sends).
    """

    __slots__ = __match_args__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) == (other.a, other.b, other.c)
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) < (other.a, other.b, other.c)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __repr__(self):
        return f"QForm(a={self.a!r}, b={self.b!r}, c={self.c!r})"

    def __reduce__(self):  # copy and pickle through __init__, not setattr
        return QForm, (self.a, self.b, self.c)

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


def principal_form(disc: int) -> QForm:
    b0 = disc % 2
    return QForm(1, b0, (b0 * b0 - disc) // 4)


# ---------------------------------------------------------------------------
# Reduction


def reduce_definite(f: QForm) -> QForm:
    """Unique reduced representative for negative discriminant (a > 0)."""
    a, b, c = f.a, f.b, f.c
    if f.disc >= 0:
        raise ValueError("definite reduction needs negative discriminant")
    if a < 0:
        raise ValueError("positive-definite forms only")
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if not (-a < b <= a):
            b2 = (b + a) % (2 * a) - a
            if b2 <= -a:
                b2 += 2 * a
            c = c + (b2 * b2 - b * b) // (4 * a)
            b = b2
            continue
        if a == c and b < 0:
            b = -b
            continue
        return QForm(a, b, c)


def _normalize_b(b: int, a_abs: int, s0: int) -> int:
    """Representative of b mod 2|a| inside the standard reduction window."""
    lo = -a_abs if a_abs > s0 else s0 - 2 * a_abs
    # unique b' = b mod 2|a| with lo < b' <= lo + 2|a|
    return (b - lo - 1) % (2 * a_abs) + lo + 1


def is_reduced_indefinite(f: QForm) -> bool:
    """|sqrt(D) - 2|a|| < b < sqrt(D), in exact integer arithmetic."""
    d = f.disc
    s0 = isqrt(d)
    b, ta = f.b, 2 * abs(f.a)
    if not (0 < b <= s0):
        return False
    if (b + ta) ** 2 <= d:  # sqrt(D) >= b + 2|a| violates the left bound
        return False
    if ta > b and (ta - b) ** 2 >= d:
        return False
    return True


def rho_step(f: QForm) -> QForm:
    """One reduction / cycle step for indefinite forms."""
    d = f.disc
    s0 = isqrt(d)
    a2 = f.c
    b2 = _normalize_b(-f.b, abs(a2), s0)
    return QForm(a2, b2, (b2 * b2 - d) // (4 * a2))


def reduce_indefinite(f: QForm) -> QForm:
    while not is_reduced_indefinite(f):
        f = rho_step(f)
    return f


def form_cycle(f: QForm) -> tuple[QForm, ...]:
    """The full reduction cycle through f (f indefinite)."""
    f0 = reduce_indefinite(f)
    cyc = [f0]
    g = rho_step(f0)
    while g != f0:
        cyc.append(g)
        g = rho_step(g)
    return tuple(cyc)


def class_rep(f: QForm, disc: int) -> QForm:
    """Canonical representative of the proper equivalence class of f."""
    if f.disc != disc:
        raise ValueError("discriminant mismatch")
    if disc < 0:
        return reduce_definite(f)
    return min(form_cycle(f))


# ---------------------------------------------------------------------------
# Composition


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _represent_coprime_to(f: QForm, n: int) -> QForm:
    """A properly equivalent form whose leading coefficient is coprime to n."""
    bound = 1
    while True:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if gcd(x, y) != 1:
                    continue
                val = f.value(x, y)
                if val != 0 and gcd(val, n) == 1:
                    g, u0, v0 = _ext_gcd(x, y)
                    if g < 0:
                        g, u0, v0 = -g, -u0, -v0
                    assert g == 1
                    # unimodular column completion (x, y), (u, v): x*v - y*u = 1
                    u, v = -v0, u0
                    a, b, c = f.a, f.b, f.c
                    nb = 2 * (a * x * u + c * y * v) + b * (x * v + y * u)
                    nc = f.value(u, v)
                    return QForm(val, nb, nc)
        bound *= 2
        if bound > 1 << 12:  # pragma: no cover - primitive forms always represent
            raise AssertionError("no coprime representation found")


def compose(f1: QForm, f2: QForm) -> QForm:
    """Gauss composition via concordant forms (result not reduced)."""
    d = f1.disc
    if f2.disc != d:
        raise ValueError("forms must share a discriminant")
    g2 = _represent_coprime_to(f2, 2 * f1.a)
    a1, b1 = f1.a, f1.b
    a2, b2 = g2.a, g2.b
    # CRT: B = b1 (mod 2*a1), B = b2 (mod 2*a2); gcd(a1, a2) = 1.
    k = (b2 - b1) // 2 * pow(a1, -1, abs(a2)) % abs(a2)
    bb = b1 + 2 * a1 * k
    aa = a1 * a2
    cc = (bb * bb - d) // (4 * aa)
    return QForm(aa, bb, cc)


# ---------------------------------------------------------------------------
# Class groups


class ClassGroup(namedtuple("ClassGroup", "disc reps")):
    """The form class group of a fundamental discriminant.

    For disc > 0 this is the narrow class group (proper equivalence of
    forms).  `reps` lists one canonical representative per class, sorted.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.reps)

    @property
    def identity(self) -> QForm:
        return class_rep(principal_form(self.disc), self.disc)

    def op(self, f: QForm, g: QForm) -> QForm:
        return class_rep(compose(f, g), self.disc)


def _enumerate_definite(disc: int) -> tuple[QForm, ...]:
    out = []
    a = 1
    while 3 * a * a <= -disc:
        four_a = 4 * a
        # b runs over (-a, a] with b = disc (mod 2)
        for b in range(-a + 1 + (a + 1 + disc) % 2, a + 1, 2):
            c, r = divmod(b * b - disc, four_a)
            if r or c < a or (a == c and b < 0):
                continue
            if gcd(gcd(a, b), c) == 1:
                out.append(QForm(a, b, c))
        a += 1
    return tuple(sorted(out))


def _divisors_signed(n: int):
    n = abs(n)
    ds = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            ds.append(d)
            if d != n // d:
                ds.append(n // d)
        d += 1
    for d in sorted(ds):
        yield d
        yield -d


def _enumerate_indefinite_reduced(disc: int) -> list[QForm]:
    """Reduced forms of a positive non-square discriminant, by b and then by
    the divisor a of -a*c in the order of `_divisors_signed`.  The tests are
    those of `is_reduced_indefinite`, with isqrt(disc) computed once."""
    s0 = isqrt(disc)
    out = []
    for b in range(2 - disc % 2, s0 + 1, 2):
        n4 = (disc - b * b) // 4  # = -a*c > 0
        for a in _divisors_signed(n4):
            ta = 2 * abs(a)
            # sqrt(D) >= b + 2|a| violates the left bound
            if (b + ta) ** 2 <= disc or (ta > b and (ta - b) ** 2 >= disc):
                continue
            c = -n4 // a
            if gcd(gcd(a, b), c) == 1:
                out.append(QForm(a, b, c))
    return out


def class_group(disc: int) -> ClassGroup:
    """Form class group of a fundamental discriminant (narrow for disc > 0)."""
    if disc % 4 not in (0, 1) or disc in (0, 1):
        raise ValueError(f"{disc} is not a discriminant")
    if abs(disc) > MAX_CLASS_GROUP_DISC:
        raise ResourceLimit(
            f"|discriminant| {abs(disc)} exceeds the class-group cap "
            f"{MAX_CLASS_GROUP_DISC}"
        )
    if disc < 0:
        return ClassGroup(disc, _enumerate_definite(disc))
    left = set(_enumerate_indefinite_reduced(disc))
    reps = []
    while left:
        f = min(left)
        cyc = form_cycle(f)
        assert set(cyc) <= left, "cycle escaped the reduced-form set"
        left -= set(cyc)
        reps.append(min(cyc))
    return ClassGroup(disc, tuple(sorted(reps)))


def negative_identity_class(disc: int) -> QForm:
    """Class of the form representing -1 (disc > 0); the narrow-vs-wide gap."""
    if disc <= 0:
        raise ValueError("positive discriminant required")
    b0 = disc % 2
    return class_rep(QForm(-1, b0, (disc - b0 * b0) // 4), disc)


# ---------------------------------------------------------------------------
# Prime forms and splitting


def kronecker_at(disc: int, p: int) -> int:
    """Kronecker symbol (disc/p): 1 split, -1 inert, 0 ramified."""
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 == 1 else -1
    return legendre(disc % p, p)


def prime_form(disc: int, p: int, selector: int = 1) -> QForm:
    """Form (p, b, c) of the prime ideal above p; selector picks the branch.

    For split odd p the two ideals above p correspond to the two square
    roots of the radicand m modulo p; selector 1 takes the root that lifts
    the smaller nonnegative residue (the canonical local root), selector 2
    its negative.  For split p = 2 (disc = m = 1 mod 8) selector 1 is the
    branch sending sqrt(m) to the canonical dyadic root (the one = 1 mod 4),
    which corresponds to b = 1 mod 4.  Ramified primes have a unique b in
    {0, p} matching parity; inert primes have no prime form (their ideal
    class is trivial: the ideal is (p)).
    """
    sym = kronecker_at(disc, p)
    if sym == -1:
        raise ValueError(f"{p} is inert: the ideal (p) is principal")
    if sym == 0:
        for b in (0, p):
            if (b - disc) % 2 == 0 and (b * b - disc) % (4 * p) == 0:
                return QForm(p, b, (b * b - disc) // (4 * p))
        raise AssertionError("no ramified prime form")  # pragma: no cover
    if selector not in (1, 2):
        raise ValueError("selector must be 1 or 2")
    if p == 2:
        b = 1 if selector == 1 else 3
        return QForm(2, b, (b * b - disc) // 8)
    # odd split prime: b = tau * root of m (mod p), parity-adjusted mod 2p
    tau = 1 if disc % 4 == 1 else 2
    m = disc if disc % 4 == 1 else disc // 4
    r = sqrt_mod(m % p, p)
    assert r is not None
    r = min(r, p - r)
    if selector == 2:
        r = p - r
    b = (tau * r) % p
    if (b - disc) % 2 != 0:
        b += p
    return QForm(p, b, (b * b - disc) // (4 * p))

