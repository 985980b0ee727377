"""Exact p-adic scalar and 2x2 module arithmetic."""

from fractions import Fraction
from math import inf

import pytest

from helpers import (
    apply,
    conjugate,
    discriminant,
    is_scalar,
    make_rng,
    module_contains,
    module_contains_module,
    module_index_valuation,
    module_sum,
    random_matrix,
    trace,
)
from oracles import is_rational_square, reduce_mod_ppow
from qlat.errors import SingularMatrix
from qlat.exact_padic import (
    Mat2,
    commute,
    int_valuation,
    is_local_square_rat,
    is_prime,
    is_square_mod,
    legendre,
    module_hnf,
    module_intersect,
    smith_local,
    unit_part,
    valuation,
    valuation_by_squares,
)


# ---------------------------------------------------------------------------
# scalars


def test_valuation_basics():
    assert valuation(0, 5) == inf
    assert valuation(1, 5) == 0
    assert valuation(50, 5) == 2
    assert valuation(Fraction(3, 50), 5) == -2
    assert valuation(Fraction(-250, 3), 5) == 3


def test_valuation_additive_in_products():
    rng = make_rng(101)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        x = Fraction(rng.randrange(-500, 500), rng.randrange(1, 60))
        y = Fraction(rng.randrange(-500, 500), rng.randrange(1, 60))
        if x == 0 or y == 0:
            continue
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
        assert valuation(x + y, p) >= min(valuation(x, p), valuation(y, p))


def _valuation_by_division(n: int, p: int):
    """v_p(n) for n != 0 by repeated division."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_dyadic_valuations_read_the_lowest_set_bit():
    """At p = 2, `int_valuation` reads the lowest set bit; on +-2^k u (u odd,
    k <= 3000) it agrees with repeated division, and it is inf on 0."""
    rng = make_rng(102)
    assert int_valuation(0, 2) == inf
    for k in [*range(70), 999, 1000, 1001, 2001, 2999, 3000]:
        for u in (1, 3, rng.randrange(1, 2**64, 2), rng.randrange(1, 2**4000, 2)):
            for n in (u << k, -(u << k)):
                assert int_valuation(n, 2) == _valuation_by_division(n, 2) == k


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_odd_valuations_divide_by_squared_powers(p):
    """At odd p, `int_valuation` divides by p up to 32 times, then by p,
    p^2, p^4, ... and back down; on +-p^k u (u prime to p, k <= 3000) it,
    and `valuation_by_squares` on its own, agree with repeated division,
    and it is inf on 0."""
    rng = make_rng(103 + p)
    assert int_valuation(0, p) == inf
    ks = [*range(40), 63, 64, 65, 127, 128, 999, 1000, 1001, 2047, 2048, 2999, 3000]
    ks += rng.sample(range(40, 3000), 8)
    for k in ks:
        pk = p**k
        for u in (1, p - 1, p + 1, rng.randrange(1, 2**64), rng.randrange(1, 2**1000)):
            u += u % p == 0
            assert _valuation_by_division(pk * u, p) == k
            for n in (pk * u, -pk * u):
                assert int_valuation(n, p) == valuation_by_squares(n, p) == k


def test_unit_part():
    assert unit_part(Fraction(50), 5) == 2
    assert unit_part(Fraction(3, 50), 5) == Fraction(3, 2)
    x = Fraction(-36, 7)
    assert unit_part(x, 3) * 3 ** valuation(x, 3) == x


def test_reduce_mod_ppow():
    assert reduce_mod_ppow(Fraction(7), 2, 2) == 3
    assert reduce_mod_ppow(Fraction(9), 3, 2) == 0
    # denominators prime to p are invertible residues: 1/2 = 5 mod 9
    assert reduce_mod_ppow(Fraction(1, 2), 3, 2) == 5
    # p-power denominators keep their tail (and may be their own residue)
    r = reduce_mod_ppow(Fraction(7, 3), 3, 1)
    assert valuation(r - Fraction(7, 3), 3) >= 1
    assert 0 <= r < 3
    r = reduce_mod_ppow(Fraction(10, 3), 3, 1)
    assert valuation(r - Fraction(10, 3), 3) >= 1
    assert 0 <= r < 3
    assert reduce_mod_ppow(Fraction(18), 3, 2) == 0


def test_legendre_against_euler_criterion():
    for p in (3, 5, 7, 11, 13):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in squares else -1
            assert legendre(a, p) == expected
        assert legendre(p, p) == 0


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_is_rational_square():
    assert is_rational_square(Fraction(4, 9))
    assert is_rational_square(Fraction(0))
    assert not is_rational_square(Fraction(-4, 9))
    assert not is_rational_square(Fraction(8, 9))


def test_is_square_mod_matches_a_residue_search():
    """n = p^v u with v even and u a square mod p^k, searched directly."""
    for p in (2, 3, 5, 7):
        for k in range(6):
            mod = p**k
            squares = {x * x % mod for x in range(mod)}
            for n in range(-300, 301):
                if n == 0:
                    continue
                v = int_valuation(n, p)
                want = v % 2 == 0 and n // p**v % mod in squares
                assert is_square_mod(n, p, k) == want, (n, p, k)
    with pytest.raises(ZeroDivisionError):
        is_square_mod(0, 3, 1)


def test_is_local_square_rat():
    # odd p: unit squares are quadratic residues; even valuation required
    assert is_local_square_rat(Fraction(2), 7)
    assert not is_local_square_rat(Fraction(3), 7)
    assert not is_local_square_rat(Fraction(7), 7)
    assert is_local_square_rat(Fraction(49), 7)
    # p = 2: unit squares are exactly 1 mod 8
    assert is_local_square_rat(Fraction(17), 2)
    assert not is_local_square_rat(Fraction(5), 2)
    assert not is_local_square_rat(Fraction(2), 2)
    assert is_local_square_rat(Fraction(4), 2)
    assert is_local_square_rat(Fraction(1, 4), 2)
    assert not is_local_square_rat(Fraction(-1), 2)


# ---------------------------------------------------------------------------
# matrices


def test_mat2_ring_ops():
    a = Mat2.of([[1, 2], [3, 4]])
    b = Mat2.of([[0, 1], [1, 0]])
    assert (a * b).rows() == ((2, 1), (4, 3))
    assert (a + b - a).rows() == b.rows()
    assert (2 * a).m00 == 2
    assert trace(a) == 5
    assert a.det() == -2
    assert discriminant(a) == 25 - 4 * (-2)
    assert a.inverse() * a == Mat2.identity()
    assert is_scalar(Mat2.scalar(3))
    assert not is_scalar(a)
    assert apply(a, (1, 0)) == (1, 3)


def test_mat2_inverse_requires_invertibility():
    with pytest.raises(SingularMatrix):
        Mat2.of([[1, 2], [2, 4]]).inverse()


def test_conjugate_and_commute():
    a = Mat2.of([[1, 2], [3, 4]])
    g = Mat2.of([[1, 1], [0, 1]])
    c = conjugate(a, g)
    assert c == g.inverse() * a * g
    assert trace(c) == trace(a)
    assert c.det() == a.det()
    assert commute(Mat2.of([[1, 0], [0, 2]]), Mat2.of([[3, 0], [0, 5]]))
    assert not commute(Mat2.of([[0, 1], [0, 0]]), Mat2.of([[0, 0], [1, 0]]))


def test_smith_local():
    assert smith_local(Mat2.of([[1, 0], [0, 1]]), 3) == (0, 0)
    assert smith_local(Mat2.of([[3, 0], [0, 9]]), 3) == (1, 2)
    assert smith_local(Mat2.of([[Fraction(1, 3), 0], [0, 9]]), 3) == (-1, 2)
    # unimodular transforms do not change the exponents
    rng = make_rng(7)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        g = random_matrix(rng, p)
        if g.det() == 0:
            continue
        u = Mat2.of([[1, rng.randrange(5)], [0, 1]])
        w = Mat2.of([[1, 0], [rng.randrange(5) * p, 1]])
        assert smith_local(u * g * w, p) == smith_local(g, p)


# ---------------------------------------------------------------------------
# modules


def _span(p, mats):
    return module_hnf([Mat2.of(m) for m in mats], p)


def test_module_hnf_canonical():
    p = 3
    m1 = _span(p, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    m2 = _span(p, [[[1, 1], [0, 0]], [[0, 1], [0, 0]], [[2, 5], [0, 0]]])
    assert m1 == m2
    assert m1.rank == 2


def test_module_contains():
    p = 3
    mod = _span(p, [[[1, 0], [0, 1]], [[0, 9], [0, 0]]])
    assert module_contains(mod, Mat2.of([[2, 18], [0, 2]]))
    assert not module_contains(mod, Mat2.of([[1, 3], [0, 1]]))
    assert not module_contains(mod, Mat2.of([[Fraction(1, 3), 0], [0, Fraction(1, 3)]]))
    # denominators prime to p are allowed
    assert module_contains(mod, Mat2.of([[Fraction(1, 2), Fraction(9, 2)], [0, Fraction(1, 2)]]))


def test_module_sum_and_intersect_lattice_laws():
    rng = make_rng(31)
    for _ in range(40):
        p = rng.choice([2, 3])
        a = module_hnf([random_matrix(rng, p) for _ in range(3)], p)
        b = module_hnf([random_matrix(rng, p) for _ in range(3)], p)
        s = module_sum(a, b)
        i = module_intersect(a, b)
        assert module_contains_module(a, s) and module_contains_module(b, s)
        assert module_contains_module(i, a) and module_contains_module(i, b)
        # absorption: a + (a cap b) = a and a cap (a + b) = a
        assert module_sum(a, i) == a
        assert module_intersect(a, s) == a
        # commutativity
        assert module_sum(b, a) == s
        assert module_intersect(b, a) == i


def test_module_index_valuation():
    p = 3
    big = _span(p, [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]])
    small = _span(
        p, [[[3, 0], [0, 0]], [[0, 9], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 3]]]
    )
    assert module_index_valuation(small, big) == 1 + 2 + 0 + 1
    assert module_index_valuation(big, big) == 0
