"""Binary quadratic forms: reduction, composition, class groups, units."""

import pytest

import oracles
from helpers import (
    class_inverse,
    fundamental_discriminant,
    fundamental_unit,
    is_primitive,
    make_rng,
    pell_minimal,
    unit_norm_is_minus_one,
)
from qlat.errors import ResourceLimit
from qlat.exact_padic import is_squarefree
from qlat.quadforms import (
    MAX_CLASS_GROUP_DISC,
    QForm,
    class_group,
    class_rep,
    compose,
    form_cycle,
    is_reduced_indefinite,
    kronecker_at,
    negative_identity_class,
    prime_form,
    principal_form,
    reduce_definite,
    reduce_indefinite,
)


# ---------------------------------------------------------------------------
# basics


def test_disc_and_values():
    f = QForm(2, 1, 3)
    assert f.disc == 1 - 24 == -23
    assert f.value(1, 0) == 2
    assert f.value(0, 1) == 3
    assert f.value(1, 1) == 6
    assert is_primitive(f)
    assert not is_primitive(QForm(2, 2, 4))


def test_fundamental_discriminant():
    assert fundamental_discriminant(10) == 40
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(3) == 12
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(-5) == -20
    assert fundamental_discriminant(-23) == -23


def test_is_squarefree():
    assert is_squarefree(10) and is_squarefree(-23) and is_squarefree(1)
    assert not is_squarefree(12) and not is_squarefree(-20) and not is_squarefree(0)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_definite_random():
    rng = make_rng(7)
    for _ in range(100):
        a = rng.randrange(1, 20)
        b = rng.randrange(-30, 30)
        c = rng.randrange(1, 40)
        f = QForm(a, b, c)
        if f.disc >= 0:
            continue
        r = reduce_definite(f)
        assert r.disc == f.disc
        assert -r.a < r.b <= r.a <= r.c
        assert not (r.a == r.c and r.b < 0)
        assert reduce_definite(r) == r  # idempotent
        # the reduced form attains the minimum of the original form
        vals = [
            f.value(x, y)
            for x in range(-6, 7)
            for y in range(-6, 7)
            if (x, y) != (0, 0)
        ]
        assert r.a == min(vals)


def test_reduce_indefinite_cycles():
    f = reduce_indefinite(principal_form(40))
    assert is_reduced_indefinite(f)
    cyc = form_cycle(f)
    assert set(cyc) == {QForm(1, 6, -1), QForm(-1, 6, 1)}
    assert class_rep(principal_form(40), 40) == QForm(-1, 6, 1)

    cyc12 = form_cycle(principal_form(12))
    assert set(cyc12) == {QForm(1, 2, -2), QForm(-2, 2, 1)}


# ---------------------------------------------------------------------------
# class groups (frozen small tables)


def test_class_group_minus_20():
    g = class_group(-20)
    assert g.order == 2
    assert set(g.reps) == {QForm(1, 0, 5), QForm(2, 2, 3)}
    assert g.identity == QForm(1, 0, 5)
    f = QForm(2, 2, 3)
    assert g.op(f, f) == g.identity
    assert class_inverse(g, f) == f


def test_class_group_minus_23():
    g = class_group(-23)
    assert g.order == 3
    assert set(g.reps) == {QForm(1, 1, 6), QForm(2, 1, 3), QForm(2, -1, 3)}
    f = QForm(2, 1, 3)
    f2 = g.op(f, f)
    assert f2 == QForm(2, -1, 3)
    assert g.op(f2, f) == g.identity
    assert class_inverse(g, f) == f2


def test_class_group_narrow_40():
    g = class_group(40)
    assert g.order == 2
    nonprincipal = next(r for r in g.reps if r != g.identity)
    assert g.op(nonprincipal, nonprincipal) == g.identity


def test_class_group_narrow_12():
    g = class_group(12)
    assert g.order == 2  # wide class number is 1; the unit norm is +1


def test_group_laws_random():
    rng = make_rng(11)
    for disc in (-23, -20, 40, 12, -47):
        g = class_group(disc)
        reps = list(g.reps)
        for _ in range(15):
            a, b, c = (rng.choice(reps) for _ in range(3))
            assert g.op(a, g.op(b, c)) == g.op(g.op(a, b), c)
            assert g.op(a, g.identity) == class_rep(a, disc)
            assert g.op(a, class_inverse(g, a)) == g.identity
            assert g.op(a, b) == g.op(b, a)
            assert g.op(a, b) in reps


def test_compose_requires_matching_disc():
    with pytest.raises(ValueError):
        compose(QForm(1, 0, 5), QForm(1, 1, 6))


def test_subgroup_closure():
    g = class_group(-23)
    assert oracles.subgroup(g, []) == {g.identity}
    assert oracles.subgroup(g, [QForm(2, 1, 3)]) == set(g.reps)


def test_class_group_rejects_non_discriminants():
    for bad in (0, 1, 2, -3 + 1, 7):
        if bad % 4 in (0, 1) and bad not in (0, 1):
            continue
        with pytest.raises(ValueError):
            class_group(bad)


def test_class_group_caps_the_discriminant():
    for disc in (-(MAX_CLASS_GROUP_DISC + 4), 4 * 1000000007):
        with pytest.raises(ResourceLimit):
            class_group(disc)


# ---------------------------------------------------------------------------
# prime forms


def test_kronecker_at():
    assert kronecker_at(40, 3) == 1
    assert kronecker_at(40, 7) == -1
    assert kronecker_at(40, 2) == 0
    assert kronecker_at(40, 5) == 0
    assert kronecker_at(17, 2) == 1
    assert kronecker_at(-23, 2) == 1
    assert kronecker_at(5, 2) == -1


def test_prime_form_inert_raises():
    with pytest.raises(ValueError):
        prime_form(40, 7)


def test_prime_form_ramified():
    f = prime_form(40, 2)
    assert (f.a, f.disc) == (2, 40)
    g = class_group(40)
    assert g.op(f, f) == g.identity  # ramified ideal squares to (p)


def test_prime_form_split_odd():
    f = prime_form(-20, 3, 1)
    assert f.a == 3 and f.disc == -20
    assert reduce_definite(f) == QForm(2, 2, 3)  # nonprincipal
    g = class_group(-20)
    f2 = prime_form(-20, 3, 2)
    assert g.op(f, f2) == g.identity  # conjugate ideals multiply to (p)


def test_prime_form_split_two_selector():
    # disc = 17 = 1 mod 8: selector 1 takes b = 1 mod 4
    f1 = prime_form(17, 2, 1)
    f2 = prime_form(17, 2, 2)
    assert f1 == QForm(2, 1, -2)
    assert f2 == QForm(2, 3, -1)
    with pytest.raises(ValueError):
        prime_form(17, 2, 3)


def test_prime_form_classes_in_real_field():
    # in Q(sqrt 10): 3 is not a norm, so the prime above 3 is nonprincipal;
    # 31 = 11^2 - 10*3^2 is a norm, so the primes above 31 are principal
    g = class_group(40)
    p3 = class_rep(prime_form(40, 3, 1), 40)
    assert p3 != g.identity
    p31 = class_rep(prime_form(40, 31, 1), 40)
    assert p31 == g.identity


# ---------------------------------------------------------------------------
# units


def test_pell_minimal():
    assert pell_minimal(10) == (3, 1, -1)
    assert pell_minimal(2) == (1, 1, -1)
    assert pell_minimal(3) == (2, 1, 1)
    with pytest.raises(ValueError):
        pell_minimal(9)


def test_fundamental_unit():
    assert fundamental_unit(5) == (1, 1, 2, -1)
    assert fundamental_unit(10) == (3, 1, 1, -1)
    assert fundamental_unit(3) == (2, 1, 1, 1)
    x, y, den, n = fundamental_unit(13)  # (3 + sqrt 13)/2, norm -1
    assert (x, y, den, n) == (3, 1, 2, -1)
    assert (x * x - 13 * y * y) // (den * den) == n
    with pytest.raises(ValueError):
        fundamental_unit(12)


def test_unit_norm_and_negative_identity():
    assert unit_norm_is_minus_one(10)
    assert not unit_norm_is_minus_one(3)
    # norm -1 unit => -1 is totally positive up to units => narrow == wide
    g40 = class_group(40)
    assert negative_identity_class(40) == g40.identity
    g12 = class_group(12)
    assert negative_identity_class(12) != g12.identity
    with pytest.raises(ValueError):
        negative_identity_class(-20)
