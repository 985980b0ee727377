"""Global engine: local symbols at places, ray class data, spinor class
fields, representation fields, and the local/global cross-check."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, inf, prod

import pytest

import oracles
from helpers import (
    fe,
    fe_conj,
    fe_inv,
    fe_pow,
    fundamental_discriminant,
    make_rng,
    selectivity_ratio,
)
from qlat import global_classfield
from qlat.branches import ThickPath, classify_single
from qlat.errors import AlgebraNotSplit, EmbeddingInfeasible, SchemaError
from qlat.exact_padic import Mat2, is_prime, is_squarefree
from qlat.global_classfield import (
    BaseField,
    Genus,
    QuatAlgebra,
    _prime_discriminants,
    fe_is_square,
    fe_mul,
    fe_norm,
    hensel_sqrt,
    is_local_square,
    is_unramified_or_split,
    narrow_ray_class_group,
    parse_place_key,
    rep_field_comm_quadratic,
    rep_field_rank3,
    rep_field_rank4,
    sign_at_real,
    spinor_class_field,
    val_at_place,
)
from qlat.spinor_local import SpinorImage, spinor_image

Q = BaseField.rationals()
K10 = BaseField.quadratic(10)
K5 = BaseField.quadratic(5)
K2 = BaseField.quadratic(2)
K3 = BaseField.quadratic(3)
Km5 = BaseField.quadratic(-5)


def place(field, key):
    return parse_place_key(field, key)


# ---------------------------------------------------------------------------
# fields, places, and keys


def test_base_field_validation():
    with pytest.raises(ValueError):
        BaseField.quadratic(12)
    with pytest.raises(ValueError):
        BaseField.quadratic(1)
    assert Q.is_rational and Q.discriminant == 1
    assert K10.discriminant == 40
    assert Km5.discriminant == -20
    assert Q.real_place_keys() == ("inf",)
    assert K10.real_place_keys() == ("inf1", "inf2")
    assert Km5.real_place_keys() == ()


def test_places_over_tags():
    assert [pl.tag for pl in Q.places_over(3)] == ["rational"]
    assert [pl.tag for pl in K10.places_over(3)] == ["split", "split"]
    assert [pl.tag for pl in K10.places_over(7)] == ["inert"]
    assert [pl.tag for pl in K10.places_over(2)] == ["ramified"]
    assert [pl.tag for pl in K10.places_over(5)] == ["ramified"]
    assert K10.places_over(31)[0].tag == "split"
    with pytest.raises(ValueError):
        K10.places_over(6)


def test_parse_place_key():
    assert place(K10, "3.1").selector == 1
    assert place(K10, "3.2").selector == 2
    assert place(K10, "7").tag == "inert"
    assert place(Q, "5").tag == "rational"
    for bad in ("3", "7.1", "abc", "3.9"):
        with pytest.raises(ValueError):
            place(K10, bad)


# ---------------------------------------------------------------------------
# field-element arithmetic


def test_fe_arithmetic():
    a = fe(Fraction(3), Fraction(1))  # 3 + sqrt(10)
    b = fe(Fraction(3), Fraction(-1))
    assert fe_conj(a) == b
    assert fe_norm(a, 10) == -1
    assert fe_mul(a, b, 10) == fe(-1, 0)
    assert fe_mul(a, fe_inv(a, 10), 10) == fe(1, 0)
    assert fe_pow(a, 2, 10) == fe(19, 6)
    assert fe_pow(a, -1, 10) == fe_inv(a, 10)


def test_fe_is_square():
    assert fe_is_square(K10, fe(Fraction(10), Fraction(0)))
    assert fe_is_square(K10, fe(Fraction(19), Fraction(6)))  # (3 + sqrt10)^2
    assert fe_is_square(K10, fe(Fraction(9), Fraction(0)))
    assert not fe_is_square(K10, fe(Fraction(2), Fraction(0)))
    assert not fe_is_square(K10, fe(Fraction(3), Fraction(1)))
    assert fe_is_square(Q, fe(Fraction(49, 4), Fraction(0)))
    assert not fe_is_square(Q, fe(Fraction(8), Fraction(0)))


# ---------------------------------------------------------------------------
# canonical local square roots


def test_hensel_sqrt_odd():
    r = hensel_sqrt(10, 3, 6)
    assert r * r % 3**6 == 10 % 3**6
    assert r % 3 == 1  # pinned to the smaller residue root
    for k in range(1, 6):
        assert hensel_sqrt(10, 3, k) == r % 3**k  # truncation-compatible
    with pytest.raises(ValueError):
        hensel_sqrt(2, 5, 3)  # 2 is not a residue mod 5
    with pytest.raises(ValueError):
        hensel_sqrt(3, 3, 2)  # not a unit


def test_hensel_sqrt_dyadic():
    r = hensel_sqrt(17, 2, 10)
    assert r * r % 2**10 == 17 % 2**10
    assert r % 4 == 1  # the canonical dyadic branch
    for k in range(1, 10):
        assert hensel_sqrt(17, 2, k) == r % 2**k
    with pytest.raises(ValueError):
        hensel_sqrt(5, 2, 4)


# ---------------------------------------------------------------------------
# valuations at places


def test_val_rational():
    pl = place(Q, "2")
    assert val_at_place(Q, (12, 0), pl) == 2
    assert val_at_place(Q, (3, 0), pl) == 0
    assert val_at_place(Q, (0, 0), pl) == inf
    # below the entry points elements are integral; the Fraction oracle
    # still reads 1/2
    assert oracles.val_at_place(Q, fe(Fraction(1, 2), Fraction(0)), pl) == -1


def test_val_split():
    p1, p2 = place(K10, "3.1"), place(K10, "3.2")
    assert val_at_place(K10, fe(Fraction(3), Fraction(0)), p1) == 1
    assert val_at_place(K10, fe(Fraction(3), Fraction(0)), p2) == 1
    assert val_at_place(K10, fe(Fraction(0), Fraction(1)), p1) == 0
    # norm(7 + sqrt10) = 39 = 3 * 13: valuation 1 at one branch, 0 at the other
    el = fe(Fraction(7), Fraction(1))
    vals = sorted((val_at_place(K10, el, p1), val_at_place(K10, el, p2)))
    assert vals == [0, 1]
    assert val_at_place(K10, fe_conj(el), p1) + val_at_place(K10, el, p1) == 1


def test_val_inert():
    pl = place(K10, "7")
    assert val_at_place(K10, fe(Fraction(7), Fraction(0)), pl) == 1
    assert val_at_place(K10, fe(Fraction(0), Fraction(7)), pl) == 1
    assert val_at_place(K10, fe(Fraction(3), Fraction(1)), pl) == 0


def test_val_ramified_odd():
    pl = place(K10, "5")
    assert val_at_place(K10, fe(Fraction(0), Fraction(1)), pl) == 1
    assert val_at_place(K10, fe(Fraction(5), Fraction(0)), pl) == 2
    assert val_at_place(K10, fe(Fraction(3), Fraction(0)), pl) == 0


def test_val_ramified_dyadic():
    # val_at_place takes integral elements as pairs of ints
    pl = place(K10, "2")  # m = 2 mod 4, uniformizer sqrt(10)... times unit
    assert val_at_place(K10, (0, 1), pl) == 1
    assert val_at_place(K10, (2, 0), pl) == 2
    pl3 = place(K3, "2")  # m = 3 mod 4, uniformizer 1 + sqrt(3)
    assert val_at_place(K3, (1, 1), pl3) == 1
    assert val_at_place(K3, (2, 0), pl3) == 2
    assert val_at_place(K3, (1, 0), pl3) == 0


def test_val_is_multiplicative():
    # integer pairs; the last is 9 (1/3 + 5 sqrt(10))
    els = [(3, 1), (2, 0), (0, 1), (7, 1), (3, 45)]
    for key in ("2", "5", "7", "3.1", "3.2"):
        pl = place(K10, key)
        for a in els:
            for b in els:
                assert val_at_place(K10, fe_mul(a, b, 10), pl) == val_at_place(
                    K10, a, pl
                ) + val_at_place(K10, b, pl)


# ---------------------------------------------------------------------------
# local squares and ramification of quadratic extensions


def test_local_square_rational():
    assert is_local_square(Q, fe(Fraction(2), Fraction(0)), place(Q, "7"))
    assert is_local_square(Q, fe(Fraction(17), Fraction(0)), place(Q, "2"))
    assert not is_local_square(Q, fe(Fraction(5), Fraction(0)), place(Q, "2"))
    assert not is_local_square(Q, fe(Fraction(-1), Fraction(0)), place(Q, "2"))
    assert is_local_square(Q, fe(Fraction(4, 9), Fraction(0)), place(Q, "3"))


def test_local_square_split_depends_on_branch():
    # sqrt(10) maps to the canonical root (1 mod 3) at branch 1 and to its
    # negative (2 mod 3) at branch 2; only the first is a square mod 3
    el = fe(Fraction(0), Fraction(1))
    assert is_local_square(K10, el, place(K10, "3.1"))
    assert not is_local_square(K10, el, place(K10, "3.2"))
    assert is_local_square(K10, fe(Fraction(10), Fraction(0)), place(K10, "3.1"))
    assert is_local_square(K10, fe(Fraction(10), Fraction(0)), place(K10, "3.2"))
    assert not is_local_square(K10, fe(Fraction(3), Fraction(0)), place(K10, "3.1"))
    assert not is_local_square(K10, fe(Fraction(-1), Fraction(0)), place(K10, "3.1"))


def test_local_square_inert_odd():
    pl = place(K10, "7")
    # the residue field is F_49: 3 is a nonsquare in F_7 but a square in F_49
    assert is_local_square(K10, fe(Fraction(3), Fraction(0)), pl)
    assert is_local_square(K10, fe(Fraction(0), Fraction(1)), pl)  # 10 = 3 in F_7
    assert not is_local_square(K10, fe(Fraction(0), Fraction(7)), pl)  # odd val
    assert not is_local_square(K10, fe(Fraction(7), Fraction(0)), pl)


def test_local_square_inert_dyadic():
    pl = place(K5, "2")
    assert is_local_square(K5, fe(Fraction(5), Fraction(0)), pl)
    assert is_local_square(K5, fe(Fraction(-7), Fraction(0)), pl)  # 1 mod 8
    assert not is_local_square(K5, fe(Fraction(-1), Fraction(0)), pl)
    assert is_local_square(K5, fe(Fraction(9), Fraction(4)), pl)  # (2+sqrt5)^2
    # 1 + sqrt5 = 2 * unit has odd valuation
    assert not is_local_square(K5, fe(Fraction(1), Fraction(1)), pl)
    assert not is_local_square(K5, fe(Fraction(2), Fraction(0)), pl)


def test_local_square_ramified():
    pl5 = place(K10, "5")
    # sqrt(10) has odd valuation at the prime over 5
    assert not is_local_square(K10, fe(Fraction(0), Fraction(1)), pl5)
    assert is_local_square(K10, fe(Fraction(10), Fraction(0)), pl5)
    # units: square iff the residue (mod sqrt-ideal) is a square mod 5
    assert not is_local_square(K10, fe(Fraction(2), Fraction(0)), pl5)  # (2/5) = -1
    assert is_local_square(K10, fe(Fraction(-1), Fraction(0)), pl5)  # (4/5) = 1
    pl2 = place(K2, "2")
    assert not is_local_square(K2, fe(Fraction(5), Fraction(0)), pl2)
    assert not is_local_square(K2, fe(Fraction(-1), Fraction(0)), pl2)
    assert is_local_square(K2, fe(Fraction(2), Fraction(0)), pl2)  # (sqrt2)^2
    assert is_local_square(K2, fe(Fraction(17), Fraction(0)), pl2)  # 1 mod 16


def test_unramified_or_split():
    # odd places: evenness of the valuation is the whole condition
    assert is_unramified_or_split(K10, fe(Fraction(3), Fraction(0)), place(K10, "5"))
    assert not is_unramified_or_split(
        K10, fe(Fraction(0), Fraction(1)), place(K10, "5")
    )
    assert is_unramified_or_split(K10, fe(Fraction(2), Fraction(0)), place(K10, "3.1"))
    # dyadic: K2(sqrt 5)/K2 is the unramified quadratic extension,
    # K2(sqrt -1)/K2 is ramified
    pl2 = place(K2, "2")
    assert is_unramified_or_split(K2, fe(Fraction(5), Fraction(0)), pl2)
    assert not is_unramified_or_split(K2, fe(Fraction(-1), Fraction(0)), pl2)
    # sqrt(2) itself has odd valuation; 2 = (sqrt 2)^2 is an actual square
    assert not is_unramified_or_split(K2, fe(Fraction(0), Fraction(1)), pl2)
    assert is_unramified_or_split(K2, fe(Fraction(2), Fraction(0)), pl2)
    # over Q at 2: 17 unramified, 5 unramified, 3 ramified
    plq = place(Q, "2")
    assert is_unramified_or_split(Q, fe(Fraction(17), Fraction(0)), plq)
    assert is_unramified_or_split(Q, fe(Fraction(5), Fraction(0)), plq)
    assert not is_unramified_or_split(Q, fe(Fraction(3), Fraction(0)), plq)
    # inert dyadic place of K5: -7 = 1 mod 8 stays unramified
    assert is_unramified_or_split(K5, fe(Fraction(-7), Fraction(0)), place(K5, "2"))


def test_sign_at_real():
    assert sign_at_real(Q, fe(Fraction(-3), Fraction(0)), "inf") == -1
    assert sign_at_real(Q, fe(Fraction(3), Fraction(0)), "inf") == 1
    el = fe(Fraction(3), Fraction(-1))  # 3 - sqrt(10) < 0 < 3 + sqrt(10)
    assert sign_at_real(K10, el, "inf1") == -1
    assert sign_at_real(K10, el, "inf2") == 1
    el2 = fe(Fraction(-3), Fraction(1))
    assert sign_at_real(K10, el2, "inf1") == 1
    assert sign_at_real(K10, el2, "inf2") == -1
    with pytest.raises(ValueError):
        sign_at_real(K10, el, "inf")
    with pytest.raises(ValueError):
        sign_at_real(Km5, fe(Fraction(1), Fraction(0)), "inf1")
    with pytest.raises(ZeroDivisionError):
        sign_at_real(Q, fe(0, 0), "inf")


# ---------------------------------------------------------------------------
# narrow ray class groups


def test_ray_class_group_orders():
    assert narrow_ray_class_group(Q).order == 1
    assert narrow_ray_class_group(Q, ("inf",)).order == 1
    assert narrow_ray_class_group(Km5).order == 2
    # unit norm -1 in Q(sqrt 10): narrow == wide == 2 at every modulus
    assert narrow_ray_class_group(K10).order == 2
    assert narrow_ray_class_group(K10, ("inf1", "inf2")).order == 2
    # unit norm +1 in Q(sqrt 3): wide 1, narrow 2
    assert narrow_ray_class_group(K3).order == 1
    assert narrow_ray_class_group(K3, ("inf1", "inf2")).order == 2
    with pytest.raises(ValueError):
        narrow_ray_class_group(Km5, ("inf1",))


def test_prime_classes_in_ray_group():
    # A place strict for a rank-4 suborder keeps degree 2 in the narrow ray
    # class group of Q(sqrt 10) (order 2) exactly when its class is trivial.
    alg = QuatAlgebra.of(K10, real=("inf1", "inf2"))

    def degree(field, alg, key):
        sub = Genus.of(shift={place(field, key): 1})
        return rep_field_rank4(alg, Genus.of(), sub).degree

    assert narrow_ray_class_group(K10, ("inf1", "inf2")).order == 2
    assert degree(K10, alg, "7") == 2  # inert: the ideal (7)
    assert degree(K10, alg, "31.1") == 2  # 31 = N(11 + 3 sqrt10)
    assert degree(K10, alg, "3.1") == 1
    assert degree(Q, QuatAlgebra.of(Q), "3") == 1


# ---------------------------------------------------------------------------
# genus characters


def _check_prime_discriminants(disc: int):
    qs = _prime_discriminants(disc)
    assert prod(qs) == disc, (disc, qs)
    for q in qs:
        assert q in (-4, 8, -8) or (q % 4 == 1 and is_prime(abs(q))), (disc, q)
    for q, r in combinations(qs, 2):
        assert gcd(q, r) == 1, (disc, qs)


def test_prime_discriminants_of_small_fundamental_discriminants():
    count = 0
    for m in range(-10**4, 10**4 + 1):
        if m not in (0, 1) and is_squarefree(m):
            disc = fundamental_discriminant(m)
            if abs(disc) <= 10**4:
                _check_prime_discriminants(disc)
                count += 1
    assert count > 6000


def test_field_discriminant_closed_form_matches_fundamental_discriminant():
    count = 0
    for m in range(-1999, 2000):
        if m not in (0, 1) and is_squarefree(m):
            assert BaseField.quadratic(m).discriminant == fundamental_discriminant(m), m
            count += 1
    assert count > 2400
    assert BaseField.rationals().discriminant == 1


def test_genus_lookups_read_the_level_and_shift_maps():
    f = BaseField.quadratic(-5)
    p2, p3, p7 = (f.places_over(q)[0] for q in (2, 3, 7))
    genus = Genus.of({p2: 3, p3: 1}, {p3: 2})
    assert [genus.level_at(q) for q in (p2, p3, p7)] == [3, 1, 0]
    assert [genus.shift_at(q) for q in (p2, p3, p7)] == [0, 2, 0]
    assert genus == Genus.of({p3: 1, p2: 3}, {p3: 2})
    assert hash(genus) == hash(Genus.of({p3: 1, p2: 3}, {p3: 2}))


def test_prime_discriminants_of_seeded_fundamental_discriminants():
    rng = make_rng(16)
    count = 0
    while count < 300:
        m = rng.randrange(2, 10**7 // 4) * rng.choice((1, -1))
        if is_squarefree(m):
            _check_prime_discriminants(fundamental_discriminant(m))
            count += 1


# ---------------------------------------------------------------------------
# spinor class fields


def test_sigma_over_rationals_is_trivial():
    alg = QuatAlgebra.of(Q)
    sig = spinor_class_field(alg, Genus.of())
    assert (sig.degree, sig.group_order, sig.forced_split) == (1, 1, ())
    # even with level and a division pair the degree stays 1 over Q
    p2, p5 = place(Q, "2"), place(Q, "5")
    alg2 = QuatAlgebra.of(Q, finite=(p2, p5))
    sig2 = spinor_class_field(alg2, Genus.of(level={place(Q, "3"): 1}))
    assert sig2.degree == 1
    assert sig2.forced_split == ("2", "3", "5")


def test_sigma_quadratic_maximal():
    alg = QuatAlgebra.of(K10)
    sig = spinor_class_field(alg, Genus.of())
    assert sig.degree == 2
    assert sig.group_order == 2
    assert sig.forced_split == ()


def test_sigma_odd_level_forces_split():
    alg = QuatAlgebra.of(K10)
    p3 = place(K10, "3.1")
    p31 = place(K10, "31.1")
    # odd level at a nonprincipal prime kills the quadratic quotient
    sig3 = spinor_class_field(alg, Genus.of(level={p3: 1}))
    assert sig3.degree == 1 and sig3.forced_split == ("3.1",)
    # odd level at a principal prime leaves it intact
    sig31 = spinor_class_field(alg, Genus.of(level={p31: 1}))
    assert sig31.degree == 2 and sig31.forced_split == ("31.1",)
    # even level forces nothing
    sig_even = spinor_class_field(alg, Genus.of(level={p3: 2}))
    assert sig_even.degree == 2 and sig_even.forced_split == ()
    # shifts alone force nothing either
    sig_shift = spinor_class_field(alg, Genus.of(shift={p3: 3}))
    assert sig_shift.degree == 2


def test_sigma_division_places_force_split():
    p3a, p3b = K10.places_over(3)
    alg = QuatAlgebra.of(K10, finite=(p3a, p3b))
    sig = spinor_class_field(alg, Genus.of())
    assert sig.degree == 1
    assert sig.forced_split == ("3.1", "3.2")


def test_sigma_real_ramification_modulus():
    # Q(sqrt 3): wide group trivial, narrow group of order 2 — the spinor
    # field is quadratic only when both real places may ramify
    split_alg = QuatAlgebra.of(K3)
    assert spinor_class_field(split_alg, Genus.of()).degree == 1
    definite = QuatAlgebra.of(K3, real=("inf1", "inf2"))
    assert spinor_class_field(definite, Genus.of()).degree == 2


def test_algebra_validation():
    with pytest.raises(ValueError):
        QuatAlgebra.of(K10, real=("inf1",))  # odd ramification set
    with pytest.raises(ValueError):
        QuatAlgebra.of(Q, real=("inf1",))  # not a real place of Q
    p3a, p3b = K10.places_over(3)
    alg = QuatAlgebra.of(K10, finite=(p3a, p3b))
    with pytest.raises(SchemaError):
        spinor_class_field(alg, Genus.of(level={p3a: 1}))
    with pytest.raises(SchemaError):
        spinor_class_field(alg, Genus.of(shift={p3b: 1}))


# ---------------------------------------------------------------------------
# representation fields: commutative quadratic suborders


def test_rep_field_maximal_order_sqrt2():
    alg = QuatAlgebra.of(K10)
    rep = rep_field_comm_quadratic(alg, Genus.of(), fe(Fraction(2), Fraction(0)))
    assert rep.degree == 2
    assert rep.strict_places == ()
    assert selectivity_ratio(rep) == Fraction(1, 2)


def test_rep_field_conductor_at_inert_place_breaks_balance():
    alg = QuatAlgebra.of(K10)
    p3 = place(K10, "3.1")
    rep = rep_field_comm_quadratic(
        alg, Genus.of(), fe(Fraction(2), Fraction(0)), conductor={p3: 1}
    )
    assert rep.degree == 1
    assert rep.strict_places == ("3.1",)
    assert selectivity_ratio(rep) == 1


def test_rep_field_embeds_each_split_place_once(monkeypatch):
    # 3.1 splits in K10 and 2 is no square mod 3: both the square test and
    # the unramified test read the place, from one embedding of delta
    alg = QuatAlgebra.of(K10)
    p3, delta2 = place(K10, "3.1"), fe(Fraction(2), Fraction(0))
    embedded = Counter()
    real = global_classfield._split_embed

    def counted(field, el, at):
        embedded[at, el] += 1
        return real(field, el, at)

    monkeypatch.setattr(global_classfield, "_split_embed", counted)
    rep = rep_field_comm_quadratic(alg, Genus.of(), delta2, conductor={p3: 1})
    assert rep.degree == 1 and rep.strict_places == ("3.1",)
    assert embedded[p3, (2, 0)] == 1, embedded
    assert not is_local_square(K10, delta2, p3)
    assert is_unramified_or_split(K10, delta2, p3)


def test_rep_field_conductor_at_split_place_is_harmless():
    # 2 is a square mod 31, so L = K(sqrt 2) splits at both places over 31
    # and a conductor there imposes no distance condition
    alg = QuatAlgebra.of(K10)
    p3 = place(K10, "3.1")
    rep = rep_field_comm_quadratic(
        alg, Genus.of(), fe(Fraction(2), Fraction(0)), conductor={place(K10, "31.1"): 1}
    )
    assert rep.degree == 2 and rep.strict_places == ()
    rep2 = rep_field_comm_quadratic(
        alg,
        Genus.of(level={p3: 2}, shift={p3: 1}),
        fe(Fraction(2), Fraction(0)),
        conductor={p3: 2},
    )
    assert rep2.degree == 2  # balanced: t = r + d/2


def test_rep_field_ramified_delta_leaves_sigma():
    # L = K(sqrt(sqrt10)) is ramified over 5: not inside the spinor field
    alg = QuatAlgebra.of(K10)
    rep = rep_field_comm_quadratic(alg, Genus.of(), fe(Fraction(0), Fraction(1)))
    assert rep.degree == 1
    assert rep.strict_places == ()


def test_rep_field_square_delta_collapses():
    alg = QuatAlgebra.of(K10)
    rep = rep_field_comm_quadratic(alg, Genus.of(), fe(Fraction(9), Fraction(0)))
    assert rep.degree == 1 and rep.strict_places == ()


def test_rep_field_infeasibility():
    p3 = place(K10, "3.1")
    alg = QuatAlgebra.of(K10)
    delta2 = fe(Fraction(2), Fraction(0))
    # conductor shallower than the shift
    with pytest.raises(EmbeddingInfeasible) as e1:
        rep_field_comm_quadratic(alg, Genus.of(shift={p3: 1}), delta2)
    assert e1.value.place == "3.1"
    # branch smaller than the level: inert place, no conductor, level 3
    with pytest.raises(EmbeddingInfeasible):
        rep_field_comm_quadratic(alg, Genus.of(level={p3: 3}), delta2)
    # totally positive delta cannot embed in a totally definite algebra
    definite = QuatAlgebra.of(K10, real=("inf1", "inf2"))
    with pytest.raises(EmbeddingInfeasible) as e2:
        rep_field_comm_quadratic(definite, Genus.of(), delta2)
    assert e2.value.place in ("inf1", "inf2")
    # delta a local square at a finite division place
    p3a, p3b = K10.places_over(3)
    division = QuatAlgebra.of(K10, finite=(p3a, p3b))
    with pytest.raises(EmbeddingInfeasible):
        rep_field_comm_quadratic(division, Genus.of(), fe(Fraction(10), Fraction(0)))


def test_rep_field_rejects_bad_delta():
    alg = QuatAlgebra.of(Q)
    with pytest.raises(ValueError):
        rep_field_comm_quadratic(alg, Genus.of(), fe(Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        rep_field_comm_quadratic(alg, Genus.of(), fe(0, 0))


def test_rep_field_over_q_never_selective():
    alg = QuatAlgebra.of(Q)
    for d in (-1, 2, 5, -7):
        rep = rep_field_comm_quadratic(alg, Genus.of(), fe(Fraction(d), Fraction(0)))
        assert rep.degree == 1
        assert rep.sigma.degree == 1


# ---------------------------------------------------------------------------
# representation fields: rank 3 and rank 4


def test_rank3_requires_split_algebra():
    rep = rep_field_rank3(QuatAlgebra.of(K10), Genus.of())
    assert rep.degree == 1 and rep.sigma.degree == 2
    with pytest.raises(AlgebraNotSplit):
        rep_field_rank3(QuatAlgebra.of(K10, real=("inf1", "inf2")), Genus.of())
    p3a, p3b = K10.places_over(3)
    with pytest.raises(AlgebraNotSplit):
        rep_field_rank3(QuatAlgebra.of(K10, finite=(p3a, p3b)), Genus.of())


def test_rank4_strictness_controls_degree():
    alg = QuatAlgebra.of(K10)
    p3 = place(K10, "3.1")
    p31 = place(K10, "31.1")
    # strict at a nonprincipal prime: the quadratic quotient dies
    rep = rep_field_rank4(alg, Genus.of(), Genus.of(shift={p3: 1}))
    assert rep.degree == 1 and rep.strict_places == ("3.1",)
    # strict at a principal prime: it survives
    rep31 = rep_field_rank4(alg, Genus.of(), Genus.of(shift={p31: 1}))
    assert rep31.degree == 2 and rep31.strict_places == ("31.1",)
    # exact match: no strict places at all
    rep_eq = rep_field_rank4(
        alg, Genus.of(level={p3: 2}), Genus.of(level={p3: 2})
    )
    assert rep_eq.degree == 2 and rep_eq.strict_places == ()
    # deeper level balanced by the ambient one via the shift
    rep_bal = rep_field_rank4(
        alg, Genus.of(level={p3: 2}), Genus.of(shift={p3: 1})
    )
    assert rep_bal.degree == 2 and rep_bal.strict_places == ()


def test_rank4_infeasibility():
    alg = QuatAlgebra.of(K10)
    p3 = place(K10, "3.1")
    with pytest.raises(EmbeddingInfeasible):
        rep_field_rank4(alg, Genus.of(shift={p3: 1}), Genus.of())
    with pytest.raises(EmbeddingInfeasible):
        rep_field_rank4(alg, Genus.of(level={p3: 2}), Genus.of())


def test_rank4_over_q():
    alg = QuatAlgebra.of(Q)
    rep = rep_field_rank4(alg, Genus.of(), Genus.of(shift={place(Q, "3"): 2}))
    assert rep.degree == 1 and rep.strict_places == ("3",)


# ---------------------------------------------------------------------------
# the global re-indexing law: shifting by a prime equals adding 2 to the level


def test_reindexing_law_comm_quadratic():
    alg = QuatAlgebra.of(K10)
    p3 = place(K10, "3.1")
    delta = fe(Fraction(2), Fraction(0))
    for d in (0, 1, 2):
        for r in (0, 1):
            for t_extra in (0, 1):
                t = r + 1 + (d + 1) // 2 + t_extra  # deep enough either way
                a = rep_field_comm_quadratic(
                    alg,
                    Genus.of(level={p3: d}, shift={p3: r + 1}),
                    delta,
                    conductor={p3: t},
                )
                b = rep_field_comm_quadratic(
                    alg,
                    Genus.of(level={p3: d + 2}, shift={p3: r}),
                    delta,
                    conductor={p3: t},
                )
                assert (a.degree, a.sigma.degree, a.strict_places) == (
                    b.degree,
                    b.sigma.degree,
                    b.strict_places,
                )


def test_reindexing_law_rank4():
    alg = QuatAlgebra.of(K10)
    p3 = place(K10, "3.1")
    sub = Genus.of(level={p3: 2}, shift={p3: 2})
    for d in (0, 1, 2):
        for r in (0, 1):
            a = rep_field_rank4(alg, Genus.of(level={p3: d}, shift={p3: r + 1}), sub)
            b = rep_field_rank4(alg, Genus.of(level={p3: d + 2}, shift={p3: r}), sub)
            assert (a.degree, a.sigma.degree, a.strict_places) == (
                b.degree,
                b.sigma.degree,
                b.strict_places,
            )


# ---------------------------------------------------------------------------
# local/global cross-check at a split rational prime


def _global_verdict(t, r, d):
    """Local spinor image predicted by the global engine at the place 3.1
    of Q(sqrt 10) for L = K(sqrt 2) with conductor depth t on the genus
    (level d, shift r)."""
    alg = QuatAlgebra.of(K10)
    p3 = place(K10, "3.1")
    try:
        rep = rep_field_comm_quadratic(
            alg,
            Genus.of(level={p3: d}, shift={p3: r}),
            fe(Fraction(2), Fraction(0)),
            conductor={p3: t},
        )
    except EmbeddingInfeasible:
        return SpinorImage.NO_EMBEDDING
    if "3.1" in rep.strict_places:
        return SpinorImage.FULL
    return SpinorImage.UNIT_SQUARES


def test_local_global_crosscheck_at_split_prime():
    # the completion of Q(sqrt 10) at the place over 3 is Q_3, and 2 is a
    # nonsquare unit there: the local model of the conductor-3^t quadratic
    # order is generated by 3^t * [[0,1],[2,0]]
    for t in range(4):
        gen = Mat2.of([[0, 3**t], [2 * 3**t, 0]])
        shape = classify_single(gen, 3)
        assert shape == ThickPath((shape.path[0],), t)
        for r in range(min(t, 2) + 1):
            for d in range(5):
                local = spinor_image(shape, d, r)
                assert local == _global_verdict(t, r, d), (t, r, d, local)


# ---------------------------------------------------------------------------
# one local rule: `image_of_diameter` against the inline rule it replaced


def _deltas_by_local_kind(field, pl) -> dict:
    """{"split" | "inert" | "ramified": delta}, the first delta = x + y sqrt m
    with |x| <= 12 and 0 <= y <= 3 of each kind at pl in L = K(sqrt delta),
    skipping the global squares."""
    found = {}
    for y in range(4):
        for x in range(-12, 13):
            delta = (x, y)
            if (x, y) == (0, 0) or fe_is_square(field, delta):
                continue
            if is_local_square(field, delta, pl):
                kind = "split"
            elif is_unramified_or_split(field, delta, pl):
                kind = "inert"
            else:
                kind = "ramified"
            found.setdefault(kind, delta)
    return found


def _outcome(rep_field, alg, genus, delta, conductor):
    try:
        rep = rep_field(alg, genus, delta, conductor)
    except EmbeddingInfeasible as exc:
        return "infeasible", exc.place, str(exc)
    return "ok", rep.strict_places, rep.degree


@pytest.mark.parametrize("m", [10, -5], ids=["10", "-5"])
def test_local_rule_matches_the_inline_rule(m):
    """On t <= 4, r <= t + 1 and d <= 6 at a split, an inert and a ramified
    place of K, each with a delta that splits, stays inert and ramifies
    there in L, the rule read through `image_of_diameter` gives the same
    infeasible place and message, or the same strict places and degree, as
    the inline rule (`t < r` included)."""
    field = BaseField.quadratic(m)
    alg = QuatAlgebra.of(field)
    odd = [p for p in range(3, 30) if is_prime(p)]
    places = [
        place(field, f"{p}.1" if tag == "split" else str(p))
        for tag in ("split", "inert", "ramified")
        for p in [next(q for q in odd if field.splitting(q) == tag)]
    ]
    kinds = Counter()
    for pl in places:
        deltas = _deltas_by_local_kind(field, pl)
        assert set(deltas) == {"split", "inert", "ramified"}, (pl, deltas)
        for kind, delta in deltas.items():
            for t in range(5):
                for r in range(t + 2):
                    for d in range(7):
                        genus = Genus.of(level={pl: d}, shift={pl: r})
                        args = (alg, genus, delta, {pl: t})
                        got = _outcome(rep_field_comm_quadratic, *args)
                        want = _outcome(oracles.inline_rep_field_comm_quadratic, *args)
                        assert got == want, (pl, kind, delta, t, r, d)
                        kinds[kind, got[0], got[0] == "ok" and bool(got[1])] += 1
    # each kind of place in L is met feasible and infeasible, and only a
    # place inert in L is ever strict
    assert {key[:2] for key in kinds} == {
        (kind, verdict)
        for kind in ("split", "inert", "ramified")
        for verdict in ("ok", "infeasible")
    }
    assert {key for key in kinds if key[2]} == {("inert", "ok", True)}
