"""Orders in the 2x2 matrix algebra: closures, shifts, Eichler structure."""

from fractions import Fraction

import pytest

import oracles
from helpers import (
    has_unramified_residue_field,
    make_rng,
    module_contains,
    module_contains_module,
    order_from_module,
    random_order,
    random_vertex,
    random_vertex_at,
    shift_order,
    vertex_basis,
)
from qlat import local_orders
from qlat.bt_tree import Vertex, ball, distance, standard_vertex
from qlat.errors import NotShiftedEichler, QlatError, Unbounded
from qlat.exact_padic import Mat2, module_hnf, module_intersect
from qlat.local_orders import (
    ShiftedEichler,
    contains_shifted,
    decompose_shifted_eichler,
    maximal_order_module,
    order_closure,
    shifted_eichler_module,
    three_maximal_orders,
)


def test_order_closure_contains_one_and_generators_and_is_closed():
    rng = make_rng(23)
    for _ in range(25):
        p = rng.choice([2, 3])
        order = random_order(rng, p)
        mod = order.closure
        assert module_contains(mod, Mat2.identity())
        for g in order.generators:
            assert module_contains(mod, g)
        for a in mod.basis:
            for b in mod.basis:
                assert module_contains(mod, a * b)
        # closing again is a fixed point
        again = order_closure(mod.basis, p)
        assert again.closure == mod


def _three(gen: Mat2) -> list[Mat2]:
    """gen and the identity twice: three generators, the identity adding
    nothing to the order."""
    return [gen, Mat2.identity(), Mat2.identity()]


def _certificate(element: str, invariant: str, v: int) -> dict:
    return {"reason": "non-integral invariant", "element": element,
            "invariant": invariant, "valuation": v}


def test_order_closure_unbounded_certificate():
    with pytest.raises(Unbounded) as exc:
        order_closure(_three(Mat2.of([[Fraction(1, 3), 0], [0, 0]])), 3)
    assert exc.value.certificate == _certificate("0", "trace", -1)
    assert str(exc.value) == (
        "element 0 has a trace of valuation -1, not integral: "
        "the generators lie in no order"
    )


def test_order_closure_refuses_past_the_old_denominator_cap(monkeypatch):
    # g^2 = p^-k: the rounds' least valuation fell every other round, so
    # only their round cap or denominator cap ended them; det g = -p^-k
    # refuses g at once, before any Hermite form
    monkeypatch.setattr(local_orders, "module_hnf", None)
    for k in (3, 3000):
        gen = Mat2.of([[0, Fraction(1, 5**k)], [1, 0]])
        with pytest.raises(Unbounded) as exc:
            order_closure(_three(gen), 5)
        assert exc.value.certificate == _certificate("0", "determinant", -k)


def test_unbounded_certificate_past_the_int_to_str_limit():
    # the rounds' certificate wrote a basis whose denominator passed the
    # digits str() writes; the invariant certificate holds one valuation,
    # even for a generator whose own denominator passes them
    for k in (2000, 20000):
        gen = Mat2.of([[Fraction(1, 2**k), 1], [0, 0]])
        with pytest.raises(Unbounded) as exc:
            order_closure(_three(gen), 2)
        assert exc.value.certificate == _certificate("0", "trace", -k)
        assert len(str(exc.value)) < 100


def test_order_closure_certifies_every_pair_of_generators():
    # a, 1 and b: a, b and each adjacent product have integral invariants,
    # but tr ab = 1/3 certifies the pair "0*2"
    a, b = Mat2.of([[0, Fraction(1, 3)], [0, 0]]), Mat2.of([[0, 0], [1, 0]])
    with pytest.raises(Unbounded) as exc:
        order_closure([a, Mat2.identity(), b], 3)
    assert exc.value.certificate == _certificate("0*2", "trace", -1)
    # with a 3 in b every pair is integral: the order is span{1, a, b, ab}
    b3 = b * 3
    order = order_closure([a, Mat2.identity(), b3], 3)
    assert order.closure == order_closure([a, b3], 3).closure
    assert order.closure == module_hnf([Mat2.identity(), a, b3, a * b3], 3)


def test_maximal_order_module_standard():
    p = 3
    mod = maximal_order_module(standard_vertex(p))
    assert mod.rank == 4
    for rows in ([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]):
        assert module_contains(mod, Mat2.of(rows))
    assert not module_contains(mod, Mat2.of([[Fraction(1, 3), 0], [0, 0]]))


def test_maximal_order_conjugation_equivariance():
    rng = make_rng(29)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        v = random_vertex(rng, p, 3)
        g = vertex_basis(v)
        expected = module_hnf(
            [
                g * e * g.inverse()
                for e in (
                    Mat2.of([[1, 0], [0, 0]]),
                    Mat2.of([[0, 1], [0, 0]]),
                    Mat2.of([[0, 0], [1, 0]]),
                    Mat2.of([[0, 0], [0, 1]]),
                )
            ],
            p,
        )
        assert maximal_order_module(v) == expected


def test_shift_composition_law():
    rng = make_rng(31)
    for _ in range(15):
        p = rng.choice([2, 3])
        order = random_order(rng, p)
        for s, t in ((0, 1), (1, 1), (2, 1), (1, 2)):
            left = shift_order(shift_order(order, s), t)
            right = shift_order(order, s + t)
            assert left.closure == right.closure
        assert shift_order(order, 0).closure == order.closure


def test_intersection_commutes_with_shift():
    rng = make_rng(37)
    for _ in range(25):
        p = rng.choice([2, 3])
        h1 = random_order(rng, p)
        h2 = random_order(rng, p)
        for s in (1, 2):
            inter = module_intersect(h1.closure, h2.closure)
            left = shift_order(order_from_module(inter), s).closure
            right = module_intersect(
                shift_order(h1, s).closure, shift_order(h2, s).closure
            )
            assert left == right


def test_contains_shifted_matches_module_membership():
    rng = make_rng(41)
    for _ in range(30):
        p = rng.choice([2, 3])
        v = random_vertex(rng, p, 2)
        r = rng.randrange(3)
        shifted = shift_order(order_from_module(maximal_order_module(v)), r)
        for _ in range(5):
            h = Mat2.of(
                [
                    [rng.randrange(-9, 9), Fraction(rng.randrange(-9, 9), p)],
                    [rng.randrange(-9, 9) * p, rng.randrange(-9, 9)],
                ]
            )
            assert contains_shifted(v, h, r) == module_contains(shifted.closure, h)


def test_shifted_eichler_module_is_an_order():
    p = 3
    v1 = standard_vertex(p)
    v2 = Vertex(p, 2, 0, 3)
    mod = shifted_eichler_module(v1, v2, 1)
    order = order_closure(mod.basis, p)
    assert order.closure == mod


def test_shifted_eichler_validation():
    p = 3
    v1, v2 = standard_vertex(p), Vertex(p, 1, 0, 0)
    ShiftedEichler((v1, v2), 1, 0)
    with pytest.raises(ValueError):
        ShiftedEichler((v1, v2), 2, 0)
    with pytest.raises(ValueError):
        ShiftedEichler((v1, v2), 1, -1)


def test_decompose_round_trip_hand_instances():
    p = 2
    for d, r in ((0, 0), (0, 2), (1, 0), (2, 1), (3, 2)):
        v1 = standard_vertex(p)
        v2 = Vertex(p, d, 0, 0) if d else v1
        order = order_from_module(shifted_eichler_module(v1, v2, r))
        se = decompose_shifted_eichler(order)
        assert se.level == d
        assert se.shift == r
        assert set(se.endpoints) == {v1, v2}
        assert se.module() == order.closure


def test_decompose_rejects_non_eichler():
    p = 3
    # the order generated by two deep nilpotents: its branch is the right
    # thick path but the module is strictly smaller than the envelope order
    gens = [Mat2.of([[0, 0], [9, 0]]), Mat2.of([[0, 27], [0, 0]])]
    order = order_closure(gens, p)
    with pytest.raises(NotShiftedEichler):
        decompose_shifted_eichler(order)
    # rank < 4 is rejected outright
    with pytest.raises(NotShiftedEichler):
        decompose_shifted_eichler(order_closure([Mat2.of([[0, 1], [0, 0]])], p))


def test_three_maximal_orders_hand_instance():
    p = 3
    v1, v2 = standard_vertex(p), Vertex(p, 1, 0, 0)
    se = ShiftedEichler((v1, v2), 1, 2)
    a, b, c = three_maximal_orders(se)
    inter = module_intersect(
        module_intersect(maximal_order_module(a), maximal_order_module(b)),
        maximal_order_module(c),
    )
    assert inter == se.module()
    assert distance(a, v1) == 2 and distance(b, v2) == 2


@pytest.mark.parametrize("p,radius", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_first_tripod_realizes_every_shifted_eichler_order(p, radius):
    """The pinned tripod is certified for every ordered endpoint pair of a
    ball and every shift r <= 3: no other triple is ever needed.  The
    certificate's one intersection, with the Eichler order of the first two
    vertices in closed form, agrees with the two intersections of the three
    maximal orders."""
    vertices = sorted(ball(standard_vertex(p), radius))
    for v1 in vertices:
        for v2 in vertices:
            for r in range(4):
                se = ShiftedEichler((v1, v2), distance(v1, v2), r)
                a, b, c = three_maximal_orders(se)
                assert distance(a, v1) == r and distance(b, v2) == r
                assert oracles.three_maximal_intersection(a, b, c) == se.module()


def test_failed_tripod_certificate_raises_a_qlat_error(monkeypatch):
    v = standard_vertex(3)
    se = ShiftedEichler((v, Vertex(3, 1, 0, 0)), 1, 2)
    whole = maximal_order_module(v)
    monkeypatch.setattr(local_orders, "maximal_order_module", lambda w: whole)
    with pytest.raises(QlatError, match="do not intersect"):
        three_maximal_orders(se)


def test_has_unramified_residue_field():
    for p in (3, 5):
        nonresidue = next(
            n for n in range(2, p) if all((x * x - n) % p for x in range(p))
        )
        unram = order_closure([Mat2.of([[0, 1], [nonresidue, 0]])], p)
        assert has_unramified_residue_field(unram)
        ram = order_closure([Mat2.of([[0, 1], [p, 0]])], p)
        assert not has_unramified_residue_field(ram)
        split = order_closure([Mat2.of([[1, 0], [0, -1]])], p)
        assert not has_unramified_residue_field(split)
    # dyadic: x^2 - x + 1 is irreducible mod 2; companion matrix generates
    dyadic = order_closure([Mat2.of([[0, -1], [1, 1]])], 2)
    assert has_unramified_residue_field(dyadic)
    assert not has_unramified_residue_field(
        order_closure([Mat2.of([[0, 1], [2, 0]])], 2)
    )
