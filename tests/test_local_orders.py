"""Orders in the 2x2 matrix algebra: closures, shifts, Eichler structure."""

import sys
from fractions import Fraction

import pytest

import oracles
from helpers import (
    make_rng,
    module_contains,
    module_contains_module,
    order_from_module,
    random_order,
    random_vertex,
    random_vertex_at,
)
from qlat import local_orders
from qlat.bt_tree import Vertex, ball, distance, standard_vertex
from qlat.errors import NotShiftedEichler, QlatError, ResourceLimit, Unbounded
from qlat.exact_padic import Mat2, module_hnf, module_intersect, valuation
from qlat.local_orders import (
    CLOSURE_MAX_BITS,
    ShiftedEichler,
    contains_shifted,
    decompose_shifted_eichler,
    has_unramified_residue_field,
    maximal_order_module,
    order_closure,
    shift_order,
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


def _rounds(gen: Mat2) -> list[Mat2]:
    """gen and the identity twice: three generators, so the closure runs in
    rounds, and the identity adds nothing to any of them."""
    return [gen, Mat2.identity(), Mat2.identity()]


def test_order_closure_unbounded_certificate():
    with pytest.raises(Unbounded) as exc:
        order_closure(_rounds(Mat2.of([[Fraction(1, 3), 0], [0, 0]])), 3)
    cert = exc.value.certificate
    vals = cert["min_valuations"]
    assert len(vals) >= 2 and vals[-1] < vals[0]


def test_order_closure_stops_at_the_denominator_cap():
    # g^2 = p^-k: the least valuation falls every other round, so the
    # divergence window never fills and only the round cap or the size cap
    # ends the closure
    small = Mat2.of([[0, Fraction(1, 5**3)], [1, 0]])
    with pytest.raises(Unbounded) as exc:
        order_closure(_rounds(small), 5)
    assert exc.value.certificate["reason"] == "no stabilization within 64 rounds"
    big = Mat2.of([[0, Fraction(1, 5**3000)], [1, 0]])
    with pytest.raises(ResourceLimit, match=f"past {CLOSURE_MAX_BITS} bits"):
        order_closure(_rounds(big), 5)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no int-to-str digit limit",
)
def test_unbounded_certificate_past_the_int_to_str_limit():
    # after eight rounds the denominator has 16,000 bits, more digits than
    # str() writes by default: those entries are written in hexadecimal
    gen = Mat2.of([[Fraction(1, 2**2000), 1], [0, 0]])
    with pytest.raises(Unbounded) as exc:
        order_closure(_rounds(gen), 2)
    cert = exc.value.certificate
    assert cert["reason"] == "entry valuations strictly decreasing"
    texts = [text for row in cert["basis"] for text in row]
    assert any("0x" in text for text in texts)
    # exact either way: the entries read back give the last least valuation
    entries = []
    for text in texts:
        num, _, den = text.partition("/")
        entries.append(Fraction(int(num, 0), int(den or "1", 0)))
    least = min(valuation(x, 2) for x in entries if x)
    assert least == cert["min_valuations"][-1]


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
        g = v.basis()
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
