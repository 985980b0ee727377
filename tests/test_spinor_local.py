"""Local spinor images: the diameter decision procedure vs the pair oracle."""

from math import inf

import pytest

from helpers import (
    AnchorInvalid,
    connected_members,
    is_scalar,
    make_rng,
    odd_pair_oracle,
    order_from_module,
    random_matrix,
    random_vertex_at,
    spine_vertex,
)
from qlat.branches import Empty, Fan, Full, ThickPath, branch_of_order, classify_single
from qlat.bt_tree import (
    End,
    ball,
    distance,
    geodesic,
    standard_vertex,
    walk_toward_end,
)
from qlat.errors import Unbounded
from qlat.local_orders import shifted_eichler_module
from qlat.spinor_local import SpinorImage, image_of_diameter, spinor_image


# ---------------------------------------------------------------------------
# the decision table on hand shapes


def test_decision_table_hand_cases():
    p = 3
    v = standard_vertex(p)
    single_t2 = ThickPath((v,), 2)  # deepened diameter 4 at r=0
    assert spinor_image(single_t2, 4, 0) == SpinorImage.UNIT_SQUARES
    assert spinor_image(single_t2, 2, 0) == SpinorImage.FULL  # d < diameter
    assert spinor_image(single_t2, 1, 0) == SpinorImage.FULL  # d odd
    assert spinor_image(single_t2, 5, 0) == SpinorImage.NO_EMBEDDING
    assert spinor_image(single_t2, 0, 2) == SpinorImage.UNIT_SQUARES
    assert spinor_image(single_t2, 0, 3) == SpinorImage.NO_EMBEDDING
    assert spinor_image(Empty(p), 0, 0) == SpinorImage.NO_EMBEDDING
    fan = Fan(v, End(1, 0))
    for d in (0, 1, 2, 3, 7):
        assert spinor_image(fan, d, 2) == SpinorImage.FULL
    assert spinor_image(Full(p), 4, 3) == SpinorImage.FULL


def test_decision_from_diameter_matches_shapes():
    """The image depends on the deepened diameter delta alone: none when the
    deepened branch is empty or delta < d, everything when d is odd or
    d < delta, and the unit squares when delta = d is even."""

    def by_diameter(delta, d):
        if delta is None or delta < d:
            return SpinorImage.NO_EMBEDDING
        return SpinorImage.FULL if d % 2 or d < delta else SpinorImage.UNIT_SQUARES

    p = 3
    v = standard_vertex(p)
    shapes = [ThickPath((v,), 2), Fan(v, End(1, 0)), Full(p), Empty(p)]
    for shape in shapes:
        for r in range(4):
            deep = shape.deepen(r)
            delta = None if isinstance(deep, Empty) else deep.diameter()
            for d in range(6):
                assert spinor_image(shape, d, r) == by_diameter(delta, d)
                assert spinor_image(deep, d, 0) == spinor_image(shape, d, r)
    assert spinor_image(Empty(p), 0, 0) == SpinorImage.NO_EMBEDDING
    assert spinor_image(Full(p), 6, 0) == SpinorImage.FULL
    with pytest.raises(ValueError):
        spinor_image(Full(p), -1, 0)


def test_rule_reads_a_diameter_and_a_level():
    """No embedding below the level, the unit squares exactly at an even
    level, and everything above it or at an odd level; an empty branch
    (diameter -inf) has no embedding and an unbounded one (+inf) the full
    image."""
    none, squares, full = (
        SpinorImage.NO_EMBEDDING,
        SpinorImage.UNIT_SQUARES,
        SpinorImage.FULL,
    )
    four = [full, full, full, full, squares, none, none]
    three = [full, full, full, full, none, none, none]
    assert [image_of_diameter(4, d) for d in range(7)] == four
    assert [image_of_diameter(3, d) for d in range(7)] == three
    assert image_of_diameter(0, 0) == squares
    shape = ThickPath((standard_vertex(3),), 2)
    for d in range(7):
        assert image_of_diameter(-inf, d) == none
        assert image_of_diameter(inf, d) == full
        for r in range(4):  # diameters 4, 2, 0 and then the empty branch
            delta = shape.deepen(r).diameter()
            assert spinor_image(shape, d, r) == image_of_diameter(delta, d)


def test_decision_rejects_negative_arguments():
    p = 3
    with pytest.raises(ValueError):
        spinor_image(Full(p), -1, 0)
    with pytest.raises(ValueError):
        spinor_image(Full(p), 0, -1)


def test_level_one_embeddable_always_full():
    # any branch that embeds at odd level gives the full group
    rng = make_rng(83)
    for _ in range(20):
        p = rng.choice([2, 3])
        v1 = standard_vertex(p)
        v2 = random_vertex_at(rng, v1, rng.randrange(4))
        t = rng.randrange(3)
        shape = ThickPath(geodesic(v1, v2), t)
        for d in (1, 3):
            img = spinor_image(shape, d, 0)
            assert img in (SpinorImage.FULL, SpinorImage.NO_EMBEDDING)
            if distance(v1, v2) + 2 * t >= d:
                assert img == SpinorImage.FULL


# ---------------------------------------------------------------------------
# the oracle itself


def test_oracle_validates_anchor():
    p = 3
    vs = ball(standard_vertex(p), 1)
    u = standard_vertex(p)
    n = sorted(vs)[1]
    with pytest.raises(AnchorInvalid):
        odd_pair_oracle(vs, 2, (u, n))  # anchor not at distance 2
    with pytest.raises(AnchorInvalid):
        odd_pair_oracle(frozenset([u]), 1, (u, n))  # anchor not inside


def test_oracle_worked_examples():
    p = 3
    v = standard_vertex(p)
    # swapped pair realizes odd displacement at d = 1
    n = sorted(frozenset(ball(v, 1)) - {v})[0]
    assert odd_pair_oracle({v, n}, 1, (v, n)) is True
    # ball(v, 2), d = 4: every diametral pair sits at even displacements
    vs = ball(v, 2)
    x, y = next(
        (x, y) for x in sorted(vs) for y in sorted(vs) if distance(x, y) == 4
    )
    assert odd_pair_oracle(vs, 4, (x, y)) is False
    # a path one longer than the level admits a shifted (odd) pair
    tip = walk_toward_end(v, End(1, 0), 3)
    seg = geodesic(v, tip)  # 4 vertices: a path of length 3, level d = 2
    assert distance(seg[0], seg[3]) == 3
    assert odd_pair_oracle(set(seg), 2, (seg[0], seg[2])) is True


# ---------------------------------------------------------------------------
# decision vs oracle on random instances


def _deep_vertices(shape, r, d, p):
    """(deep shape, certified member set) for the oracle comparison."""
    deep = shape.deepen(r)
    if isinstance(deep, Empty):
        return deep, frozenset()
    seed = spine_vertex(deep)
    if isinstance(deep, ThickPath):
        radius = deep.level + deep.t  # covers the whole finite shape
    else:
        radius = d + 2  # enough to expose a sliding (odd) pair
    return deep, connected_members(deep, seed, radius)


def _oracle_image(vertices, d):
    vs = sorted(vertices)
    anchor = None
    for i, x in enumerate(vs):
        for y in vs[i:]:
            if distance(x, y) == d:
                anchor = (x, y)
                break
        if anchor:
            break
    if anchor is None:
        return SpinorImage.NO_EMBEDDING
    if odd_pair_oracle(vertices, d, anchor):
        return SpinorImage.FULL
    return SpinorImage.UNIT_SQUARES


def test_decision_matches_oracle_random():
    rng = make_rng(89)
    checked = 0
    while checked < 40:
        p = rng.choice([2, 3])
        if rng.random() < 0.5:
            v1 = standard_vertex(p)
            v2 = random_vertex_at(rng, v1, rng.randrange(4))
            t = rng.randrange(3)
            shape = branch_of_order(
                order_from_module(shifted_eichler_module(v1, v2, t))
            )
        else:
            a = random_matrix(rng, p)
            if is_scalar(a):
                continue
            try:
                shape = classify_single(a, p)
            except Unbounded:
                continue
        d = rng.randrange(5)
        r = rng.randrange(3)
        deep, vertices = _deep_vertices(shape, r, d, p)
        if isinstance(deep, ThickPath) and len(vertices) > 120:
            continue  # keep the quadratic pair scan fast
        decided = spinor_image(shape, d, r)
        assert decided == _oracle_image(vertices, d)
        checked += 1


def test_even_diameter_parity_lemma():
    # for every sampled diametral pair of an even-diameter thick path, all
    # realizing pairs sit at even displacement from it
    rng = make_rng(97)
    for _ in range(10):
        p = rng.choice([2, 3])
        v1 = standard_vertex(p)
        d0 = rng.choice([0, 2])
        v2 = random_vertex_at(rng, v1, d0)
        t = rng.randrange(2)
        shape = ThickPath(geodesic(v1, v2), t)
        d = d0 + 2 * t  # the diameter, even
        vertices = connected_members(shape, v1, d0 + t)
        pairs = [
            (x, y)
            for x in sorted(vertices)
            for y in sorted(vertices)
            if distance(x, y) == d
        ]
        assert pairs
        for anchor in pairs:
            assert odd_pair_oracle(vertices, d, anchor) is False
        assert spinor_image(shape, d, 0) == SpinorImage.UNIT_SQUARES


def test_specialization_self_branch():
    # the branch of a level-d Eichler order shifted by r, tested against
    # (d, r): exactly the unit squares when d is even, everything when odd
    rng = make_rng(101)
    for _ in range(12):
        p = rng.choice([2, 3])
        d = rng.randrange(5)
        r = rng.randrange(3)
        v1 = standard_vertex(p)
        v2 = random_vertex_at(rng, v1, d)
        shape = ThickPath(geodesic(v1, v2), r)
        expected = SpinorImage.UNIT_SQUARES if d % 2 == 0 else SpinorImage.FULL
        assert spinor_image(shape, d, r) == expected


def test_monotonicity_under_enlargement():
    rng = make_rng(103)
    for _ in range(30):
        p = rng.choice([2, 3])
        v1 = standard_vertex(p)
        v2 = random_vertex_at(rng, v1, rng.randrange(3))
        t = rng.randrange(2)
        small = ThickPath(geodesic(v1, v2), t)
        bigger = ThickPath(geodesic(v1, v2), t + 1)
        for d in range(5):
            for r in range(3):
                a = spinor_image(small, d, r)
                b = spinor_image(bigger, d, r)
                if a == SpinorImage.FULL:
                    assert b == SpinorImage.FULL
                if a == SpinorImage.UNIT_SQUARES:
                    assert b != SpinorImage.NO_EMBEDDING
