"""Branch shapes: classification, intersections, deepening, envelopes."""

from fractions import Fraction
from math import inf

import pytest

from helpers import (
    is_scalar,
    make_rng,
    module_contains_module,
    order_from_module,
    random_matrix,
    random_order,
    random_vertex_at,
)
from qlat.branches import (
    Empty,
    Fan,
    Full,
    ThickApartment,
    ThickPath,
    ThickRay,
    branch_of_order,
    classify_single,
    deepen,
    diameter,
    eichler_envelope,
    embeds_in_level,
    enumerate_branch,
    intersect_shapes,
    mu_margin,
    shape_member,
)
from qlat.bt_tree import (
    End,
    Vertex,
    ball,
    distance,
    end_from_vector,
    geodesic,
    neighbors,
    standard_vertex,
)
from qlat.errors import EmptyShape, NotFinite, Unbounded
from qlat.exact_padic import Mat2
from qlat.local_orders import order_closure, shift_order, shifted_eichler_module


def _members(shape, region):
    return frozenset(v for v in region if shape_member(shape, v))


# ---------------------------------------------------------------------------
# classification of a single matrix


def test_classify_scalar_full():
    assert classify_single(Mat2.scalar(7), 5) == Full(5)


def test_classify_nilpotent_fan():
    p = 3
    s = classify_single(Mat2.of([[0, 1], [0, 0]]), p)
    assert isinstance(s, Fan)
    assert s.end == End(1, 0)
    # scalar translates give the same fan
    assert classify_single(Mat2.of([[2, 1], [0, 2]]), p) == s
    # the fan contains the whole ray of vertices deeper toward the end
    assert shape_member(s, s.base)


def test_classify_split_rational_apartment():
    p = 3
    s = classify_single(Mat2.of([[1, 0], [0, 2]]), p)
    assert isinstance(s, ThickApartment)
    assert s.t == 0
    assert s.ends == tuple(sorted((End(1, 0), End(0, 1))))
    deep = classify_single(Mat2.of([[1, 0], [0, 1 + p**2]]), p)
    assert isinstance(deep, ThickApartment) and deep.t == 2
    deep1 = classify_single(Mat2.of([[1, 0], [0, 1 + p]]), p)
    assert isinstance(deep1, ThickApartment) and deep1.t == 1


def test_classify_split_irrational_apartment():
    p = 3
    s = classify_single(Mat2.of([[0, 1], [7, 0]]), p)  # disc 28, square in Q_3
    assert isinstance(s, ThickApartment)
    assert s.ends is None and s.t == 0
    # equality is decided by commuting witnesses
    s2 = classify_single(Mat2.of([[0, 2], [14, 0]]), p)
    assert s == s2
    s3 = classify_single(Mat2.of([[1, 1], [7, -1]]), p)  # disc 32: also split
    assert s3 != s


def test_classify_field_cases():
    p = 3
    unram = classify_single(Mat2.of([[0, 1], [2, 0]]), p)  # disc 8, nonresidue
    assert unram == ThickPath((standard_vertex(p),), 0)
    ram = classify_single(Mat2.of([[0, 1], [3, 0]]), p)  # disc 12, ramified
    assert isinstance(ram, ThickPath)
    assert ram.level == 1 and ram.t == 0
    deep = classify_single(Mat2.of([[0, 9], [18, 0]]), p)  # 9 * unramified
    assert isinstance(deep, ThickPath)
    assert deep.level == 0 and deep.t == 2


def test_classify_rejects_non_integral():
    with pytest.raises(Unbounded):
        classify_single(Mat2.of([[Fraction(1, 3), 0], [0, 0]]), 3)


def test_classify_matches_mu_margin_pointwise():
    rng = make_rng(43)
    region3 = ball(standard_vertex(3), 3)
    region2 = ball(standard_vertex(2), 4)
    checked = 0
    for _ in range(60):
        p = rng.choice([2, 3])
        a = random_matrix(rng, p)
        if is_scalar(a):
            continue
        try:
            s = classify_single(a, p)
        except Unbounded:
            continue
        region = region3 if p == 3 else region2
        for v in region:
            assert shape_member(s, v) == (mu_margin(a, v) >= 0)
        checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# orders: symbolic branch vs brute-force enumeration (the oracle law)


def test_branch_oracle_equivalence_small_primes():
    rng = make_rng(47)
    for p, rounds, radius in ((2, 12, 5), (3, 12, 5)):
        seed = standard_vertex(p)
        region = ball(seed, radius)
        for _ in range(rounds):
            order = random_order(rng, p)
            shape = branch_of_order(order)
            enumerated = enumerate_branch(order, 0, seed, radius)
            assert _members(shape, region) == enumerated


def test_branch_oracle_equivalence_p5():
    rng = make_rng(53)
    p = 5
    seed = standard_vertex(p)
    region = ball(seed, 5)
    for _ in range(2):
        order = random_order(rng, p)
        shape = branch_of_order(order)
        assert _members(shape, region) == enumerate_branch(order, 0, seed, 5)


def test_enumerated_branches_connected():
    rng = make_rng(59)
    for _ in range(20):
        p = rng.choice([2, 3])
        order = random_order(rng, p)
        vs = enumerate_branch(order, 0, standard_vertex(p), 4)
        assert standard_vertex(p) in vs  # integral orders sit in D_standard
        # connected: BFS from the seed reaches everything
        seen = {standard_vertex(p)}
        frontier = [standard_vertex(p)]
        while frontier:
            nxt = []
            for u in frontier:
                for n in neighbors(u):
                    if n in vs and n not in seen:
                        seen.add(n)
                        nxt.append(n)
            frontier = nxt
        assert seen == set(vs)


# ---------------------------------------------------------------------------
# intersections


@pytest.mark.parametrize("p", [2, 3])
def test_thick_path_margin_is_distance_to_the_path(p):
    """The margin reads two distances (the tree's distance to a geodesic);
    it equals t minus the least distance to a path vertex."""
    rng = make_rng(1313 + p)
    region = sorted(ball(standard_vertex(p), 4))
    for _ in range(12):
        x = rng.choice(region)
        path = geodesic(x, random_vertex_at(rng, x, rng.randrange(4)))
        shape = ThickPath(tuple(path), rng.randrange(3))
        for v in region:
            assert shape.margin(v) == shape.t - min(distance(v, w) for w in path)
    v = standard_vertex(p)
    with pytest.raises(ValueError, match="backtrack"):
        ThickPath((v, Vertex(p, 1, 0, 0), v), 0)


def test_intersect_pointwise_on_samples():
    rng = make_rng(61)
    done = 0
    for _ in range(80):
        p = rng.choice([2, 3])
        a, b = random_matrix(rng, p), random_matrix(rng, p)
        if is_scalar(a) or is_scalar(b):
            continue
        try:
            s1, s2 = classify_single(a, p), classify_single(b, p)
        except Unbounded:
            continue
        s = intersect_shapes(s1, s2)
        for v in ball(standard_vertex(p), 3):
            assert shape_member(s, v) == (shape_member(s1, v) and shape_member(s2, v))
        done += 1
    assert done >= 50


def test_intersect_full_empty_identity():
    p = 3
    path = ThickPath((standard_vertex(p),), 1)
    assert intersect_shapes(Full(p), path) == path
    assert intersect_shapes(path, Full(p)) == path
    assert intersect_shapes(Empty(p), path) == Empty(p)


def test_two_maximal_commutative_paths_intersect_in_one_vertex():
    # two anticommuting involutions at odd p: each branch is an apartment,
    # the two apartments meet in exactly one vertex
    for p in (3, 5):
        i_mat = Mat2.of([[0, 1], [1, 0]])
        j_mat = Mat2.of([[1, 0], [0, -1]])
        s = intersect_shapes(classify_single(i_mat, p), classify_single(j_mat, p))
        assert isinstance(s, ThickPath)
        assert s.level == 0 and s.t == 0


# ---------------------------------------------------------------------------
# deepening and the branch laws


def test_deepen_deep_set_law():
    rng = make_rng(67)
    for _ in range(15):
        p = rng.choice([2, 3])
        order = random_order(rng, p)
        shape = branch_of_order(order)
        for r in (1, 2):
            deep = deepen(shape, r)
            for v in ball(standard_vertex(p), 3):
                brute = all(shape_member(shape, w) for w in ball(v, r))
                assert shape_member(deep, v) == brute


def test_neighborhood_law():
    rng = make_rng(71)
    for _ in range(15):
        p = rng.choice([2, 3])
        order = random_order(rng, p)
        s0 = branch_of_order(order)
        s1 = branch_of_order(shift_order(order, 1))
        for v in ball(standard_vertex(p), 3):
            dilated = any(shape_member(s0, w) for w in ball(v, 1))
            assert shape_member(s1, v) == dilated


def test_reindexing_law():
    rng = make_rng(73)
    region = {p: ball(standard_vertex(p), 3) for p in (2, 3)}
    for _ in range(10):
        p = rng.choice([2, 3])
        order = random_order(rng, p)
        for k in (0, 1):
            for r in (0, 1):
                for t in (1, 2):
                    left = deepen(branch_of_order(shift_order(order, k + t)), r + t)
                    right = deepen(branch_of_order(shift_order(order, k)), r)
                    assert _members(left, region[p]) == _members(right, region[p])


def test_branch_saturation_order():
    # branch containment implies reverse module containment against
    # shifted Eichler orders (their module is the intersection of the
    # maximal orders over their branch)
    rng = make_rng(79)
    triggered = 0
    for _ in range(40):
        p = rng.choice([2, 3])
        v1 = standard_vertex(p)
        v2 = random_vertex_at(rng, v1, rng.randrange(3))
        t = rng.randrange(2)
        hp = order_from_module(shifted_eichler_module(v1, v2, t))
        hp_shape = branch_of_order(hp)
        hp_vertices = _members(hp_shape, ball(v1, distance(v1, v2) + t))
        h = random_order(rng, p)
        h_shape = branch_of_order(h)
        if all(shape_member(h_shape, v) for v in hp_vertices):
            triggered += 1
            assert module_contains_module(h.closure, hp.closure)
    assert triggered >= 5


def test_deepen_to_empty_and_diameter():
    p = 3
    path = ThickPath((standard_vertex(p), Vertex(p, 1, 0, 0)), 1)
    assert diameter(path) == 1 + 2 * 1
    assert deepen(path, 1) == ThickPath(path.path, 0)
    assert deepen(path, 2) == Empty(p)
    with pytest.raises(EmptyShape):
        diameter(Empty(p))
    assert diameter(Full(p)) == inf
    assert diameter(Fan(standard_vertex(p), End(1, 0))) == inf


def test_embeds_in_level():
    p = 3
    path = ThickPath((standard_vertex(p),), 2)  # diameter 4
    assert embeds_in_level(path, 4, 0)
    assert embeds_in_level(path, 2, 1)
    assert not embeds_in_level(path, 5, 0)
    assert not embeds_in_level(path, 1, 3)


def test_deepen_fan_is_fan():
    p = 2
    s = classify_single(Mat2.of([[0, 4], [0, 0]]), p)
    assert isinstance(s, Fan)
    deep = deepen(s, 1)
    assert isinstance(deep, Fan)
    for v in ball(standard_vertex(p), 3):
        brute = all(shape_member(s, w) for w in ball(v, 1))
        assert shape_member(deep, v) == brute


# ---------------------------------------------------------------------------
# envelopes


def test_eichler_envelope_reads_off_thick_path():
    p = 3
    v1 = standard_vertex(p)
    v2 = Vertex(p, 2, 0, 3)
    mod = shifted_eichler_module(v1, v2, 1)
    shape = branch_of_order(order_from_module(mod))
    e1, e2, d, t = eichler_envelope(shape)
    assert {e1, e2} == {v1, v2}
    assert (d, t) == (2, 1)


def test_eichler_envelope_single_vertex():
    p = 3
    assert eichler_envelope(ThickPath((standard_vertex(p),), 0)) == (
        standard_vertex(p),
        standard_vertex(p),
        0,
        0,
    )


def test_eichler_envelope_requires_finite():
    p = 3
    with pytest.raises(NotFinite):
        eichler_envelope(Full(p))
    with pytest.raises(EmptyShape):
        eichler_envelope(Empty(p))
