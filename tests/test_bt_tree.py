"""The (p+1)-regular tree of lattice classes: canonical forms, metric, ends."""

from fractions import Fraction

import pytest

from helpers import (
    det,
    end_from_vector,
    make_rng,
    random_matrix,
    random_vertex,
    random_vertex_at,
    ray_vertices,
    vertex_basis,
)
from qlat.bt_tree import (
    End,
    Vertex,
    ball,
    ball_size,
    canonical_order,
    canonical_vertex,
    child,
    distance,
    export_dot,
    geodesic,
    neighbors,
    parent,
    ray_distance,
    standard_vertex,
    step_toward_end,
    walk_toward_end,
)
from qlat.errors import ResourceLimit, SingularMatrix
from qlat.exact_padic import Mat2


def test_vertex_canonical_validation():
    Vertex(3, 0, 0, 0)
    Vertex(3, 2, 0, 3)
    with pytest.raises(ValueError):
        Vertex(3, 1, 0, 3)  # c out of range
    with pytest.raises(ValueError):
        Vertex(3, 1, 1, 0)  # not primitive: min(a, b, v(c)) != 0
    with pytest.raises(ValueError):
        Vertex(3, -1, 0, 0)


def test_canonical_vertex_homothety_and_unimodular_invariance():
    rng = make_rng(5)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        g = random_matrix(rng, p)
        if det(g) == 0:
            continue
        v = canonical_vertex(g, p)
        # scaling the lattice does not change its class
        assert canonical_vertex(g * Fraction(p), p) == v
        assert canonical_vertex(g * Fraction(1, p), p) == v
        # changing the basis by a locally invertible integral matrix either
        u = Mat2.of([[1, rng.randrange(8)], [rng.randrange(8) * p, 1]])
        assert canonical_vertex(g * u, p) == v
        # the canonical representative spans the same class
        assert canonical_vertex(vertex_basis(v), p) == v


def test_canonical_vertex_rejects_singular():
    with pytest.raises(SingularMatrix):
        canonical_vertex(Mat2.of([[1, 1], [1, 1]]), 3)


def test_standard_neighbors():
    p = 3
    v = standard_vertex(p)
    ns = neighbors(v)
    assert len(ns) == p + 1
    assert ns == tuple(sorted(ns))
    expected = {Vertex(p, 1, 0, c) for c in range(p)} | {Vertex(p, 0, 1, 0)}
    assert set(ns) == expected


def test_neighbors_symmetric_and_distance_one():
    rng = make_rng(11)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        v = random_vertex(rng, p, 3)
        for n in neighbors(v):
            assert distance(v, n) == 1
            assert v in neighbors(n)


def test_distance_is_a_metric_on_samples():
    rng = make_rng(13)
    for _ in range(60):
        p = rng.choice([2, 3])
        u = random_vertex(rng, p, 4)
        v = random_vertex(rng, p, 4)
        w = random_vertex(rng, p, 4)
        duv = distance(u, v)
        assert duv == distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= distance(u, w) + distance(w, v)


def test_geodesic():
    rng = make_rng(17)
    for _ in range(30):
        p = rng.choice([2, 3])
        u = random_vertex(rng, p, 4)
        v = random_vertex_at(rng, u, rng.randrange(5))
        path = geodesic(u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) == distance(u, v) + 1
        for a, b in zip(path, path[1:]):
            assert distance(a, b) == 1


def test_ball_sizes_and_budget():
    for p in (2, 3, 5):
        v = standard_vertex(p)
        for r in range(4):
            bs = ball(v, r)
            assert len(bs) == ball_size(p, r)
            assert all(distance(v, w) <= r for w in bs)
    with pytest.raises(ResourceLimit):
        ball(standard_vertex(2), 40)
    with pytest.raises(ResourceLimit):
        ball(standard_vertex(3), 4, max_vertices=10)


def test_children_parent_and_canonical_order():
    for p in (2, 3, 5):
        region = ball(Vertex(p, 1, 2, 1), 3)
        assert canonical_order(region) == sorted(region)
        for v in region:
            kids = [child(v, j) for j in range(p)]
            assert len(kids) == p and all(parent(w) == v for w in kids)
            assert sorted(kids + [parent(v)]) == list(neighbors(v))


def test_ball_respects_env_budget(monkeypatch):
    monkeypatch.setenv("QLAT_MAX_VERTICES", "5")
    with pytest.raises(ResourceLimit):
        ball(standard_vertex(3), 2)
    monkeypatch.setenv("QLAT_MAX_VERTICES", "100")
    assert len(ball(standard_vertex(3), 2)) == 17


def test_end_normalization():
    assert end_from_vector((2, 4)) == End(1, 2)
    assert end_from_vector((-2, 4)) == End(1, -2)
    assert end_from_vector((Fraction(1, 3), Fraction(2, 5))) == End(5, 6)
    assert end_from_vector((0, -7)) == End(0, 1)
    with pytest.raises(ValueError):
        end_from_vector((0, 0))
    with pytest.raises(ValueError):
        End(2, 4)


def test_walk_toward_end_moves_one_step():
    rng = make_rng(19)
    for _ in range(30):
        p = rng.choice([2, 3])
        v = random_vertex(rng, p, 3)
        e = end_from_vector((rng.randrange(1, 9), rng.randrange(9)))
        w = step_toward_end(v, e)
        assert distance(v, w) == 1
        assert walk_toward_end(v, e, 3) == step_toward_end(
            step_toward_end(w, e), e
        )


def test_ray_is_geodesic():
    p = 3
    v = standard_vertex(p)
    for vec in ((1, 0), (0, 1), (1, 1), (2, 3)):
        e = end_from_vector(vec)
        rv = ray_vertices(v, e, 5)
        assert len(rv) == 6
        assert distance(rv[0], rv[-1]) == 5  # no backtracking, ever


def test_dist_to_ray():
    p = 3
    v = standard_vertex(p)
    e = end_from_vector((1, 0))
    rv = ray_vertices(v, e, 4)
    for i, u in enumerate(rv):
        assert ray_distance(v, e)(u) == 0
    # a vertex hanging off the ray start on the opposite side
    off = [n for n in neighbors(v) if n != rv[1]]
    assert all(ray_distance(v, e)(u) == 1 for u in off)


def test_export_dot_deterministic_and_complete():
    vs = ball(standard_vertex(3), 1)
    dot1 = export_dot(vs)
    dot2 = export_dot(sorted(vs, reverse=True))
    assert dot1 == dot2
    assert dot1.count("--") == 4  # star on 5 vertices
    assert dot1.startswith("graph lattice_classes {")
    assert "v_0_0_0" in dot1
    highlighted = export_dot(vs, {standard_vertex(3): "ROOT"})
    assert "ROOT" in highlighted
