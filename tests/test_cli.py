"""End-to-end CLI tests: one subprocess per scenario, JSON in / JSON out."""

import dataclasses
import json
import subprocess
import sys

import pytest

MOD = [sys.executable, "-m", "qlat.cli"]


def run(args, request=None, expect=0, timeout=None, env=None):
    data = None if request is None else json.dumps(request).encode()
    proc = subprocess.run(
        MOD + args, input=data, capture_output=True, timeout=timeout, env=env
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr.decode())
    return proc


def run_json(args, request, expect=0, timeout=None, env=None):
    proc = run(args, request, expect, timeout, env)
    stream = proc.stdout if expect == 0 else proc.stderr
    text = stream.decode()
    assert text.endswith("\n")
    return json.loads(text)


# ---------------------------------------------------------------------------
# local subcommands


def test_local_classify_split_apartment():
    doc = run_json(
        ["local", "classify"],
        {"p": 3, "generators": [[[1, 0], [0, 2]]]},
    )
    assert doc["p"] == 3 and doc["rank"] == 2
    shape = doc["shape"]
    assert shape["kind"] == "thick_apartment"
    assert shape["thickness"] == 0
    assert shape["ends"] is not None and len(shape["ends"]) == 2
    assert shape["anchor"] == {"a": 0, "b": 0, "c": 0}


def test_local_classify_scalar_is_full():
    doc = run_json(["local", "classify"], {"p": 5, "generators": [[[7, 0], [0, 7]]]})
    assert doc["shape"] == {"kind": "full", "p": 5}
    assert doc["rank"] == 1


def test_local_classify_rational_strings():
    doc = run_json(
        ["local", "classify"],
        {"p": 2, "generators": [[["1/1", "0"], [0, "2"]]]},
    )
    assert doc["shape"]["kind"] == "thick_apartment"


def test_local_classify_field_case_at_large_prime():
    # a^2 = 2 p^2 with 2 a non-residue: the margin climbs one edge to a
    # thick vertex.  The ascent reads its direction off the residue of a,
    # so it never builds the p + 1 neighbors of a vertex.
    p = 1000003
    request = {"p": p, "generators": [[[0, 2 * p * p], [1, 0]]]}
    proc = subprocess.run(
        MOD + ["local", "classify"],
        input=json.dumps(request).encode(),
        capture_output=True,
        timeout=5,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["shape"] == {
        "kind": "thick_path",
        "level": 0,
        "p": p,
        "path": [{"a": 1, "b": 0, "c": 0}],
        "thickness": 1,
    }


def test_local_classify_nilpotent_at_large_prime():
    # The fan's canonical base is reached by climbing away from the end;
    # each step takes the least neighbor off the ray, the parent here.
    p = 1000003
    doc = run_json(
        ["local", "classify"], {"p": p, "generators": [[[0, p**3], [0, 0]]]},
        timeout=5,
    )
    assert doc == {
        "p": p,
        "rank": 2,
        "shape": {
            "base": {"a": 3, "b": 0, "c": 0},
            "end": [1, 0],
            "kind": "fan",
            "p": p,
        },
    }


def test_local_classify_pair_at_large_prime_exceeds_budget():
    # Intersecting two shapes scans all p + 1 neighbors of a vertex, which
    # is charged to the vertex budget before the scan is made.
    p = 1000003
    doc = run_json(
        ["local", "classify"],
        {"p": p, "generators": [[[0, 2], [1, 0]], [[1, 0], [0, -1]]]},
        expect=3,
        timeout=5,
    )
    assert doc["error"] == "BudgetExceeded"


def test_local_classify_walks_the_summit_plateau_once():
    # The branch is the thick path of level 40 from the standard vertex
    # toward the line of e1.  The walk over its summit plateau scans each of
    # its 41 vertices once (42 scans of 102 vertices), so the walk along the
    # shared line before it binds (89 scans, 9,078 vertices): a budget of
    # 10,000 answers and one of 9,000 does not.
    p = 101
    req = {"p": p, "generators": [[[1, 0], [0, 0]], [[0, p**40], [1, 0]]]}
    doc = run_json(["local", "classify"], {**req, "max_vertices": 10_000})
    assert doc["shape"] == {
        "kind": "thick_path",
        "level": 40,
        "p": p,
        "path": [{"a": a, "b": 0, "c": 0} for a in range(41)],
        "thickness": 0,
    }
    err = run_json(["local", "classify"], {**req, "max_vertices": 9_000}, expect=3)
    assert err["error"] == "BudgetExceeded"

def test_local_branch_enum_eichler():
    doc = run_json(
        ["local", "branch-enum"],
        {
            "p": 3,
            "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
            "radius": 1,
        },
    )
    assert doc["count"] == 2
    assert doc["vertices"] == [{"a": 0, "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 0}]


def test_local_branch_enum_depth_and_center():
    doc = run_json(
        ["local", "branch-enum"],
        {
            "p": 3,
            "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
            "radius": 2,
            "depth": 1,
            "center": {"a": 0, "b": 1, "c": 0},
        },
    )
    # depth 1 of a level-1 Eichler branch is empty
    assert doc["count"] == 0 and doc["vertices"] == []


def test_local_spinor_image():
    doc = run_json(
        ["local", "spinor-image"],
        {"p": 3, "generators": [[[0, 9], [18, 0]]], "level": 2, "shift": 1},
    )
    assert doc == {"diameter": 2, "image": "unit_squares", "level": 0}
    doc2 = run_json(
        ["local", "spinor-image"],
        {"p": 3, "generators": [[[7, 0], [0, 7]]], "level": 3, "shift": 2},
    )
    assert doc2 == {"diameter": "infinite", "image": "full", "level": None}
    doc3 = run_json(
        ["local", "spinor-image"],
        {"p": 3, "generators": [[[0, 9], [18, 0]]], "level": 3, "shift": 2},
    )
    assert doc3 == {"diameter": 0, "image": "no_embedding", "level": 0}
    doc4 = run_json(
        ["local", "spinor-image"],
        {"p": 3, "generators": [[[0, 9], [18, 0]]], "level": 0, "shift": 3},
    )
    assert doc4 == {"diameter": None, "image": "no_embedding", "level": None}


def test_local_decompose():
    # the full level-1 Eichler order: upper triangular plus 3*e21
    doc = run_json(
        ["local", "decompose"],
        {
            "p": 3,
            "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [3, 0]]],
        },
    )
    assert doc == {
        "endpoints": [{"a": 0, "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 0}],
        "level": 1,
        "shift": 0,
    }


def test_local_decompose_rejects_commutative():
    err = run_json(
        ["local", "decompose"],
        {"p": 3, "generators": [[[1, 0], [0, 2]]]},
        expect=4,
    )
    assert err["error"] == "NotShiftedEichler"


def test_local_decompose_honours_max_vertices():
    req = {
        "p": 3,
        "generators": [[[1, 0], [0, 0]], [[0, 3], [0, 0]], [[0, 0], [3, 0]]],
        "max_vertices": 1,
    }
    err = run_json(["local", "classify"], req, expect=3)
    assert err["error"] == "BudgetExceeded"
    err = run_json(["local", "decompose"], req, expect=3)
    assert err["error"] == "BudgetExceeded"
    doc = run_json(["local", "decompose"], {**req, "max_vertices": 10**4})
    assert doc == {
        "endpoints": [{"a": 0, "b": 1, "c": 0}, {"a": 1, "b": 0, "c": 0}],
        "level": 2,
        "shift": 0,
    }


def test_local_three_maximals():
    req = {
        "p": 3,
        "endpoints": [{"a": 0, "b": 0, "c": 0}, {"a": 0, "b": 2, "c": 0}],
        "shift": 1,
    }
    doc = run_json(["local", "three-maximals"], req)
    assert doc["level"] == 2
    assert len(doc["vertices"]) == 3
    err = run_json(["local", "three-maximals"], {**req, "level": 3}, expect=2)
    assert err["error"] == "SchemaError" and err["path"] == "level"


@pytest.mark.parametrize("level", [True, 1.0, "1"])
def test_local_three_maximals_level_must_be_an_integer(level):
    # the endpoints are at distance 1, which True and 1.0 compare equal to
    req = {
        "p": 3,
        "endpoints": [{"a": 0, "b": 0, "c": 0}, {"a": 1, "b": 0, "c": 0}],
        "level": level,
    }
    err = run_json(["local", "three-maximals"], req, expect=2)
    assert err["error"] == "SchemaError" and err["path"] == "level"
    assert "expected an integer" in err["message"]
    doc = run_json(["local", "three-maximals"], {**req, "level": 1})
    assert doc["level"] == 1


def test_local_three_maximals_at_large_prime():
    # Hanging the witnesses off the path takes the least neighbor at each
    # step without building all p + 1 of them.
    doc = run_json(
        ["local", "three-maximals"],
        {
            "p": 1000003,
            "endpoints": [{"a": 0, "b": 0, "c": 0}, {"a": 1, "b": 0, "c": 0}],
            "shift": 2,
        },
        timeout=5,
    )
    assert doc == {
        "level": 1,
        "vertices": [
            {"a": 0, "b": 2, "c": 0},
            {"a": 3, "b": 0, "c": 0},
            {"a": 2, "b": 0, "c": 1},
        ],
    }


# ---------------------------------------------------------------------------
# tree subcommands


def test_tree_ball():
    doc = run_json(["tree", "ball"], {"p": 2, "radius": 2})
    assert doc["count"] == 10 and len(doc["vertices"]) == 10
    assert doc["vertices"][0] == {"a": 0, "b": 0, "c": 0}


def test_tree_ball_budget():
    err = run_json(
        ["tree", "ball"], {"p": 5, "radius": 3, "max_vertices": 10}, expect=3
    )
    assert err["error"] == "ResourceLimit"
    # an unbounded branch with a small cap trips the certified-region check
    err2 = run_json(
        ["local", "branch-enum"],
        {
            "p": 3,
            "generators": [[[7, 0], [0, 7]]],
            "radius": 4,
            "max_vertices": 10,
        },
        expect=3,
    )
    assert err2["error"] in ("ResourceLimit", "BudgetExceeded")


def test_tree_dot_inline_and_file(tmp_path):
    doc = run_json(["tree", "dot"], {"p": 2, "radius": 1})
    assert doc["vertices"] == 4 and "graph" in doc["dot"]
    target = tmp_path / "ball.dot"
    doc2 = run_json(["tree", "dot", "--dot", str(target)], {"p": 2, "radius": 1})
    assert doc2 == {"dot_file": str(target), "vertices": 4}
    assert target.read_text() == doc["dot"]


# ---------------------------------------------------------------------------
# global subcommands


def test_global_sigma_rationals():
    doc = run_json(
        ["global", "sigma"],
        {"field": {"kind": "Q"}, "algebra": {}, "genus": {}},
    )
    assert doc == {"forced_split": [], "group_order": 1, "sigma_degree": 1}


def test_global_sigma_quadratic():
    doc = run_json(
        ["global", "sigma"],
        {"field": {"kind": "quadratic", "d": 10}, "algebra": {}, "genus": {}},
    )
    assert doc == {"forced_split": [], "group_order": 2, "sigma_degree": 2}
    doc2 = run_json(
        ["global", "sigma"],
        {
            "field": {"kind": "quadratic", "d": 10},
            "algebra": {},
            "genus": {"level": {"3.1": 1}},
        },
    )
    assert doc2 == {"forced_split": ["3.1"], "group_order": 2, "sigma_degree": 1}


def test_global_sigma_class_group_cap():
    # disc = 4 * 1000000007 is past the class-group cap
    err = run_json(
        ["global", "sigma"],
        {"field": {"kind": "quadratic", "d": 1000000007}, "algebra": {}, "genus": {}},
        expect=3,
        timeout=5,
    )
    assert err["error"] == "ResourceLimit"


# Each request needs a trial divisor past the factorizer's cap of 10^6, so
# it exits with ResourceLimit instead of dividing for hours: a squarefree
# test of a radicand of 10^12 or more, or a primality test past the bound
# below which the strong-pseudoprime test is proven (about 3.3 * 10^24).
P18 = 10**18 + 9
P25 = 10**25 + 13  # the least prime above 10^25
FACTOR_CAP_REQUESTS = [
    (["local", "classify"], {"p": P25, "generators": [[[0, 1], [1, 0]]]}),
    (
        ["global", "sigma"],
        {"field": {"kind": "quadratic", "d": P18}, "algebra": {}, "genus": {}},
    ),
    (
        ["global", "sigma"],
        {"field": {"kind": "Q"}, "algebra": {"ramified": [str(P25)]}, "genus": {}},
    ),
]


@pytest.mark.parametrize(
    "args,request_doc",
    FACTOR_CAP_REQUESTS,
    ids=["classify-p", "sigma-field", "sigma-ramified-place"],
)
def test_factor_cap_exits_3(args, request_doc):
    err = run_json(args, request_doc, expect=3, timeout=5)
    assert err["error"] == "ResourceLimit"


# Primes between the factorizer's cap and the strong-pseudoprime bound are
# decided by that test, so these requests answer.
def test_local_classify_past_the_trial_division_cap_answers():
    p = 10**12 + 39
    proc = run(["local", "classify"], {"p": p, "generators": [[[0, 1], [1, 0]]]},
               timeout=5)
    assert proc.stdout.decode() == (
        f'{{"p":{p},"rank":2,"shape":{{"anchor":{{"a":0,"b":0,"c":0}},'
        f'"ends":[[1,-1],[1,1]],"kind":"thick_apartment","p":{p},"thickness":0}}}}\n'
    )


def test_global_sigma_at_a_place_past_the_trial_division_cap_answers():
    p = str(10**12 + 39)
    request_doc = {
        "field": {"kind": "Q"},
        "algebra": {"ramified": ["inf", p]},
        "genus": {"level": {"3": 1}},
    }
    proc = run(["global", "sigma"], request_doc, timeout=5)
    assert proc.stdout.decode() == (
        f'{{"forced_split":["3","{p}"],"group_order":1,"sigma_degree":1}}\n'
    )


# delta is never factored: K(sqrt(delta)) in sigma is read off the genus
# characters of the field, so a delta whose norm or denominators have prime
# factors past the factorizer's cap still answers.
@pytest.mark.parametrize(
    "field,delta,sigma_degree",
    [
        ({"kind": "Q"}, P18 * (10**18 + 31), 1),
        ({"kind": "quadratic", "d": 10}, "1/10000019", 2),
    ],
    ids=["rep-field-delta", "rep-field-delta-denominator"],
)
def test_rep_field_delta_past_the_factor_cap_answers(field, delta, sigma_degree):
    request_doc = {
        "field": field,
        "algebra": {},
        "genus": {},
        "suborder": {"kind": "commutative-quadratic", "delta": delta},
    }
    proc = run(["global", "rep-field"], request_doc, timeout=5)
    assert proc.stdout.decode() == (
        '{"forced_split":[],"ratio":"1","rep_field_degree":1,'
        f'"sigma_degree":{sigma_degree},"strict_places":[]}}\n'
    )


# A valuation of v costs O(log v) big divisions at odd p, and the dyadic
# square root of a split place lifts by Newton steps, so an entry or a delta
# with a valuation in the thousands answers well inside the timeout.
def test_local_classify_odd_valuation_in_the_thousands():
    request_doc = {"p": 3, "generators": [[[0, 3**1999], [1, 0]]]}
    proc = run(["local", "classify"], request_doc, timeout=5)
    assert proc.stdout.decode() == (
        '{"p":3,"rank":2,"shape":{"kind":"thick_path","level":1,"p":3,'
        '"path":[{"a":999,"b":0,"c":0},{"a":1000,"b":0,"c":0}],"thickness":999}}\n'
    )


def test_rep_field_dyadic_valuation_in_the_thousands():
    request_doc = {
        "field": {"kind": "quadratic", "d": 17},
        "algebra": {},
        "genus": {},
        "suborder": {
            "kind": "commutative-quadratic",
            "delta": 3 * 2**6000,
            "conductor": {"2.1": 1},
        },
    }
    proc = run(["global", "rep-field"], request_doc, timeout=5)
    assert proc.stdout.decode() == (
        '{"forced_split":[],"ratio":"1","rep_field_degree":1,'
        '"sigma_degree":1,"strict_places":[]}\n'
    )


# Each ball is far past the vertex budget, and its size p^radius far past
# what Python prints (or computes in reasonable time): refused unformed.
HUGE_BALL_REQUESTS = [
    (["tree", "ball"], {"p": 3, "radius": 10**7}),
    (["tree", "dot"], {"p": 2, "radius": 10**5}),
    (
        ["local", "branch-enum"],
        {"p": 3, "generators": [[[1, 0], [0, 0]]], "radius": 10**7},
    ),
    (["tree", "ball"], {"p": 3, "radius": 10**9}),
]


@pytest.mark.parametrize(
    "args,request_doc",
    HUGE_BALL_REQUESTS,
    ids=["ball-1e7", "dot-1e5", "branch-enum-1e7", "ball-1e9"],
)
def test_huge_radius_exits_3(args, request_doc):
    err = run_json(args, request_doc, expect=3, timeout=5)
    assert err["error"] == "ResourceLimit"
    radius = request_doc["radius"]
    assert f"has more than 2^{radius} vertices, budget is 200000" in err["message"]


def test_ball_budget_message_keeps_the_exact_size():
    err = run_json(["tree", "ball"], {"p": 3, "radius": 20}, expect=3)
    assert err["message"] == (
        "ball of radius 20 at p=3 has 6973568801 vertices, budget is 200000"
    )


# Vertex(p, a, b, c) forms p^a: an exponent past the cap is refused before
# any vertex is built, with the path of the field.
FAR = {"a": 10**8, "b": 0, "c": 0}
HUGE_EXPONENT_REQUESTS = [
    (["tree", "ball"], {"p": 3, "radius": 1, "center": FAR}, "center.a"),
    (
        ["local", "branch-enum"],
        {"p": 3, "generators": [[[1, 0], [0, 0]]], "radius": 1, "center": FAR},
        "center.a",
    ),
    (
        ["local", "three-maximals"],
        {"p": 3, "endpoints": [{"a": 0, "b": 0, "c": 0}, FAR]},
        "endpoints[1].a",
    ),
]


@pytest.mark.parametrize(
    "args,request_doc,path",
    HUGE_EXPONENT_REQUESTS,
    ids=["ball-center", "branch-enum-center", "three-maximals-endpoint"],
)
def test_huge_vertex_exponent_exits_3(args, request_doc, path):
    err = run_json(args, request_doc, expect=3, timeout=5)
    assert err["error"] == "ResourceLimit" and err["path"] == path


# A fan deepened by r has its base r steps on, and three-maximals hangs its
# vertices `shift` steps off the path: both exponents grow with the request,
# so a depth or shift past the vertex-exponent cap is refused up front.
FAN = [[[0, 0], [1, 0]]]
DEEP_REQUESTS = [
    (["local", "spinor-image"], {"p": 2, "generators": FAN, "level": 0}, None),
    (
        ["local", "three-maximals"],
        {"p": 2, "endpoints": [{"a": 0, "b": 0, "c": 0}, {"a": 1, "b": 0, "c": 0}]},
        "shift",
    ),
]


@pytest.mark.parametrize(
    "args,request_doc,path", DEEP_REQUESTS, ids=["fan-depth", "three-maximals-shift"]
)
def test_shift_past_the_exponent_cap_exits_3(args, request_doc, path):
    for shift in (1001, 10**5):
        err = run_json(args, {**request_doc, "shift": shift}, expect=3, timeout=5)
        assert err["error"] == "ResourceLimit" and err.get("path") == path
        assert f"{shift} is above 1000" in err["message"]
    run_json(args, {**request_doc, "shift": 1000}, timeout=10)


# A branch thicker than the vertex-exponent cap holds vertices past it, and
# a fan based far out has its base past it: both are refused before any
# climb or walk toward them.
HUGE_ENTRY = [[0, 2**3001], [1, 0]]


@pytest.mark.parametrize(
    "generators,message",
    [
        ([HUGE_ENTRY], "branch thickness 1500 is above 1000"),
        ([HUGE_ENTRY, [[1, 0], [0, 0]]], "fan base distance 3001 is above 1000"),
    ],
    ids=["thickness", "fan-base"],
)
def test_huge_matrix_entry_exits_3(generators, message):
    request = {"p": 2, "generators": generators}
    err = run_json(["local", "classify"], request, expect=3, timeout=5)
    assert err["error"] == "ResourceLimit" and message in err["message"]


# A branch within the thickness cap may still lie on vertices past the
# exponent cap: the stem of a^2 = 2^2001 reaches exponent 1001, and the
# eigenline (2^1500, -2) of [[1, 2^1500], [0, -1]] has its anchor at 1499.
@pytest.mark.parametrize(
    "generator,message",
    [
        ([[0, 2**2001], [1, 0]], "vertex exponent 1001 is above 1000"),
        ([[1, 2**1500], [0, -1]], "vertex exponent 1499 is above 1000"),
    ],
    ids=["thick-path", "thick-apartment"],
)
def test_shape_past_the_exponent_cap_exits_3(generator, message):
    request = {"p": 2, "generators": [generator]}
    err = run_json(["local", "classify"], request, expect=3, timeout=30)
    assert err["error"] == "ResourceLimit" and message in err["message"]


def test_shape_at_the_exponent_cap_answers():
    request = {"p": 2, "generators": [[[1, 2**1000], [0, -1]]]}
    shape = run_json(["local", "classify"], request, timeout=10)["shape"]
    assert shape["kind"] == "thick_apartment" and shape["anchor"]["a"] == 999


def test_long_eichler_path_answers_quickly():
    # a thick path's margin reads two distances, however long the path
    request = {"p": 2, "generators": [[[0, 2**400], [1, 0]], [[1, 0], [0, 0]]]}
    shape = run_json(["local", "classify"], request, timeout=5)["shape"]
    assert shape["kind"] == "thick_path" and shape["level"] == 400


def test_local_branch_enum_at_radius_0_builds_no_neighbors():
    # the ball is its centre alone, so the p + 1 neighbours of the seed are
    # never built: at this p building them would not end
    p = 10**12 + 39
    request_doc = {"p": p, "generators": [[[0, 9], [-1, -9]]], "radius": 0}
    doc = run_json(["local", "branch-enum"], request_doc, timeout=5)
    assert doc == {"count": 1, "p": p, "vertices": [{"a": 0, "b": 0, "c": 0}]}


def test_order_closure_past_the_denominator_cap_exits_3():
    # three generators close in rounds: the valuations fall every other
    # round, which the divergence window misses, and the closure stops once
    # its denominator passes 2^15 bits
    gen, one = [[0, f"1/{5**3000}"], [1, 0]], [[1, 0], [0, 1]]
    request_doc = {"p": 5, "generators": [gen, one, one]}
    err = run_json(["local", "classify"], request_doc, expect=3, timeout=5)
    assert err == {
        "error": "ResourceLimit",
        "message": "order closure denominators past 32768 bits",
    }


def test_one_generator_past_the_denominator_cap_is_unbounded():
    # one generator closes in closed form: det = -5^-3000 is not integral,
    # so the request exits 4 before any Hermite form
    request_doc = {"p": 5, "generators": [[[0, f"1/{5**3000}"], [1, 0]]]}
    err = run_json(["local", "classify"], request_doc, expect=4, timeout=5)
    assert err == {
        "error": "Unbounded",
        "message": "module closure does not stabilize; minimal entry "
        "valuation decreases without bound",
    }


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no int-to-str digit limit",
)
def test_a_response_past_the_int_to_str_limit_is_a_resource_limit():
    from types import SimpleNamespace

    from qlat.cli import _write_response
    from qlat.errors import ResourceLimit

    args = SimpleNamespace(pretty=False, outfile=None)
    with pytest.raises(ResourceLimit, match="the response cannot be written"):
        _write_response({"c": 10 ** (sys.get_int_max_str_digits() + 1)}, args)


def test_composite_prime_with_small_factor_is_a_schema_error():
    # 10^18 + 10 is even: the first trial divisor decides it
    err = run_json(
        ["local", "classify"],
        {"p": 10**18 + 10, "generators": [[[0, 1], [1, 0]]]},
        expect=2,
        timeout=5,
    )
    assert err["error"] == "SchemaError" and err["path"] == "p"
    assert "not prime" in err["message"]


def test_global_sigma_definite_algebra():
    doc = run_json(
        ["global", "sigma"],
        {
            "field": {"kind": "quadratic", "d": 3},
            "algebra": {"ramified": ["inf1", "inf2"]},
            "genus": {},
        },
    )
    assert doc["sigma_degree"] == 2 and doc["group_order"] == 2


def test_global_rep_field_comm_quadratic():
    doc = run_json(
        ["global", "rep-field"],
        {
            "field": {"kind": "quadratic", "d": 10},
            "algebra": {},
            "genus": {},
            "suborder": {"kind": "commutative-quadratic", "delta": 2},
        },
    )
    assert doc["rep_field_degree"] == 2 and doc["ratio"] == "1/2"
    assert doc["sigma_degree"] == 2 and doc["strict_places"] == []


def test_global_rep_field_conductor():
    doc = run_json(
        ["global", "rep-field"],
        {
            "field": {"kind": "quadratic", "d": 10},
            "algebra": {},
            "genus": {},
            "suborder": {
                "kind": "commutative-quadratic",
                "delta": 2,
                "conductor": {"3.1": 1},
            },
        },
    )
    assert doc["rep_field_degree"] == 1 and doc["ratio"] == "1"
    assert doc["strict_places"] == ["3.1"]


def test_global_rep_field_rank4():
    base = {
        "field": {"kind": "quadratic", "d": 10},
        "algebra": {},
        "genus": {},
    }
    doc = run_json(
        ["global", "rep-field"],
        {**base, "suborder": {"kind": "rank4", "I": {"3.1": 1}}},
    )
    assert doc["rep_field_degree"] == 1 and doc["strict_places"] == ["3.1"]
    doc2 = run_json(
        ["global", "rep-field"],
        {**base, "suborder": {"kind": "rank4", "I": {"31.1": 1}}},
    )
    assert doc2["rep_field_degree"] == 2 and doc2["strict_places"] == ["31.1"]


def test_global_rep_field_rank3_requires_split():
    err = run_json(
        ["global", "rep-field"],
        {
            "field": {"kind": "quadratic", "d": 10},
            "algebra": {"ramified": ["inf1", "inf2"]},
            "genus": {},
            "suborder": {"kind": "rank3"},
        },
        expect=4,
    )
    assert err["error"] == "AlgebraNotSplit"


def test_global_rep_field_infeasible_reports_place():
    err = run_json(
        ["global", "rep-field"],
        {
            "field": {"kind": "quadratic", "d": 10},
            "algebra": {},
            "genus": {"level": {"3.1": 3}},
            "suborder": {"kind": "commutative-quadratic", "delta": 2},
        },
        expect=4,
    )
    assert err["error"] == "EmbeddingInfeasible"
    assert err["place"] == "3.1"


def test_global_unsupported_field_kind():
    err = run_json(
        ["global", "sigma"],
        {"field": {"kind": "cubic"}, "algebra": {}, "genus": {}},
        expect=4,
    )
    assert err["error"] == "UnsupportedField"


def test_global_unknown_suborder_kind():
    err = run_json(
        ["global", "rep-field"],
        {
            "field": {"kind": "Q"},
            "algebra": {},
            "genus": {},
            "suborder": {"kind": "rank5"},
        },
        expect=2,
    )
    assert err["error"] == "SchemaError" and err["path"] == "suborder.kind"


# ---------------------------------------------------------------------------
# request validation and exit codes


def test_invalid_json_reports_position():
    proc = subprocess.run(
        MOD + ["tree", "ball"], input=b"{", capture_output=True
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr.decode())
    assert err["error"] == "SchemaError" and err["path"] == "$"
    assert "line 1" in err["message"] and "char 1" in err["message"]


# json.loads rejects these with a ValueError past the int-to-str digit
# limit and a RecursionError, neither of them a JSONDecodeError.
UNDECODABLE_REQUESTS = [
    b'{"p": 3, "radius": ' + b"1" * 5000 + b"}",
    b"[" * 100_000,
]


@pytest.mark.parametrize(
    "data", UNDECODABLE_REQUESTS, ids=["5000-digit-integer", "deep-nesting"]
)
def test_undecodable_json_exits_2(data):
    proc = subprocess.run(
        MOD + ["tree", "ball"], input=data, capture_output=True, timeout=5
    )
    assert proc.returncode == 2, proc.stderr.decode()
    text = proc.stderr.decode()
    assert text.count("\n") == 1 and text.endswith("\n")
    err = json.loads(text)
    assert err["error"] == "SchemaError" and err["path"] == "$"
    assert err["message"].startswith("$: invalid JSON: ")


def test_zero_denominator_diagnostic():
    err = run_json(
        ["local", "classify"],
        {"p": 3, "generators": [[["1/0", 0], [0, 0]]]},
        expect=2,
    )
    assert err["path"] == "generators[0][0][0]"
    assert "zero denominator in '1/0'" in err["message"]


def test_float_rejected():
    err = run_json(
        ["local", "classify"],
        {"p": 3, "generators": [[[1.5, 0], [0, 0]]]},
        expect=2,
    )
    assert "floats are not exact" in err["message"]


def test_missing_keys():
    err = run_json(["tree", "ball"], {"p": 3}, expect=2)
    assert err["error"] == "SchemaError" and err["path"] == "radius"
    err2 = run_json(["local", "classify"], {"generators": [[[1, 0], [0, 1]]]}, expect=2)
    assert err2["path"] == "p"
    err3 = run_json(["local", "classify"], {"p": 4, "generators": []}, expect=2)
    assert "not prime" in err3["message"]


def test_unbounded_generators_exit_4():
    err = run_json(
        ["local", "classify"],
        {"p": 3, "generators": [[["1/3", 0], [0, 0]]]},
        expect=4,
    )
    assert err["error"] == "Unbounded"


def test_bad_vertex_exit_2():
    err = run_json(
        ["tree", "ball"],
        {"p": 3, "radius": 1, "center": {"a": 1, "b": 1, "c": 0}},
        expect=2,
    )
    assert err["error"] == "SchemaError" and err["path"] == "center"


# ---------------------------------------------------------------------------
# Imports: the value types are written out, so no code is generated


def test_no_qlat_class_is_a_dataclass():
    # The package runs each engine module on first use: import them all.
    import qlat.branches  # noqa: F401
    import qlat.bt_tree  # noqa: F401
    import qlat.cli  # noqa: F401
    import qlat.global_classfield  # noqa: F401
    import qlat.local_orders  # noqa: F401
    import qlat.quadforms  # noqa: F401
    import qlat.spinor_local  # noqa: F401

    classes = {
        cls
        for name, mod in list(sys.modules.items())
        if name == "qlat" or name.startswith("qlat.")
        for value in vars(mod).values()
        if isinstance(value, type)
        for cls in value.__mro__
    }
    names = {cls.__name__ for cls in classes}
    assert {"Mat2", "Module4", "End", "ThickApartment", "QForm", "RepField"} <= names
    assert [cls for cls in classes if dataclasses.is_dataclass(cls)] == []


def _imports(module: str, statement: str) -> bool:
    code = f"import sys; {statement}; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=30, check=True
    )
    return proc.stdout.decode().strip() == "True"


# The package runs each engine module on first use; the star import reads a
# public name of every one of them, so all run.
_EVERY_MODULE = "import qlat.cli; from qlat import *"


def test_import_leaves_dataclasses_unloaded():
    if _imports("dataclasses", "pass"):
        pytest.skip("this interpreter imports dataclasses at start-up")
    assert not _imports("dataclasses", _EVERY_MODULE)


def test_import_leaves_argparse_unloaded_until_help():
    # A bare two-word argv is read without argparse, which is imported
    # only for an argv with an option, help or a usage error.
    for module in ("argparse", "gettext"):
        if _imports(module, "pass"):
            pytest.skip(f"this interpreter imports {module} at start-up")
        assert not _imports(module, _EVERY_MODULE), module
    proc = subprocess.run(
        [sys.executable, "-m", "qlat", "--help"], capture_output=True, timeout=30
    )
    assert proc.returncode == 0
    assert proc.stdout.decode().startswith("usage: qlat [-h] {local,tree,global} ...\n")


# Which source files of the package a process executes: an audit hook sees
# every module body run, including the deferred ones.
_EXECUTED = """
import io, json, os, sys

ran = []


def hook(event, args):
    if event == "exec":
        ran.append(getattr(args[0], "co_filename", ""))


sys.addaudithook(hook)
import qlat.cli

if sys.argv[1:]:
    sys.stdout = io.StringIO()
    code = qlat.cli.main(sys.argv[1:])
    sys.stdout = sys.__stdout__
    assert code == 0, code
here = os.path.dirname(qlat.__file__)
print(json.dumps(sorted(os.path.basename(f) for f in ran if os.path.dirname(f) == here)))
"""
_FRONT_END = {"__init__.py", "cli.py", "errors.py", "exact_padic.py"}
_Q = {"field": {"kind": "Q"}, "algebra": {"ramified": ["inf", "7"]}, "genus": {}}
_ORDER = {"p": 3, "generators": [[[0, 0], [9, 0]], [[0, 27], [0, 0]]]}


@pytest.mark.parametrize(
    "args,request_doc,layers",
    [
        ([], None, set()),
        (["global", "sigma"], _Q, {"quadforms.py", "global_classfield.py"}),
        (["tree", "ball"], {"p": 2, "radius": 1}, {"bt_tree.py"}),
        (["local", "classify"], _ORDER, {"bt_tree.py", "local_orders.py", "branches.py"}),
        (
            ["local", "spinor-image"],
            {**_ORDER, "level": 1},
            {"bt_tree.py", "local_orders.py", "branches.py", "spinor_local.py"},
        ),
    ],
    ids=["import", "global", "tree", "local", "spinor-image"],
)
def test_a_request_runs_only_the_layers_it_needs(args, request_doc, layers):
    data = None if request_doc is None else json.dumps(request_doc).encode()
    proc = subprocess.run(
        [sys.executable, "-c", _EXECUTED, *args],
        input=data,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert set(json.loads(proc.stdout)) == _FRONT_END | layers


def test_public_names_are_their_home_modules_objects():
    import qlat

    assert set(qlat.__all__) == set(qlat._HOME)
    for name in qlat.__all__:
        value = getattr(qlat, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    namespace = {}
    exec("from qlat import *", namespace)
    assert set(qlat.__all__) <= set(namespace)
    assert set(qlat.__all__) <= set(dir(qlat))
    with pytest.raises(AttributeError):
        qlat.no_such_name  # noqa: B018


# ---------------------------------------------------------------------------
# I/O plumbing and determinism


def test_in_out_files(tmp_path):
    req = tmp_path / "req.json"
    out = tmp_path / "resp.json"
    req.write_text(json.dumps({"p": 2, "radius": 1}))
    proc = run(["tree", "ball", "--in", str(req), "--out", str(out)])
    assert proc.stdout == b""
    direct = run(["tree", "ball"], {"p": 2, "radius": 1})
    assert out.read_bytes() == direct.stdout


def test_missing_input_file(tmp_path):
    proc = subprocess.run(
        MOD + ["tree", "ball", "--in", str(tmp_path / "absent.json")],
        capture_output=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args,option",
    [
        (["tree", "ball", "--out"], "--out"),
        (["tree", "dot", "--dot"], "--dot"),
        (["tree", "dot", "--out"], "--out"),
    ],
)
def test_unwritable_output_file_exits_2(tmp_path, args, option):
    for target in (tmp_path / "absent" / "out.txt", tmp_path):  # a directory
        proc = subprocess.run(
            MOD + args + [str(target)],
            input=json.dumps({"p": 2, "radius": 1}).encode(),
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == 2, proc.stderr.decode()
        assert proc.stdout == b""
        text = proc.stderr.decode()
        assert text.count("\n") == 1  # one diagnostic, no traceback
        err = json.loads(text)
        assert err["error"] == "SchemaError" and err["path"] == option
        assert err["message"].startswith(f"{option}: cannot write {target}")


def test_undecodable_input_file_exits_2(tmp_path):
    req = tmp_path / "req.json"
    req.write_bytes(b"\xff")
    proc = subprocess.run(
        MOD + ["tree", "ball", "--in", str(req)], capture_output=True, timeout=5
    )
    assert proc.returncode == 2, proc.stderr.decode()
    text = proc.stderr.decode()
    assert text.count("\n") == 1
    err = json.loads(text)
    assert err["error"] == "SchemaError" and err["path"] == "$"
    assert "can't decode byte 0xff" in err["message"]


def test_byte_determinism_and_threads():
    req = {
        "p": 3,
        "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
        "radius": 3,
    }
    runs = [
        run(["local", "branch-enum"], req).stdout,
        run(["local", "branch-enum"], req).stdout,
    ]
    assert len(set(runs)) == 1
    # The single-threaded engine takes no worker-count option.
    run(["local", "branch-enum", "--threads", "4"], req, expect=2)


def test_output_is_canonical_json():
    proc = run(["tree", "ball"], {"p": 2, "radius": 2})
    text = proc.stdout.decode()
    doc = json.loads(text)
    assert (
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == text
    )


def test_pretty_reparses_identically():
    req = {"p": 2, "radius": 2}
    plain = json.loads(run(["tree", "ball"], req).stdout)
    pretty_out = run(["tree", "ball", "--pretty"], req).stdout.decode()
    assert "\n  " in pretty_out  # actually indented
    assert json.loads(pretty_out) == plain


def test_package_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qlat", "tree", "ball"],
        input=json.dumps({"p": 2, "radius": 0}).encode(),
        capture_output=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "count": 1,
        "vertices": [{"a": 0, "b": 0, "c": 0}],
    }


def test_env_budget_cap():
    import os

    env = dict(os.environ, QLAT_MAX_VERTICES="5")
    proc = subprocess.run(
        MOD + ["tree", "ball"],
        input=json.dumps({"p": 3, "radius": 2}).encode(),
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"] == "ResourceLimit"


@pytest.mark.parametrize("value", ["0", "abc"])
def test_env_budget_malformed_exit_2(value):
    import os

    env = dict(os.environ, QLAT_MAX_VERTICES=value)
    doc = run_json(["tree", "ball"], {"p": 3, "radius": 2}, expect=2, env=env)
    assert doc["error"] == "SchemaError"
    assert doc["path"] == "QLAT_MAX_VERTICES"
