"""Property tests of all nine subcommands: random and malformed requests
through `qlat.cli.main` in-process.  Every request must end in an answer
(exit 0) or a typed diagnostic (exit 2, 3 or 4, one JSON object on
stderr), never in a traceback.  Balls must have the closed-form size,
enumerated branches must be those of the ball filter in `oracles.py`, the
spinor-image diameter must be that of the classified shape deepened by the
shift, and three-maximals on a decomposition must give back its level."""

import io
import json
import signal
import sys
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import conjugate
from qlat.bt_tree import Vertex, ball_size
from qlat.cli import main
from qlat.exact_padic import Mat2, is_squarefree
from qlat.global_classfield import BaseField
from qlat.local_orders import order_closure

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def mostly(valid, *malformed):
    """`valid` three times in four, else one of the malformed values."""
    return st.one_of(valid, valid, valid, st.sampled_from(malformed))


radicands = st.integers(-(10**4), 10**4).filter(
    lambda m: m not in (0, 1) and is_squarefree(m)
)
bad_fields = st.sampled_from([
    {"kind": "quadratic", "d": 12},
    {"kind": "quadratic", "d": 1},
    {"kind": "quadratic", "d": "5"},
    {"kind": "cubic", "d": 5},
    {"kind": "quadratic"},
    "Q",
])
bad_keys = st.sampled_from(
    ["inf", "inf1", "4", "3.3", "1", "0", "-3", "x", "", "7.1.1"]
)
bad_exponents = st.sampled_from([-1, "2", 1.5, None])
bad_rationals = st.sampled_from(["x", "", "1/0", [], None])
bad_suborders = st.sampled_from(
    [{"kind": "rank5"}, {}, {"kind": "commutative-quadratic"}]
)


@st.composite
def requests(draw, rep_field: bool):
    """A request over a random field whose place keys are mostly valid
    there, with a malformed value in one place in eight (sigma) or sixteen
    (rep-field, whose requests have more places)."""
    rarely = st.sampled_from([False] * (15 if rep_field else 7) + [True])
    m = draw(st.one_of(st.none(), radicands))
    field = BaseField.rationals() if m is None else BaseField.quadratic(m)
    places = [
        pl.key() for p in (2, 3, 5, 7, 11, 13, 101) for pl in field.places_over(p)
    ]

    def mostly(valid, bad):
        return draw(bad if draw(rarely) else valid)

    def key():
        return mostly(st.sampled_from(places), bad_keys)

    def ideal_map():
        size = draw(st.integers(0, 3))
        return {key(): mostly(st.integers(0, 4), bad_exponents) for _ in range(size)}

    def rational():
        valid = st.one_of(
            st.integers(-10**4, 10**4).filter(bool),
            st.tuples(st.integers(-99, 99).filter(bool), st.integers(1, 9)).map(
                lambda t: f"{t[0]}/{t[1]}"
            ),
        )
        return mostly(valid, bad_rationals)

    # an even ramification set, but for a rare stray key
    reals = list(field.real_place_keys())
    ramified = draw(st.sampled_from([[], [], reals[:2] if len(reals) == 2 else []]))
    ramified += draw(st.lists(st.sampled_from(places), unique=True, max_size=4))
    if len(ramified) % 2:
        ramified.pop()
    if draw(rarely):
        ramified.append(key())
    doc = {
        "field": {"kind": "Q"} if m is None else {"kind": "quadratic", "d": m},
        "algebra": {"ramified": ramified},
        "genus": {"level": ideal_map(), "I": ideal_map()},
    }
    if draw(rarely):
        doc["field"] = draw(bad_fields)
    if rep_field:
        kinds = st.sampled_from(["commutative-quadratic", "rank4", "rank3"])
        kind = mostly(kinds, st.just("bad"))
        if kind == "commutative-quadratic":
            if draw(st.booleans()):
                delta = rational()
            else:
                delta = {"x": rational(), "y": rational()}
            doc["suborder"] = {"kind": kind, "delta": delta, "conductor": ideal_map()}
        elif kind == "rank4":
            doc["suborder"] = {"kind": kind, "level": ideal_map(), "I": ideal_map()}
        elif kind == "rank3":
            doc["suborder"] = {"kind": kind}
        else:
            doc["suborder"] = draw(bad_suborders)
    return doc


# Wall-clock limit of one request, far above what any example takes, so
# that a hang fails its example, naming the request, instead of the run.
REQUEST_LIMIT_S = 10.0


class Overtime(Exception):
    """A request ran past REQUEST_LIMIT_S."""


def call(argv, request) -> tuple[int, str, str]:
    def overtime(signum, frame):
        raise Overtime(
            f"{' '.join(argv)} ran past {REQUEST_LIMIT_S} s on {json.dumps(request)}"
        )

    armed = hasattr(signal, "SIGALRM")  # not on Windows: no limit there
    if armed:
        previous = signal.signal(signal.SIGALRM, overtime)
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(json.dumps(request))
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def check(argv, request) -> dict | None:
    code, out, err = call(argv, request)
    assert code in (0, 2, 3, 4), (code, request)
    if code:
        assert out == ""
        report = json.loads(err)
        assert isinstance(report, dict) and "error" in report, err
        return None
    assert err == ""
    return json.loads(out)


@FUZZ
@given(requests(rep_field=False))
def test_global_sigma_fuzz(request):
    doc = check(["global", "sigma"], request)
    if doc is not None:
        assert doc["group_order"] % doc["sigma_degree"] == 0, doc


@FUZZ
@given(requests(rep_field=True))
def test_global_rep_field_fuzz(request):
    doc = check(["global", "rep-field"], request)
    if doc is not None:
        assert doc["sigma_degree"] % doc["rep_field_degree"] == 0, doc


# ---------------------------------------------------------------------------
# Tree subcommands

TREE_FUZZ = settings(FUZZ, max_examples=100)

# radii too large to build, and vertex exponents past the cap
huge_radii = st.sampled_from([20, 10**5, 10**7, 10**9])
bad_radii = st.sampled_from([-1, "2", 1.5, None])
bad_vertices = st.sampled_from([
    {"a": 10**8, "b": 0, "c": 0},
    {"a": 0, "b": 10**8, "c": 0},
    {"a": 1, "b": 1, "c": 0},
    {"a": 1, "b": 0, "c": 99},
    {"a": -1, "b": 0, "c": 0},
    {"a": 0, "b": 0},
    [0, 0, 0],
])
bad_budgets = st.sampled_from([0, -5, "10", 2.5])


@st.composite
def vertices(draw, p: int) -> dict:
    """A canonical triple: 0 <= c < p^a, and c prime to p when a, b > 0."""
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    c = draw(st.integers(0, p**a - 1))
    if a and b and c % p == 0:
        c += 1
    return {"a": a, "b": b, "c": c}


@st.composite
def tree_requests(draw, branch: bool) -> dict:
    """A ball request at p <= 7 with a malformed or oversized field in one
    place in eight; branch requests add one to three generators."""
    rarely = st.sampled_from([False] * 7 + [True])

    def mostly(valid, bad):
        return draw(bad if draw(rarely) else valid)

    p = mostly(st.sampled_from([2, 3, 5, 7]), st.sampled_from([4, 1, "3"]))
    q = p if p in (2, 3, 5, 7) else 2
    doc = {"p": p, "radius": mostly(st.integers(0, 7 - q // 2), huge_radii | bad_radii)}
    if draw(st.booleans()):
        doc["center"] = mostly(vertices(q), bad_vertices)
    if draw(rarely):
        doc["max_vertices"] = draw(st.integers(1, 300) | bad_budgets)
    if branch:
        entry = st.integers(-9, 9)
        doc["generators"] = [
            [[draw(entry), draw(entry)], [draw(entry), draw(entry)]]
            for _ in range(draw(st.integers(1, 3)))
        ]
        if draw(rarely):  # a fraction (often unbounded, exit 4) or junk
            row = draw(st.sampled_from(doc["generators"]))[draw(st.integers(0, 1))]
            junk = st.sampled_from(["1/2", "2/3", "x", 1.5])
            row[draw(st.integers(0, 1))] = draw(junk)
        doc["depth"] = mostly(st.integers(0, 2), bad_radii)
    return doc


@TREE_FUZZ
@given(tree_requests(branch=False))
@example({"p": 3, "radius": 10**7})
@example({"p": 3, "radius": 10**9})
@example({"p": 3, "radius": 1, "center": {"a": 10**8, "b": 0, "c": 0}})
def test_tree_ball_fuzz(request):
    doc = check(["tree", "ball"], request)
    if doc is not None:
        assert doc["count"] == ball_size(request["p"], request["radius"])
        assert len(doc["vertices"]) == doc["count"]


@TREE_FUZZ
@given(tree_requests(branch=False))
@example({"p": 2, "radius": 10**5})
def test_tree_dot_fuzz(request):
    doc = check(["tree", "dot"], request)
    if doc is not None:
        assert doc["vertices"] == ball_size(request["p"], request["radius"])
        assert doc["dot"].count(" -- ") == doc["vertices"] - 1  # a subtree


@TREE_FUZZ
@given(tree_requests(branch=True))
@example({"p": 3, "generators": [[[1, 0], [0, 0]]], "radius": 10**7})
@example({
    "p": 3, "generators": [[[1, 0], [0, 0]]], "radius": 1,
    "center": {"a": 10**8, "b": 0, "c": 0},
})
def test_local_branch_enum_fuzz(request):
    doc = check(["local", "branch-enum"], request)
    if doc is not None:
        p = request["p"]
        gens = [Mat2.of([[Fraction(x) for x in row] for row in g])
                for g in request["generators"]]
        center = Vertex(p, **request.get("center", {"a": 0, "b": 0, "c": 0}))
        want = oracles.enumerate_branch(
            order_closure(gens, p), request.get("depth", 0), center,
            request["radius"], request.get("max_vertices"),
        )
        got = [Vertex(p, v["a"], v["b"], v["c"]) for v in doc["vertices"]]
        assert got == sorted(want), request


# ---------------------------------------------------------------------------
# Order subcommands

LOCAL_FUZZ = settings(FUZZ, max_examples=100)

bad_generators = st.sampled_from([
    "x", 1.5, None, [], [[1, 0]], [[1, 0], [0]], [[1, 0], [0, "1/0"]],
    [[1, 0], [0, 0.5]], [["a", 0], [0, 1]],
])
bad_levels = st.sampled_from([-1, "2", 1.5, None])


def rational_json(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_json(m: Mat2) -> list:
    return [[rational_json(x) for x in row] for row in m.rows()]


@st.composite
def generator_sets(draw, q: int) -> list[Mat2]:
    """One to three generators at the prime q: integral, upper triangular,
    scalar or nilpotent ones, integral ones plus 1/q (not integral) or over
    a prime-to-q denominator, or the three generators of Z + q^r (level-d
    Eichler order); all conjugated by a shear or a diagonal power of q."""
    entry = st.integers(-9, 9)
    scale = Fraction(q) ** draw(st.integers(0, 2))
    kind = draw(st.sampled_from(
        ["integral", "triangular", "scalar", "nilpotent", "non-integral",
         "prime-to-p", "eichler", "eichler"]
    ))
    if kind == "eichler":
        d, r = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        units = ([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [q**d, 0]])
        gens = [Mat2.of(m).scale(q**r) for m in units]
    else:
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            if kind == "scalar":
                m = Mat2.scalar(draw(entry))
            elif kind == "nilpotent":
                x, y = draw(entry), draw(entry)
                m = Mat2.of([[x * y, -x * x], [y * y, -x * y]])
            elif kind == "triangular":
                m = Mat2.of([[draw(entry), draw(entry)], [0, draw(entry)]])
            else:
                m = Mat2.of([[draw(entry), draw(entry)], [draw(entry), draw(entry)]])
            gens.append(m.scale(scale))
        if kind == "non-integral":
            gens[0] += Mat2.scalar(Fraction(1, q))
        elif kind == "prime-to-p":
            den = draw(st.sampled_from([d for d in (2, 3, 5, 7, 11) if d != q]))
            gens = [m.scale(Fraction(1, den)) for m in gens]
    g = draw(st.sampled_from([
        Mat2.identity(),
        Mat2.of([[1, draw(entry)], [0, 1]]),
        Mat2.of([[q ** draw(st.integers(1, 2)), 0], [0, 1]]),
    ]))
    return [conjugate(m, g) for m in gens]


@st.composite
def order_requests(draw) -> dict:
    """An order request at p in {2, 3, 5, 7, 101} with a malformed prime,
    generator or field in one place in eight."""
    rarely = st.sampled_from([False] * 7 + [True])

    def mostly(valid, bad):
        return draw(bad if draw(rarely) else valid)

    p = mostly(st.sampled_from([2, 3, 5, 7, 101]), st.sampled_from([4, 1, "3"]))
    q = p if p in (2, 3, 5, 7, 101) else 2
    gens = [matrix_json(m) for m in draw(generator_sets(q))]
    if draw(rarely):
        gens[draw(st.integers(0, len(gens) - 1))] = draw(bad_generators)
    doc = {"p": p, "generators": mostly(st.just(gens), st.sampled_from([[], "x"]))}
    doc["level"] = mostly(st.integers(0, 4), bad_levels)
    doc["shift"] = mostly(st.integers(0, 3), bad_levels)
    if draw(rarely):
        doc["max_vertices"] = draw(st.integers(1, 300) | bad_budgets)
    return doc


def deepened(shape: dict, shift: int):
    """(diameter, level) of a classified shape deepened by `shift`: a thick
    path of thickness t keeps its level and has diameter
    level + 2 (t - shift), and is empty once shift > t; fans, full trees,
    thick rays and thick apartments are unbounded."""
    kind = shape["kind"]
    if kind == "empty":
        return None, None
    if kind in ("full", "fan"):
        return "infinite", None
    if shift > shape["thickness"]:
        return None, None
    if kind == "thick_path":
        return shape["level"] + 2 * (shape["thickness"] - shift), shape["level"]
    return "infinite", None


@LOCAL_FUZZ
@given(order_requests())
@example({"p": 3, "generators": [[[0, 9], [18, 0]]], "level": 2, "shift": 1})
@example({"p": 101, "generators": [[[0, 1], [1, 0]], [[1, 0], [0, -1]]], "level": 1})
@example({"p": 5, "generators": [[[0, 1], [0, 0]]], "level": 1, "shift": 0})
@example({"p": 2, "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]], "shift": 1})
def test_local_classify_and_spinor_image_fuzz(request):
    shape = check(["local", "classify"], request)
    doc = check(["local", "spinor-image"], request)
    if shape is not None and doc is not None:
        want = deepened(shape["shape"], request.get("shift", 0))
        assert (doc["diameter"], doc["level"]) == want, (request, shape, doc)


@LOCAL_FUZZ
@given(order_requests())
@example({
    "p": 3, "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [3, 0]]],
})
def test_local_decompose_and_three_maximals_fuzz(request):
    doc = check(["local", "decompose"], request)
    if doc is None:
        return
    assert doc["level"] >= 0 and doc["shift"] >= 0 and len(doc["endpoints"]) == 2
    three = {"p": request["p"], "endpoints": doc["endpoints"], "shift": doc["shift"]}
    got = check(["local", "three-maximals"], three)
    assert got is not None and got["level"] == doc["level"], (request, doc, got)
    assert len(got["vertices"]) == 3
    # a stated level other than the endpoints' distance is refused
    wrong = {**three, "level": doc["level"] + 1}
    code, _, err = call(["local", "three-maximals"], wrong)
    assert code == 2 and json.loads(err)["path"] == "level"


@settings(LOCAL_FUZZ, max_examples=60)
@given(st.sampled_from([2, 3, 5, 7, 101]).flatmap(
    lambda p: st.tuples(st.just(p), *[vertices(p) | bad_vertices] * 2)
), st.integers(0, 3) | bad_levels)
def test_local_three_maximals_fuzz(ends, shift):
    p, v, w = ends
    request = {"p": p, "endpoints": [v, w], "shift": shift}
    doc = check(["local", "three-maximals"], request)
    if doc is not None:
        assert len(doc["vertices"]) == 3
