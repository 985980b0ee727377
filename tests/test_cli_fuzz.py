"""Property tests of the two global subcommands: random and malformed
requests through `qlat.cli.main` in-process.  Every request must end in
an answer (exit 0) or a typed diagnostic (exit 2, 3 or 4, one JSON object
on stderr), never in a traceback."""

import io
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlat.cli import main
from qlat.exact_padic import is_squarefree
from qlat.global_classfield import BaseField

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


def call(argv, request) -> tuple[int, str, str]:
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(json.dumps(request))
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


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
