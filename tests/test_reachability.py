"""Every function and method in `src/qlat` is named somewhere else in the
package or exported in `qlat.__all__`; helpers only the tests use live in
`tests/helpers.py` and `tests/oracles.py`.  The public entry points that the
benchmark spans wrap are the ones a request runs through, and a request
whose later basis row is over a cap reaches no shape intersection."""

import ast
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import qlat
from qlat import branches, bt_tree, cli, global_classfield, local_orders, spinor_local

SRC = Path(qlat.__file__).resolve().parent

# Kept although nothing in the package names them, with the reason.
ALLOWED = {
    "smith_local": "bench/tracer.py times it as a span, and bench/smoke.py "
    "requires every span to exist",
    **{
        name: "bench/make_corpus.py builds the request pools with it"
        for name in (
            *(f"Mat2.{m}" for m in ("m00", "m01", "m10", "m11", "scalar", "inverse")),
            "is_local_square_rat",
            "BaseField.places_over",
        )
    },
}


def _defs(tree):
    """(qualified name, name, node) of the top-level functions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _named(tree) -> Counter:
    """How often each identifier is named: variables, attributes, imports."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def unreached(sources: dict, exported) -> list[str]:
    """The functions and methods of the given module sources that no other
    code in them names, dunder methods and exported names aside."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualified, name, node in _defs(tree):
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            if named[name] - _named(node)[name] <= 0:
                out.append(f"{module}.{qualified}")
    return out


def test_unreached_finds_unnamed_functions():
    sources = {
        "a": "def f():\n    return f()\n\nclass C:\n    def m(self): pass\n"
        "    def __eq__(self, other): pass\n",
        "b": "from a import C\n\ndef g(x):\n    return x.m()\n\ndef h(): pass\n",
    }
    assert unreached(sources, {"g"}) == ["a.f", "b.h"]
    assert unreached(sources, {"g", "h", "f"}) == []


def test_every_package_function_is_reached_or_exported():
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
    }
    found = [name.split(".", 1)[1] for name in unreached(sources, set(qlat.__all__))]
    assert [name for name in found if name not in ALLOWED] == []
    assert sorted(found) == sorted(ALLOWED)  # every allowance is still needed


# A span wraps a function under its public name and rebinds the wrapper in
# every `qlat.*` namespace that holds it; work moved into a private twin
# would leave the span recording no calls.  Walks evaluate bound margins,
# closures no span wraps, so `shape_margin` is in no request's set below.
SPANNED = [
    (branches, "classify_single"),
    (branches, "mu_margin"),
    (branches, "shape_margin"),
    (branches, "intersect_shapes"),
    (branches, "enumerate_branch"),
    (bt_tree, "canonical_vertex"),
    (local_orders, "contains_shifted"),
    (spinor_local, "spinor_image"),
    (global_classfield, "is_local_square"),
    (global_classfield, "is_unramified_or_split"),
]


def count_calls(monkeypatch, spanned) -> Counter:
    """Rebind each function wherever the package holds it, counting calls.

    vars() runs a module the package has not loaded yet, so the search
    reaches every engine module."""
    calls = Counter()
    for module, name in spanned:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "qlat" or mod_name.startswith("qlat.")):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, counted)
    return calls


REQUESTS = [
    # x^2 = 2 splits at 7 but not over Q: the margin climbs to the axis, on
    # the witness's bound margin, which no span wraps
    (
        ["local", "classify"],
        {"p": 7, "generators": [[[0, 2], [1, 0]]]},
        {"classify_single", "canonical_vertex"},
    ),
    # the Eichler order of level 2 at 3: an apartment meets a fan on their
    # shared line, and the thick ray that gives meets a fan toward 0 in a
    # bounded path (sigma is built from the two shapes' bound margins;
    # mu_margin still places fan bases and checks rational anchors)
    (
        ["local", "classify"],
        {"p": 3, "generators": [[[1, 0], [0, 0]], [[0, 9], [1, 0]]]},
        {"intersect_shapes", "mu_margin"},
    ),
    # the Borel order: an apartment and a fan share the line of e1 only
    (
        ["local", "classify"],
        {"p": 2, "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]},
        {"intersect_shapes"},
    ),
    (
        ["local", "branch-enum"],
        {"p": 3, "generators": [[[1, 0], [0, 0]]], "radius": 2},
        {"enumerate_branch"},
    ),
    (
        ["local", "spinor-image"],
        {"p": 3, "generators": [[[0, 9], [18, 0]]], "level": 2, "shift": 1},
        {"spinor_image"},
    ),
    # delta = 2 is not a square at 5, the conductor's place, and 5 is
    # unramified in Q(sqrt 2): one local square and one unramified test
    (
        ["global", "rep-field"],
        {
            "field": {"kind": "Q"},
            "algebra": {},
            "genus": {},
            "suborder": {
                "kind": "commutative-quadratic",
                "delta": 2,
                "conductor": {"5": 1},
            },
        },
        {"is_local_square", "is_unramified_or_split"},
    ),
]


@pytest.mark.parametrize(
    "argv,request_doc,reached",
    REQUESTS,
    ids=["classify", "bounded", "shared-end", "enum", "spinor", "rep-field"],
)
def test_requests_reach_the_spanned_functions(
    monkeypatch, capsys, argv, request_doc, reached
):
    calls = count_calls(monkeypatch, SPANNED)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request_doc)))
    assert cli.main(argv) == 0
    json.loads(capsys.readouterr().out)
    assert {name for name in reached if calls[name] == 0} == set()


def test_a_later_row_over_the_thickness_cap_is_refused_before_any_walk(
    monkeypatch, capsys
):
    # The closed basis is a scalar, a fan toward the line of e1, an
    # apartment whose axis misses that line and a row of thickness 2005.
    # Every row is classified before any two shapes are intersected, so the
    # last row is refused at once, where folding row by row would first walk
    # the bounded intersection of the fan and the apartment (about 10 s).
    p = 3
    calls = count_calls(monkeypatch, [(branches, "intersect_shapes")])
    request = {"p": p, "generators": [[[0, 0], [2 * p**2005, -1]], [[-3, 1], [0, -3]]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request)))
    assert cli.main(["local", "classify"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ResourceLimit"
    assert err["message"] == "branch thickness 2005 is above 1000"
    assert calls["intersect_shapes"] == 0
