"""Every function and method in `src/qlat` runs on some request, or is on
an allowlist that says why it stays: a span of `bench/tracer.py` (which
`bench/smoke.py` requires to exist) or a name `bench/make_corpus.py` uses.
Helpers only the tests use live in `tests/helpers.py` and
`tests/oracles.py`.  The public entry points that the benchmark spans wrap
are the ones a request runs through, and a request whose later basis row
is over a cap reaches no shape intersection."""

import ast
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import qlat
from qlat import branches, bt_tree, cli, global_classfield, local_orders, spinor_local

SRC = Path(qlat.__file__).resolve().parent
POOL_DIR = Path(__file__).resolve().parent.parent / "bench" / "pools"

_SPAN = "spanned by bench/tracer.py, and bench/smoke.py requires every span to exist"
_CORPUS = "used by bench/make_corpus.py to build the request pools"
_QUADFORMS = "quadforms waits on ROADMAP item 3 (class numbers, not class groups)"

# Kept although no request runs them, with the reason.
ALLOWED = {
    "exact_padic.valuation": _SPAN,
    "exact_padic.smith_local": _SPAN,
    "branches.shape_margin": _SPAN,
    "local_orders.contains_shifted": _SPAN,
    "local_orders._divisible": f"the test under contains_shifted, {_SPAN}",
    "quadforms.compose": f"{_SPAN}; {_QUADFORMS}",
    "quadforms.prime_form": f"{_SPAN}; {_QUADFORMS}",
    "quadforms.reduce_definite": f"class_rep of a definite form; {_QUADFORMS}",
    **{
        f"quadforms.{name}": f"runs under compose; {_QUADFORMS}"
        for name in ("QForm.value", "_ext_gcd", "_represent_coprime_to", "ClassGroup.op")
    },
    **{
        f"exact_padic.{name}": _CORPUS
        for name in (
            "Mat2.of", "Mat2.identity", "Mat2.scalar", "Mat2.inverse",
            "is_local_square_rat",
        )
    },
    "exact_padic.Mat2._entry": f"reads m00-m11, {_CORPUS}",
    "exact_padic.is_local_square_int": f"the test under is_local_square_rat, {_CORPUS}",
    "global_classfield.BaseField.places_over": _CORPUS,
    **{
        f"branches.{kind}.bound_margin": "the margin of a constant shape kind, which "
        "Shape.margin reads under the shape_margin span; no walk meets one"
        for kind in ("Full", "Empty")
    },
}


def defined(path: Path) -> dict:
    """{(file, first line): module.name} for the top-level functions and the
    methods of top-level classes in a source file, dunder methods aside.
    The first line is that of a function's code object: its first
    decorator's, or its `def`'s."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            name = fn.name if fn is node else f"{node.name}.{fn.name}"
            line = min([d.lineno for d in fn.decorator_list] + [fn.lineno])
            out[str(path), line] = f"{path.stem}.{name}"
    return out


def test_defined_keys_functions_as_their_code_objects_do(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f():\n    pass\n\n\nclass C:\n    x = 1\n\n    @staticmethod\n"
        "    def m():\n        pass\n\n    def __eq__(self, other):\n        pass\n"
    )
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    f, m = namespace["f"], namespace["C"].m
    assert defined(path) == {
        (str(path), f.__code__.co_firstlineno): "m.f",
        (str(path), m.__code__.co_firstlineno): "m.C.m",
    }
    assert m.__code__.co_firstlineno == 8  # the decorator's line


# Run in a fresh interpreter, so that `import qlat` and each module's first
# use are profiled too: every pooled request (warm-ups included), then the
# argvs the pools do not send.  It prints the exit codes and the (file,
# first line) of every Python function that was called.
_PROFILE = """
import io, json, sys

items = json.load(sys.stdin)
called = set()


def hook(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
import qlat.cli

exits = []
for argv, text in items:
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        exits.append(qlat.cli.main(argv))
    except SystemExit as exc:
        exits.append(exc.code)
sys.setprofile(None)
sys.__stdout__.write(json.dumps({"exits": exits, "called": sorted(called)}))
"""


def _pooled() -> list:
    """(argv, request, exit code) of every pooled item, warm-ups included."""
    out = []
    for path in sorted(POOL_DIR.glob("*.json")):
        if path.name == "manifest.json":
            continue
        pool = json.loads(path.read_text(encoding="utf-8"))
        groups = [pool["warmup"], *(g for s in pool["strata"] for g in s["groups"])]
        out += [(it["argv"], it["request"], it["golden"]["exit"]) for g in groups for it in g]
    return out


def test_every_package_function_runs_on_a_request_or_is_allowed(tmp_path):
    ball = {"p": 2, "radius": 1}
    extra = [
        (["--help"], None, 0),
        (["tree", "ball", "--out", str(tmp_path / "ball.json")], ball, 0),
        (["tree", "ball"], {"p": 10**12 + 39, "radius": 0}, 0),  # past trial division
        # the valuation of 3^40 is read by squares past 32 divisions
        (["local", "classify"], {"p": 3, "generators": [[[0, 3**40], [0, 0]]]}, 0),
        (["local", "classify"], {"p": 3, "generators": [[["1/x", 0], [0, 0]]]}, 2),
    ]
    items = _pooled() + extra
    proc = subprocess.run(
        [sys.executable, "-c", _PROFILE],
        input=json.dumps([(argv, json.dumps(request)) for argv, request, _ in items]),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exits"] == [code for *_, code in items]
    called = {tuple(key) for key in out["called"]}
    names = {}
    for path in sorted(SRC.glob("*.py")):
        names.update(defined(path))
    unrun = sorted(name for key, name in names.items() if key not in called)
    assert [name for name in unrun if name not in ALLOWED] == []
    assert unrun == sorted(ALLOWED)  # every allowance is still needed


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
