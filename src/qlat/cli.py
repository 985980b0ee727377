"""JSON command-line front end for the lattice-class engines.

Subcommands
-----------
- ``local classify``        order generators -> exact branch shape
- ``local branch-enum``     enumerate a depth-r branch inside a ball
- ``local spinor-image``    local spinor image of an order against (level, shift)
- ``local decompose``       recognize Z + p^r * (level-d Eichler order)
- ``local three-maximals``  vertex witnesses for the three-maximal-order form
- ``tree ball``             enumerate a ball of lattice classes
- ``tree dot``              Graphviz DOT export of a ball
- ``global sigma``          spinor class field of a genus over Q or a quadratic field
- ``global rep-field``      representation field and selectivity of a suborder

Every subcommand reads one JSON document (stdin, or ``--in FILE``) and
writes one JSON document (stdout, or ``--out FILE``).  Output is
byte-deterministic for a fixed input: keys are sorted, vertex lists are in
canonical order, and no floating point is ever emitted.  Exit codes:
0 success, 2 malformed request, 3 resource limit, 4 mathematical
infeasibility.  Diagnostics go to stderr as a single JSON object.

An argv of two bare words naming a subcommand is read by a table lookup;
any other argv (an option, help, a usage error) is handled by argparse.

JSON conventions
----------------
- rational: an integer, or a string ``"a/b"`` (or ``"a"``); never a float.
  It is read as the integer pair (a, b) in lowest terms with b > 0, and
  no request forms a ``Fraction``: a matrix is put over the lcm of its
  entries' denominators, and a field element likewise, scaled to an
  integral element of its square class.
- matrix: ``[[r, r], [r, r]]`` (row-major, rational entries).
- vertex: ``{"a": int, "b": int, "c": int}`` -- the canonical triple of a
  lattice class, basis columns ``[[p^a, c], [0, p^b]]``.
- end (boundary line): ``[x, y]`` with coprime integers, leading entry > 0.
- place key: ``"p"`` for a rational prime or an inert/ramified prime,
  ``"p.1"`` / ``"p.2"`` for the two primes over a split ``p``; real places
  are ``"inf"`` over Q and ``"inf1"`` / ``"inf2"`` over a real quadratic
  field.
- ideal: an object mapping place keys to nonnegative integer exponents.

The vertex budget for enumerations defaults to 200000 and may be set per
request (``"max_vertices"``) or via the ``QLAT_MAX_VERTICES`` environment
variable.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from math import gcd, inf
from types import SimpleNamespace

from . import branches, bt_tree, global_classfield, local_orders, spinor_local
from .errors import QlatError, ResourceLimit, SchemaError, UnsupportedField
from .exact_padic import Mat2, is_prime, over_lcm

# ---------------------------------------------------------------------------
# Request parsing (every failure is a SchemaError carrying the JSON path)


def _expect_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {value!r}")
    return value


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required key")
    return doc[key]


def parse_rational(value, path: str) -> tuple[int, int]:
    """An exact rational, an int or a string 'a/b' (or 'a'), as the integer
    pair (n, d) in lowest terms with d > 0."""
    if isinstance(value, bool):
        raise SchemaError(path, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise SchemaError(
            path, f"floats are not exact; write {value!r} as an 'a/b' string"
        )
    if isinstance(value, str):
        text = value.strip()
        num, sep, den = text.partition("/")
        try:
            if sep:
                n, d = int(num), int(den)
                if d == 0:
                    raise SchemaError(path, f"zero denominator in {value!r}")
                g = gcd(n, d) if d > 0 else -gcd(n, d)
                return n // g, d // g
            return int(text), 1
        except ValueError:
            raise SchemaError(path, f"malformed rational {value!r}") from None
    raise SchemaError(path, f"expected a rational, got {type(value).__name__}")


def parse_prime(doc: dict) -> int:
    p = _expect_int(_require(doc, "p", ""), "p")
    if p < 2 or not is_prime(p):
        raise SchemaError("p", f"{p} is not prime")
    return p


def parse_matrix(value, path: str) -> Mat2:
    rows = _expect_list(value, path)
    if len(rows) != 2:
        raise SchemaError(path, f"expected 2 rows, got {len(rows)}")
    parsed = []
    for i, row in enumerate(rows):
        cells = _expect_list(row, f"{path}[{i}]")
        if len(cells) != 2:
            raise SchemaError(f"{path}[{i}]", f"expected 2 entries, got {len(cells)}")
        parsed += (parse_rational(cells[j], f"{path}[{i}][{j}]") for j in range(2))
    return Mat2(*over_lcm(parsed))


def parse_generators(doc: dict) -> list[Mat2]:
    value = _expect_list(_require(doc, "generators", ""), "generators")
    if not value:
        raise SchemaError("generators", "at least one generator is required")
    return [parse_matrix(m, f"generators[{i}]") for i, m in enumerate(value)]


def parse_vertex(value, p: int, path: str) -> bt_tree.Vertex:
    obj = _expect_obj(value, path)
    a = _expect_int(_require(obj, "a", path), f"{path}.a")
    b = _expect_int(_require(obj, "b", path), f"{path}.b")
    c = _expect_int(_require(obj, "c", path), f"{path}.c")
    for key, e in (("a", a), ("b", b)):
        if e > bt_tree.MAX_VERTEX_EXPONENT:
            raise ResourceLimit(
                f"vertex exponent {key} = {e} is above {bt_tree.MAX_VERTEX_EXPONENT}",
                path=f"{path}.{key}",
            )
    try:
        return bt_tree.Vertex(p, a, b, c)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def parse_center(doc: dict, p: int) -> bt_tree.Vertex:
    """The vertex under "center", or the standard vertex when there is none."""
    if "center" not in doc:
        return bt_tree.standard_vertex(p)
    return parse_vertex(doc["center"], p, "center")


def parse_nonneg(doc: dict, key: str, default=None) -> int:
    if key not in doc:
        if default is None:
            raise SchemaError(key, "missing required key")
        return default
    n = _expect_int(doc[key], key)
    if n < 0:
        raise SchemaError(key, f"must be >= 0, got {n}")
    return n


def parse_max_vertices(doc: dict):
    if "max_vertices" not in doc:
        return None
    n = _expect_int(doc["max_vertices"], "max_vertices")
    if n <= 0:
        raise SchemaError("max_vertices", f"must be positive, got {n}")
    return n


# --- global-layer parsing ---------------------------------------------------


def parse_field(doc: dict) -> global_classfield.BaseField:
    obj = _expect_obj(_require(doc, "field", ""), "field")
    kind = _expect_str(_require(obj, "kind", "field"), "field.kind")
    if kind == "Q":
        return global_classfield.BaseField.rationals()
    if kind == "quadratic":
        d = _expect_int(_require(obj, "d", "field"), "field.d")
        try:
            return global_classfield.BaseField.quadratic(d)
        except ValueError as exc:
            raise SchemaError("field.d", str(exc)) from None
    raise UnsupportedField(f"unknown field kind {kind!r}")


def parse_algebra(
    field: global_classfield.BaseField, doc: dict
) -> global_classfield.QuatAlgebra:
    obj = _expect_obj(_require(doc, "algebra", ""), "algebra")
    keys = _expect_list(obj.get("ramified", []), "algebra.ramified")
    finite, real = [], []
    for i, key in enumerate(keys):
        kpath = f"algebra.ramified[{i}]"
        key = _expect_str(key, kpath)
        if key.startswith("inf"):
            real.append(key)
            continue
        try:
            finite.append(global_classfield.parse_place_key(field, key))
        except ValueError as exc:
            raise SchemaError(kpath, str(exc)) from None
    try:
        return global_classfield.QuatAlgebra.of(field, finite, real)
    except ValueError as exc:
        raise SchemaError("algebra.ramified", str(exc)) from None


def parse_ideal_map(field: global_classfield.BaseField, value, path: str) -> dict:
    if value is None:
        return {}
    obj = _expect_obj(value, path)
    out = {}
    for key, exp in obj.items():
        kpath = f"{path}.{key}"
        try:
            place = global_classfield.parse_place_key(field, key)
        except ValueError as exc:
            raise SchemaError(kpath, str(exc)) from None
        e = _expect_int(exp, kpath)
        if e < 0:
            raise SchemaError(kpath, f"exponent must be >= 0, got {e}")
        out[place] = e
    return out


def parse_genus(
    field: global_classfield.BaseField, doc: dict
) -> global_classfield.Genus:
    obj = _expect_obj(_require(doc, "genus", ""), "genus")
    level = parse_ideal_map(field, obj.get("level"), "genus.level")
    shift = parse_ideal_map(field, obj.get("I"), "genus.I")
    return global_classfield.Genus.of(level=level, shift=shift)


def parse_field_element(field: global_classfield.BaseField, value, path: str):
    """delta = x + y sqrt(m) as the integral delta den^2, den the lcm of the
    denominators of x and y: the element of its square class that
    `global_classfield` reads."""
    if isinstance(value, dict):
        x = parse_rational(_require(value, "x", path), f"{path}.x")
        y = parse_rational(_require(value, "y", path), f"{path}.y")
    else:
        x, y = parse_rational(value, path), (0, 1)
    if field.is_rational and y[0] != 0:
        raise SchemaError(f"{path}.y", "the rational field has no irrational part")
    den, x, y = over_lcm([x, y])
    return (x * den, y * den)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _closed_order(doc: dict):
    p = parse_prime(doc)
    gens = parse_generators(doc)
    return p, local_orders.order_closure(gens, p)


def cmd_local_classify(doc: dict, args) -> dict:
    p, order = _closed_order(doc)
    shape = branches.branch_of_order(order, parse_max_vertices(doc))
    return {"p": p, "rank": order.rank, "shape": shape.to_json()}


def cmd_local_branch_enum(doc: dict, args) -> dict:
    p, order = _closed_order(doc)
    depth = parse_nonneg(doc, "depth", default=0)
    radius = parse_nonneg(doc, "radius")
    center = parse_center(doc, p)
    found = branches.enumerate_branch(
        order, depth, center, radius, parse_max_vertices(doc)
    )
    return {
        "p": p,
        "count": len(found),
        "vertices": [v.to_json() for v in sorted(found)],
    }


def cmd_local_spinor_image(doc: dict, args) -> dict:
    p, order = _closed_order(doc)
    d = parse_nonneg(doc, "level")
    r = parse_nonneg(doc, "shift", default=0)
    deep = branches.branch_of_order(order, parse_max_vertices(doc)).deepen(r)
    image = spinor_local.spinor_image(deep, d, 0)
    dia = deep.diameter()
    if dia == -inf:  # the branch is empty
        dia = None
    elif dia == inf:
        dia = "infinite"
    return {"image": image.value, "diameter": dia, "level": deep.level}


def cmd_local_decompose(doc: dict, args) -> dict:
    _, order = _closed_order(doc)
    se = local_orders.decompose_shifted_eichler(order, parse_max_vertices(doc))
    return {
        "endpoints": [v.to_json() for v in se.endpoints],
        "level": se.level,
        "shift": se.shift,
    }


def cmd_local_three_maximals(doc: dict, args) -> dict:
    p = parse_prime(doc)
    ends = _expect_list(_require(doc, "endpoints", ""), "endpoints")
    if len(ends) != 2:
        raise SchemaError("endpoints", f"expected 2 vertices, got {len(ends)}")
    v1 = parse_vertex(ends[0], p, "endpoints[0]")
    v2 = parse_vertex(ends[1], p, "endpoints[1]")
    shift = parse_nonneg(doc, "shift", default=0)
    if shift > bt_tree.MAX_VERTEX_EXPONENT:  # the vertices found lie about `shift` away
        raise ResourceLimit(
            f"shift = {shift} is above {bt_tree.MAX_VERTEX_EXPONENT}", path="shift"
        )
    level = bt_tree.distance(v1, v2)
    if "level" in doc and _expect_int(doc["level"], "level") != level:
        raise SchemaError("level", f"endpoints are at distance {level}")
    witnesses = local_orders.three_maximal_orders(
        local_orders.ShiftedEichler((v1, v2), level, shift)
    )
    return {"level": level, "vertices": [v.to_json() for v in witnesses]}


def _parse_ball(doc: dict):
    p = parse_prime(doc)
    radius = parse_nonneg(doc, "radius")
    return bt_tree.ball(parse_center(doc, p), radius, parse_max_vertices(doc))


def cmd_tree_ball(doc: dict, args) -> dict:
    found = _parse_ball(doc)
    return {"count": len(found), "vertices": [v.to_json() for v in found]}


def cmd_tree_dot(doc: dict, args) -> dict:
    found = _parse_ball(doc)
    dot = bt_tree.export_dot(found)
    if args.dot:
        _write_file(args.dot, dot, "--dot")
        return {"dot_file": args.dot, "vertices": len(found)}
    return {"dot": dot, "vertices": len(found)}


def cmd_global_sigma(doc: dict, args) -> dict:
    field = parse_field(doc)
    algebra = parse_algebra(field, doc)
    genus = parse_genus(field, doc)
    sigma = global_classfield.spinor_class_field(algebra, genus)
    return {
        "sigma_degree": sigma.degree,
        "group_order": sigma.group_order,
        "forced_split": list(sigma.forced_split),
    }


def cmd_global_rep_field(doc: dict, args) -> dict:
    field = parse_field(doc)
    algebra = parse_algebra(field, doc)
    genus = parse_genus(field, doc)
    sub = _expect_obj(_require(doc, "suborder", ""), "suborder")
    kind = _expect_str(_require(sub, "kind", "suborder"), "suborder.kind")
    if kind == "commutative-quadratic":
        delta = parse_field_element(
            field, _require(sub, "delta", "suborder"), "suborder.delta"
        )
        if global_classfield.fe_is_zero(delta):
            raise SchemaError("suborder.delta", "delta must be nonzero")
        conductor = parse_ideal_map(
            field, sub.get("conductor"), "suborder.conductor"
        )
        rep = global_classfield.rep_field_comm_quadratic(
            algebra, genus, delta, conductor
        )
    elif kind == "rank3":
        rep = global_classfield.rep_field_rank3(algebra, genus)
    elif kind == "rank4":
        level = parse_ideal_map(field, sub.get("level"), "suborder.level")
        shift = parse_ideal_map(field, sub.get("I"), "suborder.I")
        rep = global_classfield.rep_field_rank4(
            algebra, genus, global_classfield.Genus.of(level=level, shift=shift)
        )
    else:
        raise SchemaError("suborder.kind", f"unknown suborder kind {kind!r}")
    return {
        "sigma_degree": rep.sigma.degree,
        "rep_field_degree": rep.degree,
        "ratio": "1" if rep.degree == 1 else f"1/{rep.degree}",
        "forced_split": list(rep.sigma.forced_split),
        "strict_places": list(rep.strict_places),
    }


# ---------------------------------------------------------------------------
# Wiring

_HANDLERS = {
    ("local", "classify"): cmd_local_classify,
    ("local", "branch-enum"): cmd_local_branch_enum,
    ("local", "spinor-image"): cmd_local_spinor_image,
    ("local", "decompose"): cmd_local_decompose,
    ("local", "three-maximals"): cmd_local_three_maximals,
    ("tree", "ball"): cmd_tree_ball,
    ("tree", "dot"): cmd_tree_dot,
    ("global", "sigma"): cmd_global_sigma,
    ("global", "rep-field"): cmd_global_rep_field,
}

_HELP = {
    ("local", "classify"): "branch shape of the order generated by matrices",
    ("local", "branch-enum"): "enumerate a depth-r branch inside a ball",
    ("local", "spinor-image"): "local spinor image against (level, shift)",
    ("local", "decompose"): "recognize Z + p^r * (level-d Eichler order)",
    ("local", "three-maximals"): "three maximal orders intersecting to Z + p^r*E",
    ("tree", "ball"): "enumerate a ball of lattice classes",
    ("tree", "dot"): "Graphviz DOT export of a ball",
    ("global", "sigma"): "spinor class field of a genus",
    ("global", "rep-field"): "representation field and selectivity of a suborder",
}


@cache
def build_parser():
    """The argparse parser of the whole grammar, built on the first argv
    that is not two bare words naming a subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qlat",
        description="exact lattice-class engines: JSON in, JSON out",
    )
    domains = parser.add_subparsers(dest="domain", required=True)
    groups: dict[str, argparse._SubParsersAction] = {}
    for domain, op in _HANDLERS:
        if domain not in groups:
            dparser = domains.add_parser(domain)
            groups[domain] = dparser.add_subparsers(dest="op", required=True)
        sub = groups[domain].add_parser(op, help=_HELP[(domain, op)])
        sub.add_argument("--in", dest="infile", metavar="FILE",
                         help="read the request from FILE instead of stdin")
        sub.add_argument("--out", dest="outfile", metavar="FILE",
                         help="write the response to FILE instead of stdout")
        sub.add_argument("--pretty", action="store_true",
                         help="indent the response JSON")
        if (domain, op) == ("tree", "dot"):
            sub.add_argument("--dot", metavar="FILE",
                             help="write DOT source to FILE instead of inline")
    return parser


def _read_request(args) -> dict:
    if args.infile:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError("$", f"cannot read {args.infile}: {exc}") from None
    else:
        text = sys.stdin.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            "$",
            f"invalid JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno} (char {exc.pos})",
        ) from None
    except (ValueError, RecursionError) as exc:
        # an integer past the int-to-str digit limit, or nesting too deep
        # for the decoder
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    return _expect_obj(doc, "$")


def _write_response(doc: dict, args) -> None:
    try:
        if args.pretty:
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        else:
            text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    except ValueError as exc:  # an int past Python's int-to-str digit limit
        raise ResourceLimit(f"the response cannot be written: {exc}") from None
    if args.outfile:
        _write_file(args.outfile, text, "--out")
    else:
        sys.stdout.write(text)


def _write_file(name: str, text: str, option: str) -> None:
    try:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(option, f"cannot write {name}: {exc}") from None


def _write_error(exc: QlatError) -> None:
    report = {"error": type(exc).__name__, "message": str(exc)}
    path = getattr(exc, "path", None)
    if path is not None:
        report["path"] = path
    place = getattr(exc, "place", None)
    if place is not None:
        report["place"] = place
    sys.stderr.write(json.dumps(report, sort_keys=True) + "\n")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) == 2 and tuple(argv) in _HANDLERS:
        # The bare two-word argv, every request the bench pools send.
        args = SimpleNamespace(domain=argv[0], op=argv[1], infile=None,
                               outfile=None, pretty=False, dot=None)
    else:
        args = build_parser().parse_args(argv)
    # Looked up per call, not kept in the cached parser: a handler rebound
    # in _HANDLERS (by a tracer, say) is the one that runs.
    handler = _HANDLERS[args.domain, args.op]
    try:
        response = handler(_read_request(args), args)
        _write_response(response, args)
    except QlatError as exc:
        _write_error(exc)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
