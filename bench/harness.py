"""Request execution and output checks shared by the benchmark scripts.

A request is sent exactly as a user sends it: the subcommand words as argv
and the JSON document on stdin, nothing else (no ``--in``, ``--threads`` or
``--pretty``), through ``qlat.cli.main(argv)`` with the standard streams
redirected.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# A request that runs longer than this counts as failed.  The slowest
# request in the pools takes about 3 s on a 2-core x86 machine.
REQUEST_LIMIT_S = 30.0


@dataclass
class Outcome:
    code: int | None  # exit code; None when the request crashed
    stdout: str
    stderr: str
    elapsed: float
    crash: str | None = None


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_inprocess(main, argv, text: str) -> Outcome:
    """One request through ``main(argv)`` with stdin/stdout/stderr redirected."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    code, crash = None, None
    start = time.perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refused the argv
        crash = f"SystemExit({exc.code!r})"
    except Exception as exc:  # an uncaught error is a failed request
        crash = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return Outcome(code, out.getvalue(), err.getvalue(), elapsed, crash)


def child_env() -> dict:
    """Environment for spawned interpreters: the checkout's sources first,
    and no vertex-budget override, so every request sees the defaults."""
    env = dict(os.environ)
    env.pop("QLAT_MAX_VERTICES", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ---------------------------------------------------------------------------
# Golden records


def golden_of(outcome: Outcome) -> dict:
    """The record a request is compared against: exit code plus the sha256
    of stdout on success, or the typed fields of the diagnostic."""
    if outcome.crash is not None:
        return {"exit": None, "crash": outcome.crash}
    if outcome.code == 0:
        return {"exit": 0, "stdout_sha256": sha256_text(outcome.stdout)}
    try:
        diag = json.loads(outcome.stderr)
    except json.JSONDecodeError:
        diag = {}
    if not isinstance(diag, dict):
        diag = {}
    return {
        "exit": outcome.code,
        "error": diag.get("error"),
        "path": diag.get("path"),
        "place": diag.get("place"),
    }


def golden_problem(golden: dict, outcome: Outcome) -> str | None:
    if outcome.crash is not None:
        return f"crashed: {outcome.crash}"
    if outcome.elapsed > REQUEST_LIMIT_S:
        return f"took {outcome.elapsed:.1f} s, limit {REQUEST_LIMIT_S:.0f} s"
    got = golden_of(outcome)
    if got != golden:
        return f"outcome {got} differs from golden {golden}"
    return None


# ---------------------------------------------------------------------------
# Checks that do not depend on the golden record


def ball_size(p: int, radius: int) -> int:
    """Vertices within `radius` of a vertex of the (p+1)-regular tree."""
    if radius <= 0:
        return 1
    return 1 + (p + 1) * (p**radius - 1) // (p - 1)


def deepened_diameter(shape: dict, shift: int):
    """(diameter, level) that spinor-image must report for a classify shape
    eroded by `shift`: a thick path keeps its stem and loses `shift` of its
    thickness, thickness below zero is empty, the rest are unbounded."""
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


def group_problems(items, outcomes) -> list[tuple[int, str]]:
    """Cross-checks inside one request group (requests sent back to back),
    as (position of the failing request, message) pairs."""
    problems = []
    seen: dict[str, dict] = {}
    for pos, (item, outcome) in enumerate(zip(items, outcomes)):
        if outcome.code != 0:
            continue
        cmd = " ".join(item["argv"])
        req = item["request"]
        try:
            doc = json.loads(outcome.stdout)
        except json.JSONDecodeError:
            problems.append((pos, f"{cmd}: stdout is not JSON"))
            continue
        if cmd in ("tree ball", "tree dot"):
            want = ball_size(req["p"], req["radius"])
            got = doc["count"] if cmd == "tree ball" else doc["vertices"]
            if got != want:
                problems.append((pos, f"{cmd}: {got} vertices, ball_size is {want}"))
            if cmd == "tree ball" and len(doc["vertices"]) != got:
                problems.append((pos, "tree ball: count differs from the vertex list"))
        elif cmd == "local branch-enum" and len(doc["vertices"]) != doc["count"]:
            problems.append((pos, "local branch-enum: count differs from the vertex list"))
        elif cmd == "local spinor-image" and "local classify" in seen:
            want = deepened_diameter(seen["local classify"]["shape"], req.get("shift", 0))
            got = (doc["diameter"], doc["level"])
            if got != want:
                problems.append((pos, f"spinor-image: (diameter, level) {got},"
                                      f" the classify shape gives {want}"))
        elif cmd == "local three-maximals" and "local decompose" in seen:
            dec = seen["local decompose"]
            if req["endpoints"] != dec["endpoints"] or req.get("shift", 0) != dec["shift"]:
                problems.append((pos, "three-maximals: request is not built from decompose"))
            if doc["level"] != dec["level"]:
                problems.append((pos, f"three-maximals: level {doc['level']},"
                                      f" decompose gave {dec['level']}"))
        seen[cmd] = doc
    return problems
