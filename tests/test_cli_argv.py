"""`qlat.cli.main` against `oracles.cli_main`, the entry point that sent
every argv through argparse.  For every pooled argv and a seeded set of
edge-case argvs, each run in-process with the request on stdin and again
with --in, --out and --dot files, stdout, stderr, the exit code (or the
`SystemExit` code) and the files written are the oracle's.  Help texts and
usage errors therefore stay byte for byte those of argparse."""

import io
import json
import sys
from pathlib import Path

import pytest

import oracles
from helpers import make_rng
from qlat import cli

POOL_DIR = Path(__file__).resolve().parent.parent / "bench" / "pools"
KEYS = list(cli._HANDLERS)


def _pooled() -> dict:
    """Every pooled item (request and golden record), by its argv."""
    out = {}
    for path in sorted(POOL_DIR.glob("*.json")):
        if path.name == "manifest.json":
            continue
        pool = json.loads(path.read_text(encoding="utf-8"))
        for stratum in pool["strata"]:
            for group in stratum["groups"]:
                for item in group:
                    out.setdefault(tuple(item["argv"]), []).append(item)
    return out


POOLED = _pooled()
# The smallest pooled request that answers, per subcommand, for the argvs
# that name one.
REQUESTS = {
    key: min(
        (item["request"] for item in POOLED[key] if item["golden"]["exit"] == 0),
        key=lambda request: len(json.dumps(request)),
    )
    for key in KEYS
}


def _run(entry, argv, stdin_text: str, files) -> tuple:
    """(exit code or ("SystemExit", code), stdout, stderr, files written).
    Every file of the working directory but IN counts as written."""
    workdir = files["IN"].parent
    for path in workdir.iterdir():
        if path != files["IN"]:
            path.unlink()
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    written = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(workdir.iterdir())
        if path != files["IN"]
    }
    return code, out.getvalue(), err.getvalue(), written


@pytest.fixture
def files(tmp_path, monkeypatch) -> dict:
    """The placeholder files, in a working directory of their own: argparse
    takes "-1" as the value of --out, which writes a file of that name."""
    monkeypatch.chdir(tmp_path)
    return {name: tmp_path / f"{name.lower()}.json" for name in ("IN", "OUT", "DOT", "DOT2")}


def _check(argv, request, files) -> tuple:
    """Run argv (placeholders IN, OUT, DOT, DOT2 read as the files) through
    both entry points, with the request on stdin and in the IN file, and
    return the outcome after checking the two agree."""
    text = json.dumps(request)
    files["IN"].write_text(text, encoding="utf-8")
    argv = _resolve(argv, files)
    want = _run(oracles.cli_main, list(argv), text, files)
    got = _run(cli.main, list(argv), text, files)
    assert got == want, argv
    return got


def _resolve(argv, files) -> list:
    """argv with each placeholder, alone or after "=", read as its file."""
    out = []
    for token in argv:
        head, eq, name = token.rpartition("=")
        if name in files:
            token = f"{head}{eq}{files[name]}"
        out.append(token)
    return out


def _with_files(argv) -> list:
    extra = ["--in", "IN", "--out", "OUT"]
    if tuple(argv[:2]) == ("tree", "dot"):
        extra += ["--dot", "DOT"]
    return [*argv, *extra]


def _request_for(argv) -> dict:
    return REQUESTS.get(tuple(argv[:2]), REQUESTS["global", "sigma"])


@pytest.fixture
def parser_calls(monkeypatch) -> list:
    """One entry per call `cli.main` makes to `build_parser`; the oracle
    holds its own reference to the parser and is not counted."""
    calls, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    return calls


def _bare(argv) -> bool:
    return len(argv) == 2 and tuple(argv) in cli._HANDLERS


def test_pooled_argvs_skip_argparse_and_match_the_oracle(files, parser_calls):
    rng = make_rng(1601)
    assert set(POOLED) == set(KEYS)
    for key, requests in POOLED.items():
        for request in [item["request"] for item in rng.sample(requests, 4)]:
            for argv in (list(key), _with_files(list(key)), [*key, "--pretty"]):
                before = len(parser_calls)
                code, _, _, _ = _check(argv, request, files)
                assert code in (0, 2, 3, 4)
                assert (len(parser_calls) == before) == _bare(argv), argv


EDGE_ARGVS = [
    [],
    ["local"],
    ["tree"],
    ["global"],
    ["bogus"],
    ["bogus", "sigma"],
    ["local", "bogus"],
    ["tree", "classify"],
    ["global", "sigma", "extra"],
    ["--pretty", "global", "sigma"],
    ["global", "--pretty", "sigma"],
    # missing values
    ["global", "sigma", "--in"],
    ["global", "sigma", "--out"],
    ["tree", "dot", "--dot"],
    ["global", "sigma", "--out", "--pretty"],
    ["local", "classify", "--in", "IN", "--pretty", "--in"],
    # repeated options: the last wins
    ["global", "sigma", "--in", "DOT2", "--in", "IN"],
    ["global", "sigma", "--out", "DOT2", "--out", "OUT"],
    ["global", "sigma", "--pretty", "--pretty"],
    ["tree", "dot", "--dot", "DOT2", "--dot", "DOT", "--pretty"],
    ["tree", "dot", "--out", "OUT", "--dot", "DOT", "--out", "DOT2"],
    # options outside the grammar
    ["global", "sigma", "--threads", "4"],
    ["global", "sigma", "--in=IN"],
    ["tree", "dot", "--dot=DOT"],
    ["global", "sigma", "--pre"],
    ["global", "sigma", "--ou", "OUT"],
    ["global", "sigma", "--"],
    ["global", "sigma", "--", "--pretty"],
    ["global", "sigma", "--in", ""],
    ["global", "sigma", "--in", "-"],
    ["global", "sigma", "--in", "-1"],
    ["global", "sigma", "--out", "-"],
    ["tree", "dot", "--dot", "-"],
    ["tree", "ball", "--dot", "DOT"],
    ["local", "classify", "--dot", "DOT"],
    ["global", "sigma", "-p"],
    # help at each of the three levels
    ["--help"],
    ["-h"],
    ["local", "--help"],
    ["tree", "-h"],
    ["global", "--help"],
    ["local", "classify", "--help"],
    ["tree", "dot", "-h"],
    ["global", "rep-field", "--help"],
    ["global", "sigma", "--in", "IN", "--help"],
]


@pytest.mark.parametrize("argv", EDGE_ARGVS, ids=lambda argv: " ".join(argv) or "empty")
def test_edge_case_argvs_match_the_oracle(argv, files):
    for variant in (argv, _with_files(argv)):
        _check(variant, _request_for(variant), files)


TOKENS = [
    "local", "tree", "global", "classify", "ball", "dot", "sigma", "rep-field",
    "branch-enum", "bogus", "--in", "--out", "--dot", "--pretty", "--pre", "--help",
    "-h", "--", "-", "-1", "", "IN", "OUT", "DOT", "--in=IN", "--threads", "4",
]


def test_seeded_argvs_match_the_oracle(files, parser_calls):
    rng = make_rng(1602)
    plain = 0
    for _ in range(400):
        if rng.random() < 0.8:
            head = list(rng.choice(KEYS))
        else:
            head = rng.choices(TOKENS, k=rng.randrange(3))
        tail = []
        for _ in range(rng.randrange(5)):
            option = rng.choice(["--in", "--out", "--dot", "--pretty"] * 3 + TOKENS)
            tail.append(option)
            if option in ("--in", "--out", "--dot") and rng.random() < 0.8:
                tail.append({"--in": "IN", "--out": "OUT", "--dot": "DOT"}[option])
        argv = head + tail
        before = len(parser_calls)
        _check(argv, _request_for(argv), files)
        assert (len(parser_calls) == before) == _bare(argv), argv
        plain += _bare(argv)
    assert plain >= 50, plain


def test_argv_none_reads_sys_argv(files, monkeypatch):
    for argv in (["global", "sigma"], ["tree", "dot", "--dot", "DOT"], ["local", "-h"], ["bogus"]):
        request = _request_for(argv)
        text = json.dumps(request)
        files["IN"].write_text(text, encoding="utf-8")
        monkeypatch.setattr(sys, "argv", ["qlat", *_resolve(argv, files)])
        want = _run(oracles.cli_main, None, text, files)
        got = _run(cli.main, None, text, files)
        assert got == want, argv
