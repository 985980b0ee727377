"""The README's Python quick start and command-line examples run and give
the values they document."""

import ast
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from qlat.spinor_local import SpinorImage

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def test_python_quick_start_gives_the_documented_values():
    """Each block runs; each expression line `expr  # value` (prose after
    an em dash aside) evaluates to the value, and the branch shape is the
    documented thick edge."""
    namespace = {}
    checked = 0
    for block in _blocks(_section("Python quick start"), "python"):
        exec(block, namespace)
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            try:
                expr = ast.parse(code.strip(), mode="eval")
            except SyntaxError:
                continue  # a statement, or a comment line
            if not comment.strip():
                continue
            value = comment.split(" — ")[0].strip()
            env = {**namespace, "SpinorImage": SpinorImage, "Fraction": Fraction}
            assert eval(compile(expr, "README", "eval"), env) == eval(value, env), line
            checked += 1
    assert checked == 3
    assert "# ThickPath(path=((0,0,0), (1,0,0)), t=2) — an edge thickened by 2" in README
    shape = namespace["shape"]
    assert shape.kind == "thick_path" and shape.t == 2
    assert [(v.a, v.b, v.c) for v in shape.path] == [(0, 0, 0), (1, 0, 0)]


# `$ echo '<request>' | qlat <command>`, then the output line, with
# `# exit N` after a diagnostic on stderr.
EXAMPLE = re.compile(r"\$ echo '([^']*)'[\s\\]*\| qlat ([a-z -]+)\n([^\n]*)")


def test_command_line_examples_give_the_documented_output():
    examples = EXAMPLE.findall(_section("Command-line interface"))
    assert [command for _, command, _ in examples] == [
        "local spinor-image",
        "global rep-field",
        "local decompose",
    ]
    for request, command, shown in examples:
        out, _, code = shown.partition("# exit")
        proc = subprocess.run(
            [sys.executable, "-m", "qlat", *command.split()],
            input=request.encode(),
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == int(code or 0), (command, proc.stderr)
        stream = proc.stderr if code else proc.stdout
        assert stream.decode() == out.strip() + "\n", command
