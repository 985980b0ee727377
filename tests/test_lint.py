"""No module in `src/qlat` or `tests/` imports a name it never reads.

The check is pyflakes' F401 on the standard library's `ast`: a name bound
by an import is used when some `Name` node in the module reads it, which
covers an attribute chain such as `qlat.cli.main` through its root.  An
import that carries `# noqa: F401` on its line is a deliberate re-export
or an import for its side effect, and `from __future__` imports are
exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "qlat").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds and the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            if any("noqa: F401" in lines[n - 1] for n in (line, node.lineno)):
                continue
            bound.append((line, alias.asname or alias.name.partition(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_finds_unused_imports_and_honours_noqa():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import qlat.cli\n"
        "from math import (\n    inf,\n    isqrt,\n)\n"
        "from json import dumps  # noqa: F401\n"
        "from __future__ import annotations\n"
        "x = qlat.cli.main\n"
        "def f():\n    from math import gcd\n    return inf\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (6, "isqrt"), (12, "gcd")]


def test_no_module_imports_a_name_it_never_reads():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in FILES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
