"""Apply every registered mutant (`tests/mutants.py`) and run its tests.

    python3 tests/run_mutants.py            # every mutant
    python3 tests/run_mutants.py den 41     # those whose name holds a word

Run from the root of a checkout.  First the named tests run once on
`src/` as it is, and must pass.  Then each mutant is applied to a fresh
copy of `src/` in a temporary directory, and its tests run there with
pytest (`PYTHONPATH` set to the copy).  A mutant is killed when every
test it names fails.  The runner reports a mutant whose text does not
occur exactly once as stale, and one with a named test that still passes
as a survivor.  It exits 0 when every selected mutant is killed and 1
otherwise.  pytest does not collect this file, so tier-1 never runs it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path.insert(0, str(TESTS))

from mutants import MUTANTS  # noqa: E402


def failed_tests(src: Path, tests) -> set[str]:
    """The ids among `tests` that fail with `src` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("QLAT_MAX_VERTICES", None)
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
    out = subprocess.run(
        [*cmd, *tests], cwd=ROOT, env=env, capture_output=True, text=True
    )
    if out.returncode not in (0, 1):  # interrupted, usage error or no tests
        raise RuntimeError(f"pytest exited {out.returncode}:\n{out.stdout}{out.stderr}")
    return set(re.findall(r"^FAILED (\S+)", out.stdout, re.MULTILINE))


def main(words) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    tests = sorted({t for m in chosen for t in m.tests})
    broken = failed_tests(ROOT / "src", tests)
    if broken:
        print("tests failing without any mutant:", *sorted(broken), sep="\n  ")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for m in chosen:
            src = Path(tmp) / "src"
            shutil.rmtree(src, ignore_errors=True)
            skip = shutil.ignore_patterns("__pycache__")
            shutil.copytree(ROOT / "src", src, ignore=skip)
            path = src / m.file
            text = path.read_text(encoding="utf-8")
            if (count := text.count(m.old)) != 1:
                print(f"STALE     {m.name}: the text occurs {count} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            alive = sorted(set(m.tests) - failed_tests(src, m.tests))
            if alive:
                print(f"SURVIVED  {m.name}: still passing", *alive, sep="\n  ")
                bad += 1
            else:
                print(f"killed    {m.name}")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
