"""Mutation sweep of the cell rows of ``esnlab.double``.

    python3 tools/mutation_sweep.py

Each mutant exchanges one read of ``e.vdom``, ``e.vcod``, ``e.hdom`` or
``e.hcod`` in ``_CELL_ROWS`` for one of the other three. It is written into a
temporary copy of ``src`` and ``tests``, never into the tree, and the copy's
tests run with ``pytest -x -q`` and ``PYTHONDONTWRITEBYTECODE=1`` (a rewrite of
the same size within one second would otherwise reuse stale bytecode) over
the test files that import ``esnlab.double``, the row witnesses first. A kill
stops at the first failing test; only a survivor pays for the whole set, and
a narrower set can only add survivors, never hide one. The script prints one
line per mutant and then the survivors, by row tag; it exits 1 if any
survived.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/esnlab/double.py")
NAMES = ("vdom", "vcod", "hdom", "hcod")
READ = re.compile(r"\be\.(vdom|vcod|hdom|hcod)\b")
# the row witnesses, then the rest of the double-groupoid tests: most kills are quick
FIRST = ("test_cell_rows.py", "test_double.py")
TAG = re.compile(r'(?:Row|_axiom)\(\s*"([^"]+)"')


def cell_rows(source: str) -> tuple[int, int]:
    """The span of the ``_CELL_ROWS`` table in the source."""
    start = source.index("\n_CELL_ROWS = ")
    return start, source.index("\n)\n", start)


def mutants(source: str):
    """(row tag, line:column of the read, old name, new name, mutated source)
    for each swap."""
    start, end = cell_rows(source)
    for match in READ.finditer(source, start, end):
        tags = TAG.findall(source, start, match.start())
        line = source.count("\n", 0, match.start()) + 1
        column = match.start() - source.rfind("\n", 0, match.start())
        at = f"{line}:{column}"
        for name in NAMES:
            if name != match[1]:
                mutated = source[: match.start(1)] + name + source[match.end(1):]
                yield tags[-1], at, match[1], name, mutated


def test_files() -> list[str]:
    """The test files that import esnlab.double, those of FIRST first."""
    found = [p.name for p in sorted((ROOT / "tests").glob("test_*.py"))
             if re.search(r"esnlab\.double|from esnlab import[^\n]*\bdouble\b", p.read_text())]
    return sorted(found, key=lambda name: name not in FIRST)


def main() -> int:
    source = (ROOT / TARGET).read_text()
    files = test_files()
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    survivors = []
    with tempfile.TemporaryDirectory(prefix="esnlab-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        env["PYTHONPATH"] = str(copy / "src")
        found = list(mutants(source))
        for k, (tag, at, old, new, mutated) in enumerate(found, 1):
            (copy / TARGET).write_text(mutated)
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *(f"tests/{name}" for name in files)],
                cwd=copy, env=env, capture_output=True, text=True)
            verdict = "survived" if run.returncode == 0 else "killed"
            print(f"[{k}/{len(found)}] {tag} at {at}: {old} -> {new}: {verdict}", flush=True)
            if run.returncode == 0:
                survivors.append((tag, at, old, new))
    print(f"{len(survivors)} of {len(found)} mutants survived")
    for tag, at, old, new in survivors:
        print(f"  {tag} at {at}: {old} -> {new}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
