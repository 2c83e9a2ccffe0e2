"""Replay the command-line outputs of two trees and report every op that differs.

    python3 tools/same_outputs.py PARENT_SRC

PARENT_SRC is the ``src`` directory of the tree to compare with, such as a
``git archive`` of the parent commit. The ops are:

- every op of the bench ``theorem`` workload of seeds 1-3
  (``bench/theorem_inputs.py``), in json and in text;
- ``golden-suite``, in text and in json;
- every bundled fixture and every ``tests/data`` file under each of the
  command forms of ``FORMS``, in text, json and dot.

The inputs are written once, to a temporary directory, and both trees read
the same files. Each tree runs every op through ``esnlab.cli.main`` in a
process of its own. For each op the script compares the exit code, stdout
with the ``timing_ms`` value blanked, and stderr. It exits 0 if every op
agrees, and 1 naming each op that differs and the parts that differ, so that
a change with intended differences can list them.
Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
FORMATS = ("text", "json", "dot")
# each command form that takes an input file, with {} for the file
FORMS = (
    *(("double", sub, "{}", *flag)
      for sub in ("validate-axioms", "verify-interchange", "to-dig", "to-dis", "roundtrip")
      for flag in ((), ("--strict-axiom-ix",))),
    ("check", "{}"),
    ("check", "{}", "--inverse"),
    ("check", "{}", "--clifford"),
    ("check", "{}", "--double-inverse"),
    ("check", "{}", "--double"),
    ("decompose", "{}"),
    ("compose", "{}"),
    ("esn", "to-groupoid", "{}"),
    ("esn", "to-groupoid", "{}", "--roundtrip"),
    ("esn", "to-semigroup", "{}"),
    ("esn", "to-semigroup", "{}", "--roundtrip"),
)
TIMING = re.compile(r'"timing_ms": \d+')


def ops(workdir: Path) -> list[list[str]]:
    """The argv of every op, with the bench inputs written under workdir."""
    sys.path.insert(0, str(ROOT / "bench"))
    import theorem_inputs

    out = []
    for seed in SEEDS:
        seed_dir = workdir / f"seed{seed}"
        seed_dir.mkdir()
        files, seed_ops = theorem_inputs.build(seed, seed_dir)
        for name, data in files.items():
            (seed_dir / name).write_bytes(data)
        for fmt in ("json", "text"):
            out += [[*op.argv[:-2], "--format", fmt] for op in seed_ops]
    out += [["golden-suite", "--format", fmt] for fmt in ("text", "json")]
    inputs = sorted((ROOT / "src" / "esnlab" / "fixtures").iterdir())
    inputs += sorted((ROOT / "tests" / "data").iterdir())
    for path in inputs:
        for form in FORMS:
            argv = [str(path) if word == "{}" else word for word in form]
            out += [[*argv, "--format", fmt] for fmt in FORMATS]
    return out


def replay(src: str, ops_path: str, out_path: str) -> None:
    """Run every op of ops_path through the esnlab under src, in this
    process, and write [exit code, stdout, stderr] for each to out_path."""
    sys.path.insert(0, src)
    from esnlab import cli

    results = []
    for argv in json.loads(Path(ops_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv, stream=out)
        results.append([code, TIMING.sub('"timing_ms": _', out.getvalue()), err.getvalue()])
    Path(out_path).write_text(json.dumps(results))


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--replay":
        replay(*argv[1:])
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]).resolve(), "this tree": ROOT / "src"}
    if not (trees["parent"] / "esnlab" / "__init__.py").is_file():
        print(f"same_outputs: no esnlab package under {trees['parent']}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        todo = ops(workdir)
        ops_path = workdir / "ops.json"
        ops_path.write_text(json.dumps(todo))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        runs = {name: (workdir / f"{k}.json", subprocess.Popen(
                    [sys.executable, __file__, "--replay", str(src), str(ops_path),
                     str(workdir / f"{k}.json")], cwd=workdir, env=env))
                for k, (name, src) in enumerate(trees.items())}
        for name, (_, process) in runs.items():
            if process.wait():
                print(f"same_outputs: the replay of {name} exited {process.returncode}",
                      file=sys.stderr)
                return 2
        parent, change = (json.loads(path.read_text()) for path, _ in runs.values())
    differ = 0
    for op, before, after in zip(todo, parent, change):
        parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), before, after)
                 if x != y]
        if parts:
            differ += 1
            print(f"differs in {', '.join(parts)}: esnlab {' '.join(op)}")
    if differ:
        print(f"{differ} of {len(todo)} ops differ")
        return 1
    print(f"{len(todo)} ops: exit code, stdout (timing_ms aside) and stderr the same")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
