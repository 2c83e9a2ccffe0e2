"""Checks on the source of esnlab itself."""

import ast
from pathlib import Path

import esnlab

SRC = Path(esnlab.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one would
    # vanish; a failed internal check raises TheoremViolation instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
