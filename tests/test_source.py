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


def test_search_has_one_backtracker():
    # a backtracker is a function holding a nested function that calls itself;
    # the first and the second tables share one, so that a sharper check or a
    # new prune lands in both searches at once
    path = SRC / "search.py"
    holders = [
        outer.name
        for outer in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(outer, ast.FunctionDef)
        if any(
            isinstance(inner, ast.FunctionDef) and inner is not outer
            and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == inner.name for call in ast.walk(inner))
            for inner in ast.walk(outer)
        )
    ]
    assert holders == ["_search_tables"]


def test_groupoid_json_is_read_in_one_place():
    # both groupoid kinds read their JSON through report.from_json, so a
    # shape or id check added there holds for both at once
    readers = {"json_field", "json_int", "json_ids", "keyed", "distinct"}
    calls = [
        f"{name}:{call.lineno}:{call.func.id}"
        for name in ("esn.py", "double.py")
        for call in ast.walk(ast.parse((SRC / name).read_text(), name))
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in readers
    ]
    assert calls == []


def test_cli_counts_no_builtin_exception_as_bad_input():
    # exit 2 is for an EsnlabError only: a built-in exception that main's
    # handlers caught as bad input would hide a bug behind the message of
    # malformed input; a local catch that raises an EsnlabError is fine
    builtins = {"ValueError", "KeyError", "TypeError", "IndexError", "AttributeError"}
    tree = ast.parse((SRC / "cli.py").read_text(), "cli.py")
    (main,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "main"]
    handlers = [handler for node in ast.walk(main) if isinstance(node, ast.Try)
                for handler in node.handlers if handler.type is not None]
    assert "EsnlabError" in [ast.unparse(handler.type) for handler in handlers]
    named = [
        f"{handler.lineno}:{name.id}"
        for handler in handlers
        for name in ast.walk(handler.type)
        if isinstance(name, ast.Name) and name.id in builtins
    ]
    assert named == []


def test_inductive_groupoids_are_built_in_one_place():
    # an inductive groupoid comes from the ESN construction or a JSON file
    # (esn.py), or is a view of a double groupoid; a copy built by hand
    # elsewhere could drift from the construction it stands for
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "esn.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                 for node in ast.walk(top)}
        calls += [
            f"{path.name}:{call.lineno}:{owner.get(id(call))}"
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "InductiveGroupoid"
            and (path.name, owner.get(id(call))) != ("double.py", "_horizontal_view")
        ]
    assert calls == []


def test_double_groupoids_are_built_in_one_place():
    # a double groupoid is assembled from its one view, read from a JSON file,
    # or transposed, all in double.py; a copy built by hand elsewhere could
    # drift from the assembly it stands for
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(node): top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                 for node in ast.walk(top)}
        calls += [
            f"{path.name}:{owner.get(id(call))}"
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "DoubleInductiveGroupoid"
        ]
    assert sorted(calls) == ["double.py:dig_from_json", "double.py:dig_from_view",
                             "double.py:transpose"]


def test_no_private_cross_module_imports():
    # a module reads another through its public names only, so a private
    # table can change shape without breaking a reader elsewhere
    found = [
        f"{path.name}:{node.lineno}:{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if any(part.startswith("_") for part in alias.name.split("."))
    ]
    assert found == []
