"""Seeded mutations of the JSON and the .cay inputs: malformed input must exit
2 with a one-line message, never reach a built-in exception, and never exit 3."""

import copy
import io
import json
import random

import pytest

from esnlab.cli import main
from esnlab.double import dig_from_json
from esnlab.errors import EsnlabError
from esnlab.esn import groupoid_from_json
from esnlab.fixtures import fixture_dir
from esnlab.presheaf import presheaf_from_json

CASES = 1500
# a value of another JSON type than the one it replaces, one per type
OTHER_TYPES = ({}, [], [1], "1", True, None, 1.5, 2)


def run(*argv):
    out = io.StringIO()
    return main(list(argv), stream=out), out.getvalue()


def _inputs():
    """(loader, commands, document) for each JSON input kind esnlab reads."""

    def fixture(name):
        return json.loads((fixture_dir() / name).read_text())

    def artifact(command, name):
        argv = (*command, str(fixture_dir() / name), "--format", "json")
        return json.loads(run(*argv)[1])["artifact"]

    compose = [("compose",)]
    dig = [("double", sub) for sub in ("validate-axioms", "verify-interchange", "to-dis")]
    return [
        (presheaf_from_json, compose, fixture("clifford3_presheaf.json")),
        (presheaf_from_json, compose, fixture("point_z2_presheaf.json")),
        (groupoid_from_json, [("esn", "to-semigroup")], fixture("partial_bijections_2.json")),
        (groupoid_from_json, [("esn", "to-semigroup")],
         artifact(("esn", "to-groupoid"), "brandt_b2.cay")),
        (dig_from_json, dig, artifact(("double", "to-dig"), "clifford3_pair.cay")),
    ]


def _nodes(value, parent=None, key=None):
    """Every (parent, key, value) under value, the root with no parent."""
    yield parent, key, value
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(v, value, k)


def mutated(rng, doc):
    """doc with one seeded fault: a key deleted, a list truncated, a value
    swapped for one of another JSON type, or an integer inflated."""
    doc = copy.deepcopy(doc)
    nodes = [node for node in _nodes(doc) if node[0] is not None]
    kind = rng.choice(("delete", "truncate", "swap", "inflate"))
    pool = {"delete": [n for n in nodes if isinstance(n[0], dict)],
            "truncate": [n for n in nodes if isinstance(n[2], list) and n[2]],
            "inflate": [n for n in nodes if type(n[2]) is int]}.get(kind, nodes)
    parent, key, value = rng.choice(pool)
    if kind == "delete":
        del parent[key]
    elif kind == "truncate":
        del value[rng.randrange(len(value)):]
    elif kind == "swap":
        parent[key] = rng.choice([v for v in OTHER_TYPES if type(v) is not type(value)])
    else:
        parent[key] = value + rng.choice((1, 10**6))
    return doc


def _inflated_groups(doc):
    """A group order of 10**6 with its carrier, and without it."""
    for keep in (True, False):
        out = copy.deepcopy(doc)
        group = out["groups"][-1]
        group["order"] = 10**6
        if not keep:
            del group["carrier"]
        yield out


def _cases():
    rng = random.Random(20071)
    inputs = _inputs()
    for loader, commands, doc in inputs:
        if loader is presheaf_from_json:
            for big in _inflated_groups(doc):
                yield loader, commands[0], big
    for i in range(CASES):
        loader, commands, doc = inputs[i % len(inputs)]
        yield loader, commands[i // len(inputs) % len(commands)], mutated(rng, doc)


def test_malformed_json_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "input.json"
    codes = {0: 0, 1: 0, 2: 0}
    for loader, argv, doc in _cases():
        try:
            loader(doc)
        except EsnlabError:
            pass
        except Exception as exc:  # a built-in exception is a fault of the loader
            pytest.fail(f"{loader.__name__} raised {type(exc).__name__}: {exc} on {doc}")
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code, _ = run(*argv, str(path))
        err = capsys.readouterr().err
        assert code in codes, (argv, doc, err)
        codes[code] += 1
        if code == 2:
            assert err.startswith("esnlab: error:") and err.count("\n") == 1, (argv, doc, err)
    assert all(codes.values()), codes


CAY_CASES = 700
# each command runs on the mutated file; the pair check reads it as both tables
CAY_COMMANDS = (("check",), ("check", "--inverse"), ("check", "--double-inverse"),
                ("check", "--double", "--hop", "{}", "--vop", "{}"), ("double", "to-dig"),
                ("decompose",), ("esn", "to-groupoid"))
CAY_KINDS = ("truncate", "drop", "swap", "token", "order", "trailing", "byte")


def _table_lines(lines):
    """(order line indices, row line indices) of a .cay text split into lines."""
    orders, rows, left = [], [], 0
    for i, line in enumerate(lines):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if left:
            rows.append(i)
            left -= 1
        else:
            orders.append(i)
            left = int(line)
    return orders, rows


def mutated_cay(rng, text):
    """The bytes of a .cay text with one seeded fault: a row truncated or
    dropped, two tokens swapped, a token set to 0, n+1, a non-number or a
    5,000-digit integer, the order inflated to 10**9, trailing content, or a
    0xff byte."""
    lines = text.splitlines()
    orders, rows = _table_lines(lines)
    kind = rng.choice(CAY_KINDS)
    if kind == "truncate":
        i = rng.choice(rows)
        tokens = lines[i].split()
        lines[i] = " ".join(tokens[:rng.randrange(len(tokens))])
    elif kind == "drop":
        del lines[rng.choice(rows)]
    elif kind in ("swap", "token"):
        cells = [(i, j) for i in rows for j in range(len(lines[i].split()))]
        (i, j), (k, m) = rng.choice(cells), rng.choice(cells)
        grid = {r: lines[r].split() for r in rows}
        if kind == "swap":
            grid[i][j], grid[k][m] = grid[k][m], grid[i][j]
        else:
            n = len(grid[i])
            grid[i][j] = rng.choice(("0", str(n + 1), "x", "9" * 5000))
        for r, tokens in grid.items():
            lines[r] = " ".join(tokens)
    elif kind == "order":
        lines[rng.choice(orders)] = str(10**9)
    elif kind == "trailing":
        lines.append(rng.choice(("1 2", "junk", "3")))
    data = ("\n".join(lines) + "\n").encode()
    if kind == "byte":
        at = rng.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


def test_malformed_cay_exits_2_with_one_line(tmp_path, capsys):
    rng = random.Random(20072)
    fixtures = sorted(fixture_dir().glob("*.cay"))
    path = tmp_path / "input.cay"
    codes = {0: 0, 1: 0, 2: 0}
    for i in range(CAY_CASES):
        path.write_bytes(mutated_cay(rng, fixtures[i % len(fixtures)].read_text()))
        for command in CAY_COMMANDS:
            argv = [arg.format(path) for arg in command]
            if "--hop" not in argv:
                argv.append(str(path))
            capsys.readouterr()
            code, _ = run(*argv)
            err = capsys.readouterr().err
            assert code in codes, (argv, path.read_bytes()[:200], err)
            codes[code] += 1
            if code == 2:
                assert err.startswith("esnlab: error:") and err.count("\n") == 1, (argv, err)
    assert all(codes.values()), codes
