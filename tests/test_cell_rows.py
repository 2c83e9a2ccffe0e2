"""Witnesses for the rows on cells of ``double._CELL_ROWS`` and the embedding
rows of ``double._INJECTIVE`` and ``double._IDENTITIES``: each row, under its
tag and its twin's, reports a pinned first violation on a committed input,
and a double groupoid whose edge arrows are not loops pins the readings of dom
and cod that every input built from one view reads alike."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import CLIFFORD3
from esnlab import double as dbl
from esnlab.double import DoubleSemigroup, dig_from_dis, dig_from_json, transpose, validate_dig

DATA = Path(__file__).parent / "data"


def _input(name, changes):
    """The double groupoid of clifford3 or of a tests/data file, with the
    entry at key of each (field, key, value) of changes set to value."""
    if name == "clifford3":
        g = dig_from_dis(DoubleSemigroup(CLIFFORD3, CLIFFORD3))
    else:
        g = dig_from_json(json.loads((DATA / name).read_text()))
    for field, key, value in changes:
        g = replace(g, **{field: {**getattr(g, field), key: value}})
    return g


# Each input with the first witness of every tag it pins, twin tags included:
# the same with and without strict_ix, except ix.g-strict, which runs only
# under it. The changes of an input are those of one seeded corruption of
# test_double.py (_random_mutations on clifford3 or on the diagonal B2 file,
# _symmetric_mutations on clifford3), written out, or their transpose for a
# twin tag. Every row and twin of _CELL_ROWS is reached, so no tag is listed
# as unreached.
_WITNESSES = (
    ("b2_two_views.dig.json", (), {
        "boundary.hcomp-vdom": (2, 3), "boundary.vcomp-hdom": (1, 2),
        "boundary.hcomp-vcod": (2, 3), "boundary.vcomp-hcod": (1, 2),
        "interchange.cells": (1, 1, 4, 2),
        "iii.a": (2, 1, 5, 1), "iii.b": (2, 3, 5, 3), "iii.c": (1, 4, 1, 2), "iii.d": (3, 4, 3, 2),
        "vi.a": (1, 3, 1), "vi.b": (1, 1, 3), "vi.c": (1, 3, 1), "vi.d": (1, 1, 3),
        "viii.a": (1, 4), "viii.c": (3, 4), "viii.b": (1, 5), "viii.d": (3, 5),
        "ix.b": (3, 1), "ix.f": (1, 3), "ix.c": (1, 3), "ix.g-strict": (3, 1), "ix.g": (3, 1),
    }),
    ("clifford3", (("hcompose", (1, 1), 3),), {"boundary.hor-closed": (1, 1)}),
    ("clifford3", (("vcompose", (1, 1), 3),), {"boundary.ver-closed": (1, 1)}),
    ("b2_diagonal.dig.json", (("hcompose", (5, 5), 4),), {"iv.a": (4, 5, 4, 5)}),
    ("b2_diagonal.dig.json", (("vcompose", (5, 5), 4),), {"iv.b": (4, 5, 4, 5)}),
    ("b2_diagonal.dig.json", (("h_corestrict", (4, 2), 5),), {"v.a": (4, 4, 5, 5)}),
    ("b2_diagonal.dig.json", (("v_corestrict", (4, 2), 5),), {"v.b": (4, 4, 5, 5)}),
    ("clifford3", (("h_restrict", (1, 1), 2), ("v_restrict", (1, 1), 2)),
     {"v.c": (1, 1, 1, 2), "v.d": (1, 1, 1, 2)}),
    ("clifford3", (("meet_v", (1, 1), 2),), {"vii": (1, 1, 1, 2)}),
    ("clifford3", (("h_corestrict", (2, 1), 3),), {"ix.a": (2, 1)}),
    ("clifford3", (("v_corestrict", (2, 1), 3),), {"ix.e": (2, 1)}),
    ("clifford3", (("h_restrict", (1, 3), 2),), {"ix.d": (1, 3)}),
    ("clifford3", (("v_restrict", (1, 3), 2),), {"ix.h": (1, 3)}),
)


def test_every_cell_row_is_witnessed():
    tags = {row.tag for pair in dbl._CELL_ROWS for row in pair if row is not None}
    pinned = [tag for *_, pins in _WITNESSES for tag in pins]
    assert sorted(pinned) == sorted(tags)


@pytest.mark.parametrize("name, changes, pins", _WITNESSES,
                         ids=[",".join(pins) for *_, pins in _WITNESSES])
def test_cell_row_first_witnesses(name, changes, pins):
    for strict_ix in (False, True):
        rep = validate_dig(_input(name, changes), strict_ix)
        for tag, witness in pins.items():
            first = next((v.witness for v in rep.violations if v.axiom == tag), None)
            assert first == (witness if strict_ix or tag != "ix.g-strict" else None), tag


# Each input with the first witness of every embedding row it fails, by tag.
# On clifford3 each change is made to a field and to its twin alike, so the
# value is its own transpose, its rows run once and each twin's result is
# copied from its row; on the file of two views a change to one field fails
# only its own row, and a twin row runs on the transpose. emb.object-cell has
# no twin and holds on every value that is its own transpose, so only the
# file of two views reaches it. A failing injectivity row stops the check
# before the identity rows run.
_EMBEDDING_WITNESSES = (
    ("clifford3", (("obj_ver", 2, 1), ("obj_hor", 2, 1)),
     {"emb.obj_ver": (2,), "emb.obj_hor": (2,)}),
    ("clifford3", (("ver_cell", 2, 1), ("hor_cell", 2, 1)),
     {"emb.ver_cell": (2,), "emb.hor_cell": (2,)}),
    ("clifford3", (("hdom", 2, 1), ("vdom", 2, 1)),
     {"emb.ver-identity": (2,), "emb.hor-identity": (2,)}),
    ("clifford3", (("ver_src", 2, 1), ("hor_src", 2, 1)),
     {"emb.object-ver-loop": (2,), "emb.object-hor-loop": (2,)}),
    ("b2_two_views.dig.json", (("obj_ver", 2, 2),), {"emb.obj_ver": (2,)}),
    ("b2_two_views.dig.json", (("obj_hor", 2, 2),), {"emb.obj_hor": (2,)}),
    ("b2_two_views.dig.json", (("ver_cell", 3, 4),), {"emb.ver_cell": (3,)}),
    ("b2_two_views.dig.json", (("hor_cell", 3, 4),), {"emb.hor_cell": (3,)}),
    ("b2_two_views.dig.json", (("obj_hor", 1, 3), ("obj_hor", 2, 2)),
     {"emb.object-cell": (1,), "emb.object-hor-loop": (1,)}),
    ("b2_two_views.dig.json", (("hdom", 4, 1),), {"emb.ver-identity": (2,)}),
    ("b2_two_views.dig.json", (("vdom", 4, 1),), {"emb.hor-identity": (2,)}),
    ("b2_two_views.dig.json", (("ver_dst", 2, 2),), {"emb.object-ver-loop": (1,)}),
    ("b2_two_views.dig.json", (("hor_src", 3, 1),), {"emb.object-hor-loop": (2,)}),
)


def test_every_embedding_row_is_witnessed_on_one_view_and_on_two():
    tags = {row.tag for table in (dbl._INJECTIVE, dbl._IDENTITIES)
            for pair in table for row in pair if row is not None}
    for name, reached in (("clifford3", tags - {"emb.object-cell"}),
                          ("b2_two_views.dig.json", tags)):
        pinned = [tag for input_name, _, pins in _EMBEDDING_WITNESSES
                  if input_name == name for tag in pins]
        assert sorted(set(pinned)) == sorted(reached), name


@pytest.mark.parametrize("name, changes, pins", _EMBEDDING_WITNESSES,
                         ids=[f"{name.split('.')[0]}:{','.join(pins)}"
                              for name, _, pins in _EMBEDDING_WITNESSES])
def test_embedding_row_first_witnesses(name, changes, pins):
    g = _input(name, changes)
    assert (transpose(g) == g) == (name == "clifford3")
    first = {}
    for v in validate_dig(g).violations:
        first.setdefault(v.axiom, v.witness)
    assert first == pins


def test_violations_where_edge_arrows_are_not_loops():
    # Every double groupoid built from one view has only loops for edge arrows,
    # so the top and bottom edge of an edge arrow's identity cell agree and a
    # row reading one for the other passes there. This file, written out from
    # the description below rather than built by the package, and not
    # validated, is the double category of the commuting squares of the chain
    # 1 < 2: objects 1 and 2; vertical and horizontal arrows 1 and 2, the
    # identities, and 3: 1 -> 2; cells the six squares, each given by its
    # corners (top left, top right, bottom left, bottom right), ordered along
    # its edges: 1 = 1111, 2 = 2222, 3 = 1122 (the identity cell of the vertical
    # arrow 3), 4 = 1212 (of the horizontal arrow 3), 5 = 1112 and 6 = 1222.
    # Cells compose by pasting, are ordered and met corner by corner, and
    # (co)restrict to an arrow s -> t by replacing an edge: (s -> t | a) =
    # (s, a1, t, a3) and (a | s -> t) = (min(a0, s), s, min(a2, t), t) for
    # a = (a0, a1, a2, a3), and their transposes in the vertical direction.
    # Squares are not invertible and restrictions are not unique in that
    # order, so both views fail validate_ig; the rows on cells all hold but
    # ix.g as printed, whose patterned reading holds.
    #
    # Pinned here, this list kills four misreadings that pass on every other
    # input: vcod(a) read as vdom(a) on the right of ix.b, vdom(a) as vcod(a) on
    # the right of ix.c, and hdom(a) as vcod(a) or as hcod(a) on the right of
    # ix.g. The fifth, vdom(c) read as vcod(c) on the right of ix.g, cannot be
    # killed: c ranges over the identity cells of horizontal arrows, and the
    # rows on cells run only after the embedding rows, whose emb.hor-identity
    # makes each such cell a vertical loop, vdom(c) = c = vcod(c).
    g = dig_from_json(json.loads((DATA / "chain2_squares.dig.json").read_text()))
    assert transpose(g) != g
    assert [e for e in g.ver_arrows if g.ver_src[e] != g.ver_dst[e]] == [3]
    assert [f for f in g.hor_arrows if g.hor_src[f] != g.hor_dst[f]] == [3]
    for strict_ix in (False, True):
        rep = validate_dig(g, strict_ix)
        cell_rows = [(v.axiom, v.witness) for v in rep.violations
                     if not v.axiom.startswith(("i.", "ii."))]
        assert cell_rows == [("ix.g", (4, 2))]
        assert {v.axiom.split(".")[0] for v in rep.violations} == {"i", "ii", "ix"}
        assert {tag: n for tag, n in rep.substantive.items() if tag.startswith("ix.")} == {
            "ix.a": 14, "ix.e": 14, "ix.b": 14, "ix.f": 14, "ix.c": 10, "ix.d": 10, "ix.h": 10,
            "ix.g": 8, **({"ix.g-strict": 10} if strict_ix else {})}
        note = "ix.g readings disagree at cell 2, horizontal arrow cell 4"
        assert rep.notes == [note] * strict_ix
