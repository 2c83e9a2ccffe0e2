import json

import pytest

from conftest import chain_semilattice, cyclic_group
from esnlab.errors import InvalidGroupoidError, ParseError
from esnlab.esn import (
    InductiveGroupoid,
    groupoid_dot,
    groupoid_from_json,
    groupoid_roundtrip,
    groupoid_to_json,
    ig_from_is,
    is_from_ig,
    semigroup_roundtrip,
    validate_ig,
)
from esnlab.fixtures import load_groupoid, load_table
from esnlab.inverse import analyze_inverse
from esnlab.report import Verdict
from esnlab.search import tables_matching
from esnlab.tables import parse_table


def test_ig_from_brandt(b2):
    g = ig_from_is(analyze_inverse(b2))
    assert g.objects == (1, 4, 5)
    assert (g.dom[2], g.cod[2]) == (4, 5)
    assert (g.dom[3], g.cod[3]) == (5, 4)
    assert g.compose[(2, 3)] == b2.product(2, 3) == 4
    assert (2, 2) not in g.compose  # cod(2)=5 != dom(2)=4
    assert g.restriction[(1, 2)] == 1
    assert g.corestriction[(2, 1)] == 1
    assert g.object_meet[(4, 5)] == 1


def test_ig_from_group():
    g = ig_from_is(analyze_inverse(cyclic_group(2)))
    assert g.objects == (1,)
    assert set(g.compose) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert g.compose[(2, 2)] == 1


def test_ig_from_chain():
    g = ig_from_is(analyze_inverse(chain_semilattice(2)))
    assert g.objects == (1, 2)
    assert set(g.compose) == {(1, 1), (2, 2)}
    assert g.object_meet[(1, 2)] == 1
    assert g.leq == frozenset({(1, 1), (2, 2), (1, 2)})


def test_validate_fixture_groupoid():
    g = load_groupoid("partial_bijections_2.json")
    assert len(g.objects) == 4 and len(g.arrows) == 7
    assert validate_ig(g).ok


def test_truncated_partial_bijections_not_inductive():
    """Dropping the empty map leaves the two singleton identities meetless."""
    g = load_groupoid("partial_bijections_2.json")
    keep = [a for a in g.arrows if a != 1]
    renum = {old: new for new, old in enumerate(keep, start=1)}
    restrict = lambda d: {
        k if not isinstance(k, tuple) else tuple(renum[x] for x in k): renum[v]
        for k, v in d.items()
        if (1 not in (k if isinstance(k, tuple) else (k,))) and v != 1
    }
    truncated = InductiveGroupoid(
        objects=tuple(renum[o] for o in g.objects if o != 1),
        arrows=tuple(range(1, 7)),
        dom={renum[a]: renum[g.dom[a]] for a in keep},
        cod={renum[a]: renum[g.cod[a]] for a in keep},
        compose=restrict(g.compose),
        inv={renum[a]: renum[g.inv[a]] for a in keep},
        identity={renum[o]: renum[o] for o in g.objects if o != 1},
        leq=frozenset(
            (renum[x], renum[y]) for x, y in g.leq if 1 not in (x, y)
        ),
        # the two singleton domains have no common lower bound; patch the meet
        # table with an arbitrary object to give the checker something to flag
        object_meet={
            (renum[e], renum[f]): renum[g.object_meet[(e, f)]]
            if g.object_meet[(e, f)] != 1
            else renum[2]
            for e in g.objects
            for f in g.objects
            if e != 1 and f != 1
        },
        restriction=restrict(g.restriction),
        corestriction=restrict(g.corestriction),
    )
    rep = validate_ig(truncated)
    assert not rep.ok
    assert any(v.axiom.startswith("meet.") for v in rep.violations)


def test_validate_flags_broken_order(b2):
    g = ig_from_is(analyze_inverse(b2))
    # forcing the order discrete removes the restriction of 2 to the object 1
    flat = frozenset((x, x) for x in g.arrows)
    broken = InductiveGroupoid(
        g.objects, g.arrows, g.dom, g.cod, g.compose, g.inv, g.identity,
        flat, g.object_meet, {}, {},
    )
    rep = validate_ig(broken)
    assert not rep.ok
    assert any(v.axiom.startswith("meet.") for v in rep.violations)


def test_validate_flags_corrupt_restriction(b2):
    g = ig_from_is(analyze_inverse(b2))
    bad_restriction = dict(g.restriction)
    bad_restriction[(1, 2)] = 2  # the restriction of 2 to 1 is 1, not 2
    broken = InductiveGroupoid(
        g.objects, g.arrows, g.dom, g.cod, g.compose, g.inv, g.identity,
        g.leq, g.object_meet, bad_restriction, g.corestriction,
    )
    rep = validate_ig(broken)
    assert any(v.axiom == "iii.table" for v in rep.violations)


def _partial_bijections_oracle():
    """The 7-element table of all partial bijections on two points, composed
    directly (left to right), independent of any groupoid machinery."""
    maps = [
        {}, {0: 0}, {0: 1}, {1: 0}, {1: 1}, {0: 0, 1: 1}, {0: 1, 1: 0},
    ]
    idx = {tuple(sorted(m.items())): i + 1 for i, m in enumerate(maps)}
    rows = []
    for x in maps:
        row = []
        for y in maps:
            z = {p: y[q] for p, q in x.items() if q in y}
            row.append(idx[tuple(sorted(z.items()))])
        rows.append(tuple(row))
    return tuple(rows)


def test_is_from_ig_matches_partial_bijection_composition():
    g = load_groupoid("partial_bijections_2.json")
    assert is_from_ig(g).table.rows == _partial_bijections_oracle()
    assert load_table("partial_bijections_2.sgp.cay").rows == _partial_bijections_oracle()


def test_is_from_ig_total_even_without_composability(b2):
    g = ig_from_is(analyze_inverse(b2))
    t = is_from_ig(g).table
    for a in t.elements():
        for b in t.elements():
            assert 1 <= t.product(a, b) <= 5
            if (a, b) in g.compose:
                assert t.product(a, b) == g.compose[(a, b)]


def test_is_from_ig_single_loop():
    one = ig_from_is(analyze_inverse(parse_table("1\n1")))
    assert is_from_ig(one).table.rows == ((1,),)


def test_is_from_ig_rejects_invalid(b2):
    g = ig_from_is(analyze_inverse(b2))
    broken = InductiveGroupoid(
        g.objects, g.arrows, g.dom, g.cod, g.compose, g.inv, g.identity,
        frozenset((x, x) for x in g.arrows), g.object_meet, {}, {},
    )
    with pytest.raises(InvalidGroupoidError):
        is_from_ig(broken)


def test_roundtrip_brandt(b2):
    assert semigroup_roundtrip(b2)
    assert groupoid_roundtrip(ig_from_is(analyze_inverse(b2)))


def test_roundtrip_order_one():
    assert semigroup_roundtrip(parse_table("1\n1"))


def test_roundtrip_all_small_inverse_semigroups():
    for n in (1, 2, 3):
        for t in tables_matching(n, "inverse"):
            assert semigroup_roundtrip(t)
            assert groupoid_roundtrip(ig_from_is(analyze_inverse(t)))


def test_groupoid_fixture_roundtrip():
    g = load_groupoid("partial_bijections_2.json")
    assert groupoid_roundtrip(g)
    # objects listed out of order are still a valid groupoid, but the ESN
    # construction lists them in order: the witness is the first field that differs
    doc = groupoid_to_json(g)
    doc["objects"].reverse()
    reordered = groupoid_from_json(doc)
    assert reordered.report.ok
    assert groupoid_roundtrip(reordered) == Verdict(False, ("objects",))


def test_groupoid_json_io(b2):
    g = ig_from_is(analyze_inverse(b2))
    doc = groupoid_to_json(g)
    assert doc["objects"] == [1, 4, 5]
    back = groupoid_from_json(json.loads(json.dumps(doc)))
    assert back == g


def test_groupoid_from_json_names_a_missing_field(b2):
    doc = groupoid_to_json(ig_from_is(analyze_inverse(b2)))
    del doc["corestriction"]
    with pytest.raises(ParseError, match="missing field 'corestriction'"):
        groupoid_from_json(doc)


def test_groupoid_dot(b2):
    dot = groupoid_dot(ig_from_is(analyze_inverse(b2)))
    assert dot == (
        'digraph groupoid {\n  "1";\n  "4";\n  "5";\n'
        '  "4" -> "5" [label="2"];\n  "5" -> "4" [label="3"];\n}\n'
    )


def test_validate_ig_counts_of_the_fixture():
    # recorded before the validator was stated as rows; the rows must keep them
    rep = validate_ig(load_groupoid("partial_bijections_2.json"))
    assert rep.substantive == {"i": 17, "ii": 33, "iii": 17, "iv": 17, "meet": 16}
    assert rep.vacuous == {"ii": 256}


def test_validate_ig_total_on_random_mutations():
    """validate_ig reports on a corrupted groupoid instead of raising; where a
    key or a value leaves its carrier, it reports only that."""
    import random
    from dataclasses import replace

    rng = random.Random(2026)
    base = load_groupoid("partial_bijections_2.json")
    m = len(base.arrows)
    range_tags = {"shape.arrows", "shape.objects", "shape.boundary", "shape.inverse",
                  "shape.identity", "order.range", "meet.range", "range.compose",
                  "range.restriction", "range.corestriction"}
    tags = set()
    for i in range(300):
        field = rng.choice(("objects", "arrows", "dom", "cod", "inv", "identity", "compose",
                            "leq", "object_meet", "restriction", "corestriction"))
        value = getattr(base, field)
        outside = rng.choice((m + 1, 99))
        deleted = i % 3 == 2
        if field in ("objects", "arrows"):
            value = value[:-1] if deleted else value + (outside,)
        elif field == "leq":
            pair = (rng.randint(1, m), outside)[:: rng.choice((1, -1))]
            value = value - {rng.choice(sorted(value))} if deleted else value | {pair}
        else:
            value = dict(value)
            key = rng.choice(sorted(value))
            if deleted:
                del value[key]
            elif i % 3:
                value[(outside, *key[1:]) if isinstance(key, tuple) else outside] = value.pop(key)
            else:
                value[key] = outside
        rep = validate_ig(replace(base, **{field: value}))
        found = {v.axiom for v in rep.violations}
        assert deleted or found and found <= range_tags, (field, found)
        tags |= found
    assert range_tags <= tags
