import json
import re
from dataclasses import replace

import pytest

from esnlab.double import (
    DoubleInductiveGroupoid,
    DoubleSemigroup,
    dig_from_dis,
    transpose,
    validate_dig,
)
from esnlab.errors import (
    InvalidDigError,
    InvalidPresheafError,
    NotDoubleInverseError,
    ParseError,
    TheoremViolation,
)
from esnlab.fixtures import load_pair, load_presheaf
from esnlab.presheaf import (
    AbelianGroupPresheaf,
    FiniteAbelianGroup,
    MeetSemilattice,
    component_groups,
    compose,
    decompose,
    dig_from_presheaf,
    main_theorem_report,
    presheaf_equal,
    presheaf_from_dig,
    presheaf_from_json,
    presheaf_to_json,
    validate_group,
    validate_presheaf,
    validate_semilattice,
)
from conftest import (
    chain_semilattice,
    cyclic_group,
    dig_equal,
    left_projection,
    right_projection,
)

Z2 = FiniteAbelianGroup((1, 2), {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}, 1, {1: 1, 2: 2})
TRIV = FiniteAbelianGroup((1,), {(1, 1): 1}, 1, {1: 1})


def _chain2():
    return MeetSemilattice(
        (1, 2),
        frozenset({(1, 1), (2, 2), (1, 2)}),
        {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2},
    )


def test_validate_semilattice():
    assert validate_semilattice(_chain2()).ok
    bad = MeetSemilattice(
        (1, 2),
        frozenset({(1, 1), (2, 2), (1, 2)}),
        {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 2},  # meet(1,2) not a lower bound
    )
    rep = validate_semilattice(bad)
    assert any(v.axiom == "base.meet-lower" for v in rep.violations)


def test_validate_group():
    assert validate_group(Z2).ok
    broken = FiniteAbelianGroup((1, 2), {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 2}, 1, {1: 1, 2: 2})
    rep = validate_group(broken)
    assert not rep.ok


def test_validate_presheaf_catches_bad_hom():
    base = _chain2()
    good = AbelianGroupPresheaf(
        base,
        {1: TRIV, 2: Z2},
        {(1, 1): {1: 1}, (2, 2): {1: 1, 2: 2}, (1, 2): {1: 1, 2: 1}},
    )
    assert validate_presheaf(good).ok
    missing = AbelianGroupPresheaf(base, {1: TRIV, 2: Z2}, {(1, 1): {1: 1}, (2, 2): {1: 1, 2: 2}})
    assert any(v.axiom == "hom.missing" for v in validate_presheaf(missing).violations)
    z4 = FiniteAbelianGroup(
        (1, 2, 3, 4),
        {(a, b): (a + b - 2) % 4 + 1 for a in range(1, 5) for b in range(1, 5)},
        1,
        {1: 1, 2: 4, 3: 3, 4: 2},
    )
    crooked = AbelianGroupPresheaf(
        base,
        {1: Z2, 2: z4},
        {
            (1, 1): {1: 1, 2: 2},
            (2, 2): {x: x for x in (1, 2, 3, 4)},
            (1, 2): {1: 1, 2: 2, 3: 1, 4: 1},  # not multiplicative
        },
    )
    assert any(
        v.axiom == "hom.multiplicative" for v in validate_presheaf(crooked).violations
    )


def test_shared_idempotents(clifford3):
    for t in (cyclic_group(2), clifford3, chain_semilattice(3)):
        p, report = decompose(DoubleSemigroup(t, t))
        assert report.improper and p.report.ok
    with pytest.raises(NotDoubleInverseError):
        decompose(DoubleSemigroup(left_projection(2), right_projection(2)))


def test_orders_coincide(clifford3):
    for t in (cyclic_group(2), clifford3, chain_semilattice(3)):
        h, v = dig_from_dis(DoubleSemigroup(t, t)).views
        assert h == v


def test_component_groups_z2():
    g = dig_from_dis(DoubleSemigroup(cyclic_group(2), cyclic_group(2)))
    comps = component_groups(g)
    [grp] = comps.values()
    assert grp.order == 2 and grp.op[(2, 2)] == 1


def test_component_groups_chain():
    g = dig_from_dis(DoubleSemigroup(chain_semilattice(3), chain_semilattice(3)))
    assert all(grp.order == 1 for grp in component_groups(g).values())


def test_component_groups_clifford3(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    comps = component_groups(g)
    orders = {o: grp.order for o, grp in comps.items()}
    assert sorted(orders.values()) == [1, 2]
    top = max(orders, key=orders.get)
    grp = comps[top]
    assert grp.unit in grp.carrier and grp.op[(3, 3)] == 2


def test_component_not_group_flagged(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    fields = {name: getattr(g, name) for name in g.__dataclass_fields__}
    bad_vinv = dict(g.vinv)
    bad_vinv[3] = 1  # the two directed inverses no longer agree
    fields["vinv"] = bad_vinv

    with pytest.raises(InvalidDigError):  # the vertical view fails validate_dig
        component_groups(DoubleInductiveGroupoid(**fields))


def test_decomposing_checks_the_one_view(clifford3, monkeypatch):
    # an invalid double groupoid is bad input (exit 2); on a valid one, views
    # that are not one groupoid of loops on the object cells refute the main
    # theorem (exit 3)
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    fields = {name: getattr(g, name) for name in g.__dataclass_fields__}
    invalid = DoubleInductiveGroupoid(**{**fields, "leq": frozenset()})
    for decompose_dig in (component_groups, presheaf_from_dig):
        with pytest.raises(InvalidDigError):
            decompose_dig(invalid)
    h, v = g.views
    assert g.report.ok  # kept on g, so the patched views below reach only the decomposition
    for views, part in (((h, replace(v, leq=h.leq - {(1, 3)})), "differ in leq"),
                        ((h, replace(v, inv={**v.inv, 3: 2})), "differ in inv"),
                        ((replace(h, objects=(1,)),) * 2, "not the object cells"),
                        ((replace(h, cod={**h.cod, 3: 1}),) * 2, "not a loop")):
        monkeypatch.setattr(DoubleInductiveGroupoid, "views", property(lambda _, vs=views: vs))
        for decompose_dig in (component_groups, presheaf_from_dig):
            with pytest.raises(TheoremViolation, match=part):
                decompose_dig(g)


def test_presheaf_from_dig_clifford3(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    p = presheaf_from_dig(g)
    assert p.base.elements == (1, 2)
    assert p.base.meet[(1, 2)] == 1
    assert [p.group_at[e].order for e in p.base.elements] == [1, 2]
    phi = p.hom[(1, 2)]
    assert set(phi.values()) == {1}  # everything collapses onto the zero


def test_hom_preserves_composition_on_sweep():
    from esnlab.search import tables_matching

    for n in (1, 2, 3):
        for t in tables_matching(n, "commutative-inverse"):
            p = presheaf_from_dig(dig_from_dis(DoubleSemigroup(t, t)))
            assert validate_presheaf(p).ok


def test_dig_from_presheaf_fixtures():
    for name in ("point_z2_presheaf.json", "clifford3_presheaf.json"):
        p = load_presheaf(name)
        g = dig_from_presheaf(p)
        assert validate_dig(g).ok
        assert transpose(g) == g
        assert presheaf_equal(presheaf_from_dig(g), p)


def test_dig_from_presheaf_keeps_base_order_of_unit_cells():
    # the unit cells 3 and 1 of the groups at 1 and 2 run against the base
    # order, so the objects and arrows of the double groupoid must follow the
    # base, not the cell ids, for the decomposition to give the presheaf back
    shifted = FiniteAbelianGroup((3,), {(3, 3): 3}, 3, {3: 3})
    for low, high, hom in ((1, 2, {1: 3, 2: 3}), (2, 1, {3: 1})):
        leq = frozenset({(1, 1), (2, 2), (low, high)})
        meet = {(a, b): a if a == b else low for a in (1, 2) for b in (1, 2)}
        homs = {(1, 1): {3: 3}, (2, 2): {1: 1, 2: 2}, (low, high): hom}
        p = AbelianGroupPresheaf(MeetSemilattice((1, 2), leq, meet), {1: shifted, 2: Z2}, homs)
        assert p.report.ok
        g = dig_from_presheaf(p)
        assert g.certificate is not None and g.report.ok  # certified, and valid in full
        assert g.ver_cell == g.hor_cell == {1: 3, 2: 1}
        assert presheaf_equal(presheaf_from_dig(g), p)


def test_dig_from_presheaf_rejects_invalid():
    base = _chain2()
    missing = AbelianGroupPresheaf(base, {1: TRIV, 2: Z2}, {(1, 1): {1: 1}, (2, 2): {1: 1, 2: 2}})
    with pytest.raises(InvalidPresheafError):
        dig_from_presheaf(missing)


def test_carrier_preserving_numbering(clifford3):
    # carriers that already partition 1..m are reused as cell ids
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    p = presheaf_from_dig(g)
    g2 = dig_from_presheaf(p)
    assert dig_equal(g, g2)


def test_compose_decompose_roundtrip_fixtures(clifford3):
    for name in ("z2_pair.cay", "clifford3_pair.cay"):
        d = load_pair(name)
        p, report = decompose(d)
        back = compose(p)
        assert back.hop.rows == d.hop.rows and back.vop.rows == d.vop.rows
        assert report.improper and report.clifford


def test_decompose_compose_identity_on_presheaf_fixtures():
    for name in ("point_z2_presheaf.json", "clifford3_presheaf.json"):
        p = load_presheaf(name)
        p2, _ = decompose(compose(p))
        assert presheaf_equal(p, p2)


def test_composites_of_presheaves_are_improper_and_commutative():
    from esnlab.tables import is_commutative

    for name in ("point_z2_presheaf.json", "clifford3_presheaf.json"):
        d = compose(load_presheaf(name))
        assert d.hop.rows == d.vop.rows
        assert is_commutative(d.hop)


def test_decompose_rejects_projections():
    with pytest.raises(NotDoubleInverseError):
        decompose(DoubleSemigroup(left_projection(2), right_projection(2)))


def test_main_theorem_report(clifford3):
    rep = main_theorem_report(DoubleSemigroup(cyclic_group(2), cyclic_group(2)))
    assert rep.is_double_inverse and rep.improper and rep.clifford
    rep = main_theorem_report(DoubleSemigroup(left_projection(2), right_projection(2)))
    assert not rep.is_double_inverse
    doc = rep.as_json()
    assert doc["double_inverse"] is False


def test_presheaf_json_io():
    p = load_presheaf("clifford3_presheaf.json")
    doc = presheaf_to_json(p)
    assert doc["base"]["elements"] == [1, 2]
    back = presheaf_from_json(doc)
    assert presheaf_equal(p, back)


def test_presheaf_equality_is_up_to_ids():
    # relabeling the base against its order, and a group carrier, keeps a
    # presheaf equal; a different hom value does not
    p = load_presheaf("clifford3_presheaf.json")
    doc = presheaf_to_json(p)
    new = {1: 7, 2: 3}
    base = doc["base"]
    base["elements"] = [new[x] for x in base["elements"]]
    for name in ("leq", "meet"):
        base[name] = [[new[x] for x in entry] for entry in base[name]]
    for group in doc["groups"]:
        group["at"] = new[group["at"]]
    doc["groups"][1]["carrier"] = [9, 5]
    for hom in doc["homs"]:
        hom["pair"] = [new[x] for x in hom["pair"]]
    assert presheaf_equal(p, presheaf_from_json(doc))
    next(hom for hom in doc["homs"] if hom["pair"] == [3, 3])["values"] = [2, 1]
    assert not presheaf_equal(p, presheaf_from_json(doc))


def test_presheaf_from_json_names_a_missing_field():
    doc = presheaf_to_json(load_presheaf("clifford3_presheaf.json"))
    del doc["groups"][0]["unit"]
    with pytest.raises(ParseError, match="missing field 'unit'"):
        presheaf_from_json(doc)


@pytest.mark.parametrize("group_edit, hom_edit, path", [
    ({}, {"values": [1, 0]}, "homs[0].values[1]"),
    ({"op": [[1, 0], [0, -1]]}, {}, "groups[0].op[0][1]"),
    ({"op": [[1, 2, 2], [2, 1]]}, {}, "groups[0].op[0]"),
    ({"unit": 3}, {}, "groups[0].unit"),
    ({}, {"pair": [1, 2]}, "homs[0].pair"),
    ({}, {"values": [1, 2, 1]}, "homs[0].values"),
])
def test_presheaf_from_json_rejects_positions_out_of_range(tmp_path, capsys, group_edit,
                                                           hom_edit, path):
    # 1-based positions must not wrap around or be cut off
    from esnlab.cli import main
    from esnlab.fixtures import fixture_dir

    doc = json.loads((fixture_dir() / "point_z2_presheaf.json").read_text())
    doc["groups"][0].update(group_edit)
    doc["homs"][0].update(hom_edit)
    with pytest.raises(ParseError, match=re.escape(path)):
        presheaf_from_json(doc)
    file = tmp_path / "bad.presheaf.json"
    file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["compose", str(file)]) == 2
    assert path in capsys.readouterr().err


def test_validate_presheaf_counts_of_the_fixture():
    # recorded before the validators were stated as rows; the rows must keep them
    rep = validate_presheaf(load_presheaf("clifford3_presheaf.json"))
    assert rep.substantive == {"base.meet": 4, "hom": 3, "hom.functorial": 4}
    assert rep.vacuous == {}


def test_validate_presheaf_total_on_random_mutations():
    """validate_presheaf reports on a corrupted presheaf instead of raising;
    where a key or a value leaves its carrier, it reports only that."""
    import random
    from dataclasses import replace

    rng = random.Random(2026)
    base = load_presheaf("clifford3_presheaf.json")
    range_tags = {"base.order-range", "base.meet-range", "group.missing", "group.unit-range",
                  "group.inverse-range", "group.closure", "hom.missing", "hom.shape"}

    def corrupt(table, i, outside):
        """table with a value or a key moved outside its carrier, or an entry
        deleted; a hom is corrupted inside, and a group is moved, not replaced."""
        table = dict(table)
        key = rng.choice(sorted(table))
        if i % 3 == 2:
            del table[key]
        elif i % 3 or isinstance(table[key], FiniteAbelianGroup):
            table[(outside, *key[1:]) if isinstance(key, tuple) else outside] = table.pop(key)
        elif isinstance(table[key], dict):
            table[key] = corrupt(table[key], i, outside)
        else:
            table[key] = outside
        return table

    tags = set()
    for i in range(300):
        outside = rng.choice((3, 99))
        field = rng.choice(("leq", "meet", "group_at", "carrier", "op", "unit", "inv", "hom"))
        if field == "leq":
            pair = (rng.choice((1, 2)), outside)[:: rng.choice((1, -1))]
            p = replace(base, base=replace(base.base, leq=base.base.leq | {pair}))
        elif field == "meet":
            p = replace(base, base=replace(base.base, meet=corrupt(base.base.meet, i, outside)))
        elif field in ("group_at", "hom"):
            p = replace(base, **{field: corrupt(getattr(base, field), i, outside)})
        else:
            at = rng.choice(base.base.elements)
            group = base.group_at[at]
            if field == "carrier":
                group = replace(group, carrier=group.carrier + (outside,))
            elif field == "unit":
                group = replace(group, unit=outside)
            else:
                group = replace(group, **{field: corrupt(getattr(group, field), i, outside)})
            p = replace(base, group_at={**base.group_at, at: group})
        rep = validate_presheaf(p)
        found = {v.axiom for v in rep.violations}
        assert i % 3 == 2 or found and found <= range_tags, (field, found)
        tags |= found
    assert range_tags <= tags
