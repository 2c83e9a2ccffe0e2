import functools
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    all_tables,
    chain_semilattice,
    cyclic_group,
    dig_equal,
    dig_of_view,
    labeled_pairs,
    left_projection,
    right_projection,
)
from esnlab import double as dbl, esn
from esnlab.double import (
    DoubleInductiveGroupoid,
    DoubleSemigroup,
    certify_view,
    check_interchange,
    classify_double,
    dig_from_dis,
    dig_from_json,
    dig_from_view,
    dig_to_json,
    dis_from_dig,
    is_proper,
    one_view,
    roundtrip_dig,
    roundtrip_double,
    transpose,
    validate_dig,
    verify_interchange_identities,
)
from esnlab.errors import InvalidDigError, NotDoubleInverseError, ParseError, TheoremViolation
from esnlab.esn import groupoid_of, ig_from_is, is_from_ig, pseudo_products
from esnlab.inverse import analyze_inverse
from esnlab.presheaf import (
    AbelianGroupPresheaf,
    FiniteAbelianGroup,
    MeetSemilattice,
    compose,
    dig_from_presheaf,
)
from esnlab.report import ValidationReport, Verdict
from esnlab.fixtures import fixture_dir, load_pair, load_presheaf, load_table
from esnlab.search import _classes, _orbit, search_double
from esnlab.tables import CayleyTable, is_commutative, relabelings

DATA = Path(__file__).parent / "data"


def test_interchange_projections():
    for n in (2, 3):
        assert check_interchange(right_projection(n), left_projection(n))
        assert check_interchange(left_projection(n), right_projection(n))


def test_interchange_commutative_self_pairs(b2, clifford3):
    for t in (cyclic_group(3), chain_semilattice(3), clifford3):
        assert check_interchange(t, t)


def test_interchange_brandt_self_fails(b2):
    verdict = check_interchange(b2, b2)
    assert not verdict and verdict.witness == (2, 2, 3, 3)


def test_interchange_swap_symmetry():
    # the law's quadruple family is closed under swapping the two operations
    tables2 = list(all_tables(2))
    for hop in tables2:
        for vop in tables2:
            assert check_interchange(hop, vop).holds == check_interchange(vop, hop).holds


def test_interchange_witness_is_the_least_failing_quadruple():
    # against a direct loop through the 1-based products, on every order-2 pair
    # and a seeded sample of order-3 pairs; on the table of order 1, where a
    # row read at one position is a scalar, not a tuple; on each table of order
    # 3 as both operations; and on seeded tables of orders 4 and 5, with
    # commutative semigroups as both operations, which pass
    tables3 = list(all_tables(3))
    rng = random.Random(3)
    pairs = [(h, v) for h in all_tables(2) for v in all_tables(2)]
    pairs += [(rng.choice(tables3), rng.choice(tables3)) for _ in range(300)]
    pairs += [(t, t) for t in all_tables(1)] + [(t, t) for t in tables3]
    for n in (4, 5):
        sample = [CayleyTable(tuple(rng.randrange(n) for _ in range(n * n))) for _ in range(30)]
        sample += [chain_semilattice(n), cyclic_group(n), left_projection(n)]
        pairs += [(rng.choice(sample), rng.choice(sample)) for _ in range(30)]
        pairs += [(t, t) for t in sample] + [(left_projection(n), right_projection(n))]
    for hop, vop in pairs:
        els = hop.elements()
        failing = [(a, b, c, d) for a in els for b in els for c in els for d in els
                   if hop.product(vop.product(a, b), vop.product(c, d))
                   != vop.product(hop.product(a, c), hop.product(b, d))]
        want = Verdict(False, failing[0]) if failing else Verdict(True)
        assert check_interchange(hop, vop) == want


def test_classification(b2, clifford3):
    z2 = cyclic_group(2)
    assert DoubleSemigroup(z2, z2).classification.is_double_semigroup
    assert DoubleSemigroup(z2, z2).classification.is_double_inverse_semigroup
    proj = DoubleSemigroup(left_projection(2), right_projection(2))
    assert proj.classification.is_double_semigroup
    assert not proj.classification.is_double_inverse_semigroup
    assert "generalized inverses" in classify_double(proj.hop, proj.vop).failure_reason()
    assert DoubleSemigroup(clifford3, clifford3).classification.is_double_inverse_semigroup
    assert not DoubleSemigroup(b2, b2).classification.is_double_semigroup


def test_proper(b2):
    assert is_proper(DoubleSemigroup(left_projection(2), right_projection(2)))
    z2 = cyclic_group(2)
    assert not is_proper(DoubleSemigroup(z2, z2))


def test_proper_and_roundtrip_witnesses_are_the_least_differing_cells():
    # against direct loops over the cells in row-major order, hop before vop
    tables3 = list(all_tables(3))
    rng = random.Random(5)
    for _ in range(300):
        h, v, bh, bv = (rng.choice(tables3) for _ in range(4))
        if rng.random() < 0.5:  # back equal to the pair but for at most one cell
            flat = list(h.flat)
            flat[rng.randrange(9)] = rng.randrange(3)
            bh, bv = CayleyTable(tuple(flat)), v
        cells = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        proper = [c for c in cells if h.product(*c) != v.product(*c)]
        want = Verdict(True, proper[0]) if proper else Verdict(False)
        assert is_proper(DoubleSemigroup(h, v)) == want
        diffs = [(name, *c) for c in cells for name, x, y in (("hop", bh, h), ("vop", bv, v))
                 if x.product(*c) != y.product(*c)]
        want = Verdict(False, diffs[0]) if diffs else Verdict(True)
        assert roundtrip_double(DoubleSemigroup(h, v), DoubleSemigroup(bh, bv)) == want


def test_dig_shapes(clifford3):
    z2 = cyclic_group(2)
    g = dig_from_dis(DoubleSemigroup(z2, z2))
    assert (len(g.objects), len(g.ver_arrows), len(g.hor_arrows), len(g.cells)) == (1, 1, 1, 2)
    g3 = dig_from_dis(DoubleSemigroup(chain_semilattice(3), chain_semilattice(3)))
    assert (len(g3.objects), len(g3.cells)) == (3, 3)
    assert all(g3.hcompose.get((a, a)) == a for a in g3.cells)
    gc = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    assert len(gc.objects) == 2 and len(gc.cells) == 3


def test_dig_corners_equal(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    for a in g.cells:
        corners = {
            g.ver_src[g.hdom[a]],
            g.ver_src[g.hcod[a]],
            g.ver_dst[g.hdom[a]],
            g.ver_dst[g.hcod[a]],
        }
        assert len(corners) == 1


def test_dig_from_dis_rejects_non_double_inverse():
    with pytest.raises(NotDoubleInverseError):
        dig_from_dis(DoubleSemigroup(left_projection(2), right_projection(2)))


def test_validate_dig_accepts_constructions(clifford3):
    for t in (cyclic_group(2), chain_semilattice(3), clifford3, cyclic_group(4)):
        g = dig_from_dis(DoubleSemigroup(t, t))
        rep = validate_dig(g, strict_ix=True)
        assert rep.ok
        assert not rep.notes  # the two readings of the odd axiom line agree


def _mutate(g, **changes):
    fields = {name: getattr(g, name) for name in g.__dataclass_fields__}
    fields.update(changes)
    return DoubleInductiveGroupoid(**fields)


def test_validate_dig_flags_corrupt_meet():
    g = dig_from_dis(DoubleSemigroup(chain_semilattice(3), chain_semilattice(3)))
    bad_meet = dict(g.meet_h)
    bad_meet[(1, 3)] = 2  # the meet of the ends of the chain is its bottom
    rep = validate_dig(_mutate(g, meet_h=bad_meet))
    assert not rep.ok
    families = {v.axiom.split(".", 1)[0] for v in rep.violations}
    assert families & {"vii", "viii"}
    assert ("vii", (1, 3, 2, 2)) in {(v.axiom, v.witness) for v in rep.violations}


def test_vi_transposes_are_their_own_identities(clifford3):
    # vi.b/vi.d are the transposes of vi.a/vi.c, so a one-sided corruption
    # shows different witnesses under the two tags
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))

    def witnesses(rep, tag):
        return [v.witness for v in rep.violations if v.axiom == tag]

    rep = validate_dig(_mutate(g, v_corestrict={**g.v_corestrict, (1, 1): 2}))
    assert witnesses(rep, "vi.a") == [(3, 2, 1)]
    assert witnesses(rep, "vi.b") == [(3, 1, 2)]
    rep = validate_dig(_mutate(g, v_restrict={**g.v_restrict, (1, 1): 2}))
    assert witnesses(rep, "vi.c") == [(3, 2, 1)]
    assert witnesses(rep, "vi.d") == [(3, 1, 2)]


def test_transpose_is_a_valid_involution(clifford3):
    for t in (cyclic_group(2), clifford3, chain_semilattice(3)):
        g = dig_from_dis(DoubleSemigroup(t, t))
        assert transpose(transpose(g)) == g
        assert validate_dig(transpose(g), strict_ix=True).ok


def test_validate_dig_flags_corrupt_composition(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    bad = dict(g.hcompose)
    bad[(2, 3)] = 2  # 2 after 3 is 3 in the group component
    rep = validate_dig(_mutate(g, hcompose=bad))
    assert not rep.ok


def test_validate_dig_flags_corrupt_restriction(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    bad = dict(g.h_restrict)
    key = next(iter(bad))
    bad[key] = 3 if bad[key] != 3 else 2
    rep = validate_dig(_mutate(g, h_restrict=bad))
    assert not rep.ok


def test_dis_from_dig_recovers_tables(clifford3):
    for t in (cyclic_group(2), chain_semilattice(3), clifford3):
        d = DoubleSemigroup(t, t)
        back = dis_from_dig(dig_from_json(dig_to_json(dig_from_dis(d))))
        assert back.hop.rows == t.rows and back.vop.rows == t.rows


def test_dis_from_presheaf_built_dig():
    g = dig_from_presheaf(load_presheaf("clifford3_presheaf.json"))
    d = dis_from_dig(g)
    expected = load_pair("clifford3_pair.cay")
    assert d.hop.rows == expected.hop.rows
    assert d.vop.rows == expected.vop.rows


def test_products_extend_compositions(clifford3):
    # where cells already compose, the pseudo-products agree with composition
    for t in (cyclic_group(2), clifford3, chain_semilattice(3)):
        g = dig_from_dis(DoubleSemigroup(t, t))
        d = dis_from_dig(g)
        for (a, b), c in g.hcompose.items():
            assert d.hop.product(a, b) == c
        for (a, b), c in g.vcompose.items():
            assert d.vop.product(a, b) == c


def test_dis_from_dig_rejects_broken(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    broken = _mutate(g, h_restrict={}, h_corestrict={}, v_restrict={}, v_corestrict={})
    with pytest.raises(InvalidDigError):
        dis_from_dig(broken)


def test_roundtrips_fixture_pairs(clifford3):
    for name in ("z2_pair.cay", "clifford3_pair.cay"):
        d = load_pair(name)
        g = dig_from_dis(d)
        assert roundtrip_double(d, dis_from_dig(g))
        assert roundtrip_dig(g, dig_from_dis(dis_from_dig(g)))


def test_dig_equal_distinguishes(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    assert dig_equal(g, g)
    other = dig_from_dis(
        DoubleSemigroup(chain_semilattice(3), chain_semilattice(3))
    )
    assert not dig_equal(g, other)


def test_roundtrip_dig_names_the_part_that_differs(clifford3):
    # the skeleton holds the object cells, the endpoint tables and the two
    # views, which hold every other table
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    other = dig_from_dis(DoubleSemigroup(chain_semilattice(3), chain_semilattice(3)))
    assert roundtrip_dig(g, other) == Verdict(False, ("objects",))
    for name, view in (("hcompose", "horizontal"), ("vcompose", "vertical")):
        table = dict(getattr(g, name))
        key = min(table)
        table[key] = table[key] % len(g.cells) + 1
        assert roundtrip_dig(g, replace(g, **{name: table})) == Verdict(False, (view,)), name


def test_interchange_identities_on_constructions(clifford3):
    for t in (cyclic_group(2), clifford3, chain_semilattice(3)):
        g = dig_from_dis(DoubleSemigroup(t, t))
        rep = verify_interchange_identities(g)
        assert rep.ok
        assert rep.substantive == {
            tag: len(g.cells) ** 4
            for tag in ("interchange.products", "split.h.i", "split.h.ii", "split.v.i",
                        "split.v.ii", "meets.i", "meets.ii", "meets.iii", "meets.iv")
        }
        assert rep.vacuous == {}


def test_interchange_identities_flag_mutations(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    bad = dict(g.hcompose)
    bad[(2, 3)] = 2
    rep = verify_interchange_identities(_mutate(g, hcompose=bad))
    assert not rep.ok


def test_interchange_identities_commute_with_transpose(clifford3, monkeypatch):
    # each vertical identity is its horizontal twin read on the transpose, where
    # the quadruple (a, b, c, d) of g is (a, c, b, d); checked on a corrupted
    # groupoid, let past the validity check that would otherwise stop the run
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    bad = _mutate(g, h_corestrict={**g.h_corestrict, (3, 1): 2},
                  h_restrict={**g.h_restrict, (1, 3): 2})
    monkeypatch.setattr(DoubleInductiveGroupoid, "report", ValidationReport())
    rep, trep = verify_interchange_identities(bad), verify_interchange_identities(transpose(bad))

    def found(r, tag, swap=False):
        seen = [(v.witness, v.message) for v in r.violations if v.axiom == tag]
        return sorted(((w[0], w[2], w[1], w[3]) if swap else w, m) for w, m in seen)

    twins = (("interchange.products", "interchange.products"), ("split.h.i", "split.v.i"),
             ("split.h.ii", "split.v.ii"), ("meets.i", "meets.iii"), ("meets.ii", "meets.iv"))
    for tag, twin in twins:
        assert found(rep, tag) == found(trep, twin, swap=True)
        assert found(rep, twin) == found(trep, tag, swap=True)
        for counts, tcounts in ((rep.substantive, trep.substantive), (rep.vacuous, trep.vacuous)):
            assert counts.get(tag) == tcounts.get(twin)
    assert {v.axiom for v in rep.violations} >= {"split.v.i", "split.v.ii", "meets.i", "meets.ii"}


def test_dig_json_io(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    doc = json.loads(json.dumps(dig_to_json(g)))
    back = dig_from_json(doc)
    assert dig_equal(back, g)
    assert validate_dig(back).ok


def test_dig_from_json_names_a_missing_field(clifford3, tmp_path, capsys):
    from esnlab.cli import main

    doc = dig_to_json(dig_from_dis(DoubleSemigroup(clifford3, clifford3)))
    del doc["meet_v"]
    with pytest.raises(ParseError, match="missing field 'meet_v'"):
        dig_from_json(doc)
    path = tmp_path / "no_meet_v.dig.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["double", "validate-axioms", str(path)]) == 2
    assert capsys.readouterr().err == "esnlab: error: missing field 'meet_v'\n"


def test_dig_json_io_presheaf_built():
    g = dig_from_presheaf(load_presheaf("clifford3_presheaf.json"))
    back = dig_from_json(json.loads(json.dumps(dig_to_json(g))))
    assert dig_equal(back, g)
    assert validate_dig(back).ok


def test_shared_idempotent_formula(b2, clifford3):
    # (a v a') h (a v a')' lands in the intersection of the idempotent sets
    from esnlab.inverse import analyze_inverse
    from esnlab.tables import idempotents

    for t in (cyclic_group(2), clifford3, chain_semilattice(3)):
        ah = av = analyze_inverse(t)
        shared = set(idempotents(t))
        for a in t.elements():
            e = t.product(a, av.inverse(a))
            candidate = t.product(e, ah.inverse(e))
            assert candidate in shared


def test_validate_dig_flags_corrupt_order(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    rep = validate_dig(_mutate(g, leq=frozenset((a, a) for a in g.cells)))
    assert not rep.ok  # restrictions now point below a discrete order
    rep = validate_dig(_mutate(g, lesssim=g.lesssim | {(2, 3)}))
    assert not rep.ok


def test_validate_dig_flags_corrupt_boundary(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    bad_hdom = dict(g.hdom)
    bad_hdom[3] = 1  # cell 3 lives over the top object, not the bottom
    rep = validate_dig(_mutate(g, hdom=bad_hdom))
    assert not rep.ok


def _random_mutations(base):
    """200 seeded corruptions of base, each with a seeded strict_ix: a value or
    a key of a table moved, possibly out of its carrier, then a pair of leq
    flipped."""
    import random

    rng = random.Random(2024)
    dict_fields = [
        "hcompose", "vcompose", "meet_h", "meet_v", "hinv", "vinv",
        "h_restrict", "h_corestrict", "v_restrict", "v_corestrict",
        "hdom", "hcod", "vdom", "vcod",
    ]
    limit = len(base.cells)
    for i in range(160):
        field = rng.choice(dict_fields)
        table = dict(getattr(base, field))
        key = rng.choice(sorted(table))
        if i % 4 == 3 and isinstance(key, tuple):
            value = table.pop(key)
            key = (rng.randint(1, limit + 1), rng.randint(1, limit + 1))
            table[key] = value
        else:
            table[key] = rng.randint(1, limit)
        yield _mutate(base, **{field: table}), rng.random() < 0.5
    for _ in range(40):
        pairs = set(base.leq)
        a = rng.choice(base.cells)
        b = rng.choice(base.cells)
        pairs.symmetric_difference_update({(a, b)})
        yield _mutate(base, leq=frozenset(pairs)), False


def test_validator_total_on_random_mutations(clifford3):
    """validate_dig reports on corrupted structures instead of crashing, also
    where a value or a key of a table leaves its carrier."""
    mutations = list(_random_mutations(dig_from_dis(DoubleSemigroup(clifford3, clifford3))))
    tags = set()
    for mutated, strict_ix in mutations[:160]:
        rep = validate_dig(mutated, strict_ix=strict_ix)
        assert rep is not None
        tags.update(v.axiom for v in rep.violations)
    assert {"range.meet_h", "range.meet_v", "range.h_restrict"} <= tags
    for mutated, strict_ix in mutations[160:]:
        rep = validate_dig(mutated, strict_ix=strict_ix)
        assert rep is not None


@functools.cache
def _double_inverse_groupoids():
    """The double groupoid of each of the 301 double inverse pairs of order <= 4."""
    pairs = [pair for n in (1, 2, 3, 4) for pair in labeled_pairs(search_double(n, "inverse"))]
    assert len(pairs) == 301
    return [dig_from_dis(DoubleSemigroup(hop, vop)) for hop, vop in pairs]


def test_driven_rows_match_the_full_product(clifford3, monkeypatch):
    # a driven row skips only tuples at which a table that one of its sides
    # reads is undefined, which are vacuous, so the reports equal those of the
    # same rows run over the full product: the same violations in the same
    # order, and the same counts
    inputs = [(g, strict_ix) for g in _double_inverse_groupoids() for strict_ix in (False, True)]
    inputs += [(g, strict_ix)
               for g, _ in _random_mutations(dig_from_dis(DoubleSemigroup(clifford3, clifford3)))
               for strict_ix in (False, True)]

    def reports():
        # a fresh copy of each groupoid, so that its views are validated again
        return [json.dumps(validate_dig(_mutate(g), strict_ix).as_json()) for g, strict_ix in inputs]

    driven = reports()
    assert any(row.drive for row, _ in dbl._CELL_ROWS) and any(row.drive for row in esn._ROWS)
    monkeypatch.setattr(dbl, "_CELL_ROWS", tuple(
        (replace(row, drive=None), twin and replace(twin, drive=None))
        for row, twin in dbl._CELL_ROWS))
    monkeypatch.setattr(esn, "_ROWS", tuple(replace(row, drive=None) for row in esn._ROWS))
    assert reports() == driven


def _presheaf_of_twelve_cells():
    """Z2 below Z6 and Z4 on the semilattice 1 < 2, 1 < 3, each hom reduction mod 2."""
    def cyclic(n):
        carrier = tuple(range(1, n + 1))
        op = {(a, b): (a + b - 2) % n + 1 for a in carrier for b in carrier}
        return FiniteAbelianGroup(carrier, op, 1, {a: (1 - a) % n + 1 for a in carrier})

    leq = frozenset({(1, 1), (2, 2), (3, 3), (1, 2), (1, 3)})
    meet = {(a, b): a if a == b else 1 for a in (1, 2, 3) for b in (1, 2, 3)}
    groups = {1: cyclic(2), 2: cyclic(6), 3: cyclic(4)}
    hom = {(a, b): {x: x if a == b else (x - 1) % 2 + 1 for x in groups[b].carrier}
           for a, b in leq}
    return AbelianGroupPresheaf(MeetSemilattice((1, 2, 3), leq, meet), groups, hom)


def test_split_and_meets_match_the_lookup_oracle(clifford3, monkeypatch):
    from conftest import split_and_meets_oracle

    composed = dig_from_dis(compose(_presheaf_of_twelve_cells()))
    assert len(composed.cells) == 12
    # corrupted groupoids whose views can be built, let past the validity
    # check, give violations and vacuous checks too
    base = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    corrupted = [g for g, _ in _random_mutations(base) if not any(
        v.axiom.startswith(("range.", "emb.")) for v in validate_dig(g).violations)]
    assert len(corrupted) == 145
    # corruptions of composed, whose edge keys group many pairs each, so a wrong
    # order within a key group shows in the witness order
    grouped = [g for g, _ in _random_mutations(composed) if not any(
        v.axiom.startswith(("range.", "emb.")) for v in validate_dig(g).violations)]
    assert len(grouped) == 118
    monkeypatch.setattr(DoubleInductiveGroupoid, "report", ValidationReport())
    tags = ("split.h.i", "split.h.ii", "meets.i", "meets.ii")
    checked = [*_double_inverse_groupoids(), composed, *corrupted]
    failing = {0: set(), 1: set()}  # the tags of the violations in grouped, by direction
    for k, g in enumerate(checked + grouped):
        h, v = g.views
        directions = (((h, v), (0, 1, 2, 3)), ((v, h), (0, 2, 1, 3)))
        for direction, (sides, order) in enumerate(directions):
            pieces = pseudo_products(sides[0])
            fast, slow = ValidationReport(), ValidationReport()
            dbl._check_split_and_meets(*sides, pieces, fast, (tags, order))
            split_and_meets_oracle(*sides, pieces, slow, tags, order)
            assert fast.as_json() == slow.as_json()
            for tag in tags:
                assert fast.substantive.get(tag, 0) + fast.vacuous.get(tag, 0) == len(g.cells) ** 4
            if k >= len(checked):
                failing[direction] |= {violation.axiom for violation in fast.violations}
    assert failing == {0: set(tags), 1: set(tags)}
    monkeypatch.undo()
    rep = verify_interchange_identities(composed)
    assert rep.ok
    assert rep.substantive == {
        tag: 12 ** 4
        for tag in ("interchange.products", "split.h.i", "split.h.ii", "split.v.i",
                    "split.v.ii", "meets.i", "meets.ii", "meets.iii", "meets.iv")
    }
    assert rep.vacuous == {}


def test_views_are_the_esn_groupoids_of_the_two_operations(clifford3):
    # the shared pseudo-product rests on this: the two views of dig_from_dis(d)
    # are the inductive groupoids of d's operations, so dis_from_dig is
    # is_from_ig of each view
    pairs = [pair for n in (1, 2, 3) for pair in labeled_pairs(search_double(n, "inverse"))]
    assert len(pairs) == 29
    for hop, vop in pairs + [(clifford3, clifford3)]:
        d = DoubleSemigroup(hop, vop)
        g = dig_from_dis(d)
        cls = d.classification
        assert g.views == (ig_from_is(cls.hop_analysis), ig_from_is(cls.vop_analysis))
        back = dis_from_dig(g)
        assert (back.hop, back.vop) == tuple(is_from_ig(view).table for view in g.views)


def test_dig_from_view_inverts_the_one_view():
    presheaves = [dig_from_presheaf(load_presheaf(name))
                  for name in ("point_z2_presheaf.json", "clifford3_presheaf.json")]
    for g in [*_double_inverse_groupoids(), *presheaves]:
        assert dig_equal(dig_from_view(one_view(g), dis_from_dig(g)), g)


def _inverse_tables(b2):
    """Every labeled inverse table of order <= 4, the least table of each
    inverse class of order 5, and every labeled table of the class of B2."""
    tables = [CayleyTable(T) for n in (1, 2, 3, 4) for H, aut in _classes(n, "inverse")
              for T, _ in _orbit(H, aut, relabelings(n))]
    classes = _classes(5, "inverse")
    assert (len(tables), len(classes)) == (301, 52)
    (least, aut), = [(H, aut) for H, aut in classes if not is_commutative(CayleyTable(H))]
    orbit = [CayleyTable(T) for T, _ in _orbit(least, aut, relabelings(5))]
    assert len(orbit) == 60 and b2 in orbit
    return tables + [CayleyTable(H) for H, _ in classes] + orbit


def _certified(h, pair):
    try:
        certify_view(h, pair)
    except TheoremViolation:
        return False
    return True


def test_a_built_double_groupoid_is_valid_exactly_when_its_certificate_holds(b2):
    # the characterisation that lets dig_from_view certify what it builds
    # instead of validating it: on the ESN groupoid h of an inverse table t,
    # the double groupoid both of whose views are h, assembled without
    # dig_from_view, passes validate_dig exactly when h passes the certificate
    # and exactly when t is commutative; where they hold, dig_from_view builds it
    commutative = []
    for t in _inverse_tables(b2):
        h = groupoid_of(analyze_inverse(t))
        g = dig_of_view(h)
        commutative.append(bool(is_commutative(t)))
        assert validate_dig(g).ok == _certified(h, DoubleSemigroup(t, t)) == commutative[-1], t.rows
        if commutative[-1]:
            assert dig_from_view(h, DoubleSemigroup(t, t)) == g and g.certificate is None
    assert commutative.count(True) == 301 + 51 and commutative.count(False) == 1 + 60


def _built_double_groupoids():
    """Every double groupoid built from a bundled fixture, from the
    presheaves of the tests and from their one views: (name, value)."""
    built = []
    for path in sorted(fixture_dir().glob("*.cay")):
        try:
            d = load_pair(path.name)
        except ParseError:  # a single table, taken as both operations
            d = DoubleSemigroup(*[load_table(path.name)] * 2)
        if d.classification.is_double_inverse_semigroup:
            built.append((path.name, dig_from_dis(d)))
    presheaves = [(name, load_presheaf(name))
                  for name in ("point_z2_presheaf.json", "clifford3_presheaf.json")]
    presheaves.append(("twelve cells", _presheaf_of_twelve_cells()))
    built += [(f"presheaf {name}", dig_from_presheaf(p)) for name, p in presheaves]
    built += [(f"view of {name}", dig_from_view(one_view(g), g.certificate))
              for name, g in built]
    return built


def test_every_built_double_groupoid_passes_the_full_check():
    # validate_dig stays the oracle of every construction: the certificate a
    # built value carries in its place must never vouch for an invalid one
    built = _built_double_groupoids()
    assert sorted(name for name, _ in built if "presheaf" not in name and "view" not in name) == [
        "chain3.cay", "clifford3_pair.cay", "z2_pair.cay"]
    assert len(built) == 12
    for name, g in built:
        assert g.certificate is not None and g.report.ok, name
        assert validate_dig(g, strict_ix=True).ok, name
        assert dis_from_dig(g) == DoubleSemigroup(*[g.certificate.hop] * 2), name


def test_a_certificate_is_not_copied(clifford3):
    # only the value dig_from_view assembles is certified: a copy, a transpose
    # or the value read back from its JSON is validated in full when read
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    assert g.certificate == DoubleSemigroup(clifford3, clifford3)
    for other in (_mutate(g), transpose(g), dig_from_json(dig_to_json(g)), replace(g)):
        assert other == g and other.certificate is None


def test_substantive_families_on_two_object_fixture(clifford3):
    g = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    families = validate_dig(g).substantive_by_family()
    for family in ("iii", "iv", "v", "vi", "vii", "viii", "ix"):
        assert families.get(family, 0) >= 1, family


def _cells_witnesses(tag, *quads):
    return [(tag, tuple(int(x) for x in q)) for q in quads]


_BOUNDARY_PINS = (
    ("hcompose", (2, 3), 2, _cells_witnesses("interchange.cells",
                                             "2332", "2333", "3223", "3233", "3323", "3332")),
    ("hcompose", (2, 2), 3, [
        *_cells_witnesses("boundary.hcomp-vcod", "22", "23", "32", "33"),
        *_cells_witnesses("boundary.hcomp-vdom", "22", "23", "32", "33"),
        ("boundary.hor-closed", (2, 2)),
        *_cells_witnesses("interchange.cells", "2222", "2223", "2232", "2233", "2322", "2323",
                          "3222", "3232", "3322", "3333")]),
    ("vcompose", (2, 2), 3, [
        *_cells_witnesses("boundary.vcomp-hcod", "22", "23", "32", "33"),
        *_cells_witnesses("boundary.vcomp-hdom", "22", "23", "32", "33"),
        ("boundary.ver-closed", (2, 2)),
        *_cells_witnesses("interchange.cells", "2222", "2223", "2232", "2233", "2322", "2323",
                          "3222", "3232", "3322", "3333")]),
    # None deletes the entry, so an interchange side is undefined, which fails
    ("vcompose", (3, 3), None, _cells_witnesses("interchange.cells", "2332", "3223")),
    ("hdom", 3, 1, [*_cells_witnesses("boundary.corner", "30", "32"),
                    *_cells_witnesses("boundary.vcomp-hdom", "23", "32", "33")]),
    ("hcod", 3, 1, [*_cells_witnesses("boundary.corner", "31", "33"),
                    *_cells_witnesses("boundary.vcomp-hcod", "23", "32", "33")]),
    ("vdom", 3, 1, [*_cells_witnesses("boundary.corner", "30", "31"),
                    *_cells_witnesses("boundary.hcomp-vdom", "23", "32", "33")]),
    # every arrow of the fixture is an object's identity arrow, so a corrupt
    # endpoint stops the validator at the embeddings, before the boundary rows
    ("ver_src", 2, 1, []),
    ("hor_dst", 2, 1, []),
)


@pytest.mark.parametrize("field, key, value, expected", _BOUNDARY_PINS)
def test_boundary_and_cell_interchange_witnesses_of_corruptions(field, key, value, expected):
    # recorded before the boundary and cell-interchange loops were stated as rows
    g = dig_from_dis(load_pair("clifford3_pair.cay"))
    table = {k: v for k, v in {**getattr(g, field), key: value}.items() if v is not None}
    for strict_ix in (False, True):
        rep = validate_dig(_mutate(g, **{field: table}), strict_ix)
        found = sorted((v.axiom, v.witness) for v in rep.violations
                       if v.axiom.startswith(("boundary.", "interchange.cells")))
        assert found == expected
        assert not rep.ok


def _load_dig(name):
    return dig_from_json(json.loads((DATA / name).read_text()))


def test_iii_and_ix_witnesses_where_dom_and_cod_differ():
    # In a valid double groupoid every cell has dom = cod, so a right-hand side
    # of (iii) or (ix) that reads one for the other, or one vertical identity for
    # another, agrees there. The file holds the double groupoid whose views are
    # those of B2 and of B2 with 1 and 3 exchanged, not validated when written:
    # its cells 2 and 3 have dom and cod apart, and these witnesses pin those sides.
    g = _load_dig("b2_two_views.dig.json")
    assert [a for a in g.cells if g.hdom[a] != g.hcod[a]] == [2, 3]
    expected = [
        *_cells_witnesses("iii.a", "2151", "2551"), *_cells_witnesses("iii.b", "2353", "2553"),
        *_cells_witnesses("iii.c", "1412", "1442"), *_cells_witnesses("iii.d", "3432", "3442"),
        ("ix.b", (3, 1)), ("ix.c", (1, 3)), ("ix.f", (1, 3)),
        *_cells_witnesses("ix.g", "31", "32", "33", "34", "35"),
    ]
    for strict_ix in (False, True):
        rep = validate_dig(g, strict_ix)
        found = sorted((v.axiom, v.witness) for v in rep.violations
                       if v.axiom.startswith(("iii.", "ix.")))
        assert found == sorted(expected + [("ix.g-strict", (3, 1))] * strict_ix)


def test_violations_of_the_diagonal_b2_groupoid():
    # Both views are the ESN groupoid of B2, which is not Clifford, so cells 2
    # and 3 have dom and cod apart while the two directions agree; the file was
    # written without validation. The whole violation list is pinned, so a
    # misread row that changes any verdict on this input fails here.
    g = _load_dig("b2_diagonal.dig.json")
    assert [a for a in g.cells if g.hdom[a] != g.hcod[a]] == [2, 3]
    assert transpose(g) == g
    expected = [
        *_cells_witnesses("boundary.corner", "21", "22", "31", "32"),
        *_cells_witnesses("boundary.hcomp-vcod", "23", "32", "42", "53"),
        *_cells_witnesses("boundary.hcomp-vdom", "23", "25", "32", "34"),
        *_cells_witnesses("boundary.vcomp-hcod", "23", "32", "42", "53"),
        *_cells_witnesses("boundary.vcomp-hdom", "23", "25", "32", "34"),
        *_cells_witnesses("interchange.cells",
                          "2332", "2334", "3223", "3225", "4223", "4225", "5332", "5334"),
    ]
    for strict_ix in (False, True):
        rep = validate_dig(g, strict_ix)
        assert sorted((v.axiom, v.witness) for v in rep.violations) == expected
        assert rep.notes == []


def test_validate_dig_counts_of_the_fixture():
    # recorded before the validators were stated as rows; the rows must keep them
    rep = validate_dig(dig_from_dis(load_pair("clifford3_pair.cay")), strict_ix=True)
    assert rep.substantive == {
        "i.i": 5, "i.ii": 9, "i.iii": 5, "i.iv": 5, "i.meet": 4,
        "ii.i": 5, "ii.ii": 9, "ii.iii": 5, "ii.iv": 5, "ii.meet": 4,
        "boundary.hcomp-vdom": 5, "boundary.hcomp-vcod": 5,
        "boundary.vcomp-hdom": 5, "boundary.vcomp-hcod": 5, "interchange.cells": 17,
        "iii.a": 9, "iii.b": 9, "iii.c": 9, "iii.d": 9, "iv.a": 4, "iv.b": 4,
        "v.a": 9, "v.b": 9, "v.c": 9, "v.d": 9, "vi.a": 9, "vi.b": 9, "vi.c": 9, "vi.d": 9,
        "vii": 16, "viii.a": 4, "viii.b": 4, "viii.c": 4, "viii.d": 4,
        "ix.a": 5, "ix.b": 5, "ix.c": 5, "ix.d": 5, "ix.e": 5, "ix.f": 5, "ix.g": 5,
        "ix.g-strict": 5, "ix.h": 5,
    }
    assert rep.vacuous == {
        "i.ii": 16, "ii.ii": 16, "iii.a": 27, "iii.b": 27, "iii.c": 27, "iii.d": 27,
        "iv.a": 12, "iv.b": 12, "v.a": 7, "v.b": 7, "v.c": 7, "v.d": 7,
        "vi.a": 3, "vi.b": 3, "vi.c": 3, "vi.d": 3,
        "ix.a": 1, "ix.b": 1, "ix.c": 1, "ix.d": 1, "ix.e": 1, "ix.f": 1, "ix.g": 1,
        "ix.g-strict": 1, "ix.h": 1,
    }


def test_a_self_transposed_groupoid_has_one_view(clifford3, monkeypatch):
    # a double groupoid that is its own transpose, also one read from JSON with
    # equal but distinct tables, has one view, validated once per validate_dig;
    # the two-views file is not its own transpose and keeps two views
    calls = []
    monkeypatch.setattr(esn, "validate_ig", lambda g, check=esn.validate_ig: (
        calls.append(g), check(g))[1])
    one = [dig_from_dis(DoubleSemigroup(clifford3, clifford3)), _load_dig("b2_diagonal.dig.json")]
    for g in [*one, dig_from_json(json.loads(json.dumps(dig_to_json(one[0]))))]:
        g = _mutate(g)  # a fresh copy, whose views are not built yet
        calls.clear()
        validate_dig(g)
        assert len(calls) == 1 and g.views[0] is g.views[1]
    g = _load_dig("b2_two_views.dig.json")
    assert transpose(g) != g
    calls.clear()
    validate_dig(g)
    assert len(calls) == 2 and g.views[0] is not g.views[1] and g.views[0] != g.views[1]


def _symmetric_mutations(base, count, seed):
    """count seeded corruptions of base, its own transpose, that edit a table
    and its twin alike, so each is still its own transpose: a value of a table
    moved, possibly out of its carrier, or a pair of the two orders flipped."""
    rng = random.Random(seed)
    twins = (("hcompose", "vcompose"), ("meet_h", "meet_v"), ("hinv", "vinv"),
             ("h_restrict", "v_restrict"), ("h_corestrict", "v_corestrict"),
             ("hdom", "vdom"), ("hcod", "vcod"), ("leq", "lesssim"))
    for _ in range(count):
        field, twin = rng.choice(twins)
        table = getattr(base, field)
        if isinstance(table, frozenset):
            table = table ^ {(rng.choice(base.cells), rng.choice(base.cells))}
        else:
            table = dict(table)
            table[rng.choice(sorted(table))] = rng.randint(1, len(base.cells) + 1)
        mutated = _mutate(base, **{field: table, twin: table})
        assert transpose(mutated) == mutated
        yield mutated


def _self_transposed_corpus(clifford3):
    """(corpus, corrupted): double groupoids that are their own transpose, the
    double groupoid of clifford3, the diagonal B2 file, every seventh of the
    301 of order <= 4, and the 120 seeded symmetric corruptions of the first
    two, which are corrupted."""
    base = dig_from_dis(DoubleSemigroup(clifford3, clifford3))
    diagonal = _load_dig("b2_diagonal.dig.json")
    corrupted = [*_symmetric_mutations(base, 60, 28), *_symmetric_mutations(diagonal, 60, 29)]
    return [base, diagonal, *_double_inverse_groupoids()[::7], *corrupted], corrupted


def _views_can_be_built(g):
    return not any(v.axiom.startswith(("range.", "emb.")) for v in validate_dig(g).violations)


def test_one_view_reports_equal_the_two_view_reports(clifford3, monkeypatch):
    # on a double groupoid that is its own transpose, the twin rows and the
    # vertical interchange identities are copied from their horizontal results;
    # the reports must equal those of the two-sided path, which builds the
    # vertical view from the transpose as its own object
    corpus, corrupted = _self_transposed_corpus(clifford3)

    def reports():
        out = []
        for g in corpus:  # fresh copies, so that nothing is kept from the other path
            out += [validate_dig(_mutate(g), strict_ix).as_json() for strict_ix in (False, True)]
            out.append(verify_interchange_identities(_mutate(g)).as_json())
        # the vertical identities of corrupted groupoids whose views can be built,
        # let past the validity check that would otherwise stop the run
        with monkeypatch.context() as patch:
            patch.setattr(DoubleInductiveGroupoid, "report", ValidationReport())
            out += [verify_interchange_identities(_mutate(g)).as_json() for g in corrupted
                    if _views_can_be_built(g)]
        return out

    one_sided = reports()
    monkeypatch.setattr(DoubleInductiveGroupoid, "views", property(
        lambda g: (dbl._horizontal_view(g), dbl._horizontal_view(transpose(g)))))
    assert reports() == one_sided
    derived = {v["axiom"] for rep in one_sided for v in rep["violations"]}
    assert {"iii.b", "ix.e", "boundary.vcomp-hdom", "ix.g-strict", "split.v.i", "meets.iii",
            "meets.iv"} <= derived


def test_interchange_products_match_the_lookup_oracle(clifford3, monkeypatch):
    # the row-at-a-time interchange kernel against the dict-keyed loop it
    # replaced, on the corpus above, also let past the validity check, where a
    # pseudo-product can be undefined, and on the two-views file
    from conftest import interchange_products_oracle

    corpus, corrupted = _self_transposed_corpus(clifford3)
    corpus.append(_load_dig("b2_two_views.dig.json"))

    def agree(g):
        fast, slow = verify_interchange_identities(g), ValidationReport()
        interchange_products_oracle(*g.views, slow)
        tag = "interchange.products"
        assert [v for v in fast.violations if v.axiom == tag] == slow.violations
        assert (fast.substantive[tag], fast.vacuous.get(tag)) == (len(g.cells) ** 4, None)
        return bool(slow.violations)

    assert not any(agree(_mutate(g)) for g in corpus if validate_dig(g).ok)
    monkeypatch.setattr(DoubleInductiveGroupoid, "report", ValidationReport())
    checked = [_mutate(g) for g in corpus if _views_can_be_built(g)]
    undefined = [g for g in checked
                 if any(p[3] is None for view in g.views for p in pseudo_products(view).values())]
    failing = [g for g in checked if agree(g)]
    assert (len(checked), len(undefined), len(failing)) == (119, 19, 49)
