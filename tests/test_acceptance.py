"""The acceptance gate: every release-blocking claim, each printed as one
pass/fail line with its runtime. Run with `pytest -s tests/test_acceptance.py`
to see the lines; the asserts enforce the stated budgets and exact values."""

import io
import json
import time
from contextlib import contextmanager

import pytest

from conftest import (
    B2_TEXT,
    dig_equal,
    labeled_pairs,
    left_projection,
    naive_enumerate,
    right_projection,
)
from esnlab.cli import main as cli_main
from esnlab.double import (
    DoubleSemigroup,
    dig_from_dis,
    one_view,
    validate_dig,
    verify_interchange_identities,
)
from esnlab.esn import ig_from_is, pseudo_product_table, semigroup_roundtrip
from esnlab.fixtures import load_pair, load_presheaf
from esnlab.inverse import analyze_inverse, hasse_covers, idempotent_meet, is_clifford
from esnlab.presheaf import (
    component_groups,
    compose,
    decompose,
    presheaf_equal,
)
from esnlab.search import (
    canonical_pair,
    enumerate_semigroups,
    search_double,
    tables_matching,
)
from esnlab.tables import canonical_form, is_commutative, parse_table

AXIOM_FAMILIES = ("iii", "iv", "v", "vi", "vii", "viii", "ix")


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def b2_table():
    return parse_table(B2_TEXT)


@pytest.fixture(scope="module")
def inverse_pairs_by_order():
    return {n: search_double(n, "inverse", jobs=2) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def digs_by_order(inverse_pairs_by_order):
    return {
        n: [
            (DoubleSemigroup(h, v), dig_from_dis(DoubleSemigroup(h, v)))
            for h, v in labeled_pairs(report)
        ]
        for n, report in inverse_pairs_by_order.items()
    }


def test_criterion_1_golden_fixture(b2_table):
    with criterion(1, "golden-fixture", 1.0):
        analysis = analyze_inverse(b2_table)
        assert analysis.idempotent_set == (1, 4, 5)
        assert analysis.inverse_map == (1, 3, 2, 4, 5)
        g = ig_from_is(analysis)
        assert (g.dom[2], g.cod[2]) == (4, 5)
        assert (g.dom[3], g.cod[3]) == (5, 4)
        assert hasse_covers(analysis) == ((1, 4), (1, 5))
        assert not analysis.leq_holds(4, 5) and not analysis.leq_holds(5, 4)
        assert idempotent_meet(analysis, 4, 5) == 1


def test_criterion_2_esn_roundtrip(b2_table):
    with criterion(2, "esn-roundtrip", 60.0):
        assert semigroup_roundtrip(b2_table, ig_from_is(analyze_inverse(b2_table)))
        count = 0
        for n in (1, 2, 3, 4):
            for t in tables_matching(n, "inverse"):
                assert semigroup_roundtrip(t, ig_from_is(analyze_inverse(t))), t.rows
                count += 1
        assert count == 1 + 4 + 24 + 272


def test_criterion_3_order5_uniqueness(b2_table):
    with criterion(3, "order-5-noncommutative-uniqueness", 20.0):
        report = enumerate_semigroups(5, "noncommutative-inverse", jobs=2)
        assert report.class_count == 1
        [rep] = report.representatives
        assert rep.rows == canonical_form(b2_table).rows
        assert report.labeled_count == 60


def test_criterion_4_main_theorem_sweep(inverse_pairs_by_order):
    with criterion(4, "double-inverse-pairs-improper", 600.0):
        for n, report in inverse_pairs_by_order.items():
            assert report.pair_count >= 1, n
            assert report.proper_pair_count == 0, n
            assert report.claims["all_improper"]
            assert report.claims["all_commutative"]
            assert report.claims["all_clifford"]
            for hop, vop in labeled_pairs(report):
                assert hop.rows == vop.rows
                assert is_commutative(hop)
                assert is_clifford(analyze_inverse(hop))


def test_criterion_5_proper_double_semigroups_exist():
    with criterion(5, "proper-pairs-at-order-2", 60.0):
        report = search_double(2, "semigroup")
        assert report.proper_pair_count >= 1
        expected = canonical_pair(left_projection(2), right_projection(2))
        assert expected in {(h.rows, v.rows) for h, v in report.proper_representatives}


def test_criterion_6_double_roundtrips(digs_by_order):
    with criterion(6, "double-roundtrips", 300.0):
        for n, entries in digs_by_order.items():
            for d, g in entries:
                back = DoubleSemigroup(*[pseudo_product_table(one_view(g))] * 2)
                assert back.hop.rows == d.hop.rows and back.vop.rows == d.vop.rows
                assert dig_equal(dig_from_dis(back), g)


def test_criterion_7_axiom_sweeps(digs_by_order):
    with criterion(7, "axiom-and-interchange-verification", 300.0):
        for n, entries in digs_by_order.items():
            for d, g in entries:
                rep = validate_dig(g, strict_ix=True)
                assert rep.ok, (n, d.hop.rows, rep.summary())
                assert not rep.notes
                appb = verify_interchange_identities(g)
                assert appb.ok, (n, d.hop.rows, appb.summary())
        two_objects = dig_from_dis(load_pair("clifford3_pair.cay"))
        assert len(two_objects.objects) >= 2
        families = validate_dig(two_objects).substantive_by_family()
        for family in AXIOM_FAMILIES:
            assert families.get(family, 0) >= 1, family


def test_criterion_8_presheaf_pipeline(digs_by_order):
    with criterion(8, "presheaf-pipeline", 300.0):
        for n, entries in digs_by_order.items():
            for d, g in entries:
                h, v = g.views
                assert h == v
                component_groups(g)  # raises if any component misbehaves
                p, report = decompose(d)
                assert report.improper and report.clifford
                back = compose(p)
                assert back.hop.rows == d.hop.rows and back.vop.rows == d.vop.rows
        for name in ("point_z2_presheaf.json", "clifford3_presheaf.json"):
            p = load_presheaf(name)
            p2, _ = decompose(compose(p))
            assert presheaf_equal(p, p2)


def test_criterion_9_oracle_equivalence():
    with criterion(9, "naive-oracle-equivalence", 60.0):
        for n in (1, 2, 3):
            report = enumerate_semigroups(n, "all")
            count, canon = naive_enumerate(n, "all")
            assert report.labeled_count == count
            assert frozenset(t.rows for t in report.representatives) == canon


def _cli_json(argv):
    out = io.StringIO()
    code = cli_main(argv, stream=out)
    doc = json.loads(out.getvalue())
    doc.pop("timing_ms", None)
    return code, json.dumps(doc, indent=2, sort_keys=True).encode()


def test_criterion_10_determinism():
    with criterion(10, "deterministic-reports", 600.0):
        for base in (
            ["search", "--order", "3", "--class", "inverse", "--pairs", "--format", "json"],
            ["search", "--order", "4", "--class", "inverse", "--pairs", "--format", "json"],
            ["golden-suite", "--format", "json"],
        ):
            code1, first = _cli_json(base + ["--jobs", "1"])
            code8, second = _cli_json(base + ["--jobs", "8"])
            assert code1 == code8 == 0
            assert first == second, base
            code1b, repeat = _cli_json(base + ["--jobs", "1"])
            assert repeat == first


def test_criterion_11_order5_inverse_pairs():
    with criterion(11, "order-5-double-inverse-pairs", 20.0):
        report = search_double(5, "inverse", jobs=2)
        assert (report.pair_count, report.class_count) == (4065, 51)
        assert report.proper_pair_count == 0
        assert all(report.claims.values()), report.claims
        assert report.class_count == enumerate_semigroups(5, "commutative-inverse").class_count
        base = ["search", "--order", "5", "--class", "inverse", "--pairs", "--format", "json"]
        code1, first = _cli_json(base + ["--jobs", "1"])
        code2, second = _cli_json(base + ["--jobs", "2"])
        assert code1 == code2 == 0
        assert first == second
