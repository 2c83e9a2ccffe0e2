"""Bundled data files and the golden replay suite over them."""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import double as dbl
from . import esn, inverse, presheaf, search, tables
from .errors import EsnlabError, ParseError, TheoremViolation
from .report import Verdict


def fixture_dir() -> Path:
    override = os.environ.get("ESNLAB_FIXTURES")
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def fixture_path(name) -> Path:
    path = fixture_dir() / name
    if not path.exists():
        raise ParseError(f"fixture {name} not found under {fixture_dir()}")
    return path


def load_table(name) -> tables.CayleyTable:
    return tables.parse_table(fixture_path(name).read_text())


def load_pair(name) -> dbl.DoubleSemigroup:
    hop, vop = tables.parse_double(fixture_path(name).read_text())
    return dbl.DoubleSemigroup(hop, vop)


def load_groupoid(name) -> esn.InductiveGroupoid:
    return esn.groupoid_from_json(json.loads(fixture_path(name).read_text()))


def load_presheaf(name) -> presheaf.AbelianGroupPresheaf:
    return presheaf.presheaf_from_json(json.loads(fixture_path(name).read_text()))


def golden_suite(jobs=1):
    """Replay every bundled fixture; returns (name, Verdict) pairs in a fixed
    order. A fixture that parses but fails a mathematical claim becomes a
    failed check; an unreadable fixture raises ParseError."""
    checks = []

    def check(name, ok, witness=None):
        checks.append((name, Verdict(bool(ok), witness)))

    def brandt():
        b2 = load_table("brandt_b2.cay")
        check("b2.product-2-3", b2.product(2, 3) == 4)
        check("b2.product-5-2", b2.product(5, 2) == 1)
        check("b2.associative", tables.is_associative(b2))
        check("b2.regular", tables.is_regular(b2))
        comm = tables.is_commutative(b2)
        check("b2.noncommutative", not comm, comm.witness)
        check("b2.idempotents", tables.idempotents(b2) == (1, 4, 5))
        analysis = inverse.analyze_inverse(b2)
        check("b2.inverses", analysis.inverse_map == (1, 3, 2, 4, 5))
        check(
            "b2.natural-order",
            analysis.leq_holds(1, 4)
            and analysis.leq_holds(1, 5)
            and not analysis.leq_holds(4, 5)
            and not analysis.leq_holds(5, 4)
            and analysis.below(2) == (1, 2),
        )
        check("b2.hasse", inverse.hasse_covers(analysis) == ((1, 4), (1, 5)))
        check("b2.meet-4-5", inverse.idempotent_meet(analysis, 4, 5) == 1)
        cliff = inverse.is_clifford(analysis)
        check("b2.not-clifford", not cliff and cliff.witness == (2,))
        g = esn.ig_from_is(analysis)
        check(
            "b2.groupoid",
            g.objects == (1, 4, 5)
            and g.dom[2] == 4
            and g.cod[2] == 5
            and g.dom[3] == 5
            and g.cod[3] == 4,
        )
        check("b2.roundtrip", esn.semigroup_roundtrip(b2, g))
        self_inter = dbl.check_interchange(b2, b2)
        check("b2.self-interchange-fails", not self_inter, self_inter.witness)

    def partial_bijections():
        pb = load_groupoid("partial_bijections_2.json")
        check("partial-bijections.valid", esn.validate_ig(pb))
        analysis = esn.is_from_ig(pb)
        check("partial-bijections.roundtrip", esn.groupoid_roundtrip(pb, analysis))
        check(
            "partial-bijections.semigroup",
            analysis.table == load_table("partial_bijections_2.sgp.cay"),
        )

    def projections():
        proj = load_pair("projection_pair.cay")
        cls = proj.classification
        check("projections.double-semigroup", cls.is_double_semigroup)
        check("projections.proper", dbl.is_proper(proj))
        check("projections.not-double-inverse", not cls.is_double_inverse_semigroup)

    def z2_pair():
        z2 = load_pair("z2_pair.cay")
        check("z2.double-inverse", z2.classification.is_double_inverse_semigroup)
        check("z2.improper", not dbl.is_proper(z2))
        gz = dbl.dig_from_dis(z2)
        check("z2.dig-shape", len(gz.objects) == 1 and len(gz.cells) == 2)
        back = dbl.dis_from_dig(dbl.dig_from_json(dbl.dig_to_json(gz)))
        check(
            "z2.roundtrip",
            dbl.roundtrip_double(z2, back) and dbl.roundtrip_dig(gz, dbl.dig_from_dis(back)),
        )
        pz, _ = presheaf.decompose(z2)
        check(
            "z2.presheaf",
            len(pz.base.elements) == 1
            and pz.group_at[pz.base.elements[0]].order == 2,
        )
        check(
            "z2.presheaf-matches-fixture",
            presheaf.presheaf_equal(pz, load_presheaf("point_z2_presheaf.json")),
        )

    def clifford3():
        c3 = load_pair("clifford3_pair.cay")
        gc = dbl.dig_from_dis(c3)
        check("clifford3.dig-valid", gc.report)
        check("clifford3.orders-coincide", gc.views[0] == gc.views[1])
        comps = presheaf.component_groups(gc)
        check(
            "clifford3.components",
            sorted(grp.order for grp in comps.values()) == [1, 2],
        )
        check(
            "clifford3.interchange-identities",
            dbl.verify_interchange_identities(gc),
        )
        pc = presheaf.presheaf_from_dig(gc)
        check(
            "clifford3.presheaf-matches-fixture",
            presheaf.presheaf_equal(pc, load_presheaf("clifford3_presheaf.json")),
        )
        recomposed = presheaf.compose(load_presheaf("clifford3_presheaf.json"))
        check(
            "clifford3.compose-fixture",
            recomposed.hop == c3.hop and recomposed.vop == c3.vop,
        )

    def chain3():
        chain = load_table("chain3.cay")
        gch = dbl.dig_from_dis(dbl.DoubleSemigroup(chain, chain))
        check("chain3.dig-shape", len(gch.objects) == 3 and len(gch.cells) == 3)
        check(
            "chain3.trivial-components",
            all(grp.order == 1 for grp in presheaf.component_groups(gch).values()),
        )

    def nonassociative():
        bad = load_table("nonassociative2.cay")
        verdict = tables.is_associative(bad)
        check("nonassociative2.rejected", not verdict, verdict.witness)

    def searches():
        proj = load_pair("projection_pair.cay")
        pairs2 = search.search_double(2, "semigroup", jobs=jobs)
        check("search.order2-proper-pairs", pairs2.proper_pair_count > 0)
        check(
            "search.order2-projection-pair",
            search.canonical_pair(proj.hop, proj.vop)
            in {(h.rows, v.rows) for h, v in pairs2.proper_representatives},
        )
        inv2 = search.search_double(2, "inverse", jobs=jobs)
        check(
            "search.order2-inverse-pairs",
            inv2.pair_count > 0 and inv2.proper_pair_count == 0,
        )

    sections = [
        ("b2", brandt),
        ("partial-bijections", partial_bijections),
        ("projections", projections),
        ("z2", z2_pair),
        ("clifford3", clifford3),
        ("chain3", chain3),
        ("nonassociative2", nonassociative),
        ("search", searches),
    ]
    for name, body in sections:
        try:
            body()
        except (ParseError, TheoremViolation):
            raise
        except EsnlabError as exc:
            check(f"{name}.error", False, (str(exc),))
    return checks
