from dataclasses import replace

import pytest

from conftest import all_tables, chain_semilattice, cyclic_group, left_projection, table
from esnlab.errors import (
    NonUniqueInverseError,
    NotASemigroupError,
    NotIdempotentError,
    OrderAxiomViolation,
    TheoremViolation,
)
from esnlab.inverse import (
    analyze_inverse,
    analysis_to_json,
    characterize_inverse,
    generalized_inverses,
    hasse_covers,
    hasse_dot,
    idempotent_meet,
    is_clifford,
    natural_partial_order,
)
from esnlab.tables import is_associative


def test_analyze_brandt(b2):
    a = analyze_inverse(b2)
    assert a.inverse_map == (1, 3, 2, 4, 5)
    assert a.idempotent_set == (1, 4, 5)


def test_left_projection_has_non_unique_inverses():
    with pytest.raises(NonUniqueInverseError) as info:
        analyze_inverse(left_projection(2))
    assert info.value.element == 1
    assert info.value.witnesses == (1, 2)
    # every element is a generalized inverse of every other
    assert generalized_inverses(left_projection(2), 1) == (1, 2)


def test_group_analysis():
    z3 = cyclic_group(3)
    a = analyze_inverse(z3)
    # group inverses: unit fixed, the two generators swap
    assert a.inverse_map == (1, 3, 2)
    assert a.idempotent_set == (1,)
    assert a.below(2) == (2,)


def test_not_a_semigroup_rejected():
    with pytest.raises(NotASemigroupError):
        analyze_inverse(table(((2, 1), (1, 1))))


def test_involution_and_idempotent_self_inverse(b2):
    for t in (b2, cyclic_group(4), chain_semilattice(3)):
        a = analyze_inverse(t)
        for x in t.elements():
            assert a.inverse(a.inverse(x)) == x
        for e in a.idempotent_set:
            assert a.inverse(e) == e


def test_characterization_brandt(b2):
    rep = characterize_inverse(b2)
    assert rep.is_regular and rep.idempotents_commute and rep.is_inverse
    assert rep.equivalence_holds


def test_characterization_left_projection():
    rep = characterize_inverse(left_projection(2))
    assert rep.is_regular
    assert not rep.idempotents_commute
    assert not rep.is_inverse
    assert rep.equivalence_holds


def test_characterization_group():
    rep = characterize_inverse(cyclic_group(5))
    assert rep.is_regular and rep.idempotents_commute and rep.is_inverse


def test_characterization_equivalence_on_all_order2_and_3_semigroups():
    for n in (2, 3):
        for t in all_tables(n):
            if not is_associative(t):
                continue
            assert characterize_inverse(t).equivalence_holds


def test_characterization_on_all_order4_inverse_semigroups():
    from esnlab.search import tables_matching

    for t in tables_matching(4, "inverse"):
        rep = characterize_inverse(t)
        assert rep.is_inverse and rep.equivalence_holds


def test_natural_order_brandt(b2):
    a = analyze_inverse(b2)
    assert a.below(2) == (1, 2)
    assert a.leq_holds(1, 4) and a.leq_holds(1, 5)
    assert not a.leq_holds(4, 5) and not a.leq_holds(5, 4)


def test_natural_order_group_is_equality():
    a = analyze_inverse(cyclic_group(3))
    assert a.leq == frozenset({(1, 1), (2, 2), (3, 3)})


def test_natural_order_standalone(b2):
    pairs = natural_partial_order(b2)
    assert pairs == analyze_inverse(b2).leq


def test_natural_partial_order_matches_the_oracle_up_to_order_3():
    from conftest import natural_order_oracle
    from esnlab.search import tables_matching

    raised = 0
    for n in (1, 2, 3):
        for t in tables_matching(n, "all"):
            rel, is_order = natural_order_oracle(t)
            if is_order:
                assert natural_partial_order(t) == rel
            else:
                with pytest.raises(OrderAxiomViolation):
                    natural_partial_order(t)
                raised += 1
    assert raised == 67


def test_idempotent_meet(b2):
    a = analyze_inverse(b2)
    assert idempotent_meet(a, 4, 5) == 1
    assert idempotent_meet(a, 1, 4) == 1
    for e in a.idempotent_set:
        assert idempotent_meet(a, e, e) == e
    with pytest.raises(NotIdempotentError):
        idempotent_meet(a, 2, 4)
    # an order that misses 1 <= 4 makes the product 4·5 = 1 no lower bound
    broken = replace(a, leq=a.leq - {(1, 4)})
    with pytest.raises(TheoremViolation, match="not a lower bound"):
        idempotent_meet(broken, 4, 5)


def test_meet_is_glb_on_all_small_inverse_semigroups():
    from esnlab.search import tables_matching

    for n in (1, 2, 3):
        for t in tables_matching(n, "inverse"):
            a = analyze_inverse(t)
            for e in a.idempotent_set:
                for f in a.idempotent_set:
                    m = idempotent_meet(a, e, f)  # verifies glb internally
                    assert a.leq_holds(m, e) and a.leq_holds(m, f)


def test_clifford(b2):
    verdict = is_clifford(analyze_inverse(b2))
    assert not verdict and verdict.witness == (2,)
    assert is_clifford(analyze_inverse(cyclic_group(4)))
    assert is_clifford(analyze_inverse(chain_semilattice(3)))


def test_commutative_inverse_semigroups_are_clifford():
    from esnlab.search import tables_matching
    from esnlab.tables import is_commutative

    for t in tables_matching(3, "inverse"):
        if is_commutative(t):
            assert is_clifford(analyze_inverse(t))


def test_hasse_covers(b2):
    a = analyze_inverse(b2)
    assert hasse_covers(a) == ((1, 4), (1, 5))
    chain = analyze_inverse(chain_semilattice(3))
    assert hasse_covers(chain) == ((1, 2), (2, 3))


def test_hasse_dot_stable(b2):
    dot = hasse_dot(analyze_inverse(b2))
    assert dot == (
        'digraph hasse {\n  rankdir=BT;\n  "1";\n  "4";\n  "5";\n'
        '  "1" -> "4";\n  "1" -> "5";\n}\n'
    )


def test_analysis_json(b2):
    doc = analysis_to_json(analyze_inverse(b2))
    assert doc["idempotents"] == [1, 4, 5]
    assert doc["inverse_map"] == [1, 3, 2, 4, 5]
    assert [4, 5, 1] in doc["meets"]
    assert doc["table"][1] == [1, 1, 4, 1, 2]
