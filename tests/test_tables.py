import random
from itertools import permutations

import pytest

from conftest import (
    all_tables,
    assoc_oracle,
    chain_semilattice,
    cyclic_group,
    least_relabeling_oracle,
    left_projection,
    relabel,
    right_projection,
    table,
)
from esnlab.errors import NotASemigroupError, ParseError
from esnlab.tables import (
    CayleyTable,
    canonical_form,
    format_double,
    format_table,
    idempotents,
    is_associative,
    is_canonical,
    is_commutative,
    is_regular,
    least_relabeling,
    parse_double,
    parse_table,
    relabelings,
)
from esnlab.search import tables_matching


def test_parse_order_one():
    t = parse_table("1\n1")
    assert t.n == 1 and t.product(1, 1) == 1


def test_parse_brandt_body(b2):
    assert b2.n == 5
    assert b2.rows[1] == (1, 1, 4, 1, 2)


def test_parse_comments_and_crlf():
    t = parse_table("# heading\r\n2\r\n# rows\r\n1 1\r\n1 2\r\n")
    assert t.rows == ((1, 1), (1, 2))


def test_parse_out_of_range_entry():
    with pytest.raises(ParseError, match="line 3.*out of range"):
        parse_table("2\n1 1\n1 3")


def test_parse_errors():
    with pytest.raises(ParseError, match="order"):
        parse_table("0\n")
    with pytest.raises(ParseError, match="non-numeric"):
        parse_table("2\n1 x\n1 1")
    with pytest.raises(ParseError, match="expected 2 entries"):
        parse_table("2\n1\n1 1")
    with pytest.raises(ParseError, match="expected 2 rows"):
        parse_table("2\n1 1\n")
    with pytest.raises(ParseError, match="trailing"):
        parse_table("1\n1\n7\n")
    with pytest.raises(ParseError, match="no table"):
        parse_table("# nothing here\n")


def test_parser_total_on_noise():
    rng = random.Random(99)
    alphabet = "0123456789 \t\n#-abcxyz\r"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            t = parse_table(text)
            assert 1 <= t.n
        except ParseError:
            pass


def test_parse_double_blank_separated():
    hop, vop = parse_double("2\n1 1\n2 2\n\n2\n1 2\n1 2\n")
    assert hop.rows == ((1, 1), (2, 2))
    assert vop.rows == ((1, 2), (1, 2))
    with pytest.raises(ParseError):
        parse_double("1\n1\n")
    with pytest.raises(ParseError, match="different orders"):
        parse_double("1\n1\n\n2\n1 1\n1 1\n")


def test_format_roundtrip(b2):
    assert parse_table(format_table(b2)).rows == b2.rows
    both = format_double(b2, b2)
    h, v = parse_double(both)
    assert h.rows == b2.rows == v.rows


def test_product_lookups(b2):
    assert b2.product(2, 3) == 4
    assert b2.product(5, 2) == 1
    assert parse_table("1\n1").product(1, 1) == 1


def test_rejects_bad_rows():
    with pytest.raises(ValueError):
        CayleyTable((0, 1, 0))
    with pytest.raises(ValueError):
        CayleyTable((2, 0, 0, 0))
    with pytest.raises(ValueError):
        CayleyTable(())


def test_construction_checks_the_flat_tuple():
    for flat in ((0, 0), (0,) * 5, (0,) * 8):
        with pytest.raises(ValueError, match="square"):
            CayleyTable(flat)
    for flat in ((0, 0, 0, 2), (-1, 0, 0, 0), (0, 9, 0, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="out of range"):
            CayleyTable(flat)
    t = CayleyTable((0, 1, 1, 2, 0, 2, 1, 2, 0))
    assert (t.n, t.product(2, 3), list(t.elements())) == (3, 3, [1, 2, 3])
    assert t.rows == ((1, 2, 2), (3, 1, 3), (2, 3, 1))
    assert table(t.rows) == t and CayleyTable(t.flat) == t


def test_associative_known_cases(b2):
    assert is_associative(b2)
    assert is_associative(left_projection(2))
    bad = table(((2, 1), (1, 1)))
    verdict = is_associative(bad)
    assert not verdict and verdict.witness == (1, 1, 2)


def test_associative_witness_is_least_on_all_order2_tables():
    for t in all_tables(2):
        got = is_associative(t)
        expected = assoc_oracle(t)
        assert got.holds == (expected is None)
        if expected is not None:
            assert got.witness == expected


def test_associative_matches_oracle_order3():
    agree = 0
    for t in all_tables(3):
        assert is_associative(t).holds == (assoc_oracle(t) is None)
        agree += 1
    assert agree == 3 ** 9


def test_commutative(b2):
    verdict = is_commutative(b2)
    assert not verdict and verdict.witness == (2, 3)
    assert is_commutative(parse_table("1\n1"))
    assert is_commutative(chain_semilattice(3))


def test_idempotents(b2):
    assert idempotents(b2) == (1, 4, 5)
    assert idempotents(left_projection(3)) == (1, 2, 3)
    assert idempotents(cyclic_group(2)) == (1,)


def test_regular(b2):
    assert is_regular(b2)
    assert is_regular(cyclic_group(2))
    assert is_regular(chain_semilattice(2))
    with pytest.raises(NotASemigroupError):
        is_regular(table(((2, 1), (1, 1))))


def test_regular_witness():
    t = table(((1, 1), (1, 2)))
    assert is_regular(t)
    # 2*x*2 = 1 for every x, so 2 has no pseudoinverse
    t2 = table(((1, 1, 1), (1, 1, 1), (1, 1, 2)))
    verdict = is_regular(t2)
    assert not verdict and verdict.witness == (2,)


def test_relabel_identity_and_inverse(b2):
    ident = tuple(range(1, 6))
    assert relabel(b2, ident).rows == b2.rows
    perm = (3, 1, 4, 5, 2)
    inv = tuple(perm.index(i) + 1 for i in range(1, 6))
    assert relabel(relabel(b2, perm), inv).rows == b2.rows


def test_canonical_form_is_minimum(b2):
    assert canonical_form(b2).rows == least_relabeling_oracle(b2)[0]
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice((2, 3))
        t = table(
            tuple(tuple(rng.randint(1, n) for _ in range(n)) for _ in range(n))
        )
        assert canonical_form(t).rows == least_relabeling_oracle(t)[0]


def test_canonical_form_idempotent_and_orbit_invariant(b2):
    c = canonical_form(b2)
    assert canonical_form(c).rows == c.rows
    for perm in permutations(range(1, 6)):
        assert canonical_form(relabel(b2, perm)).rows == c.rows


def test_canonical_form_separates_projections():
    left = canonical_form(left_projection(2))
    right = canonical_form(right_projection(2))
    assert left.rows != right.rows
    assert canonical_form(parse_table("1\n1")).rows == ((1,),)


def test_is_canonical_consistent():
    for t in all_tables(2):
        assert is_canonical(t) == (canonical_form(t).rows == t.rows)


def test_relabelings_agree_with_relabel(b2):
    # identity first, built once per order, and image[T[source[k]]] at cell k
    # is the flat form of relabel(t, image shifted to 1..n)
    T = b2.flat
    assert CayleyTable(T) == b2
    rel = relabelings(5)
    assert rel is relabelings(5)
    assert len(rel) == 120 and rel[0] == (tuple(range(5)), tuple(range(25)))
    for img, src in rel:
        image = tuple(img[T[s]] for s in src)
        assert CayleyTable(image) == relabel(b2, tuple(i + 1 for i in img))


def test_canonical_forms_match_the_oracle_on_every_semigroup_up_to_order_4():
    # 1 + 8 + 113 + 3,492 labeled tables against n! relabel calls each
    for n in (1, 2, 3, 4):
        for t in tables_matching(n, "all"):
            [least] = least_relabeling_oracle(t)
            assert canonical_form(t).rows == least
            assert is_canonical(t) == (t.rows == least)
