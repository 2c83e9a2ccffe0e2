import pytest

from esnlab.tables import CayleyTable, parse_table

B2_TEXT = """\
5
1 1 1 1 1
1 1 4 1 2
1 5 1 3 1
1 2 1 4 1
1 1 3 1 5
"""

CLIFFORD3 = CayleyTable(((1, 1, 1), (1, 2, 3), (1, 3, 2)))


@pytest.fixture
def b2():
    return parse_table(B2_TEXT)


@pytest.fixture
def clifford3():
    return CLIFFORD3


def all_tables(n):
    """Every n-by-n magma table, lexicographic."""
    from itertools import product

    for values in product(range(1, n + 1), repeat=n * n):
        yield CayleyTable(tuple(values[a * n : (a + 1) * n] for a in range(n)))


def assoc_oracle(t):
    """Direct triple loop, kept independent of the production scan."""
    for a in t.elements():
        for b in t.elements():
            for c in t.elements():
                if t.product(t.product(a, b), c) != t.product(a, t.product(b, c)):
                    return (a, b, c)
    return None


def least_relabeling_oracle(*tables):
    """Least joint relabeling of the tables, as a tuple of their rows, over all
    n! permutations through tables.relabel."""
    from itertools import permutations

    from esnlab.tables import relabel

    return min(
        tuple(relabel(t, perm).rows for t in tables)
        for perm in permutations(range(1, tables[0].n + 1))
    )


def labeled_pairs_oracle(n, klass):
    """Every labeled pair: the second tables of every labeled first table."""
    from esnlab.search import second_table_search, tables_matching

    filt = "inverse" if klass == "inverse" else "all"
    return [(h, v) for h in tables_matching(n, filt) for v in second_table_search(h, klass)]


def natural_order_oracle(t):
    """The relation {(a, b) : a = e·b for some idempotent e} of t, and whether
    it is reflexive, antisymmetric and transitive, by direct loops."""
    elements = range(1, t.n + 1)
    idems = [e for e in elements if t.product(e, e) == e]
    rel = {(a, b) for a in elements for b in elements if any(t.product(e, b) == a for e in idems)}
    is_order = (
        all((a, a) in rel for a in elements)
        and all(a == b or (b, a) not in rel for a, b in rel)
        and all((a, c) in rel for a, b in rel for c in elements if (b, c) in rel)
    )
    return frozenset(rel), is_order
