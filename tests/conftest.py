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


def split_and_meets_oracle(ev, pieces, rep, tags, order):
    """The split and meet identities of ``double.verify_interchange_identities``
    for the pseudo-products a·b and c·d of every two pairs of cells, read
    through the definedness-guarded evaluator ``ev`` of ``double._evaluators``
    one lookup at a time, as the loop was first written."""
    substantive, vacuous = [0] * 4, [0] * 4
    for (a, b), (u, au, ub, x) in pieces.items():
        for (c, d), (v, cv, vd, y) in pieces.items():
            m = ev.meet_v(ev.vcod(x), ev.vdom(y))
            left = ev.meet_v(ev.vcod(au), ev.vdom(cv))
            right = ev.meet_v(ev.vcod(ub), ev.vdom(vd))
            uv = ev.meet_v(ev.vcod(u), ev.vdom(v))
            sides = (
                (ev.vcorestrict(x, m),
                 ev.hcomp(ev.vcorestrict(au, left), ev.vcorestrict(ub, right))),
                (ev.vrestrict(m, y), ev.hcomp(ev.vrestrict(left, cv), ev.vrestrict(right, vd))),
                (left, ev.hcorestrict(ev.meet_v(ev.vcod(a), ev.vdom(c)), uv)),
                (right, ev.hrestrict(uv, ev.meet_v(ev.vcod(b), ev.vdom(d)))),
            )
            for i, (lhs, rhs) in enumerate(sides):
                if lhs is None or rhs is None:
                    vacuous[i] += 1
                    continue
                substantive[i] += 1
                if lhs != rhs:
                    quad = (a, b, c, d)
                    rep.add(tags[i], tuple(quad[k] for k in order))
    for tag, s, v in zip(tags, substantive, vacuous):
        rep.bump(tag, True, s)
        rep.bump(tag, False, v)
