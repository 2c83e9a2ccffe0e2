from functools import cache
from itertools import product

import pytest

from esnlab.double import check_interchange, dig_from_json, skeleton
from esnlab.errors import OrderTooLargeError
from esnlab.esn import pseudo_products
from esnlab.search import _classes, _matches, _orbit
from esnlab.tables import CayleyTable, canonical_form, parse_table, relabelings

B2_TEXT = """\
5
1 1 1 1 1
1 1 4 1 2
1 5 1 3 1
1 2 1 4 1
1 1 3 1 5
"""



def table(rows):
    """The CayleyTable of a table written 1-based, row by row."""
    return CayleyTable(tuple(v - 1 for row in rows for v in row))


CLIFFORD3 = table(((1, 1, 1), (1, 2, 3), (1, 3, 2)))


@pytest.fixture
def b2():
    return parse_table(B2_TEXT)


@pytest.fixture
def clifford3():
    return CLIFFORD3


def dig_equal(g1, g2):
    """Equality of two double groupoids up to their arrow ids: their skeletons."""
    return skeleton(g1) == skeleton(g2)


# Each horizontal field of a double groupoid's JSON document and its vertical twin.
_TWIN_KEYS = {"ver_arrows": "hor_arrows", "obj_ver": "obj_hor", "ver_cell": "hor_cell",
              "ver_src": "hor_src", "ver_dst": "hor_dst", "hdom": "vdom", "hcod": "vcod",
              "hcompose": "vcompose", "hinv": "vinv", "leq": "lesssim", "meet_h": "meet_v",
              "h_restrict": "v_restrict", "h_corestrict": "v_corestrict"}


def dig_of_view(h):
    """The double groupoid both of whose views are the inductive groupoid h,
    written out as a JSON document and read by ``dig_from_json``, unchecked and
    uncertified: an assembly apart from ``double.dig_from_view``, also of views
    that it refuses. The objects of h, numbered in the order h lists them, are
    the objects and, each a loop at itself, the arrows of both directions."""
    ids = {e: i for i, e in enumerate(h.objects, 1)}
    loops = list(ids.values())
    horizontal = {
        "ver_arrows": len(loops), "obj_ver": loops, "ver_cell": list(h.objects),
        "ver_src": loops, "ver_dst": loops,
        "hdom": [ids[h.dom[a]] for a in h.arrows], "hcod": [ids[h.cod[a]] for a in h.arrows],
        "hcompose": sorted([a, b, c] for (a, b), c in h.compose.items()),
        "hinv": [h.inv[a] for a in h.arrows], "leq": sorted(map(list, h.leq)),
        "meet_h": sorted([ids[e], ids[f], ids[m]] for (e, f), m in h.object_meet.items()),
        "h_restrict": sorted([ids[e], a, b] for (e, a), b in h.restriction.items()),
        "h_corestrict": sorted([a, ids[e], b] for (a, e), b in h.corestriction.items()),
    }
    return dig_from_json({"schema_version": 1, "kind": "double-inductive-groupoid",
                          "objects": len(loops), "cells": len(h.arrows), **horizontal,
                          **{_TWIN_KEYS[key]: value for key, value in horizontal.items()}})


def all_tables(n):
    """Every n-by-n magma table, lexicographic."""
    for values in product(range(n), repeat=n * n):
        yield CayleyTable(values)


def left_projection(n):
    """a·b = a (the left-zero semigroup)."""
    return CayleyTable(tuple(a for a in range(n) for _ in range(n)))


def right_projection(n):
    """a·b = b (the right-zero semigroup)."""
    return CayleyTable(tuple(b for _ in range(n) for b in range(n)))


def cyclic_group(n):
    """Z_n written multiplicatively; element 1 is the unit."""
    return CayleyTable(tuple((a + b) % n for a in range(n) for b in range(n)))


def chain_semilattice(n):
    """The meet table of the chain 1 < 2 < ... < n."""
    return CayleyTable(tuple(min(a, b) for a in range(n) for b in range(n)))


def relabel(t, perm):
    """Rename element i to perm[i-1]; the result's (perm a)·(perm b) = perm(a·b)."""
    n = t.n
    inv = [0] * n
    for i, img in enumerate(perm):
        inv[img - 1] = i + 1
    return table(
        tuple(tuple(perm[t.product(inv[a], inv[b]) - 1] for b in range(n)) for a in range(n))
    )


def naive_enumerate(n, filt="all"):
    """Oracle: scan all n^(n*n) tables directly. Only sane for n <= 3."""
    if n > 3:
        raise OrderTooLargeError(n, 3)
    matches = [t for t in associative_tables(n) if _matches(t.flat, n, filt)]
    return len(matches), frozenset(canonical_form(t).rows for t in matches)


def block_order(n):
    """The cells of an order-n table, each top-left k-by-k block before the
    next border, then by row and column."""
    return sorted(range(n * n), key=lambda k: (max(k // n, k % n), k // n, k % n))


def associates_at(T, n, filled, a, b):
    """Whether every triple (x, y, z) that reads the cell (a, b) of the partial
    flat table T, with the four cells x·y, y·z, (x·y)·z and x·(y·z) set,
    associates. The triples are found by scanning the set cells in filled: the
    cell (a, b) is x·y or y·z, or holds the value of x·y or of y·z; a triple
    listed twice is checked twice."""
    triples = [(a, b, z) for z in range(n)] + [(x, a, b) for x in range(n)]
    triples += [(k // n, k % n, b) for k in filled if T[k] == a]
    triples += [(a, k // n, k % n) for k in filled if T[k] == b]
    for x, y, z in triples:
        xy, yz = T[x * n + y], T[y * n + z]
        if xy >= 0 and yz >= 0:
            left, right = T[xy * n + z], T[x * n + yz]
            if left != right and left >= 0 and right >= 0:
                return False
    return True


@cache
def _lex_leaders(n):
    """(block-order least table, |Aut|) for every class of order n, by a
    backtrack that checks associativity through associates_at and rescans
    every relabeling still tied with the partial table after each cell, with
    no bucket and no prune."""
    size = n * n
    order = block_order(n)
    T = [-1] * size
    out = []

    def tied(live):
        """The relabelings in `live` still tied with T, each with the block
        position its comparison stopped at; None if one is smaller."""
        rest = []
        for img, src, p in live:
            while p < size:
                t = T[order[p]]
                s = T[src[p]]
                if t < 0 or s < 0:
                    rest.append((img, src, p))
                    break
                s = img[s]
                if s < t:
                    return None
                if s > t:
                    break
                p += 1
            else:
                rest.append((img, src, p))
        return rest

    def extend(d, live):
        if d == size:
            out.append((tuple(T), len(live) + 1))
            return
        k = order[d]
        for c in range(n):
            T[k] = c
            if associates_at(T, n, order[: d + 1], k // n, k % n):
                rest = tied(live)
                if rest is not None:
                    extend(d + 1, rest)
        T[k] = -1

    extend(0, [(img, [src[k] for k in order], 0) for img, src in relabelings(n)[1:]])
    return out


def lex_leader_oracle(n, filt):
    """(block-order least table, |Aut|) for each class of order n matching the
    filter, in search order, from the rescanning backtrack of _lex_leaders."""
    return [(T, aut) for T, aut in _lex_leaders(n) if _matches(T, n, filt)]


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
    n! permutations through relabel."""
    from itertools import permutations

    return min(
        tuple(relabel(t, perm).rows for t in tables)
        for perm in permutations(range(1, tables[0].n + 1))
    )


@cache
def associative_tables(n):
    """Every labeled associative table of order n, lexicographic, by a scan of
    all n^(n*n) tables through assoc_oracle. Only sane for n <= 3."""
    return tuple(t for t in all_tables(n) if assoc_oracle(t) is None)


def inverse_oracle(t):
    """Whether every element a has exactly one x with a·x·a = a and x·a·x = x,
    by direct loops."""
    p = t.product
    return all(
        sum(p(p(a, x), a) == a and p(p(x, a), x) == x for x in t.elements()) == 1
        for a in t.elements()
    )


def second_tables_oracle(h, klass):
    """Every second table v completing the semigroup h to a double semigroup,
    lexicographic: the associative tables of h's order that pass
    double.check_interchange, and for the inverse class only when h and v both
    pass inverse_oracle."""
    if klass == "inverse" and not inverse_oracle(h):
        return []
    return [
        v
        for v in associative_tables(h.n)
        if check_interchange(h, v) and (klass == "semigroup" or inverse_oracle(v))
    ]


def labeled_pairs(report):
    """Every labeled pair of a pair search's order and class: (π·h, π·v) for
    each least first table h, one relabeling π per table π·h of its orbit, and
    each second table v of h (the second tables of h are closed under Aut(h))."""
    n = report.order
    filt = "inverse" if report.klass == "inverse" else "all"
    rel = relabelings(n)
    return [
        (CayleyTable(t), CayleyTable(tuple(img[V[s]] for s in src)))
        for H, aut in _classes(n, filt)
        for t, (img, src) in _orbit(H, aut, rel)
        for V, _ in _classes(n, filt, H=H)
    ]


def labeled_pairs_oracle(n, klass):
    """Every labeled pair: the second tables of every labeled first table, both
    found by scanning, with no backtracking."""
    return [(h, v) for h in associative_tables(n) for v in second_tables_oracle(h, klass)]


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


class LookupEvaluator:
    """Definedness-guarded evaluation over the horizontal view h and the vertical
    view v of one double groupoid, one lookup per call: every value is a cell id
    or None, arrows and objects are their identity cells, and each operation is
    the ``get`` of one view's table, keyed as the table is, so it gives None
    where an argument is None or not of the sort it needs.
    ``LookupEvaluator(v, h)`` evaluates on the transpose."""

    def __init__(self, h, v):
        self.vdom, self.vcod = v.dom.get, v.cod.get
        self.hcomp, self.meet_v = h.compose.get, v.object_meet.get
        self.hrestrict, self.vrestrict = h.restriction.get, v.restriction.get
        self.hcorestrict, self.vcorestrict = h.corestriction.get, v.corestriction.get


def split_and_meets_oracle(h, v, pieces, rep, tags, order):
    """The split and meet identities of ``double.verify_interchange_identities``
    for the pseudo-products a·b and c·d of every two pairs of cells, read on the
    views h and v through a ``LookupEvaluator`` one lookup at a time, as the
    loop was first written."""
    ev = LookupEvaluator(h, v)
    substantive, vacuous = [0] * 4, [0] * 4
    for (a, b), (u, au, ub, x) in pieces.items():
        for (c, d), (v, cv, vd, y) in pieces.items():
            m = ev.meet_v((ev.vcod(x), ev.vdom(y)))
            left = ev.meet_v((ev.vcod(au), ev.vdom(cv)))
            right = ev.meet_v((ev.vcod(ub), ev.vdom(vd)))
            uv = ev.meet_v((ev.vcod(u), ev.vdom(v)))
            sides = (
                (ev.vcorestrict((x, m)),
                 ev.hcomp((ev.vcorestrict((au, left)), ev.vcorestrict((ub, right))))),
                (ev.vrestrict((m, y)),
                 ev.hcomp((ev.vrestrict((left, cv)), ev.vrestrict((right, vd))))),
                (left, ev.hcorestrict((ev.meet_v((ev.vcod(a), ev.vdom(c))), uv))),
                (right, ev.hrestrict((uv, ev.meet_v((ev.vcod(b), ev.vdom(d)))))),
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


def interchange_products_oracle(h, v, rep):
    """The interchange law of ``double.verify_interchange_identities`` for the
    pseudo-products · of the view h and ⋄ of the view v, (a·b) ⋄ (c·d) =
    (a⋄c)·(b⋄d), on every two pairs of cells, one dict lookup at a time, as the
    loop was first written: a product is None only on a groupoid read without
    its check, and None equals only None."""
    hprod = {pair: pieces[3] for pair, pieces in pseudo_products(h).items()}
    vprod = {pair: pieces[3] for pair, pieces in pseudo_products(v).items()}
    for (a, b), x in hprod.items():
        for (c, d), y in hprod.items():
            if vprod.get((x, y)) != hprod.get((vprod[a, c], vprod[b, d])):
                rep.add("interchange.products", (a, b, c, d))
    rep.bump("interchange.products", True, len(hprod) ** 2)
