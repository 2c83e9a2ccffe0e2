"""Exhaustive enumeration of small semigroups and double-semigroup pairs.

The core is cell-by-cell backtracking over the multiplication table with
incremental associativity checking: a triple (a,b,c) is tested the moment the
last table cell it needs is filled in. Cells are filled so that the top-left
k-by-k block is completed before the next border, which prunes much earlier
than row-major order.

The single-table search is isomorph-free. Lex-leader pruning compares the
partial table with each of its relabelings in that block order and drops it
once a relabeling is smaller, so one table per isomorphism class survives:
the block-order least. Like a SAT solver's watched literal, a relabeling
still tied with the table waits in the bucket of the cell its comparison
needs next, so setting a cell advances one bucket. Labeled tables are counted
as the sum of n!/|Aut(T)| over the survivors, the automorphisms being the
relabelings still tied with a complete table. Every inverse filter also
refuses a partial table as soon as two of its idempotents fail to commute, or
a completed row or column shows an element that cannot be regular, as a
semigroup is inverse iff it is regular and its idempotents commute (Howie,
*Fundamentals of Semigroup Theory*, 1995, Thm 5.1.1).
Where every labeled table is needed a survivor's orbit is expanded, and
classes are reported by their row-major canonical form. The block order and
the root buckets are built once per order. A pool task extends one kept
assignment of the first 4 cells, 6 at order 5, so none holds half the work.

The pair search is isomorph-free in its first table. It backtracks the second
table, with no symmetry to break, only under the least first table h of each
class. An interchange quadruple reads three cells of the second table, which h
fixes, so each is filed once under the last of them in block order and checked
once, when that cell is set. Both inverse prunes apply to an inverse second
table as to a first. The second tables of a relabeled first table
are the relabeled second tables, so the labeled pairs number the sum of
n!/|Aut(h)| times the second tables of h. A pair's class is keyed by the
row-major least form of h and the least image of v under the relabelings that
give that form, a coset of Aut(h), which is the least joint relabeling of the
pair at |Aut(h)| relabelings rather than n!. Both come from
``tables.least_relabeling``, the one canonicaliser.

One backtracking loop, ``_search_tables``, serves both tables, and every loop
here works on the flat 0-based tuples that a ``CayleyTable`` holds.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from math import factorial, inf

from .errors import NotASemigroupError, OrderTooLargeError, TheoremViolation
from .inverse import NOT_INVERSE, analyze_inverse, is_clifford, unique_inverses
from .tables import (
    CayleyTable,
    canonical_form,
    format_double,
    format_table,
    is_associative,
    is_commutative,
    least_relabeling,
    relabelings,
)

SINGLE_CAP = 5
PAIR_CAPS = {"semigroup": 4, "inverse": 5}
FILTERS = ("all", "inverse", "commutative-inverse", "noncommutative-inverse")
# cells a pool task's prefix sets: at order 5 the all-zero 4-cell prefix holds over half the
# work of `all` and half that of an inverse filter, the largest 6-cell one 41 % and 31 %
_SPLIT_DEPTH = {3: 4, 4: 4, 5: 6}


@cache
def _lex_plan(n):
    """The cells in block order, their (row, column), each cell's position, the
    root's lex-leader buckets: (img, src, wait, 0) per relabeling but the
    identity, src in block order, filed under wait[0], see _search_tables; and
    per position an (a, row, col) for each element a whose row or column that
    position's cell completes, row and col saying which of the two are set."""
    order = tuple(sorted(range(n * n), key=lambda k: (max(k // n, k % n), k // n, k % n)))
    pos = {k: p for p, k in enumerate(order)}
    buckets = [[] for _ in range(n * n + 1)]
    for img, src in relabelings(n)[1:]:
        src = tuple(src[k] for k in order)
        wait = tuple(max(p, pos[k]) for p, k in enumerate(src)) + (n * n,)
        buckets[wait[0]].append((img, src, wait, 0))
    row_done = [max(pos[a * n + x] for x in range(n)) for a in range(n)]
    col_done = [max(pos[x * n + a] for x in range(n)) for a in range(n)]
    complete = tuple(tuple((a, row_done[a] <= p, col_done[a] <= p) for a in range(n)
                           if p in (row_done[a], col_done[a])) for p in range(n * n))
    return order, tuple((k // n, k % n) for k in order), pos, tuple(map(tuple, buckets)), complete


def _matches(T, n, filt):
    if filt == "all":
        return True
    if len(unique_inverses(T, n)) < n:
        return False
    if filt == "inverse":
        return True
    return bool(is_commutative(CayleyTable(T))) == (filt == "commutative-inverse")


def _assoc_ok(T, occ, n, a, b, c):
    """All associativity triples completed by setting T[a][b] = c still hold."""
    an = a * n
    bn = b * n
    cn = c * n
    for z in range(n):
        q = T[bn + z]
        if q >= 0:
            l = T[cn + z]
            if l >= 0:
                r = T[an + q]
                if r >= 0 and l != r:
                    return False
    for x in range(n):
        xn = x * n
        p = T[xn + a]
        if p >= 0:
            l = T[p * n + b]
            if l >= 0:
                r = T[xn + c]
                if r >= 0 and l != r:
                    return False
    for cell in occ[a]:
        q = T[(cell % n) * n + b]
        if q >= 0:
            r = T[(cell // n) * n + q]
            if r >= 0 and r != c:
                return False
    for cell in occ[b]:
        p = T[an + cell // n]
        if p >= 0:
            l = T[p * n + cell % n]
            if l >= 0 and l != c:
                return False
    return True


def _idempotents_commute(T, n, a, b):
    """Whether setting T[a][b] left no two idempotents e, f (T[e][e] = e) of
    the partial table T with T[e][f] and T[f][e] set and different. One that
    fails has no inverse completion: the idempotents of an inverse semigroup
    commute."""
    if a == b:
        fs = [f for f in range(n) if T[f * n + f] == f] if T[a * n + a] == a else ()
    else:
        fs = (b,) if T[a * n + a] == a and T[b * n + b] == b else ()
    for f in fs:
        p, q = T[a * n + f], T[f * n + a]
        if p != q and p >= 0 and q >= 0:
            return False
    return True


def _regular_where_complete(T, n, complete):
    """Whether each (a, row, col) of complete has a in its own row if row, in
    its own column if col, and some x with (a·x)·a = a if both, which every
    completion of the partial table T then fixes. One that fails has no
    regular completion: a = a·a′·a in a regular semigroup."""
    for a, row, col in complete:
        an = a * n
        if row and col:
            if all(T[T[an + x] * n + a] != a for x in range(n)):
                return False
        elif a not in (T[an:an + n] if row else T[a::n]):
            return False
    return True


def _orbit(T, aut, rel):
    """The distinct relabelings of T, sorted, each with one relabeling (img,
    src) in rel that gives it; there are n!/|Aut(T)| of them."""
    images = {}
    for img, src in rel:
        images.setdefault(tuple(img[T[s]] for s in src), (img, src))
    if len(images) * aut != len(rel):
        raise TheoremViolation(f"orbit of {len(images)} tables is not n!/|Aut| = {len(rel)}/{aut}")
    return sorted(images.items())


def _pair_keys(H, Vs, rel):
    """The least joint relabeling of (H, V) for each V in Vs: the row-major
    least form of H, then the least image of V under the relabelings that give
    that form, a coset of Aut(H)."""
    least, coset = least_relabeling(H, rel)
    return [(least, least_relabeling(V, coset)[0]) for V in Vs]


def _run_tasks(worker, tasks, jobs):
    """worker over each task, in order; in a pool when more than one process
    would run, of no more processes than jobs, tasks or cores, since the pool
    starts all of its workers at once."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks, chunksize=1))
    return [worker(task) for task in tasks]


def _search_tables(n, prefix, emit, depth=None, prune=False, H=None):
    """Backtrack the associative tables extending `prefix` (values for the first
    len(prefix) cells in block order), calling emit(flat_tuple, aut) per
    assignment of the first `depth` cells (all by default; unassigned cells
    read -1). With prune, a partial table with no inverse completion is
    refused: one in which two idempotents fail to commute, or a completed row
    or column shows an element that cannot be regular (Howie's Thm 5.1.1).

    Without H, the tables kept are the block-order least of their isomorphism
    class, and aut is |Aut(T)| at full depth. Given a first table H, they are
    the second tables T that complete H to a double semigroup, and no symmetry
    is broken: the buckets start empty and aut is 1. An interchange quadruple
    H[T[a][b]][T[c][d]] = T[H[a][c]][H[b][d]] reads three cells of T, so it is
    checked once, when the last of them in block order is set.

    Each relabeling still tied with T waits in the bucket of the block position
    whose setting lets its comparison go on, max(p, pos[src[p]]) for the first
    position p it has not compared. Setting the cell at position d advances
    bucket d only: a smaller relabeling prunes T, a larger one is dropped for
    the subtree, and an equal one moves to the bucket it waits on next, to be
    popped from it on backtrack. Those in the last bucket, `size`, are tied
    with a complete table: its automorphisms."""
    size = n * n
    depth = size if depth is None else depth
    order, cells, pos, seed, complete = _lex_plan(n)
    buckets = [list(b) if H is None else [] for b in seed]
    quads = [[] for _ in range(size)]  # the cells (k1, k2, k3) of each quadruple, by position
    if H is not None:
        rng = range(n)
        for q in {
            (a * n + b, c * n + d, H[a * n + c] * n + H[b * n + d])
            for a in rng for b in rng for c in rng for d in rng
        }:
            quads[max(map(pos.get, q))].append(q)
    T = [-1] * size
    occ = [[] for _ in range(n)]

    def interchange_ok(qs):
        for k1, k2, k3 in qs:
            if H[T[k1] * n + T[k2]] != T[k3]:
                return False
        return True

    def extend(d):
        if d == depth:
            emit(tuple(T), len(buckets[size]) + 1)
            return
        a, b = cells[d]
        k = order[d]
        qs = quads[d]
        regular = complete[d] if prune else ()
        for c in (prefix[d],) if d < len(prefix) else range(n):
            T[k] = c
            if (qs and not interchange_ok(qs) or not _assoc_ok(T, occ, n, a, b, c)
                    or prune and not _idempotents_commute(T, n, a, b)
                    or regular and not _regular_where_complete(T, n, regular)):
                continue
            moved = []
            for img, src, wait, p in buckets[d]:
                while True:
                    s = img[T[src[p]]]
                    t = T[order[p]]
                    if s != t:
                        break
                    p += 1
                    if wait[p] > d:
                        break
                if s < t:
                    break
                if s == t:
                    buckets[wait[p]].append((img, src, wait, p))
                    moved.append(wait[p])
            else:
                occ[c].append(k)
                extend(d + 1)
                occ[c].pop()
            for w in moved:
                buckets[w].pop()
        T[k] = -1

    extend(0)


def _prefixes(n, depth, filt):
    """The assignments of the first `depth` cells that the search for the
    filter keeps: lex-leader pruned, and for an inverse filter pruned on
    idempotents that fail to commute, which at depth 4 leaves 23 of order 5
    against 28, and at depth 6, the order-5 split, 51 against 63; and on
    elements that cannot be regular (Howie's Thm 5.1.1), which no row set
    within the split shows, but which leaves 336 of order 5 at depth 18
    against 690, and the 52 classes at depth 25 against 852."""
    order = _lex_plan(n)[0][:depth]
    out = []
    _search_tables(n, (), lambda T, aut: out.append(tuple(T[k] for k in order)), depth,
                   prune=filt != "all")
    return out


def _classes(n, filt, prefix=(), H=None):
    """(block-order least table, |Aut|) for each class matching the filter; with
    a flat first table H, (second table, 1) for each second table matching the
    filter that completes H to a double semigroup."""
    out = []
    _search_tables(n, prefix, lambda T, aut: _matches(T, n, filt) and out.append((T, aut)),
                   prune=filt != "all", H=H)
    return out


def _enum_worker(args):
    """(labeled count, the least table of each matching class if keep_classes,
    the canonical forms)."""
    n, prefix, filt, keep_classes = args
    rel = relabelings(n)
    classes = _classes(n, filt, prefix)
    count = sum(len(rel) // aut for _, aut in classes)
    # through the public canonical_form, which per-layer traces count
    canon = [canonical_form(CayleyTable(T)).flat for T, _ in classes]
    if not keep_classes:
        return count, [], canon
    for T, aut in classes:
        _orbit(T, aut, rel)  # checks that the orbit holds n!/|Aut| tables
    return count, [T for T, _ in classes], canon


@dataclass(frozen=True)
class EnumerationReport:
    order: int
    filter: str
    labeled_count: int
    class_count: int
    representatives: tuple
    claims: dict

    def as_json(self):
        return {
            "schema_version": 1,
            "kind": "enumeration",
            "order": self.order,
            "filter": self.filter,
            "labeled_count": self.labeled_count,
            "class_count": self.class_count,
            "representatives": [format_table(t) for t in self.representatives],
            "claims": dict(sorted(self.claims.items())),
        }


def _check_request(n, noun, kind, kinds, cap):
    """Refuse a `noun` (filter or class) not in kinds, and an order below 1 or above cap."""
    if kind not in kinds:
        raise ValueError(f"unknown {noun} {kind!r}")
    if n < 1:
        raise ValueError(f"order {n} is below 1")
    if n > cap:
        raise OrderTooLargeError(n, cap)


def tables_matching(n, filt):
    """The labeled tables of order n that match the filter (an isomorphism
    invariant), as the orbits of the matching block-order least tables."""
    _check_request(n, "filter", filt, FILTERS, SINGLE_CAP)
    rel = relabelings(n)
    return [CayleyTable(t) for T, aut in _classes(n, filt) for t, _ in _orbit(T, aut, rel)]


def enumerate_semigroups(n, filt="all", jobs=1) -> EnumerationReport:
    """Find the block-order least table of each isomorphism class of order n,
    count the labeled tables matching the filter as the sum of n!/|Aut(T)| over
    the matching classes, and report each class by its canonical form."""
    _check_request(n, "filter", filt, FILTERS, SINGLE_CAP)
    keep = filt != "all"
    prefixes = _prefixes(n, _SPLIT_DEPTH[n], filt) if jobs > 1 and n >= 3 else [()]
    results = _run_tasks(_enum_worker, [(n, p, filt, keep) for p in prefixes], jobs)
    labeled = sum(r[0] for r in results)
    canon_flat = sorted(T for r in results for T in r[2])
    reps = tuple(CayleyTable(T) for T in canon_flat)
    claims = {}
    if keep:
        # the claims are invariant under relabeling, so each class is checked once
        matches = [CayleyTable(T) for r in results for T in r[1]]
        claims["all_matches_associative"] = all(bool(is_associative(t)) for t in matches)
        claims["all_matches_inverse"] = _all_inverse(matches)
        if filt == "noncommutative-inverse":
            claims["all_matches_noncommutative"] = not any(map(is_commutative, matches))
        if filt == "commutative-inverse":
            claims["all_matches_commutative"] = all(map(is_commutative, matches))
    else:
        claims["representatives_associative"] = all(bool(is_associative(t)) for t in reps)
    return EnumerationReport(n, filt, labeled, len(reps), reps, claims)


def _all_inverse(matches):
    for t in matches:
        try:
            analyze_inverse(t)
        except NOT_INVERSE:
            return False
    return True


def second_table_search(hop: CayleyTable, klass="semigroup"):
    """Every second operation completing hop to a double (inverse) semigroup."""
    _check_request(hop.n, "class", klass, PAIR_CAPS, inf)
    assoc = is_associative(hop)
    if not assoc:
        raise NotASemigroupError(assoc.witness)
    if klass == "inverse" and len(unique_inverses(hop.flat, hop.n)) < hop.n:
        return []
    filt = "inverse" if klass == "inverse" else "all"
    return [CayleyTable(V) for V, _ in _classes(hop.n, filt, H=hop.flat)]


def _pair_worker(args):
    """(H, |Aut(H)|, the second tables of H, the class key of each pair) for a
    least first table H."""
    n, H, aut, filt = args
    Vs = [V for V, _ in _classes(n, filt, H=H)]
    return H, aut, Vs, _pair_keys(H, Vs, relabelings(n))


def canonical_pair(hop: CayleyTable, vop: CayleyTable):
    """Least joint relabeling of the ordered pair, as (hop rows, vop rows)."""
    [(h, v)] = _pair_keys(hop.flat, [vop.flat], relabelings(hop.n))
    return CayleyTable(h).rows, CayleyTable(v).rows


@dataclass(frozen=True)
class PairSearchReport:
    order: int
    klass: str
    pair_count: int
    proper_pair_count: int
    class_count: int
    representatives: tuple
    proper_representatives: tuple
    claims: dict

    def as_json(self):
        return {
            "schema_version": 1,
            "kind": "pair-search",
            "order": self.order,
            "class": self.klass,
            "pair_count": self.pair_count,
            "proper_pair_count": self.proper_pair_count,
            "class_count": self.class_count,
            "representatives": [format_double(h, v) for h, v in self.representatives],
            "proper_representatives": [
                format_double(h, v) for h, v in self.proper_representatives
            ],
            "claims": dict(sorted(self.claims.items())),
        }


def search_double(n, klass="semigroup", jobs=1) -> PairSearchReport:
    """All ordered pairs (hop, vop) of order n forming a double (inverse)
    semigroup: backtrack vop under associativity and interchange for the least
    hop of each class, count the labeled pairs as the sum of n!/|Aut(hop)|
    times its vops, and key each class by its least joint relabeling."""
    _check_request(n, "class", klass, PAIR_CAPS, PAIR_CAPS.get(klass))
    filt = "inverse" if klass == "inverse" else "all"
    tasks = [(n, H, aut, filt) for H, aut in _classes(n, filt)]
    found = _run_tasks(_pair_worker, tasks, jobs)
    orbit = factorial(n)
    canon, canon_proper = set(), set()
    pair_count = proper_count = 0
    for H, aut, Vs, keys in found:
        pair_count += orbit // aut * len(Vs)
        for V, key in zip(Vs, keys):
            canon.add(key)
            if V != H:  # proper, which relabeling preserves
                proper_count += orbit // aut
                canon_proper.add(key)
    # the labeled pairs are a union of orbits, and swapping commutes with
    # relabeling, so they are swap-closed iff each class's swap is a class
    rel = relabelings(n)
    by_second = {}
    for H, V in canon:
        by_second.setdefault(V, []).append(H)
    claims = {
        "pairs_found": pair_count > 0,
        "swap_closed": all(
            key in canon for V, Hs in by_second.items() for key in _pair_keys(V, Hs, rel)
        ),
    }
    if klass == "inverse":
        # each claim is invariant under relabeling, so the least pairs decide it
        least = [(CayleyTable(H), CayleyTable(V)) for H, _, Vs, _ in found for V in Vs]
        claims["all_improper"] = proper_count == 0
        claims["all_commutative"] = all(
            bool(is_commutative(h)) and bool(is_commutative(v)) for h, v in least
        )
        claims["all_clifford"] = all(
            bool(is_clifford(analyze_inverse(h))) and bool(is_clifford(analyze_inverse(v)))
            for h, v in least
        )

    def tables(keys):
        return tuple((CayleyTable(h), CayleyTable(v)) for h, v in sorted(keys))

    return PairSearchReport(
        order=n,
        klass=klass,
        pair_count=pair_count,
        proper_pair_count=proper_count,
        class_count=len(canon),
        representatives=tables(canon),
        proper_representatives=tables(canon_proper),
        claims=claims,
    )
