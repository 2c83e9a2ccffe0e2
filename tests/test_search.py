from functools import cache
from itertools import permutations

import pytest

from conftest import (
    all_tables,
    assoc_oracle,
    associative_tables,
    cyclic_group,
    labeled_pairs,
    labeled_pairs_oracle,
    least_relabeling_oracle,
    left_projection,
    lex_leader_oracle,
    naive_enumerate,
    relabel,
    right_projection,
    second_tables_oracle,
    table,
)
from esnlab import search
from esnlab.errors import NotASemigroupError, OrderTooLargeError, TheoremViolation
from esnlab.search import (
    FILTERS,
    _SPLIT_DEPTH,
    _classes,
    _idempotents_commute,
    _lex_plan,
    _prefixes,
    _regular_where_complete,
    _search_tables,
    canonical_pair,
    enumerate_semigroups,
    search_double,
    second_table_search,
    tables_matching,
)
from esnlab.tables import CayleyTable, canonical_form, is_associative, least_relabeling, relabelings
from esnlab.inverse import analyze_inverse


@cache
def serial_report(n, filt):
    """enumerate_semigroups(n, filt) with jobs=1, computed once a session for
    the known counts and the jobs comparisons."""
    return enumerate_semigroups(n, filt, jobs=1)


def test_enumeration_matches_naive_oracle():
    for n in (1, 2, 3):
        for filt in ("all", "inverse", "commutative-inverse"):
            rep = enumerate_semigroups(n, filt)
            count, canon = naive_enumerate(n, filt)
            assert rep.labeled_count == count, (n, filt)
            assert frozenset(t.rows for t in rep.representatives) == canon, (n, filt)


def test_known_counts():
    assert enumerate_semigroups(1, "all").labeled_count == 1
    assert enumerate_semigroups(2, "all").labeled_count == 8
    assert enumerate_semigroups(3, "all").labeled_count == 113
    rep4 = serial_report(4, "all")
    assert (rep4.labeled_count, rep4.class_count) == (3492, 188)
    inv = [serial_report(n, "inverse") for n in (1, 2, 3, 4)]
    assert [r.labeled_count for r in inv] == [1, 4, 24, 272]
    assert [r.class_count for r in inv] == [1, 2, 5, 16]
    for filt, counts in (("all", (183732, 1915)), ("inverse", (4125, 52)),
                         ("commutative-inverse", (4065, 51))):
        rep5 = serial_report(5, filt)
        assert (rep5.labeled_count, rep5.class_count) == counts, filt


def test_iter_semigroup_tables_is_every_labeled_table_once():
    for n in (1, 2, 3, 4):
        tables = [t.rows for t in tables_matching(n, "all")]
        assert len(tables) == len(set(tables)), n
        if n <= 3:
            assert set(tables) == {t.rows for t in all_tables(n) if assoc_oracle(t) is None}, n


def test_classes_match_the_rescanning_lex_leader_oracle():
    # the bucketed, pruned search keeps the same least tables, in the same
    # order and with the same |Aut|, as a rescan of every tied relabeling
    for n in range(1, 6):
        for filt in FILTERS:
            assert _classes(n, filt) == lex_leader_oracle(n, filt), (n, filt)


def test_pruned_prefixes_hold_every_inverse_least_table():
    for n in range(2, 6):
        for depth in {4, _SPLIT_DEPTH.get(n, 4)}:
            order = _lex_plan(n)[0][:depth]
            kept = set(_prefixes(n, depth, "inverse"))
            for T, _ in lex_leader_oracle(n, "inverse"):
                assert tuple(T[k] for k in order) in kept, (n, depth, T)
    # and the prune splits order 5 into fewer tasks, at depth 4 and at the split's 6
    assert [len(_prefixes(5, 4, f)) for f in ("all", "inverse")] == [28, 23]
    assert [len(_prefixes(5, _SPLIT_DEPTH[5], f)) for f in ("all", "inverse")] == [63, 51]
    # orders 3 and 4 keep their depth-4 split
    assert [len(_prefixes(n, _SPLIT_DEPTH[n], "inverse")) for n in (3, 4)] == [14, 22]


def test_the_pool_split_is_the_serial_search_in_order():
    # exhaustive and disjoint: the tasks' classes, concatenated in task order,
    # are the serial search's list; and the serial search, run after the
    # prefixed ones, still gives the oracle's list, so they left the cached
    # plan that every call starts from as it was
    for n in (3, 4, 5):
        for filt in FILTERS:
            tasks = _prefixes(n, _SPLIT_DEPTH[n], filt)
            split = [c for p in tasks for c in _classes(n, filt, p)]
            assert split == _classes(n, filt) == lex_leader_oracle(n, filt), (n, filt)

    # nor does a search that an exception stops at its first table
    class Stop(Exception):
        pass

    def stop(T, aut):
        raise Stop

    with pytest.raises(Stop):
        _search_tables(4, (), stop)
    assert _classes(4, "all") == lex_leader_oracle(4, "all")
    # nor does a second-table search, which starts from empty buckets
    assert second_table_search(cyclic_group(4), "inverse") == [cyclic_group(4)]
    assert _classes(4, "all") == lex_leader_oracle(4, "all")


def test_brandt_b2_has_two_automorphisms(b2):
    perms = list(permutations(range(1, 6)))
    assert sum(relabel(b2, p) == b2 for p in perms) == 2
    orbit = {relabel(b2, p).rows for p in perms}
    assert len(orbit) == 120 // 2 == 60
    assert {t.rows for t in tables_matching(5, "noncommutative-inverse")} == orbit
    # the search finds one least table for the class, and the same |Aut|
    [(least, aut)] = _classes(5, "noncommutative-inverse")
    assert aut == 2
    assert tuple(tuple(v + 1 for v in least[5 * a : 5 * a + 5]) for a in range(5)) in orbit


def test_least_relabeling_coset_is_the_automorphism_group():
    # orbit-stabiliser: the relabelings giving the least image form a coset of
    # Aut(T), whose size the lex-leader search counts on its own
    for n in (1, 2, 3, 4, 5):
        for T, aut in _classes(n, "all"):
            least, coset = least_relabeling(T, relabelings(n))
            assert len(coset) == aut, (n, T)
            assert CayleyTable(least) == canonical_form(CayleyTable(T))


def test_every_emitted_table_is_associative():
    for n in (1, 2, 3):
        for t in tables_matching(n, "all"):
            assert is_associative(t)


def test_inverse_filter_tables_analyze():
    for t in tables_matching(3, "inverse"):
        analyze_inverse(t)  # must not raise


def test_no_noncommutative_inverse_below_order_5():
    for n in (1, 2, 3, 4):
        assert enumerate_semigroups(n, "noncommutative-inverse").labeled_count == 0


def test_order_caps():
    with pytest.raises(OrderTooLargeError):
        enumerate_semigroups(6)
    with pytest.raises(OrderTooLargeError):
        search_double(5, "semigroup")
    with pytest.raises(OrderTooLargeError):
        search_double(6, "inverse")
    with pytest.raises(OrderTooLargeError):
        naive_enumerate(4)
    with pytest.raises(ValueError):
        enumerate_semigroups(3, "weird")
    # an order below 1 is no order, not one above the cap
    for n in (0, -1):
        for run in (enumerate_semigroups, search_double, lambda n: tables_matching(n, "all")):
            with pytest.raises(ValueError, match=f"order {n} is below 1"):
                run(n)


def test_jobs_do_not_change_reports():
    a = enumerate_semigroups(3, "inverse", jobs=1)
    b = enumerate_semigroups(3, "inverse", jobs=4)
    assert a.as_json() == b.as_json()
    pa = search_double(3, "inverse", jobs=1)
    pb = search_double(3, "inverse", jobs=4)
    assert pa.as_json() == pb.as_json()


def test_jobs_do_not_change_inverse_reports_at_orders_4_and_5():
    for n in (4, 5):
        for filt in ("inverse", "commutative-inverse", "noncommutative-inverse"):
            serial = serial_report(n, filt).as_json()
            assert enumerate_semigroups(n, filt, jobs=2).as_json() == serial, (n, filt)


def test_jobs_do_not_change_the_all_report_at_orders_4_and_5():
    # 188 and 1,915 classes, split 27 and 63 ways
    for n in (4, 5):
        serial = serial_report(n, "all").as_json()
        assert enumerate_semigroups(n, "all", jobs=2).as_json() == serial, n


def test_second_table_search_brandt_empty(b2):
    assert second_table_search(b2, "inverse") == []


def test_second_table_search_group():
    z2 = cyclic_group(2)
    completions = second_table_search(z2, "inverse")
    assert [t.rows for t in completions] == [z2.rows]


def test_second_table_search_projections():
    lp, rp = left_projection(2), right_projection(2)
    completions = second_table_search(lp, "semigroup")
    assert any(t.rows == rp.rows for t in completions)
    # every completion really satisfies interchange with the left projection
    from esnlab.double import check_interchange

    for vop in completions:
        assert is_associative(vop)
        assert check_interchange(lp, vop)


def test_second_table_search_matches_the_scan_oracle():
    assert [len(associative_tables(n)) for n in (1, 2, 3)] == [1, 8, 113]  # OEIS A023814
    for n in (1, 2, 3):
        for h in associative_tables(n):
            for klass in ("semigroup", "inverse"):
                found = [v.flat for v in second_table_search(h, klass)]
                assert set(found) == {v.flat for v in second_tables_oracle(h, klass)}, (h.rows, klass)
                # in block order, as the search fills the cells
                keys = [tuple(V[k] for k in _lex_plan(n)[0]) for V in found]
                assert all(x < y for x, y in zip(keys, keys[1:])), (h.rows, klass)


def test_idempotent_prune_keeps_every_prefix_of_an_inverse_table():
    # sound: no prefix in block order of a labeled inverse table is refused,
    # the 60 labelings of the noncommutative B2 among them
    for n in range(1, 6):
        order = _lex_plan(n)[0]
        for t in tables_matching(n, "inverse"):
            T = [-1] * (n * n)
            for k in order:
                T[k] = t.flat[k]
                assert _idempotents_commute(T, n, k // n, k % n), (t.rows, k)
    # and not vacuous: the left-zero band's two idempotents do not commute
    assert not _idempotents_commute(list(left_projection(2).flat), 2, 1, 1)


def test_regularity_prune_keeps_every_prefix_of_an_inverse_table():
    # sound: no prefix in block order of a labeled inverse table is refused
    for n in range(1, 6):
        order, complete = _lex_plan(n)[0], _lex_plan(n)[4]
        for t in tables_matching(n, "inverse"):
            T = [-1] * (n * n)
            for p, k in enumerate(order):
                T[k] = t.flat[k]
                assert _regular_where_complete(T, n, complete[p]), (t.rows, k)
    # and not vacuous: in the null semigroup 1 1 / 1 1, element 2 is not in its
    # own row, so the complete table is refused at its last cell
    null = list(table(((1, 1), (1, 1))).flat)
    assert _lex_plan(2)[4][3] == ((1, True, True),)
    assert not _regular_where_complete(null, 2, _lex_plan(2)[4][3])
    assert not _regular_where_complete(null, 2, ((1, True, False),))


def test_regularity_prune_cuts_the_inverse_prefixes():
    # idempotents alone keep 1,124, 690 and 852 prefixes of order 5 at these
    # lengths, and 92 of order 4 at full length; from the first completed row
    # on, the regularity prune cuts them, to the classes themselves at the end
    assert [len(_prefixes(5, d, "inverse")) for d in (17, 18, 25)] == [1124, 336, 52]
    assert len(_prefixes(4, 16, "inverse")) == 16


def test_second_table_search_rejects_non_semigroup():
    with pytest.raises(NotASemigroupError):
        second_table_search(table(((2, 1), (1, 1))), "semigroup")


def test_pair_search_order2_semigroup():
    rep = search_double(2, "semigroup")
    assert rep.pair_count == 46
    assert rep.proper_pair_count == 38
    assert rep.claims["swap_closed"]
    proj = canonical_pair(left_projection(2), right_projection(2))
    assert proj in {(h.rows, v.rows) for h, v in rep.proper_representatives}


def test_pair_search_inverse_small_orders():
    expected_counts = {1: 1, 2: 4, 3: 24}
    for n, expected in expected_counts.items():
        rep = search_double(n, "inverse")
        assert rep.pair_count == expected
        assert rep.proper_pair_count == 0
        assert rep.claims["all_improper"]
        assert rep.claims["all_commutative"]
        assert rep.claims["all_clifford"]


def test_pair_search_matches_commutative_inverse_diagonal():
    # the double inverse pairs are exactly the commutative inverse tables
    # paired with themselves
    for n in (1, 2, 3):
        diag = {t.rows for t in tables_matching(n, "commutative-inverse")}
        rep = search_double(n, "inverse")
        assert rep.pair_count == len(diag)


def test_canonical_pair_invariance():
    lp, rp = left_projection(2), right_projection(2)
    base = canonical_pair(lp, rp)
    for perm in ((1, 2), (2, 1)):
        assert canonical_pair(relabel(lp, perm), relabel(rp, perm)) == base


def test_enumeration_report_json_shape():
    doc = enumerate_semigroups(2, "inverse").as_json()
    assert doc["kind"] == "enumeration"
    assert doc["labeled_count"] == 4
    assert all(body.startswith("2\n") for body in doc["representatives"])
    pdoc = search_double(2, "inverse").as_json()
    assert pdoc["kind"] == "pair-search"
    assert pdoc["pair_count"] == 4


def test_pair_search_matches_labeled_oracle():
    # every labeled first table, its second tables, and n! relabelings a pair
    for n in (1, 2, 3):
        for klass in ("semigroup", "inverse"):
            pairs = labeled_pairs_oracle(n, klass)
            proper = [(h, v) for h, v in pairs if h != v]
            canon = {least_relabeling_oracle(h, v) for h, v in pairs}
            rep = search_double(n, klass)
            assert (rep.pair_count, rep.proper_pair_count) == (len(pairs), len(proper))
            assert [(h.rows, v.rows) for h, v in rep.representatives] == sorted(canon)
            assert [(h.rows, v.rows) for h, v in rep.proper_representatives] == sorted(
                {least_relabeling_oracle(h, v) for h, v in proper}
            )
            labeled = {(h.rows, v.rows) for h, v in pairs}
            expanded = labeled_pairs(rep)
            assert len(expanded) == len(pairs)
            assert {(h.rows, v.rows) for h, v in expanded} == labeled
            assert rep.claims["swap_closed"] == (labeled == {(v, h) for h, v in labeled})
            assert all(canonical_pair(h, v) == least_relabeling_oracle(h, v) for h, v in pairs)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each pool started, in order; the pools run serially."""
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_pools_are_no_larger_than_their_tasks(pool_sizes, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 10**6)  # more cores than tasks
    assert enumerate_semigroups(3, "inverse", jobs=10**6).labeled_count == 24
    assert search_double(2, "semigroup", jobs=10**6).pair_count == 46
    assert pool_sizes == [len(_prefixes(3, _SPLIT_DEPTH[3], "inverse")), len(_classes(2, "all"))]


def test_pools_are_no_larger_than_the_cores(pool_sizes, monkeypatch):
    # a pool starts all of its workers at once, so --jobs 1000 on the 188 pool
    # tasks of an order-4 pair search starts no more processes than cores, and
    # none on a host that reports no core count
    tasks = [-t for t in range(188)]
    for cores, pools in ((2, [2]), (None, [2])):
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        assert search._run_tasks(abs, tasks, 1000) == list(range(188))
        assert pool_sizes == pools


def test_orbit_with_a_wrong_automorphism_count_is_a_theorem_violation():
    [(least, aut)] = _classes(5, "noncommutative-inverse")
    assert len(search._orbit(least, aut, relabelings(5))) == 60
    with pytest.raises(TheoremViolation, match=r"n!/\|Aut\|"):
        search._orbit(least, aut + 1, relabelings(5))
