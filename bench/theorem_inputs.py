"""Seeded inputs for the ``theorem`` workload, and their expected outputs.

Accepted inputs come from random presheaves of cyclic groups on rooted-tree
meet-semilattices. Their double inverse semigroup is known without the program:
it is the strong semilattice of groups (e,x)·(f,y) = (e∧f, φ(x)+φ(y)), used as
both operations. Every expected report below is derived from that structure by
the code in this file alone, which imports nothing from ``esnlab``.

Rejected inputs are double semigroups that are not inverse; malformed inputs
are broken files. Their expected exit codes are 1 and 2.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd

MAX_OBJECTS = 5
MAX_GROUP = 3
# (total order, number of objects) of the generated presheaves: each order
# 1..12 with every number of objects it allows. Every seed gets the same list,
# so a seed changes only tree shapes, group sizes, maps and labels, and the
# work per pass stays nearly the same from seed to seed.
SHAPES = tuple((n, k) for n in range(1, 13)
               for k in range(-(-n // MAX_GROUP), min(MAX_OBJECTS, n) + 1))
# Orders of the rejected (left-zero, right-zero) and monogenic pairs.
REJECT_ORDERS = (2, 3, 4, 5)


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call and the outcome it must produce.

    ``check`` receives the parsed JSON document (None when the command must exit
    2 and print nothing) and returns True when the output is correct.
    """

    kind: str
    argv: list
    code: int
    check: object


@dataclass(frozen=True)
class Presheaf:
    """Cyclic groups Z_size[v] on the nodes of a tree rooted at node 0."""

    parent: tuple  # parent[v] for v > 0; parent[0] is None
    size: tuple  # group order per node
    edge: tuple  # edge[v]: multiplier t of the map Z_size[v] -> Z_size[parent[v]]
    node_label: tuple  # base element id per node
    label: dict  # (node, x) -> cell label in 1..n

    @property
    def n(self):
        return sum(self.size)

    def ancestors(self, v):
        """v, its parent, ..., the root."""
        out = [v]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])
        return out

    def leq(self, a, b):
        return a in self.ancestors(b)

    def meet(self, a, b):
        up = set(self.ancestors(b))
        return next(v for v in self.ancestors(a) if v in up)

    def restrict(self, a, b, x):
        """The restriction φ_{a,b}(x) for a <= b: edge maps composed up the tree."""
        v = b
        while v != a:
            x = x * self.edge[v] % self.size[self.parent[v]]
            v = self.parent[v]
        return x

    @property
    def home(self):
        return {lab: key for key, lab in self.label.items()}


def random_presheaf(rng, order, k):
    size = [1] * k
    for _ in range(order - k):
        size[rng.choice([v for v in range(k) if size[v] < MAX_GROUP])] += 1
    rng.shuffle(size)
    parent = [None] + [rng.randrange(v) for v in range(1, k)]
    edge = [0]
    for v in range(1, k):
        m, p = size[v], size[parent[v]]
        step = p // gcd(m, p)
        edge.append(step * rng.randrange(gcd(m, p)))
    node_label = list(range(1, k + 1))
    rng.shuffle(node_label)
    labels = list(range(1, order + 1))
    rng.shuffle(labels)
    keys = [(v, x) for v in range(k) for x in range(size[v])]
    p = Presheaf(tuple(parent), tuple(size), tuple(edge), tuple(node_label),
                 dict(zip(keys, labels)))
    check_functor_law(p)
    return p


def check_functor_law(p):
    """Each restriction is a homomorphism, φ_{a,a} is the identity, and
    φ_{a,b}∘φ_{b,c} = φ_{a,c} for a <= b <= c."""
    k = len(p.size)
    for a in range(k):
        for b in range(k):
            if not p.leq(a, b):
                continue
            for x in range(p.size[b]):
                for y in range(p.size[b]):
                    lhs = p.restrict(a, b, (x + y) % p.size[b])
                    rhs = (p.restrict(a, b, x) + p.restrict(a, b, y)) % p.size[a]
                    if lhs != rhs:
                        raise AssertionError(f"restriction {a}<={b} is not a homomorphism")
                if a == b and p.restrict(a, b, x) != x:
                    raise AssertionError(f"restriction {a}<={a} is not the identity")
            for c in range(k):
                if p.leq(b, c):
                    for x in range(p.size[c]):
                        if p.restrict(a, b, p.restrict(b, c, x)) != p.restrict(a, c, x):
                            raise AssertionError(f"functor law fails on {a}<={b}<={c}")


def semilattice_of_groups(p):
    """The Cayley table (e,x)·(f,y) = (e∧f, φ(x)+φ(y)) on the cell labels."""
    n = p.n
    home = p.home
    rows = []
    for a in range(1, n + 1):
        e, x = home[a]
        row = []
        for b in range(1, n + 1):
            f, y = home[b]
            m = p.meet(e, f)
            z = (p.restrict(m, e, x) + p.restrict(m, f, y)) % p.size[m]
            row.append(p.label[(m, z)])
        rows.append(row)
    return rows


def presheaf_json(p):
    k = len(p.size)
    lab = p.node_label
    return {
        "schema_version": 1,
        "kind": "abelian-group-presheaf",
        "base": {
            "elements": [lab[v] for v in range(k)],
            "leq": sorted([lab[a], lab[b]] for a in range(k) for b in range(k) if p.leq(a, b)),
            "meet": sorted([lab[a], lab[b], lab[p.meet(a, b)]] for a in range(k) for b in range(k)),
        },
        "groups": [
            {
                "at": lab[v],
                "order": p.size[v],
                "carrier": [p.label[(v, x)] for x in range(p.size[v])],
                "op": [[(x + y) % p.size[v] + 1 for y in range(p.size[v])]
                       for x in range(p.size[v])],
                "unit": 1,
            }
            for v in range(k)
        ],
        "homs": [
            {"pair": [lab[a], lab[b]],
             "values": [p.restrict(a, b, x) + 1 for x in range(p.size[b])]}
            for a in range(k) for b in range(k) if p.leq(a, b)
        ],
    }


def format_cay(rows):
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


class Structure:
    """Everything the reports state about the strong semilattice of groups of
    one presheaf, in the program's id conventions: an idempotent's id is its
    rank among the idempotents, and cells are the element labels."""

    def __init__(self, p):
        self.p = p
        self.rows = semilattice_of_groups(p)
        self.n = p.n
        home = p.home
        self.node = {a: home[a][0] for a in range(1, self.n + 1)}
        self.unit = {v: p.label[(v, 0)] for v in range(len(p.size))}
        self.idems = sorted(self.unit.values())
        self.rank = {e: i + 1 for i, e in enumerate(self.idems)}
        self.node_of_idem = {e: v for v, e in self.unit.items()}
        self.inv = {a: p.label[(home[a][0], -home[a][1] % p.size[home[a][0]])]
                    for a in range(1, self.n + 1)}

    def mul(self, a, b):
        return self.rows[a - 1][b - 1]

    def below(self, e, a):
        """Idempotent e lies under the unit of a's group."""
        return self.p.leq(self.node_of_idem[e], self.node[a])

    def leq_pairs(self):
        """The natural order: a <= b iff a = e·b for the idempotent e of a's group."""
        cells = range(1, self.n + 1)
        return sorted([a, b] for a in cells for b in cells
                      if self.mul(self.unit[self.node[a]], b) == a)

    def compose_triples(self):
        cells = range(1, self.n + 1)
        return sorted([a, b, self.mul(a, b)] for a in cells for b in cells
                      if self.node[a] == self.node[b])

    def dig_json(self):
        """``double to-dig`` artifact; both structures coincide since hop = vop."""
        cells = range(1, self.n + 1)
        k = len(self.idems)
        ids = list(range(1, k + 1))
        dom = [self.rank[self.unit[self.node[a]]] for a in cells]
        comp = self.compose_triples()
        leq = self.leq_pairs()
        meets = sorted([self.rank[e], self.rank[f], self.rank[self.mul(e, f)]]
                       for e in self.idems for f in self.idems)
        restrict = sorted([self.rank[e], a, self.mul(e, a)]
                          for e in self.idems for a in cells if self.below(e, a))
        corestrict = sorted([a, self.rank[e], self.mul(a, e)]
                            for e in self.idems for a in cells if self.below(e, a))
        return {
            "schema_version": 1,
            "kind": "double-inductive-groupoid",
            "objects": k, "ver_arrows": k, "hor_arrows": k, "cells": self.n,
            "obj_ver": ids, "obj_hor": ids,
            "ver_cell": self.idems, "hor_cell": self.idems,
            "ver_src": ids, "ver_dst": ids, "hor_src": ids, "hor_dst": ids,
            "hdom": dom, "hcod": dom, "vdom": dom, "vcod": dom,
            "hcompose": comp, "vcompose": comp,
            "hinv": [self.inv[a] for a in cells], "vinv": [self.inv[a] for a in cells],
            "leq": leq, "lesssim": leq,
            "meet_h": meets, "meet_v": meets,
            "h_restrict": restrict, "h_corestrict": corestrict,
            "v_restrict": restrict, "v_corestrict": corestrict,
        }

    def groupoid_json(self):
        """``esn to-groupoid`` artifact: objects are the idempotent labels."""
        cells = range(1, self.n + 1)
        dom = [self.unit[self.node[a]] for a in cells]
        return {
            "schema_version": 1,
            "kind": "inductive-groupoid",
            "objects": self.idems,
            "arrows": self.n,
            "dom": dom,
            "cod": dom,
            "compose": self.compose_triples(),
            "inverse": [self.inv[a] for a in cells],
            "identity": [[e, e] for e in self.idems],
            "leq": self.leq_pairs(),
            "meet": sorted([e, f, self.mul(e, f)] for e in self.idems for f in self.idems),
            "restriction": sorted([e, a, self.mul(e, a)]
                                  for e in self.idems for a in cells if self.below(e, a)),
            "corestriction": sorted([a, e, self.mul(a, e)]
                                    for e in self.idems for a in cells if self.below(e, a)),
        }

    def decomposed_json(self):
        """``decompose`` artifact: objects are idempotent ranks, each group's
        carrier its sorted cells, restriction to e is multiplication by e."""
        cells = range(1, self.n + 1)
        objs = list(range(1, len(self.idems) + 1))
        carrier = {o: sorted(a for a in cells if self.unit[self.node[a]] == self.idems[o - 1])
                   for o in objs}
        below = {(o1, o2) for o1 in objs for o2 in objs
                 if self.below(self.idems[o1 - 1], self.idems[o2 - 1])}
        return {
            "schema_version": 1,
            "kind": "abelian-group-presheaf",
            "base": {
                "elements": objs,
                "leq": sorted([a, b] for a, b in below),
                "meet": sorted([a, b, self.rank[self.mul(self.idems[a - 1], self.idems[b - 1])]]
                               for a in objs for b in objs),
            },
            "groups": [
                {
                    "at": o,
                    "order": len(carrier[o]),
                    "carrier": carrier[o],
                    "op": [[carrier[o].index(self.mul(x, y)) + 1 for y in carrier[o]]
                           for x in carrier[o]],
                    "unit": carrier[o].index(self.idems[o - 1]) + 1,
                }
                for o in objs
            ],
            "homs": [
                {"pair": [a, b],
                 "values": [carrier[a].index(self.mul(self.idems[a - 1], x)) + 1
                            for x in carrier[b]]}
                for a, b in sorted(below)
            ],
        }


# Non-inverse double semigroups: (left-zero, right-zero) and a monogenic
# commutative semigroup of index 2 paired with itself.

def left_zero(n):
    return [[a] * n for a in range(1, n + 1)]


def right_zero(n):
    return [list(range(1, n + 1)) for _ in range(n)]


def monogenic(n, rng):
    """<a | a^(n+1) = a^2> with its powers relabelled at random; a has no inverse."""
    label = list(range(1, n + 1))  # label[s - 1] names the power a^s
    rng.shuffle(label)
    power = {lab: s for s, lab in enumerate(label, 1)}

    def reduce(s):
        return s if s <= n else 2 + (s - 2) % (n - 1)

    return [[label[reduce(power[x] + power[y]) - 1] for y in range(1, n + 1)]
            for x in range(1, n + 1)]


def is_double_not_inverse(hop, vop):
    """Both associative, interchange holds, and some element of each table lacks
    a unique generalized inverse."""
    n = len(hop)
    rng = range(n)

    def mul(t, a, b):
        return t[a][b] - 1

    for t in (hop, vop):
        if any(mul(t, mul(t, a, b), c) != mul(t, a, mul(t, b, c))
               for a in rng for b in rng for c in rng):
            return False
        if all(sum(1 for x in rng if mul(t, mul(t, a, x), a) == a
                   and mul(t, mul(t, x, a), x) == x) == 1 for a in rng):
            return False
    return all(mul(hop, mul(vop, a, b), mul(vop, c, d))
               == mul(vop, mul(hop, a, c), mul(hop, b, d))
               for a in rng for b in rng for c in rng for d in rng)


# Output checks. Each takes the parsed document and returns a bool.

def _checks(doc):
    return [(c["name"], c["ok"]) for c in doc["checks"]]


def _expect_compose(rows):
    text = format_cay(rows)
    return lambda doc: doc["ok"] and doc["artifact"]["cay"] == text + "\n" + text


def _expect_decompose(s):
    artifact = s.decomposed_json()
    names = [("double-inverse-semigroup", True), ("improper", True),
             ("commutative", True), ("clifford", True)]

    def check(doc):
        mt = doc["main_theorem"]
        return (_checks(doc) == names and doc["artifact"] == artifact
                and mt["double_inverse"] and mt["improper"]
                and mt["commutative"] and mt["clifford"])
    return check


def _expect_artifact(artifact):
    return lambda doc: doc["ok"] and doc["artifact"] == artifact


def _expect_validate(doc):
    return _checks(doc) == [("axioms", True)] and doc["report"]["ok"]


def _expect_interchange(n):
    return lambda doc: (_checks(doc) == [("interchange-identities", True)]
                        and doc["report"]["ok"]
                        and doc["report"]["substantive"]["interchange.products"] == n ** 4)


def _expect_roundtrip(doc):
    return _checks(doc) == [("semigroup-roundtrip", True), ("groupoid-roundtrip", True)]


def _expect_groupoid(s):
    artifact = s.groupoid_json()
    return lambda doc: _checks(doc) == [("roundtrip", True)] and doc["artifact"] == artifact


def _expect_double_inverse(doc):
    return (_checks(doc) == [("double-inverse-semigroup", True), ("improper", True)]
            and doc["checks"][0]["info"]["is_double_inverse_semigroup"])


def _expect_rejected_check(doc):
    info = doc["checks"][0]["info"]
    return (_checks(doc) == [("double-inverse-semigroup", False)]
            and info["is_double_semigroup"] and not info["is_double_inverse_semigroup"])


def _expect_rejected_decompose(doc):
    mt = doc["main_theorem"]
    return (_checks(doc) == [("double-inverse-semigroup", False)]
            and mt["is_double_semigroup"] and not mt["is_double_inverse_semigroup"])


def _no_output(doc):
    return doc is None


def build(seed, workdir):
    """The inputs for one seed, as {file name: bytes}, and the ops that read
    them from ``workdir``. The same seed always gives the same bytes."""
    rng = random.Random(seed)
    files = {}
    ops = []

    def put(name, data):
        files[name] = data.encode() if isinstance(data, str) else data
        return str(workdir / name)

    def add(kind, argv, code, check):
        ops.append(Op(kind, argv + ["--format", "json"], code, check))

    structures = []
    for i, (order, k) in enumerate(SHAPES):
        p = random_presheaf(rng, order, k)
        s = Structure(p)
        structures.append(s)
        n = s.n
        pjson = json.dumps(presheaf_json(p), indent=1)
        pair = format_cay(s.rows) + "\n" + format_cay(s.rows)
        dig = s.dig_json()
        pre = put(f"p{i}.presheaf.json", pjson)
        pair_path = put(f"p{i}.pair.cay", pair)
        single = put(f"p{i}.cay", format_cay(s.rows))
        dig_path = put(f"p{i}.dig.json", json.dumps(dig))
        add("compose", ["compose", pre], 0, _expect_compose(s.rows))
        add("decompose", ["decompose", pair_path], 0, _expect_decompose(s))
        add("to-dig", ["double", "to-dig", pair_path], 0, _expect_artifact(dig))
        add("validate-axioms", ["double", "validate-axioms", dig_path, "--strict-axiom-ix"],
            0, _expect_validate)
        add("verify-interchange", ["double", "verify-interchange", dig_path], 0,
            _expect_interchange(n))
        add("roundtrip", ["double", "roundtrip", pair_path], 0, _expect_roundtrip)
        add("to-groupoid", ["esn", "to-groupoid", single, "--roundtrip"], 0,
            _expect_groupoid(s))
        add("check", ["check", pair_path, "--double-inverse"], 0, _expect_double_inverse)

    for n in REJECT_ORDERS:
        for name, hop, vop in (("lr", left_zero(n), right_zero(n)),
                               ("mono", *[monogenic(n, rng)] * 2)):
            if not is_double_not_inverse(hop, vop):
                raise AssertionError(f"{name}{n} is not a non-inverse double semigroup")
            path = put(f"reject_{name}{n}.cay", format_cay(hop) + "\n" + format_cay(vop))
            add("reject-check", ["check", path, "--double-inverse"], 1,
                _expect_rejected_check)
            add("reject-decompose", ["decompose", path], 1, _expect_rejected_decompose)

    add_malformed(rng, structures, put, add)
    return files, ops


def add_malformed(rng, structures, put, add):
    """One broken file per kind, cut from a seeded choice of generated input."""
    big = [s for s in structures if s.n >= 3 and s.n > len(s.idems)]
    s = rng.choice(big)
    rows = [list(r) for r in s.rows]
    rows[rng.randrange(s.n)][rng.randrange(s.n)] = s.n + 1
    path = put("bad_range.cay", format_cay(s.rows) + "\n" + format_cay(rows))
    add("malformed", ["check", path, "--double-inverse"], 2, _no_output)

    s = rng.choice(big)
    smaller = [r[:-1] for r in s.rows[:-1]]
    path = put("bad_orders.cay", format_cay(s.rows) + "\n" + format_cay(smaller))
    add("malformed", ["decompose", path], 2, _no_output)

    s = rng.choice(big)
    text = json.dumps(presheaf_json(s.p), indent=1)
    path = put("bad_truncated.presheaf.json", text[: len(text) // 2])
    add("malformed", ["compose", path], 2, _no_output)

    s = rng.choice(big)
    doc = presheaf_json(s.p)
    # the identity map on a nontrivial group becomes the zero map
    at = next(g["at"] for g in doc["groups"] if g["order"] > 1)
    hom = next(h for h in doc["homs"] if h["pair"] == [at, at])
    hom["values"] = [1] * len(hom["values"])
    path = put("bad_identity.presheaf.json", json.dumps(doc))
    add("malformed", ["compose", path], 2, _no_output)

    s = rng.choice(big)
    doc = s.dig_json()
    del doc[rng.choice(["hcompose", "leq", "meet_v", "h_restrict"])]
    path = put("bad_missing.dig.json", json.dumps(doc))
    add("malformed", ["double", "validate-axioms", path], 2, _no_output)

    s = rng.choice(big)
    text = format_cay(s.rows).replace(" ", " x", 1)
    path = put("bad_token.cay", text)
    add("malformed", ["esn", "to-groupoid", path], 2, _no_output)
