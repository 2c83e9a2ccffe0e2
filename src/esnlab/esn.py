"""Inductive groupoids and the two constructions tying them to inverse semigroups.

Objects are identified with their identity arrows: an object *is* the id of its
identity arrow, so roundtrips can demand literal equality instead of hunting for
isomorphisms. Arrows are always 1..m. Partial tables (compose, restriction,
corestriction) store exactly their defined cells, never a sentinel. The ESN
construction is written once, in ``groupoid_of``, for ``ig_from_is`` and the one
view of ``double.dig_from_dis`` and of ``presheaf.dig_from_presheaf`` (``compose``);
the pseudo-product once, in ``pseudo_products``, for ``is_from_ig`` and both views
of a double groupoid. A groupoid keeps its own validation report, so one that a
construction has checked is not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidGroupoidError, TheoremViolation
from .inverse import InverseSemigroupAnalysis, analyze_inverse, order_and_meet_rows
from .report import PASS, Row, ValidationReport, Verdict, check_ranges, check_rows
from .report import computed_once, from_json, to_json
from .tables import CayleyTable, first_difference


@dataclass(frozen=True)
class InductiveGroupoid:
    objects: tuple[int, ...]
    arrows: tuple[int, ...]
    dom: dict
    cod: dict
    compose: dict  # (x, y) -> z, defined iff cod(x) == dom(y)
    inv: dict
    identity: dict  # object -> its identity arrow (== the object itself)
    leq: frozenset
    object_meet: dict  # (e, f) -> g, total on objects
    restriction: dict  # (e, x) -> y, for objects e <= dom(x)
    corestriction: dict  # (x, e) -> y, for objects e <= cod(x)

    @computed_once
    def report(self) -> ValidationReport:
        """``validate_ig`` of this value, computed once; treat it as read-only."""
        return validate_ig(self)


# The fields of an inductive groupoid with their sorts, x an arrow and o an
# object, and the tags under which their ranges were checked before.
_FIELDS = {"dom": "x:o", "cod": "x:o", "inv": "x:x", "identity": "o:x", "compose": "xx:x",
           "leq": "xx", "object_meet": "oo:o", "restriction": "ox:x", "corestriction": "xo:x"}
_RANGE_TAGS = {"dom": "shape.boundary", "cod": "shape.boundary", "inv": "shape.inverse",
               "identity": "shape.identity", "leq": "order.range", "object_meet": "meet.range"}
# Every field, the two carriers first, as the JSON has them: objects listed by
# id, arrows (1..m) by their count, and two fields under other names.
_JSON_FIELDS = {"objects": "o", "arrows": "x", **_FIELDS}
_JSON_NAMES = {"inv": "inverse", "object_meet": "meet"}


def _only(items):
    return items[0] if len(items) == 1 else None


# Rows over the sorts of order_and_meet_rows and: C a composable pair, z its
# composite, y an arrow starting where it ends; i the inverse of an arrow;
# d (k) an object below its domain (codomain), and b (c) the arrows below it
# with that domain (codomain), as one value; R (K) a key of the
# (co)restriction table; q a pair of the order whose domains are the codomains
# of the pair before it.
_ROWS = (
    Row("shape.identity", "o", lambda g, e: g.identity[e] == e,
        message="identity arrow of an object must be itself"),
    Row("groupoid.identity-loop", "o", lambda g, e: g.dom[e] == e == g.cod[e],
        message="identity arrows must be loops"),
    Row("groupoid.compose-defined", "xx",
        lambda g, x, y: ((x, y) in g.compose) == (g.cod[x] == g.dom[y])),
    Row("groupoid.compose-boundary", "Cz",
        lambda g, xy, z: g.dom[z] == g.dom[xy[0]] and g.cod[z] == g.cod[xy[1]]),
    Row("groupoid.identity-neutral", "x",
        lambda g, x: g.compose.get((g.dom[x], x)) == x == g.compose.get((x, g.cod[x]))),
    Row("groupoid.inverse-boundary", "xi",
        lambda g, x, xi: g.dom[xi] == g.cod[x] and g.cod[xi] == g.dom[x]),
    Row("groupoid.inverse-law", "xi", lambda g, x, xi:
        None if g.dom[xi] != g.cod[x] or g.cod[xi] != g.dom[x]
        else g.compose.get((x, xi)) == g.dom[x] and g.compose.get((xi, x)) == g.cod[x]),
    Row("groupoid.inverse-involution", "xi", lambda g, x, xi: g.inv[xi] == x),
    Row("groupoid.assoc", "Czy", lambda g, xy, w, z: None if (xy[1], z) not in g.compose
        else g.compose.get((w, z)) == g.compose.get((xy[0], g.compose[xy[1], z])),
        order=(0, 1, 3)),
    *order_and_meet_rows("order.reflexive", "order.antisymmetric", "order.transitive",
                         "meet.lower-bound", "meet.greatest", "meet"),
    Row("meet.range", "oom", lambda g, e, f, m: m is not None),
    # axioms i, ii: inverses and composition preserve the order
    Row("i", "l", lambda g, p: (g.inv[p[0]], g.inv[p[1]]) in g.leq, counts="i"),
    Row("ii", "ll", lambda g, p, q:
        None if g.cod[p[0]] != g.dom[q[0]] or g.cod[p[1]] != g.dom[q[1]]
        else (g.compose.get((p[0], q[0])), g.compose.get((p[1], q[1]))) in g.leq, counts="ii",
        drive="lq"),
    # axioms iii, iv: unique (co)restrictions, matching tables that hold nothing else
    Row("iii.unique", "xdb", lambda g, x, e, ys: len(ys), lambda *_: 1, order=(1, 0),
        counts="iii"),
    Row("iii.table", "xdb", lambda g, x, e, ys: g.restriction.get((e, x)) == _only(ys),
        order=(1, 0)),
    Row("iii.extraneous", "R", lambda g, ex: (ex[0], g.dom[ex[1]]) in g.leq),
    Row("iv.unique", "xkc", lambda g, x, e, ys: len(ys), lambda *_: 1, order=(0, 1),
        counts="iv"),
    Row("iv.table", "xkc", lambda g, x, e, ys: g.corestriction.get((x, e)) == _only(ys),
        order=(0, 1)),
    Row("iv.extraneous", "K", lambda g, xe: (xe[1], g.cod[xe[0]]) in g.leq),
)


def validate_ig(g: InductiveGroupoid) -> ValidationReport:
    """Exhaustively check the groupoid, order, restriction, and meet axioms:
    the carriers, the range pass over the fields, then the rows."""
    rep = ValidationReport()
    if g.arrows != tuple(range(1, len(g.arrows) + 1)):
        rep.add("shape.arrows", (), "arrows must be 1..m in order")
    elif not set(g.objects) <= set(g.arrows):
        extra = tuple(sorted(set(g.objects) - set(g.arrows)))
        rep.add("shape.objects", extra, "objects must be arrow ids")
    elif check_ranges(g, _FIELDS, {"x": set(g.arrows), "o": set(g.objects)}, rep, _RANGE_TAGS):
        down = {x: [y for y in g.arrows if (y, x) in g.leq] for x in g.arrows}
        up = {x: [y for y in g.arrows if (x, y) in g.leq] for x in g.arrows}
        below = {o: [e for e in g.objects if (e, o) in g.leq] for o in g.objects}
        leaving = {o: [z for z in g.arrows if g.dom[z] == o] for o in g.objects}
        starting = {}
        for q in g.leq:
            starting.setdefault((g.dom[q[0]], g.dom[q[1]]), []).append(q)
        check_rows(g, {
            "x": g.arrows, "o": g.objects, "l": g.leq, "R": g.restriction,
            "K": g.corestriction, "C": [k for k in g.compose if g.cod[k[0]] == g.dom[k[1]]],
            "z": lambda xy: (g.compose[xy],),
            "y": lambda xy, w: leaving[g.cod[xy[1]]],
            "u": lambda p: up[p[1]],
            "q": lambda p: starting.get((g.cod[p[0]], g.cod[p[1]]), ()),
            "i": lambda x: (g.inv[x],),
            "d": lambda x: below[g.dom[x]],
            "k": lambda x: below[g.cod[x]],
            "b": lambda x, e: (tuple(y for y in down[x] if g.dom[y] == e),),
            "c": lambda x, e: (tuple(y for y in down[x] if g.cod[y] == e),),
            "m": lambda e, f: (g.object_meet.get((e, f)),),
            "w": lambda e, f, m: below[e],
        }, _ROWS, rep)
    return rep


def groupoid_of(analysis: InverseSemigroupAnalysis) -> InductiveGroupoid:
    """The ESN construction, unchecked: objects are the idempotents, arrows the
    elements; dom a = a·a', cod a = a'·a, composition is the product where
    boundaries match, restriction is left and corestriction right multiplication.
    This is the one place that reads a groupoid off an inverse semigroup."""
    t = analysis.table
    objects = analysis.idempotent_set
    arrows = tuple(t.elements())
    dom = {a: t.product(a, analysis.inverse(a)) for a in arrows}
    cod = {a: t.product(analysis.inverse(a), a) for a in arrows}
    leq = analysis.leq
    return InductiveGroupoid(
        objects=objects, arrows=arrows, dom=dom, cod=cod,
        compose={(a, b): t.product(a, b) for a in arrows for b in arrows if cod[a] == dom[b]},
        inv={a: analysis.inverse(a) for a in arrows},
        identity={e: e for e in objects}, leq=leq,
        object_meet={(e, f): t.product(e, f) for e in objects for f in objects},
        restriction={(e, a): t.product(e, a) for e in objects for a in arrows
                     if (e, dom[a]) in leq},
        corestriction={(a, e): t.product(a, e) for e in objects for a in arrows
                       if (e, cod[a]) in leq},
    )


def ig_from_is(analysis: InverseSemigroupAnalysis) -> InductiveGroupoid:
    """``groupoid_of`` the analysis, proved to be an inductive groupoid."""
    g = groupoid_of(analysis)
    if not g.report:
        raise TheoremViolation(f"construction produced an invalid groupoid: {g.report.summary()}")
    return g


def pseudo_products(g: InductiveGroupoid) -> dict:
    """(a, b) -> (m, a corestricted to m, m restricted into b, a·b) for every
    pair of arrows, where m = cod(a) ∧ dom(b) and a·b is the pseudo-product; a
    piece is None where it is undefined, which happens only when g fails
    ``validate_ig``."""
    meet, corestrict = g.object_meet.get, g.corestriction.get
    restrict, compose = g.restriction.get, g.compose.get
    out = {}
    for a in g.arrows:
        cod = g.cod[a]
        for b in g.arrows:
            m = meet((cod, g.dom[b]))
            am = corestrict((a, m))
            mb = restrict((m, b))
            out[a, b] = (m, am, mb, compose((am, mb)))
    return out


def pseudo_product_table(g: InductiveGroupoid) -> CayleyTable:
    """The pseudo-product of a groupoid that passes ``validate_ig``, as a table;
    total because object meets are."""
    products = pseudo_products(g)
    return CayleyTable(tuple(products[a, b][3] - 1 for a in g.arrows for b in g.arrows))


def is_from_ig(g: InductiveGroupoid) -> InverseSemigroupAnalysis:
    """The pseudo-product as an inverse semigroup: returns the analysis of its
    table, which proves it one."""
    if not g.report:
        raise InvalidGroupoidError(g.report)
    return analyze_inverse(pseudo_product_table(g))  # raises unless inverse


def semigroup_roundtrip(t: CayleyTable, g: InductiveGroupoid | None = None) -> Verdict:
    """is_from_ig(g) must reproduce t entrywise, g = ig_from_is of t's analysis;
    a caller that already built g passes it in."""
    if g is None:
        g = ig_from_is(analyze_inverse(t))
    cell = first_difference(is_from_ig(g).table, t)
    return Verdict(cell is None, cell)


def groupoid_roundtrip(
    g: InductiveGroupoid, analysis: InverseSemigroupAnalysis | None = None
) -> Verdict:
    """ig_from_is(analysis) must reproduce g on the nose (same ids), analysis =
    is_from_ig(g); a caller that already built it passes it in. The witness is
    the first field that differs."""
    if analysis is None:
        analysis = is_from_ig(g)
    back = ig_from_is(analysis)
    for name in _JSON_FIELDS:
        if getattr(back, name) != getattr(g, name):
            return Verdict(False, (name,))
    return PASS


def groupoid_to_json(g: InductiveGroupoid) -> dict:
    return {"schema_version": 1, "kind": "inductive-groupoid",
            **to_json(g, _JSON_FIELDS, _JSON_NAMES, ("objects",))}


def groupoid_from_json(doc: dict) -> InductiveGroupoid:
    """The inverse of ``groupoid_to_json``, read by ``report.from_json``; the
    structure itself is left to ``validate_ig``."""
    return InductiveGroupoid(**from_json(doc, _JSON_FIELDS, _JSON_NAMES, ("objects",),
                                          "inductive-groupoid"))


def groupoid_dot(g: InductiveGroupoid) -> str:
    """Objects as nodes, non-identity arrows as edges; order data is omitted."""
    lines = ["digraph groupoid {"]
    for e in g.objects:
        lines.append(f'  "{e}";')
    for a in g.arrows:
        if a in g.objects:
            continue
        lines.append(f'  "{g.dom[a]}" -> "{g.cod[a]}" [label="{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
