"""Inductive groupoids and the two constructions tying them to inverse semigroups.

Objects are identified with their identity arrows: an object *is* the id of its
identity arrow, so roundtrips can demand literal equality instead of hunting for
isomorphisms. Arrows are always 1..m. Partial tables (compose, restriction,
corestriction) store exactly their defined cells, never a sentinel. The
pseudo-product is written once, in ``pseudo_products``, for ``is_from_ig`` and
for both views of a double groupoid. A groupoid keeps its own validation
report, so a groupoid one construction has checked is not checked again by the next.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidGroupoidError, ParseError, TheoremViolation, json_field
from .inverse import InverseSemigroupAnalysis, analyze_inverse
from .report import ValidationReport, Verdict, computed_once
from .tables import CayleyTable


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

    def leq_holds(self, x, y):
        return (x, y) in self.leq

    @computed_once
    def report(self) -> ValidationReport:
        """``validate_ig`` of this value, computed once; treat it as read-only."""
        return validate_ig(self)


def validate_ig(g: InductiveGroupoid) -> ValidationReport:
    """Exhaustively check the groupoid, order, restriction, and meet axioms."""
    rep = ValidationReport()
    arrows = g.arrows
    objects = g.objects
    arrow_set = set(arrows)
    object_set = set(objects)

    if arrows != tuple(range(1, len(arrows) + 1)):
        rep.add("shape.arrows", (), "arrows must be 1..m in order")
        return rep
    if not object_set <= arrow_set:
        rep.add("shape.objects", tuple(sorted(object_set - arrow_set)), "objects must be arrow ids")
        return rep
    for x in arrows:
        if g.dom.get(x) not in object_set or g.cod.get(x) not in object_set:
            rep.add("shape.boundary", (x,), "dom/cod must map every arrow to an object")
            return rep
        if g.inv.get(x) not in arrow_set:
            rep.add("shape.inverse", (x,), "inverse must map every arrow to an arrow")
            return rep
    for e in objects:
        if g.identity.get(e) != e:
            rep.add("shape.identity", (e,), "identity arrow of an object must be itself")
        if g.dom.get(e) != e or g.cod.get(e) != e:
            rep.add("groupoid.identity-loop", (e,), "identity arrows must be loops")

    # composition: definedness pattern, boundaries, identities, associativity, inverses
    for x in arrows:
        for y in arrows:
            defined = (x, y) in g.compose
            should = g.cod[x] == g.dom[y]
            if defined != should:
                rep.add("groupoid.compose-defined", (x, y))
                continue
            if not defined:
                continue
            z = g.compose[(x, y)]
            if z not in arrow_set:
                rep.add("groupoid.compose-range", (x, y, z))
                continue
            if g.dom[z] != g.dom[x] or g.cod[z] != g.cod[y]:
                rep.add("groupoid.compose-boundary", (x, y, z))
    for x in arrows:
        e, f = g.dom[x], g.cod[x]
        if g.compose.get((e, x)) != x or g.compose.get((x, f)) != x:
            rep.add("groupoid.identity-neutral", (x,))
        xi = g.inv[x]
        if g.dom.get(xi) != f or g.cod.get(xi) != e:
            rep.add("groupoid.inverse-boundary", (x, xi))
        elif g.compose.get((x, xi)) != e or g.compose.get((xi, x)) != f:
            rep.add("groupoid.inverse-law", (x, xi))
        if g.inv.get(xi) != x:
            rep.add("groupoid.inverse-involution", (x, xi))
    for x in arrows:
        for y in arrows:
            if g.cod[x] != g.dom[y]:
                continue
            xy = g.compose.get((x, y))
            if xy is None:
                continue  # already flagged as compose-defined
            for z in arrows:
                if g.cod[y] != g.dom[z]:
                    continue
                yz = g.compose.get((y, z))
                if yz is None:
                    continue
                if g.compose.get((xy, z)) != g.compose.get((x, yz)):
                    rep.add("groupoid.assoc", (x, y, z))

    # leq must be a partial order on the arrows
    leq = g.leq
    for pair in leq:
        if pair[0] not in arrow_set or pair[1] not in arrow_set:
            rep.add("order.range", pair)
    for x in arrows:
        if (x, x) not in leq:
            rep.add("order.reflexive", (x,))
    for x, y in leq:
        if x != y and (y, x) in leq:
            rep.add("order.antisymmetric", (x, y))
        for z in arrows:
            if (y, z) in leq and (x, z) not in leq:
                rep.add("order.transitive", (x, y, z))

    # axiom i: inverses preserve the order
    for x, y in leq:
        rep.bump("i", True)
        if (g.inv[x], g.inv[y]) not in leq:
            rep.add("i", (x, y))
    # axiom ii: composition preserves the order
    for x, y in leq:
        for u, v in leq:
            if g.cod[x] == g.dom[u] and g.cod[y] == g.dom[v]:
                rep.bump("ii", True)
                xu = g.compose.get((x, u))
                yv = g.compose.get((y, v))
                if xu is None or yv is None or (xu, yv) not in leq:
                    rep.add("ii", (x, y, u, v))
            else:
                rep.bump("ii", False)

    # axioms iii/iv: unique (co)restrictions, matching the stored tables
    for e in objects:
        for x in arrows:
            if (e, g.dom[x]) in leq:
                rep.bump("iii", True)
                below = [y for y in arrows if (y, x) in leq and g.dom[y] == e]
                if len(below) != 1:
                    rep.add("iii.unique", (e, x), f"{len(below)} arrows below with domain {e}")
                if g.restriction.get((e, x)) != (below[0] if len(below) == 1 else None):
                    rep.add("iii.table", (e, x))
            elif (e, x) in g.restriction:
                rep.add("iii.extraneous", (e, x))
            if (e, g.cod[x]) in leq:
                rep.bump("iv", True)
                above = [y for y in arrows if (y, x) in leq and g.cod[y] == e]
                if len(above) != 1:
                    rep.add("iv.unique", (x, e), f"{len(above)} arrows below with codomain {e}")
                if g.corestriction.get((x, e)) != (above[0] if len(above) == 1 else None):
                    rep.add("iv.table", (x, e))
            elif (x, e) in g.corestriction:
                rep.add("iv.extraneous", (x, e))

    # objects form a meet-semilattice, with the stored meet as glb
    for e in objects:
        for f in objects:
            m = g.object_meet.get((e, f))
            if m not in object_set:
                rep.add("meet.range", (e, f, m))
                continue
            rep.bump("meet", True)
            if (m, e) not in leq or (m, f) not in leq:
                rep.add("meet.lower-bound", (e, f, m))
            for other in objects:
                if (other, e) in leq and (other, f) in leq and (other, m) not in leq:
                    rep.add("meet.greatest", (e, f, m, other))
    return rep


def ig_from_is(analysis: InverseSemigroupAnalysis) -> InductiveGroupoid:
    """Objects are the idempotents, arrows the elements; dom a = a·a', cod a = a'·a,
    composition is the product where boundaries match, restriction is left and
    corestriction right multiplication."""
    t = analysis.table
    objects = analysis.idempotent_set
    arrows = tuple(t.elements())
    dom = {a: t.product(a, analysis.inverse(a)) for a in arrows}
    cod = {a: t.product(analysis.inverse(a), a) for a in arrows}
    compose = {
        (a, b): t.product(a, b) for a in arrows for b in arrows if cod[a] == dom[b]
    }
    leq = analysis.leq
    g = InductiveGroupoid(
        objects=objects,
        arrows=arrows,
        dom=dom,
        cod=cod,
        compose=compose,
        inv={a: analysis.inverse(a) for a in arrows},
        identity={e: e for e in objects},
        leq=leq,
        object_meet={(e, f): t.product(e, f) for e in objects for f in objects},
        restriction={
            (e, a): t.product(e, a)
            for e in objects
            for a in arrows
            if (e, dom[a]) in leq
        },
        corestriction={
            (a, e): t.product(a, e)
            for e in objects
            for a in arrows
            if (e, cod[a]) in leq
        },
    )
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
    return CayleyTable(tuple(tuple(products[a, b][3] for b in g.arrows) for a in g.arrows))


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
    back = is_from_ig(g).table
    if back.rows == t.rows:
        return Verdict(True)
    diff = min(
        (a, b)
        for a in t.elements()
        for b in t.elements()
        if back.product(a, b) != t.product(a, b)
    )
    return Verdict(False, diff)


def groupoid_roundtrip(
    g: InductiveGroupoid, analysis: InverseSemigroupAnalysis | None = None
) -> Verdict:
    """ig_from_is(analysis) must reproduce g on the nose (same ids), analysis =
    is_from_ig(g); a caller that already built it passes it in."""
    if analysis is None:
        analysis = is_from_ig(g)
    back = ig_from_is(analysis)
    if back == g:
        return Verdict(True)
    for name in ("objects", "arrows", "dom", "cod", "compose", "inv", "leq",
                 "object_meet", "restriction", "corestriction"):
        if getattr(back, name) != getattr(g, name):
            return Verdict(False, (name,))
    return Verdict(False, ("identity",))


def groupoid_to_json(g: InductiveGroupoid) -> dict:
    return {
        "schema_version": 1,
        "kind": "inductive-groupoid",
        "objects": list(g.objects),
        "arrows": len(g.arrows),
        "dom": [g.dom[a] for a in g.arrows],
        "cod": [g.cod[a] for a in g.arrows],
        "compose": sorted([x, y, z] for (x, y), z in g.compose.items()),
        "inverse": [g.inv[a] for a in g.arrows],
        "identity": sorted([e, a] for e, a in g.identity.items()),
        "leq": sorted([x, y] for (x, y) in g.leq),
        "meet": sorted([e, f, m] for (e, f), m in g.object_meet.items()),
        "restriction": sorted([e, x, y] for (e, x), y in g.restriction.items()),
        "corestriction": sorted([x, e, y] for (x, e), y in g.corestriction.items()),
    }


def groupoid_from_json(doc: dict) -> InductiveGroupoid:
    """The inverse of ``groupoid_to_json``; the declared arrow count must match
    the per-arrow lists, which is checked before anything is allocated."""
    m = int(json_field(doc, "arrows"))
    per_arrow = {}
    for name in ("dom", "cod", "inverse"):
        per_arrow[name] = json_field(doc, name)
        if not isinstance(per_arrow[name], list) or len(per_arrow[name]) != m:
            raise ParseError(f"{name} must list one entry per arrow ({m} declared)")
    arrows = tuple(range(1, m + 1))
    return InductiveGroupoid(
        objects=tuple(json_field(doc, "objects")),
        arrows=arrows,
        dom={a: per_arrow["dom"][a - 1] for a in arrows},
        cod={a: per_arrow["cod"][a - 1] for a in arrows},
        compose={(x, y): z for x, y, z in json_field(doc, "compose")},
        inv={a: per_arrow["inverse"][a - 1] for a in arrows},
        identity={e: a for e, a in json_field(doc, "identity")},
        leq=frozenset((x, y) for x, y in json_field(doc, "leq")),
        object_meet={(e, f): g for e, f, g in json_field(doc, "meet")},
        restriction={(e, x): y for e, x, y in json_field(doc, "restriction")},
        corestriction={(x, e): y for x, e, y in json_field(doc, "corestriction")},
    )


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
