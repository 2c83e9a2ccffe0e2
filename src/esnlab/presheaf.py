"""Presheaves of finite Abelian groups on meet-semilattices, and the
decomposition of a double inverse semigroup into one.

Decomposing: a double inverse semigroup has one operation, so the two views of
its double groupoid are one inductive groupoid on cell ids, whose objects are
the object cells and whose cells are loops (``double.one_view``). Its loops at
each object form an Abelian group, its order and meet on object cells give the
base, and its restriction the homomorphisms. Back, the ESN groupoid of the
strong semilattice of groups (``esn.groupoid_of``) is the one view of the
double groupoid (``double.dig_from_view``). Composing the two directions is the
identity, which the ``decompose``/``compose`` commands replay on files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .double import (DoubleInductiveGroupoid, DoubleSemigroup, dig_from_dis, dig_from_view,
                     dis_from_dig, one_view)
from .errors import (InvalidPresheafError, NotDoubleInverseError, ParseError, TheoremViolation,
                     distinct, json_field, json_header, json_id, json_ids, json_int, json_list)
from .esn import groupoid_of
from .inverse import order_and_meet_rows
from .report import (Row, ValidationReport, check_ranges, check_rows, computed_once, from_json,
                     to_json)
from .tables import CayleyTable


@dataclass(frozen=True)
class MeetSemilattice:
    elements: tuple[int, ...]
    leq: frozenset
    meet: dict  # (a, b) -> greatest lower bound


@dataclass(frozen=True)
class FiniteAbelianGroup:
    carrier: tuple[int, ...]
    op: dict  # (a, b) -> c
    unit: int
    inv: dict

    @property
    def order(self):
        return len(self.carrier)

    @computed_once
    def report(self) -> ValidationReport:
        """``validate_group`` of this value, computed once; treat it as read-only."""
        return validate_group(self)


@dataclass(frozen=True)
class AbelianGroupPresheaf:
    base: MeetSemilattice
    group_at: dict  # base element -> FiniteAbelianGroup
    hom: dict  # (a, b) with a <= b -> {element of group_at[b]: element of group_at[a]}

    @computed_once
    def report(self) -> ValidationReport:
        """``validate_presheaf`` of this value, computed once; treat it as read-only."""
        return validate_presheaf(self)


# x an element of the base: the fields of the semilattice with their sorts
_BASE_FIELDS = {"elements": "x", "leq": "xx", "meet": "xx:x"}
_BASE_ROWS = (
    *order_and_meet_rows("base.reflexive", "base.antisymmetric", "base.transitive",
                         "base.meet-lower", "base.meet-greatest", "base.meet"),
    Row("base.meet-total", "oom", lambda s, a, b, m: m is not None, order=(0, 1)),
)


def validate_semilattice(s: MeetSemilattice) -> ValidationReport:
    """The range pass, then the partial-order and meet rows of ``inverse`` under base.* tags."""
    rep = ValidationReport()
    if check_ranges(s, _BASE_FIELDS, {"x": set(s.elements)}, rep,
                    {"leq": "base.order-range", "meet": "base.meet-range"}):
        carriers = {"x": s.elements, "o": s.elements, "l": s.leq,
                    "u": lambda p: [c for c in s.elements if (p[1], c) in s.leq],
                    "m": lambda a, b: (s.meet.get((a, b)),),
                    "w": lambda a, b, m: [c for c in s.elements if (c, a) in s.leq]}
        check_rows(s, carriers, _BASE_ROWS, rep)
    return rep


# g an element of the group: its fields with their sorts and range tags, the
# closure of op, and the group laws, each checked once the one before holds
_GROUP_FIELDS = {"unit": ":g", "inv": "g:g", "op": "gg:g"}
_GROUP_RANGE_TAGS = {"unit": "group.unit-range", "inv": "group.inverse-range",
                     "op": "group.closure"}
_CLOSURE = (Row("group.closure", "gg", lambda g, a, b: (a, b) in g.op),)
_GROUP_ROWS = (
    Row("group.unit", "g", lambda g, a: g.op[g.unit, a] == a == g.op[a, g.unit]),
    Row("group.inverse", "g", lambda g, a: g.op[a, g.inv[a]] == g.unit == g.op[g.inv[a], a]),
    Row("group.commutative", "gg", lambda g, a, b: g.op[a, b] == g.op[b, a]),
    Row("group.associative", "ggg",
        lambda g, a, b, c: g.op[g.op[a, b], c] == g.op[a, g.op[b, c]]),
)


def validate_group(g: FiniteAbelianGroup) -> ValidationReport:
    rep = ValidationReport()
    if (check_ranges(g, _GROUP_FIELDS, {"g": set(g.carrier)}, rep, _GROUP_RANGE_TAGS)
            and check_rows(g, {"g": g.carrier}, _CLOSURE, rep)):
        check_rows(g, {"g": g.carrier}, _GROUP_ROWS, rep)
    return rep


# Rows over l, a pair a <= b of the base, and the variables after it: s an
# element of the group at b, u an element above b, and t an element of the
# group at that u. Each hom must have the shape of a map between its groups
# before the homomorphism and functor laws are read.
_HOM_SHAPE = (Row("hom.shape", "l", lambda p, ab:
                  set(p.hom[ab]) == set(p.group_at[ab[1]].carrier)
                  and set(p.hom[ab].values()) <= set(p.group_at[ab[0]].carrier)),)
_HOM_ROWS = (
    Row("hom.unit", "l", lambda p, ab:
        p.hom[ab][p.group_at[ab[1]].unit] == p.group_at[ab[0]].unit, counts="hom"),
    Row("hom.multiplicative", "lss", lambda p, ab, x, y:
        p.hom[ab][p.group_at[ab[1]].op[x, y]] == p.group_at[ab[0]].op[p.hom[ab][x], p.hom[ab][y]]),
    Row("hom.inverse", "ls", lambda p, ab, x:
        p.hom[ab][p.group_at[ab[1]].inv[x]] == p.group_at[ab[0]].inv[p.hom[ab][x]]),
    Row("hom.identity", "e", lambda p, a: all(x == y for x, y in p.hom[a, a].items())),
    # the functor law is counted once per chain a <= b <= u
    Row("hom.functorial", "lu", lambda p, ab, u: True, counts="hom.functorial"),
    Row("hom.functorial", "lut", lambda p, ab, u, x:
        p.hom[ab][p.hom[ab[1], u][x]] == p.hom[ab[0], u][x]),
)


def validate_presheaf(p: AbelianGroupPresheaf) -> ValidationReport:
    """The base, a group at each of its elements, then a hom for each of its
    pairs a <= b, of the shape of a map from the group at b to that at a, and
    the homomorphism and functor laws."""
    base = p.base
    rep = validate_semilattice(base)
    if not check_ranges(p, {"group_at": "e:"}, {"e": set(base.elements)}, rep,
                        {"group_at": "group.missing"}):
        return rep
    for a in base.elements:
        rep.merge(p.group_at[a].report)
    if not rep.ok:
        return rep
    carriers = {
        "e": base.elements, "l": base.leq,
        "s": lambda ab, *_: p.group_at[ab[1]].carrier,
        "u": lambda ab: [u for u in base.elements if (ab[1], u) in base.leq],
        "t": lambda ab, u: p.group_at[u].carrier,
    }
    if (check_ranges(p, {"hom": "l:"}, {"l": base.leq}, rep, {"hom": "hom.missing"})
            and check_rows(p, carriers, _HOM_SHAPE, rep)):
        check_rows(p, carriers, _HOM_ROWS, rep)
    return rep


def component_groups(g: DoubleInductiveGroupoid) -> dict:
    """The group at each object o: the loops of the one view at the object cell
    of o under its composition, with that cell as unit; the group laws are
    verified, not assumed."""
    h = one_view(g)
    groups = {}
    for o in g.objects:
        unit = g.obj_cell(o)
        cells = tuple(a for a in h.arrows if h.dom[a] == unit)
        group = FiniteAbelianGroup(cells, {(a, b): h.compose[a, b] for a in cells for b in cells},
                                   unit, {a: h.inv[a] for a in cells})
        if not group.report:
            raise TheoremViolation(f"object {o}: {group.report.summary()}")
        groups[o] = group
    return groups


def presheaf_from_dig(g: DoubleInductiveGroupoid) -> AbelianGroupPresheaf:
    """Base = objects under the order and meet of the one view on object cells;
    groups = ``component_groups``; the hom from a to e <= a restricts each cell
    of the group at a to the object cell of e."""
    groups = component_groups(g)
    h = g.views[0]  # the one view, which component_groups has checked
    cell = {o: g.obj_cell(o) for o in g.objects}
    obj = {c: o for o, c in cell.items()}
    leq = frozenset((o1, o2) for o1 in g.objects for o2 in g.objects
                    if (cell[o1], cell[o2]) in h.leq)
    meet = {(o1, o2): obj[h.object_meet[cell[o1], cell[o2]]]
            for o1 in g.objects for o2 in g.objects}
    hom = {(e, a): {x: h.restriction[cell[e], x] for x in groups[a].carrier} for e, a in leq}
    p = AbelianGroupPresheaf(MeetSemilattice(g.objects, leq, meet), groups, hom)
    if not p.report:
        raise TheoremViolation(f"decomposition is not a presheaf: {p.report.summary()}")
    return p


def dig_from_presheaf(p: AbelianGroupPresheaf) -> DoubleInductiveGroupoid:
    """The double groupoid whose two views are both the ESN groupoid of the
    strong semilattice of groups of p (Howie 1995, §4.2): the Clifford
    semigroup (e, x)·(f, y) = (m, φ_{m,e}(x)·φ_{m,f}(y)), m = e ∧ f, with its
    objects, the unit cells, in the order of the base. Cell ids reuse the group
    carriers when those already partition 1..m, so decomposing and recomposing
    a double inverse semigroup is the identity on element ids. The pair of that
    semigroup, classified once, is the certificate: a semilattice of Abelian
    groups is commutative, so the pair is double inverse and its check holds."""
    if not p.report:
        raise InvalidPresheafError(p.report)
    homes = [(e, x) for e in p.base.elements for x in p.group_at[e].carrier]
    reuse = sorted(x for _, x in homes) == list(range(1, len(homes) + 1))
    cell_of = {(e, x): x if reuse else i for i, (e, x) in enumerate(homes, 1)}

    def product(e, x, f, y):
        m = p.base.meet[e, f]
        return cell_of[m, p.group_at[m].op[p.hom[m, e][x], p.hom[m, f][y]]]

    home = sorted(homes, key=cell_of.get)
    t = CayleyTable(tuple(product(*a, *b) - 1 for a in home for b in home))
    d = DoubleSemigroup(t, t)
    cls = d.classification
    if not cls.is_double_inverse_semigroup:
        raise TheoremViolation(
            f"strong semilattice of groups is not double inverse: {cls.failure_reason()}")
    h = groupoid_of(cls.hop_analysis)
    h = replace(h, objects=tuple(cell_of[e, p.group_at[e].unit] for e in p.base.elements))
    return dig_from_view(h, d)


def presheaf_equal(p: AbelianGroupPresheaf, q: AbelianGroupPresheaf) -> bool:
    """Equality up to the ids of base and group elements: the two
    ``presheaf_to_json`` documents, read by position."""
    return _by_position(p) == _by_position(q)


def _by_position(p: AbelianGroupPresheaf) -> dict:
    """``presheaf_to_json`` of p with each base id replaced by its position and
    the group carriers dropped; op, unit and hom values are positions already."""
    doc = presheaf_to_json(p)
    pos = {x: i + 1 for i, x in enumerate(p.base.elements)}
    base = doc["base"]
    base["elements"] = [pos[x] for x in base["elements"]]
    for name in ("leq", "meet"):
        base[name] = sorted([pos[x] for x in entry] for entry in base[name])
    for group in doc["groups"]:
        del group["carrier"]
        group["at"] = pos[group["at"]]
    for hom in doc["homs"]:
        hom["pair"] = [pos[x] for x in hom["pair"]]
    doc["homs"].sort(key=lambda hom: hom["pair"])
    return doc


@dataclass(frozen=True)
class MainTheoremReport:
    classification: object
    # dig_from_dis of a double inverse pair, None of another pair
    groupoid: DoubleInductiveGroupoid | None

    @property
    def is_double_inverse(self):
        return self.classification.is_double_inverse_semigroup

    # True on a double inverse pair, whose groupoid's build proved all three; else None
    improper = commutative = clifford = property(lambda self: self.groupoid is not None or None)

    def as_json(self):
        out = {"classification": self.classification.as_json()}
        out["double_inverse"] = self.is_double_inverse
        if self.is_double_inverse:
            out.update(improper=self.improper, commutative=self.commutative, clifford=self.clifford)
        return out


def main_theorem_report(d: DoubleSemigroup) -> MainTheoremReport:
    """The classification of d and, if d is double inverse, its double groupoid,
    whose build (``dig_from_dis``) is the one proof that d is improper,
    commutative and Clifford, and raises TheoremViolation if it is not."""
    cls = d.classification
    return MainTheoremReport(cls, dig_from_dis(d) if cls.is_double_inverse_semigroup else None)


def decompose(d: DoubleSemigroup):
    """Double inverse semigroup -> (presheaf, main-theorem report)."""
    report = main_theorem_report(d)
    if not report.is_double_inverse:
        raise NotDoubleInverseError(report.classification.failure_reason())
    return presheaf_from_dig(report.groupoid), report


def compose(p: AbelianGroupPresheaf) -> DoubleSemigroup:
    """Presheaf -> double inverse semigroup via its double groupoid."""
    return dis_from_dig(dig_from_presheaf(p))


def presheaf_to_json(p: AbelianGroupPresheaf) -> dict:
    """p as a JSON document: the base by its sorts (``report.to_json``), each
    group's op and unit and each hom's values as 1-based carrier positions."""
    groups = [(e, p.group_at[e]) for e in p.base.elements]
    pos = {e: {x: i for i, x in enumerate(g.carrier, 1)} for e, g in groups}
    return {
        "schema_version": 1,
        "kind": "abelian-group-presheaf",
        "base": to_json(p.base, _BASE_FIELDS, {}, ("elements",)),
        "groups": [{"at": e, "order": g.order, "carrier": list(g.carrier),
                    "op": [[pos[e][g.op[a, b]] for b in g.carrier] for a in g.carrier],
                    "unit": pos[e][g.unit]} for e, g in groups],
        "homs": [{"pair": [a, b],
                  "values": [pos[a][p.hom[a, b][x]] for x in p.group_at[b].carrier]}
                 for a, b in sorted(p.hom)],
    }


def presheaf_from_json(doc: dict) -> AbelianGroupPresheaf:
    """The inverse of ``presheaf_to_json``: the base read by ``report.from_json``;
    every id a JSON integer, every position one in 1..order of its group, and
    each order matched with its op rows before anything of that size is built.
    A fault, or a document not of this kind and version, is a ParseError naming
    its JSON path; what the values mean is left to ``validate_presheaf``."""
    base = MeetSemilattice(**from_json(json_field(doc, "base"), _BASE_FIELDS, {},
                                       ("elements",), None, "base."))
    groups = {}
    for k, entry in enumerate(json_list(json_field(doc, "groups"), "groups")):
        path = f"groups[{k}]"
        at = json_id(json_field(entry, "at"), f"{path}.at")
        rows = json_list(json_field(entry, "op"), f"{path}.op")
        if at in groups:
            raise ParseError(f"{path}.at repeats the element {at!r}")
        order = json_int(entry, "order", f"{path}.order")
        if len(rows) != order:
            raise ParseError(
                f"group at {at}: order {order} does not match the {len(rows)} rows of op")
        # order is bounded by the rows of op now, and so is a default carrier
        carrier = json_list(entry.get("carrier", [*range(1, order + 1)]), f"{path}.carrier", order)
        carrier = distinct(json_ids(carrier, f"{path}.carrier"), f"{path}.carrier")
        op = {(carrier[i], carrier[j]): carrier[_index(x, order, f"{path}.op[{i}][{j}]")]
              for i, row in enumerate(rows)
              for j, x in enumerate(json_list(row, f"{path}.op[{i}]", order))}
        unit = carrier[_index(json_field(entry, "unit"), order, f"{path}.unit")]
        # an element without an inverse is missing from inv: validate_group reports it
        inv = {a: b for a in carrier for b in carrier if op[(a, b)] == unit == op[(b, a)]}
        groups[at] = FiniteAbelianGroup(carrier, op, unit, inv)
    hom = {}
    for k, entry in enumerate(json_list(json_field(doc, "homs"), "homs")):
        a, b = json_ids(json_field(entry, "pair"), f"homs[{k}].pair", 2)
        for x in (a, b):
            if x not in groups:
                raise ParseError(f"homs[{k}].pair names {x!r}, which has no group")
        if (a, b) in hom:
            raise ParseError(f"homs[{k}].pair repeats the pair {[a, b]!r}")
        source, target = groups[b], groups[a]
        values = json_list(json_field(entry, "values"), f"homs[{k}].values", source.order)
        hom[(a, b)] = {x: target.carrier[_index(v, target.order, f"homs[{k}].values[{i}]")]
                       for i, (x, v) in enumerate(zip(source.carrier, values))}
    json_header(doc, "abelian-group-presheaf")
    return AbelianGroupPresheaf(base, groups, hom)


def _index(position, order, path):
    """The 0-based index of a 1-based position, a JSON integer, read from a presheaf file."""
    if type(position) is not int or not 1 <= position <= order:
        raise ParseError(f"{path} must be a position in 1..{order}, not {position!r}")
    return position - 1

