"""Presheaves of finite Abelian groups on meet-semilattices, and the
decomposition of a double inverse semigroup into one.

The pipeline: shared idempotents carry one product, the two orders and meets
collapse on objects, the cells over each object form an Abelian group, and
restriction between comparable objects is a group homomorphism. Composing
the two directions of the correspondence is the identity, which is what the
``decompose``/``compose`` commands replay on files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .double import (
    DoubleInductiveGroupoid,
    DoubleSemigroup,
    dig_from_dis,
    dig_from_halves,
    dis_from_dig,
)
from .errors import (
    ComponentNotClosedError,
    ComponentNotGroupError,
    InvalidPresheafError,
    NotDoubleInverseError,
    ParseError,
    TheoremViolation,
    json_field,
)
from .inverse import is_clifford
from .report import ValidationReport, Verdict, computed_once
from .tables import is_commutative


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


@dataclass(frozen=True)
class AbelianGroupPresheaf:
    base: MeetSemilattice
    group_at: dict  # base element -> FiniteAbelianGroup
    hom: dict  # (a, b) with a <= b -> {element of group_at[b]: element of group_at[a]}

    @computed_once
    def report(self) -> ValidationReport:
        """``validate_presheaf`` of this value, computed once; treat it as read-only."""
        return validate_presheaf(self)


def validate_semilattice(s: MeetSemilattice) -> ValidationReport:
    rep = ValidationReport()
    elems = s.elements
    eset = set(elems)
    for a, b in s.leq:
        if a not in eset or b not in eset:
            rep.add("base.order-range", (a, b))
    for a in elems:
        if (a, a) not in s.leq:
            rep.add("base.reflexive", (a,))
    for a, b in s.leq:
        if a != b and (b, a) in s.leq:
            rep.add("base.antisymmetric", (a, b))
        for c in elems:
            if (b, c) in s.leq and (a, c) not in s.leq:
                rep.add("base.transitive", (a, b, c))
    for a in elems:
        for b in elems:
            m = s.meet.get((a, b))
            if m not in eset:
                rep.add("base.meet-total", (a, b))
                continue
            rep.bump("base.meet", True)
            if (m, a) not in s.leq or (m, b) not in s.leq:
                rep.add("base.meet-lower", (a, b, m))
            for c in elems:
                if (c, a) in s.leq and (c, b) in s.leq and (c, m) not in s.leq:
                    rep.add("base.meet-greatest", (a, b, m, c))
    return rep


def validate_group(g: FiniteAbelianGroup, tag="group") -> ValidationReport:
    rep = ValidationReport()
    carrier = g.carrier
    cset = set(carrier)
    if g.unit not in cset:
        rep.add(f"{tag}.unit-range", (g.unit,))
        return rep
    for a in carrier:
        if g.inv.get(a) not in cset:
            rep.add(f"{tag}.inverse-range", (a,))
            return rep
        for b in carrier:
            if g.op.get((a, b)) not in cset:
                rep.add(f"{tag}.closure", (a, b))
                return rep
    for a in carrier:
        if g.op[(g.unit, a)] != a or g.op[(a, g.unit)] != a:
            rep.add(f"{tag}.unit", (a,))
        if g.op[(a, g.inv[a])] != g.unit or g.op[(g.inv[a], a)] != g.unit:
            rep.add(f"{tag}.inverse", (a,))
        for b in carrier:
            if g.op[(a, b)] != g.op[(b, a)]:
                rep.add(f"{tag}.commutative", (a, b))
            for c in carrier:
                if g.op[(g.op[(a, b)], c)] != g.op[(a, g.op[(b, c)])]:
                    rep.add(f"{tag}.associative", (a, b, c))
    return rep


def validate_presheaf(p: AbelianGroupPresheaf) -> ValidationReport:
    rep = validate_semilattice(p.base)
    for a in p.base.elements:
        if a not in p.group_at:
            rep.add("group.missing", (a,))
            return rep
        rep.merge(validate_group(p.group_at[a]))
    if not rep.ok:
        return rep
    for a, b in p.base.leq:
        phi = p.hom.get((a, b))
        ga, gb = p.group_at[a], p.group_at[b]
        if phi is None:
            rep.add("hom.missing", (a, b))
            continue
        if set(phi.keys()) != set(gb.carrier) or not set(phi.values()) <= set(ga.carrier):
            rep.add("hom.shape", (a, b))
            continue
        rep.bump("hom", True)
        for x in gb.carrier:
            for y in gb.carrier:
                if phi[gb.op[(x, y)]] != ga.op[(phi[x], phi[y])]:
                    rep.add("hom.multiplicative", (a, b, x, y))
        # unit/inverse preservation follows for group homomorphisms; assert directly
        if phi[gb.unit] != ga.unit:
            rep.add("hom.unit", (a, b))
        for x in gb.carrier:
            if phi[gb.inv[x]] != ga.inv[phi[x]]:
                rep.add("hom.inverse", (a, b, x))
    for a in p.base.elements:
        phi = p.hom.get((a, a))
        if phi is not None and any(phi[x] != x for x in p.group_at[a].carrier):
            rep.add("hom.identity", (a,))
    for a, b in p.base.leq:
        for c in p.base.elements:
            if (b, c) not in p.base.leq:
                continue
            rep.bump("hom.functorial", True)
            lo, mid, hi = p.hom.get((a, b)), p.hom.get((b, c)), p.hom.get((a, c))
            if lo is None or mid is None or hi is None:
                continue  # reported as hom.missing already
            for x in p.group_at[c].carrier:
                if lo[mid[x]] != hi[x]:
                    rep.add("hom.functorial", (a, b, c, x))
    return rep


def shared_idempotents_coincide(d: DoubleSemigroup) -> Verdict:
    """On the shared idempotents the two products agree; a failure would refute
    a theorem, so it aborts rather than reporting."""
    cls = d.classification
    if not cls.is_double_inverse_semigroup:
        raise NotDoubleInverseError(cls.failure_reason())
    shared = sorted(
        set(cls.hop_analysis.idempotent_set) & set(cls.vop_analysis.idempotent_set)
    )
    for a in shared:
        for b in shared:
            if d.hop.product(a, b) != d.vop.product(a, b):
                raise TheoremViolation(
                    f"products differ on shared idempotents at {(a, b)}"
                )
    return Verdict(True)


def orders_coincide_on_objects(g: DoubleInductiveGroupoid) -> Verdict:
    """The two cell orders and the two meets agree on object cells."""
    obj_cells = {o: g.obj_cell(o) for o in g.objects}
    for o1, c1 in obj_cells.items():
        for o2, c2 in obj_cells.items():
            if ((c1, c2) in g.leq) != ((c1, c2) in g.lesssim):
                return Verdict(False, ("order", o1, o2))
            mh = g.meet_h.get((g.obj_ver[o1], g.obj_ver[o2]))
            mv = g.meet_v.get((g.obj_hor[o1], g.obj_hor[o2]))
            if mh is None or mv is None or g.ver_cell[mh] != g.hor_cell[mv]:
                return Verdict(False, ("meet", o1, o2))
    return Verdict(True)


def component_groups(g: DoubleInductiveGroupoid) -> dict:
    """Cells whose four corners sit at one object form an Abelian group under the
    (coinciding) compositions; closure and the group laws are verified, not assumed."""
    comp = {o: [] for o in g.objects}
    for a in g.cells:
        corners = g.corners(a)
        if len(corners) == 1:
            comp[corners.pop()].append(a)
    ver_in = {
        o: [e for e in g.ver_arrows if g.ver_src[e] == o and g.ver_dst[e] == o]
        for o in g.objects
    }
    hor_in = {
        o: [f for f in g.hor_arrows if g.hor_src[f] == o and g.hor_dst[f] == o]
        for o in g.objects
    }
    groups = {}
    for o in g.objects:
        cells = sorted(comp[o])
        cellset = set(cells)
        # closure: meets of arrows at o, (co)restrictions and compositions of cells at o
        for f1 in hor_in[o]:
            for f2 in hor_in[o]:
                if g.meet_v[(f1, f2)] not in hor_in[o]:
                    raise ComponentNotClosedError(f"vertical meet escapes object {o}")
        for e1 in ver_in[o]:
            for e2 in ver_in[o]:
                if g.meet_h[(e1, e2)] not in ver_in[o]:
                    raise ComponentNotClosedError(f"horizontal meet escapes object {o}")
        for a in cells:
            for e in ver_in[o]:
                for got in (g.h_restrict.get((e, a)), g.h_corestrict.get((a, e))):
                    if got is not None and got not in cellset:
                        raise ComponentNotClosedError(
                            f"horizontal (co)restriction escapes object {o}"
                        )
            for f in hor_in[o]:
                for got in (g.v_restrict.get((f, a)), g.v_corestrict.get((a, f))):
                    if got is not None and got not in cellset:
                        raise ComponentNotClosedError(
                            f"vertical (co)restriction escapes object {o}"
                        )
            for b in cells:
                for got in (g.hcompose.get((a, b)), g.vcompose.get((a, b))):
                    if got is not None and got not in cellset:
                        raise ComponentNotClosedError(f"composition escapes object {o}")
        # the two compositions must be total on the component and coincide
        op = {}
        for a in cells:
            for b in cells:
                h = g.hcompose.get((a, b))
                v = g.vcompose.get((a, b))
                if h is None or v is None:
                    raise ComponentNotGroupError(
                        f"composition not total on the cells at object {o}"
                    )
                if h != v:
                    raise ComponentNotGroupError(
                        f"the two compositions differ at object {o}, cells {(a, b)}"
                    )
                op[(a, b)] = h
        unit = g.obj_cell(o)
        if unit not in cellset:
            raise ComponentNotGroupError(f"identity cell of object {o} not among its cells")
        inv = {}
        for a in cells:
            hi, vi = g.hinv[a], g.vinv[a]
            if hi != vi or hi not in cellset:
                raise ComponentNotGroupError(f"no two-sided inverse at object {o}, cell {a}")
            inv[a] = hi
        group = FiniteAbelianGroup(tuple(cells), op, unit, inv)
        rep = validate_group(group)
        if not rep:
            raise ComponentNotGroupError(f"object {o}: {rep.summary()}")
        groups[o] = group
    return groups


def presheaf_from_dig(g: DoubleInductiveGroupoid) -> AbelianGroupPresheaf:
    """Base = objects with the collapsed order; groups = the per-object cells;
    restriction maps between comparable objects are the homomorphisms."""
    agree = orders_coincide_on_objects(g)
    if not agree:
        raise TheoremViolation(f"orders/meets differ on objects at {agree.witness}")
    obj_cell = {o: g.obj_cell(o) for o in g.objects}
    leq = frozenset(
        (o1, o2)
        for o1 in g.objects
        for o2 in g.objects
        if (obj_cell[o1], obj_cell[o2]) in g.leq
    )
    cell_obj = {c: o for o, c in obj_cell.items()}
    meet = {}
    for o1 in g.objects:
        for o2 in g.objects:
            m = g.ver_cell[g.meet_h[(g.obj_ver[o1], g.obj_ver[o2])]]
            if m not in cell_obj:
                raise TheoremViolation(f"meet of objects {(o1, o2)} is not an object")
            meet[(o1, o2)] = cell_obj[m]
    base = MeetSemilattice(g.objects, leq, meet)
    groups = component_groups(g)
    hom = {}
    for e, a in leq:
        ge, ga = groups[e], groups[a]
        phi = {}
        for x in ga.carrier:
            y = g.h_restrict.get((g.obj_ver[e], x))
            if y is None or y not in set(ge.carrier):
                raise TheoremViolation(
                    f"restriction of cell {x} to object {e} does not land in its group"
                )
            phi[x] = y
        hom[(e, a)] = phi
    p = AbelianGroupPresheaf(base, groups, hom)
    if not p.report:
        raise TheoremViolation(f"decomposition is not a presheaf: {p.report.summary()}")
    return p


def dig_from_presheaf(p: AbelianGroupPresheaf) -> DoubleInductiveGroupoid:
    """One object, one vertical and one horizontal arrow per base element; the
    cells over an element are its group, both compositions the group product,
    restriction along u <= A the homomorphism. Cell ids reuse the group carriers
    when those already partition 1..m, so decomposing and recomposing a double
    inverse semigroup is the identity on element ids."""
    if not p.report:
        raise InvalidPresheafError(p.report)
    elems = p.base.elements
    ids = {x: i + 1 for i, x in enumerate(elems)}
    k = len(elems)
    all_cells = [x for e in elems for x in p.group_at[e].carrier]
    if sorted(all_cells) == list(range(1, len(all_cells) + 1)):
        cell_of = {(e, x): x for e in elems for x in p.group_at[e].carrier}
    else:
        cell_of = {}
        nxt = 1
        for e in elems:
            for x in p.group_at[e].carrier:
                cell_of[(e, x)] = nxt
                nxt += 1
    m = len(all_cells)
    cells = tuple(range(1, m + 1))
    home = {cell_of[(e, x)]: (e, x) for e in elems for x in p.group_at[e].carrier}

    leq = frozenset(
        (cell_of[(a, phi[x])], cell_of[(b, x)])
        for (a, b), phi in p.hom.items()
        for x in p.group_at[b].carrier
    )
    hcompose = {}
    hinv = {}
    for e in elems:
        grp = p.group_at[e]
        for x in grp.carrier:
            hinv[cell_of[(e, x)]] = cell_of[(e, grp.inv[x])]
            for y in grp.carrier:
                hcompose[(cell_of[(e, x)], cell_of[(e, y)])] = cell_of[(e, grp.op[(x, y)])]
    restrict = {
        (ids[a], cell_of[(b, x)]): cell_of[(a, phi[x])]
        for (a, b), phi in p.hom.items()
        for x in p.group_at[b].carrier
    }
    arrows = tuple(range(1, k + 1))
    identity = {i: i for i in arrows}
    over = {c: ids[home[c][0]] for c in cells}
    # the groupoid is its own transpose: its vertical half is its horizontal one
    half = {
        "ver_arrows": arrows,
        "obj_ver": identity,
        "ver_cell": {ids[e]: cell_of[(e, p.group_at[e].unit)] for e in elems},
        "ver_src": identity,
        "ver_dst": identity,
        "hdom": over,
        "hcod": over,
        "hcompose": hcompose,
        "hinv": hinv,
        "leq": leq,
        "meet_h": {(ids[a], ids[b]): ids[p.base.meet[(a, b)]] for a in elems for b in elems},
        "h_restrict": restrict,
        "h_corestrict": {(a, e): v for (e, a), v in restrict.items()},
    }
    g = dig_from_halves(half, half, objects=arrows, cells=cells)
    if not g.report:
        raise TheoremViolation(
            f"presheaf produced an invalid double groupoid: {g.report.summary()}"
        )
    return g


def presheaf_skeleton(p: AbelianGroupPresheaf) -> tuple:
    """Position-normalized form; presheaf equality is equality of skeletons."""
    elems = p.base.elements
    pos = {x: i + 1 for i, x in enumerate(elems)}
    groups = []
    for e in elems:
        grp = p.group_at[e]
        gpos = {x: i + 1 for i, x in enumerate(grp.carrier)}
        groups.append(
            (
                grp.order,
                tuple(
                    tuple(gpos[grp.op[(a, b)]] for b in grp.carrier) for a in grp.carrier
                ),
                gpos[grp.unit],
            )
        )
    homs = []
    for a, b in sorted((pos[a], pos[b]) for (a, b) in p.hom):
        ea, eb = elems[a - 1], elems[b - 1]
        phi = p.hom[(ea, eb)]
        ga, gb = p.group_at[ea], p.group_at[eb]
        apos = {x: i + 1 for i, x in enumerate(ga.carrier)}
        homs.append((a, b, tuple(apos[phi[x]] for x in gb.carrier)))
    return (
        len(elems),
        frozenset((pos[a], pos[b]) for a, b in p.base.leq),
        tuple(sorted((pos[a], pos[b], pos[m]) for (a, b), m in p.base.meet.items())),
        tuple(groups),
        tuple(homs),
    )


def presheaf_equal(p: AbelianGroupPresheaf, q: AbelianGroupPresheaf) -> bool:
    return presheaf_skeleton(p) == presheaf_skeleton(q)


@dataclass(frozen=True)
class MainTheoremReport:
    classification: object
    improper: bool | None
    hop_commutative: bool | None
    vop_commutative: bool | None
    clifford: bool | None

    @property
    def is_double_inverse(self):
        return self.classification.is_double_inverse_semigroup

    def as_json(self):
        out = {"classification": self.classification.as_json()}
        out["double_inverse"] = self.is_double_inverse
        if self.is_double_inverse:
            out.update(
                improper=self.improper,
                commutative=self.hop_commutative and self.vop_commutative,
                clifford=self.clifford,
            )
        return out


def main_theorem_report(d: DoubleSemigroup) -> MainTheoremReport:
    """If the pair is a double inverse semigroup, it must be improper,
    commutative in both operations, and its single operation Clifford."""
    cls = d.classification
    if not cls.is_double_inverse_semigroup:
        return MainTheoremReport(cls, None, None, None, None)
    improper = d.hop.rows == d.vop.rows
    hc = bool(is_commutative(d.hop))
    vc = bool(is_commutative(d.vop))
    cliff = bool(is_clifford(cls.hop_analysis)) and bool(is_clifford(cls.vop_analysis))
    if not (improper and hc and vc and cliff):
        raise TheoremViolation(
            f"double inverse semigroup that is not improper+commutative+Clifford "
            f"(improper={improper}, comm={(hc, vc)}, clifford={cliff})"
        )
    return MainTheoremReport(cls, improper, hc, vc, cliff)


def decompose(d: DoubleSemigroup):
    """Double inverse semigroup -> (presheaf, main-theorem report)."""
    report = main_theorem_report(d)
    if not report.is_double_inverse:
        raise NotDoubleInverseError(report.classification.failure_reason())
    shared_idempotents_coincide(d)
    return presheaf_from_dig(dig_from_dis(d)), report


def compose(p: AbelianGroupPresheaf) -> DoubleSemigroup:
    """Presheaf -> double inverse semigroup via its double groupoid."""
    return dis_from_dig(dig_from_presheaf(p))


def presheaf_to_json(p: AbelianGroupPresheaf) -> dict:
    elems = p.base.elements
    return {
        "schema_version": 1,
        "kind": "abelian-group-presheaf",
        "base": {
            "elements": list(elems),
            "leq": sorted([a, b] for a, b in p.base.leq),
            "meet": sorted([a, b, m] for (a, b), m in p.base.meet.items()),
        },
        "groups": [
            {
                "at": e,
                "order": p.group_at[e].order,
                "carrier": list(p.group_at[e].carrier),
                "op": [
                    [
                        p.group_at[e].carrier.index(p.group_at[e].op[(a, b)]) + 1
                        for b in p.group_at[e].carrier
                    ]
                    for a in p.group_at[e].carrier
                ],
                "unit": p.group_at[e].carrier.index(p.group_at[e].unit) + 1,
            }
            for e in elems
        ],
        "homs": [
            {
                "pair": [a, b],
                "values": [
                    p.group_at[a].carrier.index(p.hom[(a, b)][x]) + 1
                    for x in p.group_at[b].carrier
                ],
            }
            for a, b in sorted(p.hom.keys())
        ],
    }


def presheaf_from_json(doc: dict) -> AbelianGroupPresheaf:
    base = json_field(doc, "base")
    elems = tuple(json_field(base, "elements"))
    lattice = MeetSemilattice(
        elems,
        frozenset((a, b) for a, b in json_field(base, "leq")),
        {(a, b): m for a, b, m in json_field(base, "meet")},
    )
    groups = {}
    for k, entry in enumerate(json_field(doc, "groups")):
        at, rows = json_field(entry, "at"), json_field(entry, "op")
        order = int(json_field(entry, "order"))
        if len(rows) != order:
            raise ParseError(
                f"group at {at}: order {order} does not match "
                f"the {len(rows)} rows of op"
            )
        carrier = tuple(entry.get("carrier", range(1, order + 1)))
        if len(carrier) != order:
            raise InvalidPresheafError(_shape_report("group carrier/order mismatch"))
        for i, row in enumerate(rows):
            if len(row) != order:
                raise ParseError(f"groups[{k}].op[{i}] must have {order} entries")
        op = {
            (carrier[i], carrier[j]):
                carrier[_index(rows[i][j], order, f"groups[{k}].op[{i}][{j}]")]
            for i in range(order)
            for j in range(order)
        }
        unit = carrier[_index(int(json_field(entry, "unit")), order, f"groups[{k}].unit")]
        inv = {}
        for a in carrier:
            matches = [b for b in carrier if op[(a, b)] == unit and op[(b, a)] == unit]
            if len(matches) != 1:
                raise InvalidPresheafError(_shape_report(f"no unique inverse for {a}"))
            inv[a] = matches[0]
        groups[at] = FiniteAbelianGroup(carrier, op, unit, inv)
    hom = {}
    for k, entry in enumerate(json_field(doc, "homs")):
        a, b = json_field(entry, "pair")
        for x in (a, b):
            if x not in groups:
                raise ParseError(f"homs[{k}].pair names {x!r}, which has no group")
        values = json_field(entry, "values")
        source, target = groups[b], groups[a]
        if len(values) != source.order:
            raise ParseError(f"homs[{k}].values must have {source.order} entries")
        hom[(a, b)] = {
            x: target.carrier[_index(values[i], target.order, f"homs[{k}].values[{i}]")]
            for i, x in enumerate(source.carrier)
        }
    return AbelianGroupPresheaf(lattice, groups, hom)


def _index(position, order, path):
    """The 0-based index of a 1-based position read from a presheaf file."""
    if not isinstance(position, int) or not 1 <= position <= order:
        raise ParseError(f"{path} must be a position in 1..{order}, not {position!r}")
    return position - 1


def _shape_report(message):
    rep = ValidationReport()
    rep.add("shape", (), message)
    return rep
