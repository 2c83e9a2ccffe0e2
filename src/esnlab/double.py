"""Double semigroups, the middle-four interchange law, and double inductive
groupoids with the complete compatibility-axiom checker.

A double inductive groupoid keeps four separate indexed carriers (objects, vertical
arrows, horizontal arrows, cells) with explicit identity-cell embeddings. Once every
table entry is checked against its carriers, it is read only through its two views
(``DoubleInductiveGroupoid.views``): the horizontal inductive groupoid over the
vertical arrows (``hcompose``, ``leq``) and the vertical one over the horizontal
arrows (``vcompose``, ``lesssim``), on cell ids, which its equality compares
(``skeleton``). By the main theorem the two operations of a double inverse
semigroup coincide, so a valid double groupoid's two views are one inductive
groupoid of loops (``one_view``), and ``dig_from_view`` is the one assembler, of
the ESN groupoid of that operation (``dig_from_dis``) or of a presheaf's
(``compose``); its pseudo-product is both operations (``dis_from_dig``). A value
is checked once, where it comes from. One read from JSON is validated in full
(``validate_dig``, its ``report``). One the program builds is certified
against the pair it came from (``certify_view``, the one proof of the main
theorem on that pair): its view is a valid inductive groupoid of loops whose
pseudo-product is commutative, which holds exactly when the assembled value is
valid, by the main theorem and its converse, and is the pair's operation. It
carries the pair as its certificate, which ``one_view`` and ``dis_from_dig``
accept in place of the report; the report stays the full check for any caller
that asks. The checkers still read any double groupoid with two views. Every
check ``validate_dig`` makes is a row of the identity engine
(``report.check_rows``) after the range pass: the embeddings, the corners,
boundary coherence, the interchange law on cells and the axioms (iii)-(ix), the
rows on cells reading total tables of the views (``_side``); the rows of (iii)-(vi) are driven
(``report.Row``). Exchanging the two directions (``transpose``) maps double
groupoids to double groupoids, so every row about one direction is stated once and
also run on the transpose, or, on a value that is its own transpose (by the theorem,
every one built here), run once, its result copied to the twin: both views are then
one object. Values are immutable; each keeps the result of its own check
(``DoubleSemigroup.classification``, ``DoubleInductiveGroupoid.report`` or
``certificate``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import itemgetter
from types import SimpleNamespace

from .errors import (
    InvalidDigError,
    NotASemigroupError,
    NotDoubleInverseError,
    TheoremViolation,
)
from .esn import InductiveGroupoid, groupoid_of, pseudo_product_table, pseudo_products
from .inverse import NOT_INVERSE, InverseSemigroupAnalysis, analyze_inverse
from .report import PASS, Row, ValidationReport, Verdict, check_ranges, check_rows
from .report import computed_once, from_json, to_json
from .tables import CayleyTable, first_difference, is_commutative, same_order


@dataclass(frozen=True)
class DoubleSemigroup:
    hop: CayleyTable  # horizontal operation
    vop: CayleyTable  # vertical operation

    def __post_init__(self):
        same_order(self.hop, self.vop)

    @computed_once
    def classification(self) -> DoubleClassification:
        """``classify_double`` of the two operations, computed once per value."""
        return classify_double(self.hop, self.vop)


def check_interchange(hop: CayleyTable, vop: CayleyTable) -> Verdict:
    """(a v b) h (c v d) = (a h c) v (b h d) over all quadruples; least witness."""
    failure = next(_interchange_failures(hop.rows, vop.rows), None)
    return PASS if failure is None else Verdict(False, failure)


def _interchange_failures(outer, inner):
    """Each (a, b, c, d), in lexicographic order, at which the interchange law
    outer(inner(a, b), inner(c, d)) = inner(outer(a, c), outer(b, d)) fails, for
    two tables on 1..n given as their rows, where 0 reads as undefined. A row at
    a time: for each (a, b, c) the two sides over every d are compared as one
    tuple, and d is looped over only where they differ."""
    ids = range(1, len(inner) + 1)
    by_inner, by_outer = ({x: itemgetter(*row) for x, row in zip(ids, t)} for t in (inner, outer))
    # row and column 0 all 0: a product with an undefined factor is undefined
    outer, inner = ([(0,) * len(t) + (0,), *((0, *row) for row in t)] for t in (outer, inner))
    for a in ids:
        for b in ids:
            left, right = outer[inner[a][b]], by_outer[b]
            for c in ids:
                below = inner[outer[a][c]]
                if by_inner[c](left) != right(below):
                    yield from ((a, b, c, d) for d in ids
                                if left[inner[c][d]] != below[outer[b][d]])


@dataclass(frozen=True)
class DoubleClassification:
    hop_associative: Verdict
    vop_associative: Verdict
    interchange: Verdict
    hop_inverse_failure: str | None
    vop_inverse_failure: str | None
    # the analyses behind the two inverse verdicts, None where one failed
    hop_analysis: InverseSemigroupAnalysis | None
    vop_analysis: InverseSemigroupAnalysis | None

    @property
    def is_double_semigroup(self):
        return bool(self.hop_associative and self.vop_associative and self.interchange)

    @property
    def is_double_inverse_semigroup(self):
        return (
            self.is_double_semigroup
            and self.hop_inverse_failure is None
            and self.vop_inverse_failure is None
        )

    def failure_reason(self):
        if not self.hop_associative:
            return f"hop not associative at {self.hop_associative.witness}"
        if not self.vop_associative:
            return f"vop not associative at {self.vop_associative.witness}"
        if not self.interchange:
            return f"interchange fails at {self.interchange.witness}"
        if self.hop_inverse_failure:
            return f"hop: {self.hop_inverse_failure}"
        if self.vop_inverse_failure:
            return f"vop: {self.vop_inverse_failure}"
        return None

    def as_json(self):
        return {
            "hop_associative": self.hop_associative.as_json(),
            "vop_associative": self.vop_associative.as_json(),
            "interchange": self.interchange.as_json(),
            "hop_inverse_failure": self.hop_inverse_failure,
            "vop_inverse_failure": self.vop_inverse_failure,
            "is_double_semigroup": self.is_double_semigroup,
            "is_double_inverse_semigroup": self.is_double_inverse_semigroup,
        }


def _analysis_or_failure(t):
    """(analysis, inverse failure, the associativity verdict found on the way)."""
    try:
        return analyze_inverse(t), None, PASS
    except NotASemigroupError as exc:
        return None, str(exc), Verdict(False, exc.witness)
    except NOT_INVERSE as exc:  # no or non-unique inverse
        return None, str(exc), PASS


def classify_double(hop: CayleyTable, vop: CayleyTable) -> DoubleClassification:
    """The verdicts on both operations; a table that is both is analysed once."""
    hop_analysis, hop_failure, hop_associative = hop_result = _analysis_or_failure(hop)
    vop_analysis, vop_failure, vop_associative = (
        hop_result if vop == hop else _analysis_or_failure(vop))
    return DoubleClassification(
        hop_associative=hop_associative,
        vop_associative=vop_associative,
        interchange=check_interchange(hop, vop),
        hop_inverse_failure=hop_failure,
        vop_inverse_failure=vop_failure,
        hop_analysis=hop_analysis,
        vop_analysis=vop_analysis,
    )


def is_proper(d: DoubleSemigroup) -> Verdict:
    """Proper iff the two operations differ somewhere; witness = least such pair."""
    cell = first_difference(d.hop, d.vop)
    return Verdict(cell is not None, cell)


@dataclass(frozen=True)
class DoubleInductiveGroupoid:
    objects: tuple[int, ...]
    ver_arrows: tuple[int, ...]
    hor_arrows: tuple[int, ...]
    cells: tuple[int, ...]
    obj_ver: dict  # object -> identity vertical arrow
    obj_hor: dict  # object -> identity horizontal arrow
    ver_cell: dict  # vertical arrow -> identity cell for hcompose
    hor_cell: dict  # horizontal arrow -> identity cell for vcompose
    ver_src: dict  # vertical arrow -> top object
    ver_dst: dict  # vertical arrow -> bottom object
    hor_src: dict  # horizontal arrow -> left object
    hor_dst: dict  # horizontal arrow -> right object
    hdom: dict  # cell -> vertical arrow (left edge)
    hcod: dict  # cell -> vertical arrow (right edge)
    vdom: dict  # cell -> horizontal arrow (top edge)
    vcod: dict  # cell -> horizontal arrow (bottom edge)
    hcompose: dict  # (cell, cell) -> cell, defined iff hcod = hdom
    vcompose: dict  # (cell, cell) -> cell, defined iff vcod = vdom
    hinv: dict
    vinv: dict
    leq: frozenset  # horizontal order on cells
    lesssim: frozenset  # vertical order on cells
    meet_h: dict  # (ver, ver) -> ver
    meet_v: dict  # (hor, hor) -> hor
    h_restrict: dict  # (ver e, cell a) -> cell, for e <= hdom a
    h_corestrict: dict  # (cell a, ver e) -> cell, for e <= hcod a
    v_restrict: dict  # (hor e, cell a) -> cell, for e <~ vdom a
    v_corestrict: dict  # (cell a, hor e) -> cell, for e <~ vcod a

    # Set by ``dig_from_view`` on the value it assembles, not a field: the pair it
    # was built from, (t, t) for the pseudo-product t of its view (``certify_view``).
    # None on every other value, such as one read from JSON, transposed or copied.
    certificate = None

    def obj_cell(self, o):
        return self.ver_cell[self.obj_ver[o]]

    @computed_once
    def report(self) -> ValidationReport:
        """``validate_dig`` of this value, computed once; treat it as read-only."""
        return validate_dig(self)

    @computed_once
    def views(self) -> tuple[InductiveGroupoid, InductiveGroupoid]:
        """The horizontal and the vertical inductive groupoid on cell ids, built once,
        one object if this value equals its transpose (JSON input keeps equal but
        distinct tables); read only after ``validate_dig`` has checked the ranges,
        or on a value whose ``certificate`` vouches for them."""
        h, t = _horizontal_view(self), transpose(self)
        return (h, h) if t == self else (h, _horizontal_view(t))


# Every field of DoubleInductiveGroupoid, paired with its twin in the transpose,
# and its sorts: the sorts of the key, ":", the sort of the value, where o is an
# object, v a vertical arrow, h a horizontal arrow and c a cell. A single sort
# is a carrier; two sorts without ":" are a relation on cells. The twin's sorts
# are the same with v and h exchanged. The range pass reports an entry outside
# the carriers under the tags that follow, the field's and its twin's, or else
# under range.<field>.
_TWINS = (
    ("objects", "objects", "o"),
    ("ver_arrows", "hor_arrows", "v"),
    ("cells", "cells", "c"),
    ("obj_ver", "obj_hor", "o:v", "emb.obj_ver", "emb.obj_hor"),
    ("ver_cell", "hor_cell", "v:c", "emb.ver_cell", "emb.hor_cell"),
    ("ver_src", "hor_src", "v:o", "emb.ver-endpoints", "emb.hor-endpoints"),
    ("ver_dst", "hor_dst", "v:o", "emb.ver-endpoints", "emb.hor-endpoints"),
    ("hdom", "vdom", "c:v", "emb.cell-hboundary", "emb.cell-vboundary"),
    ("hcod", "vcod", "c:v", "emb.cell-hboundary", "emb.cell-vboundary"),
    ("hcompose", "vcompose", "cc:c"),
    ("hinv", "vinv", "c:c"),
    ("leq", "lesssim", "cc"),
    ("meet_h", "meet_v", "vv:v"),
    ("h_restrict", "v_restrict", "vc:c"),
    ("h_corestrict", "v_corestrict", "cv:c"),
)
_SWAP = str.maketrans("vh", "hv")
_FIELDS = dict(
    entry
    for field, twin, sorts, *_ in _TWINS
    for entry in ((field, sorts), (twin, sorts.translate(_SWAP)))
)
_TWIN = dict(entry for field, twin, *_ in _TWINS for entry in ((field, twin), (twin, field)))
_CARRIER = {"o": "objects", "v": "ver_arrows", "h": "hor_arrows", "c": "cells"}
_RANGE_TAGS = dict(entry for field, twin, _, *tags in _TWINS for entry in zip((field, twin), tags))


def transpose(g: DoubleInductiveGroupoid) -> DoubleInductiveGroupoid:
    """g with the horizontal and vertical directions exchanged: its horizontal
    view is the vertical view of g, and each axiom of (iii)-(ix) read on it is
    the twin axiom read on g."""
    return DoubleInductiveGroupoid(**{_TWIN[name]: getattr(g, name) for name in _FIELDS})


def _side(h: InductiveGroupoid, v: InductiveGroupoid, objects: tuple):
    """(context, carriers) of the cell rows on the horizontal view h and the
    vertical view v of one groupoid; ``_side(v, h, objects)`` reads its transpose.
    The context holds each view table read, for this check, into a total table
    over None and the cells, t[x] or t[x][y], None where the entry is undefined
    or an argument is None or not of the sort it needs; arrows and objects are
    their identity cells. The carriers are the ranges of row variables by the
    sort letters of _CELL_ROWS; C is a composable pair (a, b) of h, x a cell c
    with vcomp(a, c) defined, and y a cell d with hcomp(c, d) and vcomp(b, d)
    defined. The driven ranges keep the values at which a table that one side
    reads is defined: b, g for vcomp(a, b), vcomp(f, g); p, q for hcorestrict(p,
    f), hcorestrict(q, h); r, s for hrestrict(f, r), hrestrict(h, s); k for
    vcorestrict(a, k), e for vrestrict(e, a); u for hcomp(p, u), and w for
    hcomp(q, w) and hcomp(meet_v(p, q), meet_v(u, w))."""
    cells, ver, hor, keys = h.arrows, h.objects, v.objects, (None, *h.arrows)

    def total(table):
        rows = {x: dict.fromkeys(keys) for x in keys}
        for (x, y), z in table.items():
            rows[x][y] = z
        return rows

    def after(t, xs, ys):  # each x of xs -> the ys with t[x][y] defined
        return {x: [y for y in ys if t[x][y] is not None] for x in xs}

    e = SimpleNamespace(
        hdom={None: None, **h.dom}, hcod={None: None, **h.cod},
        vdom={None: None, **v.dom}, vcod={None: None, **v.cod},
        hcomp=total(h.compose), vcomp=total(v.compose), meet_h=total(h.object_meet),
        meet_v=total(v.object_meet), hrestrict=total(h.restriction),
        vrestrict=total(v.restriction), hcorestrict=total(h.corestriction),
        vcorestrict=total(v.corestriction), hor=hor)
    hc, vc, mv = e.hcomp, e.vcomp, e.meet_v
    vc_after, hc_after = after(vc, cells, cells), after(hc, cells, cells)
    ver_after, hor_after = after(vc, ver, ver), after(hc, hor, hor)
    hre_after, vco_after = after(e.hrestrict, objects, hor), after(e.vcorestrict, cells, hor)
    hco_before = {f: [p for p in hor if e.hcorestrict[p][f] is not None] for f in objects}
    vre_before = {a: [f for f in hor if e.vrestrict[f][a] is not None] for a in cells}
    return e, {
        "c": cells, "v": ver, "h": hor, "o": objects, "C": h.compose,
        "x": lambda ab: vc_after[ab[0]],
        "y": lambda ab, c: [d for d in hc_after[c] if vc[ab[1]][d] is not None],
        "b": lambda a: vc_after[a], "g": lambda a, b, f: ver_after[f],
        "p": lambda f, h: hco_before[f], "q": lambda f, h, p: hco_before[h],
        "r": lambda f, h: hre_after[f], "s": lambda f, h, r: hre_after[h],
        "k": lambda a: vco_after[a], "e": lambda a: vre_before[a],
        "u": lambda p, q: hor_after[p],
        "w": lambda p, q, u: [w for w in hor_after[q] if hc[mv[p][q]][mv[u][w]] is not None],
    }


def _horizontal_view(g: DoubleInductiveGroupoid) -> InductiveGroupoid:
    """The groupoid over the vertical arrows, transported to cell ids; the
    vertical view is the horizontal view of ``transpose(g)``."""
    vc = g.ver_cell
    objects = tuple(sorted(vc[e] for e in g.ver_arrows))
    return InductiveGroupoid(
        objects=objects, arrows=g.cells, identity={o: o for o in objects},
        dom={a: vc[g.hdom[a]] for a in g.cells}, cod={a: vc[g.hcod[a]] for a in g.cells},
        compose=g.hcompose, inv=g.hinv, leq=g.leq,
        object_meet={(vc[e], vc[f]): vc[m] for (e, f), m in g.meet_h.items()},
        restriction={(vc[e], a): b for (e, a), b in g.h_restrict.items()},
        corestriction={(a, vc[e]): b for (a, e), b in g.h_corestrict.items()},
    )


def _twinned(*pairs):
    """Each (row, twin tag) as (row, the row under the twin tag, or None
    without one), built once."""
    return tuple((row, twin and replace(row, tag=twin, counts=row.counts and twin))
                 for row, twin in pairs)


def _check_twinned(table, sides, rep: ValidationReport, skip=()) -> bool:
    """Run each (row, twin) of ``table`` on the first of ``sides``, and the twin,
    unless it is None or its tag is in ``skip``, on the second, the transpose; a
    side is (context, carriers). With one side the value is its own transpose, and
    a twin's result is its row's under the twin's tag. Returns whether none failed."""
    ok = True
    for row, twin in table:
        part = ValidationReport()
        ok &= check_rows(*sides[0], (row,), part)
        rep.merge(part)
        if twin is None or twin.tag in skip:
            continue
        if len(sides) > 1:
            ok &= check_rows(*sides[1], (twin,), rep)
        else:
            rep.violations += [replace(x, axiom=twin.tag) for x in part.violations]
            rep.bump(twin.counts, True, part.substantive.get(row.counts, 0))
            rep.bump(twin.counts, False, part.vacuous.get(row.counts, 0))
    return ok


# Rows on a double groupoid and, under the twin tag, on its transpose, over its
# carriers by the sorts of _CARRIER: each identity-cell embedding is injective
# (the later of two ids with one image is the witness); then identity cells and
# the identity arrows of objects are loops, and an object has one identity cell.
_INJECTIVE = _twinned(
    (Row("emb.obj_ver", "oo", lambda g, x, y: x >= y or g.obj_ver[x] != g.obj_ver[y],
         order=(1,), message="embedding not injective"), "emb.obj_hor"),
    (Row("emb.ver_cell", "vv", lambda g, e, f: e >= f or g.ver_cell[e] != g.ver_cell[f],
         order=(1,), message="embedding not injective"), "emb.hor_cell"),
)
_IDENTITIES = _twinned(
    (Row("emb.object-cell", "o", lambda g, o: g.obj_cell(o) == g.hor_cell[g.obj_hor[o]],
         message="the two identity cells of an object differ"), None),
    (Row("emb.ver-identity", "v", lambda g, e: g.hdom[g.ver_cell[e]] == e == g.hcod[g.ver_cell[e]],
         message="identity cell must be a loop"), "emb.hor-identity"),
    (Row("emb.object-ver-loop", "o",
         lambda g, o: g.ver_src[g.obj_ver[o]] == o == g.ver_dst[g.obj_ver[o]]),
     "emb.object-hor-loop"),
)


def _check_embeddings(g: DoubleInductiveGroupoid, rep: ValidationReport) -> bool:
    """The embedding rows, on fields the range pass has checked."""
    h, v = g.views
    sides = tuple((t, {s: getattr(t, name) for s, name in _CARRIER.items()})
                  for t in ((g,) if h is v else (g, transpose(g))))
    return _check_twinned(_INJECTIVE, sides, rep) and _check_twinned(_IDENTITIES, sides, rep)


def _corner_agrees(g: DoubleInductiveGroupoid, a, k) -> bool:
    """Corner k of cell a (0 top left, 1 top right, 2 bottom left, 3 bottom
    right) is one object, read along its vertical and its horizontal edge."""
    ver = g.hcod[a] if k & 1 else g.hdom[a]
    hor = g.vcod[a] if k & 2 else g.vdom[a]
    return (g.ver_dst if k & 2 else g.ver_src)[ver] == (g.hor_dst if k & 1 else g.hor_src)[hor]


# A row on g over its cells c and the corner indices k; its own transpose.
_CORNER = Row("boundary.corner", "ck", _corner_agrees,
              message="edge endpoints disagree at a corner")


def _axiom(tag, twin, sorts, lhs, rhs, order, drive=None):
    """(row, tag of the transposed identity or None) for one identity lhs = rhs,
    counted under its tag and driven by ``drive``; both sides are functions of
    the context and the variables of a side (``_side``)."""
    return Row(tag, sorts, lhs, rhs, order, counts=tag, drive=drive), twin


# The rows on cells, read on the view tables of ``_side``; a row with a transposed
# tag runs again on transpose(g) under that tag. First boundary coherence: the top
# edge of a horizontal composite is the horizontal composite of the top edges, and
# likewise the bottom edge; the identity cells of horizontal arrows are closed
# under hcompose. Then the interchange law on cells, where an undefined side
# fails, and the compatibility axioms (iii)-(ix), one row per identity.
_CELL_ROWS = _twinned(
    (Row("boundary.hcomp-vdom", "C", lambda e, ab:
         e.hcomp[e.vdom[ab[0]]][e.vdom[ab[1]]] == e.vdom[e.hcomp[ab[0]][ab[1]]],
         counts="boundary.hcomp-vdom"), "boundary.vcomp-hdom"),
    (Row("boundary.hcomp-vcod", "C", lambda e, ab:
         e.hcomp[e.vcod[ab[0]]][e.vcod[ab[1]]] == e.vcod[e.hcomp[ab[0]][ab[1]]],
         counts="boundary.hcomp-vcod"), "boundary.vcomp-hcod"),
    (Row("boundary.hor-closed", "hh", lambda e, x, y:
         (c := e.hcomp[x][y]) is None or c in e.hor), "boundary.ver-closed"),
    (Row("interchange.cells", "Cxy", lambda e, ab, c, d:
         (lhs := e.vcomp[e.hcomp[ab[0]][ab[1]]][e.hcomp[c][d]]) is not None
         and lhs == e.hcomp[e.vcomp[ab[0]][c]][e.vcomp[ab[1]][d]],
         counts="interchange.cells"), None),
    # (iii) composition against (co)restriction in the transverse direction
    _axiom("iii.a", "iii.b", "ccvv",
        lambda e, a, b, f, g: e.hcorestrict[e.vcomp[a][b]][e.vcomp[f][g]],
        lambda e, a, b, f, g: e.vcomp[e.hcorestrict[a][f]][e.hcorestrict[b][g]], None,
        "cbvg"),
    _axiom("iii.c", "iii.d", "ccvv",
        lambda e, a, b, f, g: e.hrestrict[e.vcomp[f][g]][e.vcomp[a][b]],
        lambda e, a, b, f, g: e.vcomp[e.hrestrict[f][a]][e.hrestrict[g][b]], (2, 3, 0, 1),
        "cbvg"),
    # (iv) composition against the transverse meet
    _axiom("iv.a", "iv.b", "hhhh",
        lambda e, p, q, r, s: e.hcomp[e.meet_v[p][q]][e.meet_v[r][s]],
        lambda e, p, q, r, s: e.meet_v[e.hcomp[p][r]][e.hcomp[q][s]], None, "hhuw"),
    # (v) meet against (co)restriction in the transverse direction
    _axiom("v.a", "v.b", "oohh",
        lambda e, f, h, p, q: e.meet_v[e.hcorestrict[p][f]][e.hcorestrict[q][h]],
        lambda e, f, h, p, q: e.hcorestrict[e.meet_v[p][q]][e.meet_v[f][h]], (2, 0, 3, 1),
        "oopq"),
    _axiom("v.c", "v.d", "oohh",
        lambda e, f, h, p, q: e.meet_v[e.hrestrict[f][p]][e.hrestrict[h][q]],
        lambda e, f, h, p, q: e.hrestrict[e.meet_v[f][h]][e.meet_v[p][q]], (0, 2, 1, 3),
        "oors"),
    # (vi) the two (co)restriction families against each other
    _axiom("vi.a", "vi.b", "chv",
        lambda e, a, f, g: e.hcorestrict[
            e.vcorestrict[a][f]][e.vcorestrict[g][e.meet_h[e.hcod[f]][e.vcod[g]]]],
        lambda e, a, f, g: e.vcorestrict[
            e.hcorestrict[a][g]][e.hcorestrict[f][e.meet_h[e.hcod[f]][e.vcod[g]]]],
        None, "ckv"),
    _axiom("vi.c", "vi.d", "chv",
        lambda e, a, f, g: e.hrestrict[
            e.vrestrict[e.meet_h[e.hdom[f]][e.vdom[g]]][g]][e.vrestrict[f][a]],
        lambda e, a, f, g: e.vrestrict[
            e.hrestrict[e.meet_h[e.hdom[f]][e.vdom[g]]][f]][e.hrestrict[g][a]],
        None, "cev"),
    # (vii) the two meets against each other; its own transpose
    _axiom("vii", None, "oooo",
        lambda e, p, q, r, s: e.meet_v[e.meet_h[p][q]][e.meet_h[r][s]],
        lambda e, p, q, r, s: e.meet_h[e.meet_v[p][r]][e.meet_v[q][s]], None),
    # (viii) (co)domains are functorial for the transverse meet
    _axiom("viii.a", "viii.c", "vv",
        lambda e, p, q: e.vdom[e.meet_h[p][q]],
        lambda e, p, q: e.meet_h[e.vdom[p]][e.vdom[q]], None),
    _axiom("viii.b", "viii.d", "vv",
        lambda e, p, q: e.vcod[e.meet_h[p][q]],
        lambda e, p, q: e.meet_h[e.vcod[p]][e.vcod[q]], None),
    # (ix) (co)domains are functorial for the transverse (co)restrictions; the
    # transpose of (ix.c) is the pattern-consistent reading of (ix.g), which
    # runs only under strict_ix
    _axiom("ix.a", "ix.e", "cv",
        lambda e, a, c: e.vdom[e.hcorestrict[a][c]],
        lambda e, a, c: e.hcorestrict[e.vdom[a]][e.vdom[c]], None),
    _axiom("ix.b", "ix.f", "cv",
        lambda e, a, c: e.vcod[e.hcorestrict[a][c]],
        lambda e, a, c: e.hcorestrict[e.vcod[a]][e.vcod[c]], None),
    _axiom("ix.c", "ix.g-strict", "cv",
        lambda e, a, c: e.vdom[e.hrestrict[c][a]],
        lambda e, a, c: e.hrestrict[e.vdom[c]][e.vdom[a]], (1, 0)),
    _axiom("ix.d", "ix.h", "cv",
        lambda e, a, c: e.vcod[e.hrestrict[c][a]],
        lambda e, a, c: e.hrestrict[e.vcod[c]][e.vcod[a]], (1, 0)),
    # (ix.g) as printed restricts by the *vertical* domain of e; the pattern of
    # (e), (f), (h) suggests the horizontal one instead
    _axiom("ix.g", None, "ch",
        lambda e, a, c: e.hdom[e.vrestrict[c][a]],
        lambda e, a, c: e.vrestrict[e.vdom[c]][e.hdom[a]], (1, 0)),
)


def validate_dig(g: DoubleInductiveGroupoid, strict_ix=False) -> ValidationReport:
    """The range pass over every field, then rows: the embeddings, both
    inductive-groupoid substructures, the corners, and the rows on cells
    (boundary coherence, cell-level interchange, the compatibility axioms)."""
    rep = ValidationReport()
    if g.cells != tuple(range(1, len(g.cells) + 1)):
        rep.add("shape.cells", (), "cells must be 1..m in order")
        return rep
    carriers = {s: set(getattr(g, name)) for s, name in _CARRIER.items()}
    if not check_ranges(g, _FIELDS, carriers, rep, _RANGE_TAGS) or not _check_embeddings(g, rep):
        return rep
    for view, prefix in zip(g.views, ("i.", "ii.")):
        rep.merge(view.report, prefix=prefix)
    check_rows(g, {"c": g.cells, "k": range(4)}, (_CORNER,), rep)
    h, v = g.views
    objects = tuple(sorted(g.obj_cell(o) for o in g.objects))
    sides = (_side(h, v, objects),) if h is v else (_side(h, v, objects), _side(v, h, objects))
    _check_twinned(_CELL_ROWS, sides, rep, skip=() if strict_ix else ("ix.g-strict",))
    if strict_ix:
        for a in g.cells:
            for ec in v.objects:
                literal = v.restriction.get((v.dom[ec], h.dom[a]))
                patterned = v.restriction.get((h.dom[ec], h.dom[a]))
                if literal is not None and patterned is not None and literal != patterned:
                    rep.notes.append(
                        f"ix.g readings disagree at cell {a}, horizontal arrow cell {ec}"
                    )
    return rep


def one_view(g: DoubleInductiveGroupoid) -> InductiveGroupoid:
    """The one inductive groupoid that both views of a valid g are when its two
    operations coincide: on cell ids, its objects the object cells and every
    cell a loop, the ESN groupoid of a Clifford semigroup (Howie 1995, §4.2).
    g is valid if ``dig_from_view`` built it (its ``certificate``) or, for any
    other g, if ``g.report`` passes; the three view comparisons run on both."""
    if g.certificate is None and not g.report:
        raise InvalidDigError(g.report)
    h, v = g.views
    differ = next((f.name for f in fields(h) if getattr(h, f.name) != getattr(v, f.name)), None)
    if differ:
        raise TheoremViolation(f"the two views differ in {differ}")
    if h.objects != tuple(sorted(map(g.obj_cell, g.objects))):
        raise TheoremViolation("the objects of the view are not the object cells")
    if h.dom != h.cod:
        raise TheoremViolation("a cell of the view is not a loop")
    return h


def certify_view(h: InductiveGroupoid, pair: DoubleSemigroup) -> DoubleSemigroup:
    """The certificate of ``dig_from_view(h, pair)``, ``pair`` itself, once h
    passes ``validate_ig``, every arrow of h is a loop, the pseudo-product t of
    h is commutative, and both operations of the pair are t. Raises
    TheoremViolation naming the part that fails: for the last, the least cell
    where the pair and t differ. With the last part, this is the program's one
    proof of the main theorem on the pair, improper, commutative and Clifford
    (its arrows loops, aa' = a'a), and of its ESN roundtrip.

    The first three parts hold exactly when the double groupoid assembled from
    h passes ``validate_dig``. t is an inverse semigroup whose ESN groupoid is h
    (the ESN theorem). If t is commutative it is medial, (ab)(cd) = (ac)(bd),
    so (t, t) is a double inverse semigroup, whose double groupoid is the one
    both of whose views are h. Conversely, the two pseudo-products of a valid
    double groupoid form a double inverse semigroup, and by the main theorem its
    operation is commutative, so its arrows are loops. The tier-1 tests check
    this on every inverse table of order at most 5."""
    if not h.report:
        raise TheoremViolation(
            f"construction produced an invalid view: {h.report.summary()}")
    if h.dom != h.cod:
        raise TheoremViolation("construction produced a view with a cell that is not a loop")
    t = pseudo_product_table(h)
    commutative = is_commutative(t)
    if not commutative:
        raise TheoremViolation(
            f"the pseudo-product of a constructed view is not commutative at {commutative.witness}")
    if cells := [c for s in (pair.hop, pair.vop) if (c := first_difference(s, t))]:
        raise TheoremViolation(
            f"the pseudo-product of a constructed view differs from its pair at {min(cells)}")
    return pair


def dig_from_view(h: InductiveGroupoid, pair: DoubleSemigroup) -> DoubleInductiveGroupoid:
    """The double groupoid both of whose views are h, the inverse of ``one_view``:
    its cells are the arrows of h, and the objects of h, numbered in the order h
    lists them, are its objects and, each a loop at itself, its vertical and its
    horizontal arrows. The tables of h, renamed to them, are the horizontal
    fields, and the same tables are the vertical fields under their twins'
    names. It is certified against ``pair``, the pair it is built from, not
    validated: it carries ``certify_view(h, pair)`` as its ``certificate``, which
    ``one_view`` and ``dis_from_dig`` accept in place of ``validate_dig``, and it
    must pass ``one_view``'s comparisons. ``g.report`` is still the full check."""
    certificate = certify_view(h, pair)
    ids = {e: i for i, e in enumerate(h.objects, 1)}
    loops = {i: i for i in ids.values()}
    tables = {
        "ver_arrows": tuple(loops), "obj_ver": loops, "ver_cell": {i: e for e, i in ids.items()},
        "ver_src": loops, "ver_dst": loops,
        "hdom": {a: ids[e] for a, e in h.dom.items()},
        "hcod": {a: ids[e] for a, e in h.cod.items()},
        "hcompose": h.compose, "hinv": h.inv, "leq": h.leq,
        "meet_h": {(ids[e], ids[f]): ids[m] for (e, f), m in h.object_meet.items()},
        "h_restrict": {(ids[e], a): b for (e, a), b in h.restriction.items()},
        "h_corestrict": {(a, ids[e]): b for (a, e), b in h.corestriction.items()},
    }
    g = DoubleInductiveGroupoid(objects=tuple(loops), cells=h.arrows, **tables,
                                **{_TWIN[name]: table for name, table in tables.items()})
    object.__setattr__(g, "certificate", certificate)
    one_view(g)
    return g


def dig_from_dis(d: DoubleSemigroup) -> DoubleInductiveGroupoid:
    """The double groupoid of a double inverse semigroup, whose two operations
    coincide (the main theorem: a proper d is refused here, and ``certify_view``
    proves the rest): both views are the ESN groupoid of that one operation, its
    objects and arrows the idempotents, cells the elements, and d its certificate."""
    cls = d.classification
    if not cls.is_double_inverse_semigroup:
        raise NotDoubleInverseError(cls.failure_reason())
    if proper := is_proper(d):
        raise TheoremViolation(
            f"the two operations of a double inverse semigroup differ at {proper.witness}")
    return dig_from_view(groupoid_of(cls.hop_analysis), d)


def dis_from_dig(g: DoubleInductiveGroupoid) -> DoubleSemigroup:
    """The pseudo-product of the one view of g (``one_view``), total on a valid
    view, as both operations, re-proved to be a double inverse semigroup by
    its classification. On a value ``dig_from_view`` built it is the
    certificate, the pair that value was built from and checked against, which
    comes back itself with the classification it holds."""
    d = g.certificate or DoubleSemigroup(*[pseudo_product_table(one_view(g))] * 2)
    if not d.classification.is_double_inverse_semigroup:
        raise TheoremViolation(
            f"pseudo-products of a valid double groupoid must form a double "
            f"inverse semigroup: {d.classification.failure_reason()}")
    return d


def skeleton(g: DoubleInductiveGroupoid) -> dict:
    """g on cell ids, for structural comparison: its object cells, the object
    cells at the ends of each arrow's identity cell, and its two views, which
    hold every table; the embeddings and the arrow ids drop out."""
    obj = {o: g.obj_cell(o) for o in g.objects}
    out = {"objects": frozenset(obj.values())}
    for name in ("ver_src", "hor_src", "ver_dst", "hor_dst"):
        cell = g.ver_cell if name[0] == "v" else g.hor_cell
        out[name] = {cell[x]: obj[o] for x, o in getattr(g, name).items()}
    out["horizontal"], out["vertical"] = g.views
    return out


def roundtrip_double(d: DoubleSemigroup, back: DoubleSemigroup | None = None) -> Verdict:
    """back = dis_from_dig(dig_from_dis(d)) must reproduce both tables entrywise;
    a caller that already built back passes it in."""
    if back is None:
        back = dis_from_dig(dig_from_dis(d))
    diffs = [(cell, name) for name, x, y in (("hop", back.hop, d.hop), ("vop", back.vop, d.vop))
             if (cell := first_difference(x, y)) is not None]
    if not diffs:
        return Verdict(True)
    cell, name = min(diffs)  # the least cell, hop before vop
    return Verdict(False, (name, *cell))


def roundtrip_dig(
    g: DoubleInductiveGroupoid, back: DoubleInductiveGroupoid | None = None
) -> Verdict:
    """back = dig_from_dis(dis_from_dig(g)) must reproduce g up to the cell
    skeleton; a caller that already built back passes it in."""
    if back is None:
        back = dig_from_dis(dis_from_dig(g))
    s1, s2 = skeleton(g), skeleton(back)
    for key in s1:
        if s1[key] != s2[key]:
            return Verdict(False, (key,))
    return PASS


# For split.i, split.ii, meets.i and meets.ii, the positions in the rows that
# _check_split_and_meets builds for a·b and for c·d whose entries fix every edge
# the identity reads. Evaluated once per pair of such keys, the four take about
# 0.05 s, 3 %, of a bench ``theorem`` pass (1.8 s in-process; 2 cores, Python 3.11).
_SPLIT_KEYS = (((0, 1, 2), (3, 4, 5)), ((3, 4, 5), (0, 1, 2)), ((4, 6, 7),) * 2, ((5, 6, 8),) * 2)


def _check_split_and_meets(h, v, pieces, rep: ValidationReport, *readings):
    """split.i, split.ii (a transverse (co)restriction of a horizontal composite
    splits into one of each factor) and meets.i, meets.ii (the meets of the
    factors' edges are (co)restrictions of the meets of the operands' edges)
    for the pseudo-products a·b and c·d of every two pairs of cells, read on
    the views h and v; on the transposed views they are the vertical
    identities. Each is evaluated once per pair of edge keys and counted for
    every quadruple of the two key groups, and recorded for each (tags, order)
    of ``readings``: witnesses list (a, b, c, d) in that order, by a·b, then
    c·d, then identity."""
    meet, hcomp = v.object_meet.get, h.compose.get
    vcorestrict, vrestrict = v.corestriction.get, v.restriction.get
    hcorestrict, hrestrict = h.corestriction.get, h.restriction.get
    identities = (  # of a row l of a·b, a row r of c·d and the meets M of their ends
        lambda l, r, M: (vcorestrict((l[0], M[0])),
                         hcomp((vcorestrict((l[1], M[1])), vcorestrict((l[2], M[2]))))),
        lambda l, r, M: (vrestrict((M[0], r[0])),
                         hcomp((vrestrict((M[1], r[1])), vrestrict((M[2], r[2]))))),
        lambda l, r, M: (M[1], hcorestrict((M[4], M[3]))),
        lambda l, r, M: (M[2], hrestrict((M[3], M[5]))),
    )
    # the row of a·b is x, au, ub, then the vcods of x, au, ub, u, a, b; that of
    # c·d is y, cv, vd, then the vdoms of y, cv, vd, w, c, d
    pairs = list(pieces)
    rows = [[(x, au, ub, *map(end, (x, au, ub, u, *ab))) for ab, (u, au, ub, x) in pieces.items()]
            for end in (v.cod.get, v.dom.get)]
    substantive, vacuous, failed = [0] * 4, [0] * 4, []
    for i, (identity, keys) in enumerate(zip(identities, _SPLIT_KEYS)):
        left, right = (_grouped(side, key) for side, key in zip(rows, keys))
        for l, ps in left:
            for r, qs in right:
                lhs, rhs = identity(l, r, list(map(meet, zip(l[3:], r[3:]))))
                if lhs is None or rhs is None:
                    vacuous[i] += len(ps) * len(qs)
                    continue
                substantive[i] += len(ps) * len(qs)
                if lhs != rhs:
                    failed.extend((p, q, i) for p in ps for q in qs)
    failed.sort()
    for tags, order in readings:
        for p, q, i in failed:
            quad = (*pairs[p], *pairs[q])
            rep.add(tags[i], tuple(quad[k] for k in order))
        for tag, hits, misses in zip(tags, substantive, vacuous):
            rep.bump(tag, True, hits)
            rep.bump(tag, False, misses)


def _grouped(rows, key):
    """(the first row, the positions of all rows) for each value at ``key``."""
    groups, key = {}, itemgetter(*key)
    for p, row in enumerate(rows):
        groups.setdefault(key(row), (row, []))[1].append(p)
    return groups.values()


def verify_interchange_identities(g: DoubleInductiveGroupoid) -> ValidationReport:
    """Re-derive the interchange law for the pseudo-products from the groupoid:
    the law itself on every cell quadruple, where both pseudo-products of the
    valid views are total, the two composite-splitting identities, and the four
    meet-transport identities, each checked wherever its expressions are
    defined. The vertical identities are the horizontal ones read on the
    transpose, where the quadruple (a, b, c, d) of g is (a, c, b, d); on g its
    own transpose they are the horizontal results under those witnesses."""
    if not g.report:
        return g.report
    rep = ValidationReport()
    h, v = g.views
    horizontal = pseudo_products(h)
    vertical = horizontal if h is v else pseudo_products(v)
    # a product is None, read as 0, only on a groupoid read without its check
    hprod, vprod = ([[table[a, b][3] or 0 for b in g.cells] for a in g.cells]
                    for table in (horizontal, vertical))
    for quad in _interchange_failures(vprod, hprod):
        rep.add("interchange.products", quad)
    rep.bump("interchange.products", True, len(g.cells) ** 4)
    readings = ((("split.h.i", "split.h.ii", "meets.i", "meets.ii"), (0, 1, 2, 3)),
                (("split.v.i", "split.v.ii", "meets.iii", "meets.iv"), (0, 2, 1, 3)))
    if h is v:
        _check_split_and_meets(h, v, horizontal, rep, *readings)
    else:
        _check_split_and_meets(h, v, horizontal, rep, readings[0])
        _check_split_and_meets(v, h, vertical, rep, readings[1])
    return rep


def dig_to_json(g: DoubleInductiveGroupoid) -> dict:
    return {"schema_version": 1, "kind": "double-inductive-groupoid",
            **to_json(g, _FIELDS, {}, ())}


def dig_from_json(doc: dict) -> DoubleInductiveGroupoid:
    """The inverse of ``dig_to_json``, read by ``report.from_json``: every
    carrier is declared as a size; the structure itself is left to ``validate_dig``."""
    return DoubleInductiveGroupoid(**from_json(doc, _FIELDS, {}, (), "double-inductive-groupoid"))
