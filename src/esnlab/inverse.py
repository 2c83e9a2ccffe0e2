"""Inverse-semigroup recognition: unique inverses, idempotent semilattice,
natural partial order, and the Clifford test."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from .errors import (
    NoInverseError,
    NonUniqueInverseError,
    NotASemigroupError,
    NotIdempotentError,
    OrderAxiomViolation,
    TheoremViolation,
)
from .report import Row, ValidationReport, Verdict, check_rows
from .tables import CayleyTable, idempotents, is_associative, is_regular_associative


@dataclass(frozen=True)
class InverseSemigroupAnalysis:
    """A table together with its inverse map, idempotents, and natural order.

    leq holds the pairs (a, b) with a = e·b for some idempotent e; restricted to
    the idempotents it is a meet-semilattice whose meet is the product.
    """

    table: CayleyTable
    inverse_map: tuple[int, ...]
    idempotent_set: tuple[int, ...]
    leq: frozenset[tuple[int, int]]

    def inverse(self, a):
        return self.inverse_map[a - 1]

    def leq_holds(self, a, b):
        return (a, b) in self.leq

    def below(self, b):
        """Elements a with a <= b, ascending."""
        return tuple(a for a in self.table.elements() if (a, b) in self.leq)


def _inverses(T, n, a):
    """The x with a·x·a = a and x·a·x = x in the flat table T of order n, all
    counted from 0, ascending."""
    return [x for x in range(n) if T[T[a * n + x] * n + a] == a and T[T[x * n + a] * n + x] == x]


def generalized_inverses(t: CayleyTable, a: int) -> tuple[int, ...]:
    return tuple(x + 1 for x in _inverses(t.flat, t.n, a - 1))


def unique_inverses(T, n):
    """The generalized inverse of each element of the flat table T of order n,
    counted from 0, up to the first element without exactly one: so every
    element has one iff the list has n entries. This is the one unique-inverse
    test, which analyze_inverse and the search's filters share."""
    inv = []
    for a in range(n):
        found = _inverses(T, n, a)
        if len(found) != 1:
            break
        inv.append(found[0])
    return inv


NOT_INVERSE = (NotASemigroupError, NoInverseError, NonUniqueInverseError)


def analyze_inverse(t: CayleyTable) -> InverseSemigroupAnalysis:
    """Succeeds iff t is associative and every element has exactly one
    generalized inverse, else raises one of ``NOT_INVERSE``; the natural order
    it carries must then be a partial order, or it raises TheoremViolation."""
    assoc = is_associative(t)
    if not assoc:
        raise NotASemigroupError(assoc.witness)
    inv = unique_inverses(t.flat, t.n)
    if len(inv) < t.n:
        a = len(inv) + 1
        found = generalized_inverses(t, a)
        raise NonUniqueInverseError(a, *found[:2]) if found else NoInverseError(a)
    idems = idempotents(t)
    try:
        leq = natural_partial_order(t, idems)
    except OrderAxiomViolation as exc:
        raise TheoremViolation(f"natural order of an inverse semigroup: {exc}") from exc
    return InverseSemigroupAnalysis(t, tuple(x + 1 for x in inv), idems, leq)


def order_and_meet_rows(reflexive, antisymmetric, transitive, lower=None, greatest=None,
                        counts=None):
    """Under a validator's tags: the partial-order rows over a carrier x, l a
    pair of the order and u an element above its second; and, given their
    tags, the meet rows over a meet-semilattice o, m the meet of the two
    objects before it (None where missing) and w an object below the first,
    counted under counts. The context s holds the order as ``s.leq``."""
    rows = (
        Row(reflexive, "x", lambda s, x: (x, x) in s.leq),
        Row(antisymmetric, "l", lambda s, p: p[0] == p[1] or (p[1], p[0]) not in s.leq),
        Row(transitive, "lu", lambda s, p, z: (p[0], z) in s.leq),
    )
    if lower is None:
        return rows
    return rows + (
        Row(lower, "oom", lambda s, e, f, m:
            None if m is None else (m, e) in s.leq and (m, f) in s.leq, counts=counts),
        Row(greatest, "oomw", lambda s, e, f, m, c:
            None if m is None else (c, m) in s.leq or (c, f) not in s.leq),
    )


_ORDER_ROWS = order_and_meet_rows("order.reflexive", "order.antisymmetric", "order.transitive")


def natural_partial_order(t: CayleyTable, idems) -> frozenset:
    """a <= b iff a = e·b for some idempotent e of ``idems``, the idempotents
    of t; verified to be a partial order by the order rows, else
    OrderAxiomViolation names the first failure."""
    elements = tuple(t.elements())
    pairs = frozenset((t.product(e, b), b) for b in elements for e in idems)
    up = {b: [c for c in elements if (b, c) in pairs] for b in elements}
    rep = ValidationReport()
    carriers = {"x": elements, "l": pairs, "u": lambda p: up[p[1]]}
    if not check_rows(SimpleNamespace(leq=pairs), carriers, _ORDER_ROWS, rep):
        raise OrderAxiomViolation(f"not a partial order: {rep.summary()}")
    return pairs


@dataclass(frozen=True)
class InverseCharacterization:
    """Regularity and idempotent commutativity against inverse-ness; the
    equivalence flag must hold on every semigroup."""

    is_regular: bool
    idempotents_commute: bool
    is_inverse: bool

    @property
    def equivalence_holds(self):
        return (self.is_regular and self.idempotents_commute) == self.is_inverse


def characterize_inverse(
    t: CayleyTable, analysis: InverseSemigroupAnalysis | None = None
) -> InverseCharacterization:
    """An analysis of t passed in is taken as the proof that t is inverse, and
    so associative. Without one t is analysed here, which raises
    NotASemigroupError if t is not associative."""
    if analysis is None:
        try:
            analysis = analyze_inverse(t)
        except (NoInverseError, NonUniqueInverseError):
            pass  # raised after analyze_inverse found t associative
    regular = bool(is_regular_associative(t))
    idems = idempotents(t)
    commute = all(
        t.product(e, f) == t.product(f, e) for e in idems for f in idems
    )
    rep = InverseCharacterization(regular, commute, analysis is not None)
    if not rep.equivalence_holds:
        raise TheoremViolation(
            f"regular+commuting-idempotents does not match inverse-ness on order {t.n}"
        )
    return rep


def idempotent_meet(analysis: InverseSemigroupAnalysis, e: int, f: int) -> int:
    """The meet of two idempotents is their product; verified to be the glb."""
    idems = analysis.idempotent_set
    if e not in idems:
        raise NotIdempotentError(e)
    if f not in idems:
        raise NotIdempotentError(f)
    m = analysis.table.product(e, f)
    leq = analysis.leq
    if (m, e) not in leq or (m, f) not in leq:
        raise TheoremViolation(f"product {m} is not a lower bound of idempotents {e},{f}")
    for g in idems:
        if (g, e) in leq and (g, f) in leq and (g, m) not in leq:
            raise TheoremViolation(f"product {m} is not the glb of idempotents {e},{f}")
    return m


def is_clifford(analysis: InverseSemigroupAnalysis) -> Verdict:
    """x·x' = x'·x for all x; witness is the least violating x."""
    t = analysis.table
    for x in t.elements():
        xi = analysis.inverse(x)
        if t.product(x, xi) != t.product(xi, x):
            return Verdict(False, (x,))
    return Verdict(True)


def hasse_covers(analysis: InverseSemigroupAnalysis) -> tuple[tuple[int, int], ...]:
    """Covering pairs (e, f), e covered by f, of the idempotent semilattice."""
    idems = analysis.idempotent_set
    leq = analysis.leq
    covers = []
    for e in idems:
        for f in idems:
            if e == f or (e, f) not in leq:
                continue
            if any(
                g != e and g != f and (e, g) in leq and (g, f) in leq for g in idems
            ):
                continue
            covers.append((e, f))
    return tuple(sorted(covers))


def analysis_to_json(analysis: InverseSemigroupAnalysis) -> dict:
    t = analysis.table
    idems = analysis.idempotent_set
    return {
        "schema_version": 1,
        "kind": "inverse-analysis",
        "order": t.n,
        "table": [list(row) for row in t.rows],
        "inverse_map": list(analysis.inverse_map),
        "idempotents": list(idems),
        "leq": sorted([a, b] for (a, b) in analysis.leq),
        "meets": sorted(
            [e, f, t.product(e, f)] for e in idems for f in idems
        ),
    }


def hasse_dot(analysis: InverseSemigroupAnalysis) -> str:
    """Covering relation of the idempotent semilattice, lower element first."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in analysis.idempotent_set:
        lines.append(f'  "{e}";')
    for e, f in hasse_covers(analysis):
        lines.append(f'  "{e}" -> "{f}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
