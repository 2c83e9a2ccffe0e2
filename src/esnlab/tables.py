"""Cayley tables: parsing, elementary predicates, relabelings and canonical forms.

Elements are the integers 1..n throughout; ``rows[a-1][b-1]`` is the product
a·b (row = left operand). Everything here is pure and immutable. Relabeling
lives here alone: ``relabelings(n)`` lists the n! permutations once per order,
and ``least_relabeling`` finds the least image of a flat 0-based table, which
gives both the canonical forms and the pair search's class keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

from .errors import NotASemigroupError, ParseError
from .report import Verdict


@dataclass(frozen=True)
class CayleyTable:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n < 1:
            raise ValueError("empty carrier")
        for row in self.rows:
            if len(row) != n:
                raise ValueError(f"row length {len(row)} != order {n}")
            for entry in row:
                if not 1 <= entry <= n:
                    raise ValueError(f"entry {entry} out of range 1..{n}")

    @property
    def n(self):
        return len(self.rows)

    def product(self, a, b):
        return self.rows[a - 1][b - 1]

    def elements(self):
        return range(1, self.n + 1)


def parse_table(text: str) -> CayleyTable:
    """Parse the .cay format: '#' comments, order line, then n rows of n entries."""
    table, pos = _parse_one(text.splitlines(), 0)
    lines = text.splitlines()
    for i in range(pos, len(lines)):
        if lines[i].strip() and not lines[i].lstrip().startswith("#"):
            raise ParseError("unexpected trailing content", line=i + 1)
    return table


def parse_double(text: str) -> tuple[CayleyTable, CayleyTable]:
    """Parse two .cay tables from one stream (blank lines/comments between them)."""
    lines = text.splitlines()
    first, pos = _parse_one(lines, 0)
    second, pos = _parse_one(lines, pos)
    for i in range(pos, len(lines)):
        if lines[i].strip() and not lines[i].lstrip().startswith("#"):
            raise ParseError("unexpected trailing content", line=i + 1)
    if first.n != second.n:
        raise ParseError(f"tables have different orders {first.n} and {second.n}")
    return first, second


def _parse_one(lines, start):
    pos = start
    n = None
    rows = []
    while pos < len(lines):
        raw = lines[pos]
        pos += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if n is None:
            try:
                n = int(stripped)
            except ValueError:
                raise ParseError(f"expected the order, got {stripped!r}", line=pos) from None
            if n < 1:
                raise ParseError(f"order must be >= 1, got {n}", line=pos)
            continue
        tokens = stripped.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, got {len(tokens)}", line=pos)
        row = []
        for tok in tokens:
            try:
                val = int(tok)
            except ValueError:
                raise ParseError(f"non-numeric entry {tok!r}", line=pos) from None
            if not 1 <= val <= n:
                raise ParseError(f"entry {val} out of range 1..{n}", line=pos)
            row.append(val)
        rows.append(tuple(row))
        if len(rows) == n:
            return CayleyTable(tuple(rows)), pos
    if n is None:
        raise ParseError("no table found", line=pos)
    raise ParseError(f"expected {n} rows, got {len(rows)}", line=pos)


def format_table(t: CayleyTable) -> str:
    body = "\n".join(" ".join(str(v) for v in row) for row in t.rows)
    return f"{t.n}\n{body}\n"


def format_double(hop: CayleyTable, vop: CayleyTable) -> str:
    return format_table(hop) + "\n" + format_table(vop)


def is_associative(t: CayleyTable) -> Verdict:
    """O(n^3) scan; witness is the lexicographically least violating (a,b,c)."""
    rows = t.rows
    n = t.n
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            ab = rows[a][b]
            rb = rows[b]
            for c in range(n):
                if rows[ab - 1][c] != ra[rb[c] - 1]:
                    return Verdict(False, (a + 1, b + 1, c + 1))
    return Verdict(True)


def is_commutative(t: CayleyTable) -> Verdict:
    rows = t.rows
    for a in range(t.n):
        for b in range(t.n):
            if rows[a][b] != rows[b][a]:
                return Verdict(False, (a + 1, b + 1))
    return Verdict(True)


def idempotents(t: CayleyTable) -> tuple[int, ...]:
    return tuple(e for e in t.elements() if t.product(e, e) == e)


def is_regular(t: CayleyTable) -> Verdict:
    """Every a has some x with a·x·a = a. Requires associativity."""
    assoc = is_associative(t)
    if not assoc:
        raise NotASemigroupError(assoc.witness)
    return is_regular_associative(t)


def is_regular_associative(t: CayleyTable) -> Verdict:
    """is_regular on a table already known to be associative."""
    for a in t.elements():
        if not any(t.product(t.product(a, x), a) == a for x in t.elements()):
            return Verdict(False, (a,))
    return Verdict(True)


def relabel(t: CayleyTable, perm: tuple[int, ...]) -> CayleyTable:
    """Rename element i to perm[i-1]; the result's (perm a)·(perm b) = perm(a·b)."""
    n = t.n
    inv = [0] * n
    for i, img in enumerate(perm):
        inv[img - 1] = i + 1
    rows = tuple(
        tuple(perm[t.product(inv[a], inv[b]) - 1] for b in range(n)) for a in range(n)
    )
    return CayleyTable(rows)


def flat_to_table(flat, n):
    """The CayleyTable of a flat row-major table over 0..n-1."""
    return CayleyTable(
        tuple(tuple(v + 1 for v in flat[a * n : (a + 1) * n]) for a in range(n))
    )


def table_to_flat(t):
    """The flat row-major table of t over 0..n-1."""
    return tuple(v - 1 for row in t.rows for v in row)


@cache
def relabelings(n):
    """(image, source) for each permutation of 0..n-1, the identity first: the
    relabeled flat table holds image[T[source[k]]] at cell k."""
    out = []
    for img in permutations(range(n)):
        inv = [0] * n
        for i, j in enumerate(img):
            inv[j] = i
        out.append((img, tuple(inv[k // n] * n + inv[k % n] for k in range(n * n))))
    return tuple(out)


def least_relabeling(T, rel):
    """The row-major least image of the flat table T under the relabelings in
    rel, and the members of rel that give it. Under relabelings(n) these are
    the canonical form of T and a coset of Aut(T)."""
    least, coset = None, []
    for img, src in rel:
        image = tuple([img[T[s]] for s in src])
        if least is None or image < least:
            least, coset = image, [(img, src)]
        elif image == least:
            coset.append((img, src))
    return least, coset


def canonical_form(t: CayleyTable) -> CayleyTable:
    """Lexicographically least relabeling; two tables are isomorphic iff equal here."""
    return flat_to_table(least_relabeling(table_to_flat(t), relabelings(t.n))[0], t.n)


def is_canonical(t: CayleyTable) -> bool:
    """True iff no relabeling is lexicographically smaller."""
    return canonical_form(t) == t


# small constructors used by fixtures and tests

def left_projection(n):
    """a·b = a (the left-zero semigroup)."""
    return CayleyTable(tuple(tuple(a for _ in range(n)) for a in range(1, n + 1)))


def right_projection(n):
    """a·b = b (the right-zero semigroup)."""
    return CayleyTable(tuple(tuple(range(1, n + 1)) for _ in range(n)))


def cyclic_group(n):
    """Z_n written multiplicatively; element 1 is the unit."""
    return CayleyTable(
        tuple(tuple((a + b) % n + 1 for b in range(n)) for a in range(n))
    )


def chain_semilattice(n):
    """The meet table of the chain 1 < 2 < ... < n."""
    return CayleyTable(tuple(tuple(min(a, b) for b in range(1, n + 1)) for a in range(1, n + 1)))
