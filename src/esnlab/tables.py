"""Cayley tables: parsing, elementary predicates, relabelings and canonical forms.

A table is one flat row-major tuple over 0..n-1, ``flat[a*n + b]`` the product
of a and b counted from 0 (row = left operand); ``product`` and ``elements``
name elements 1..n, and ``rows`` renders the table 1-based for output.
Everything here is pure and immutable. Relabeling lives here alone:
``relabelings(n)`` lists the n! permutations once per order, and
``least_relabeling`` finds the least image of a flat table, which gives both
the canonical forms and the pair search's class keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from math import isqrt

from .errors import NotASemigroupError, ParseError
from .report import Verdict


@dataclass(frozen=True)
class CayleyTable:
    """The flat table; its order n is worked out once, at construction."""

    flat: tuple[int, ...]

    def __post_init__(self):
        flat = self.flat
        n = isqrt(len(flat))
        if n < 1:
            raise ValueError("empty carrier")
        if n * n != len(flat):
            raise ValueError(f"{len(flat)} entries do not make a square table")
        for entry in (min(flat), max(flat)):
            if not 0 <= entry < n:
                raise ValueError(f"entry {entry} out of range 0..{n - 1}")
        object.__setattr__(self, "n", n)

    def product(self, a, b):
        return self.flat[(a - 1) * self.n + b - 1] + 1

    def elements(self):
        return range(1, self.n + 1)

    @property
    def rows(self):
        """The table 1-based, one tuple per row: rows[a-1][b-1] is a·b."""
        n, flat = self.n, self.flat
        return tuple(tuple(v + 1 for v in flat[k : k + n]) for k in range(0, n * n, n))


def parse_table(text: str) -> CayleyTable:
    """Parse the .cay format: '#' comments, order line, then n rows of n entries."""
    return _parse_tables(text, 1)[0]


def parse_double(text: str) -> tuple[CayleyTable, CayleyTable]:
    """Parse two .cay tables from one stream (blank lines/comments between them)."""
    return same_order(*_parse_tables(text, 2))


def same_order(first: CayleyTable, second: CayleyTable) -> tuple[CayleyTable, CayleyTable]:
    """The two operations of a pair, which must have one order: the check of
    a pair file, and of every ``DoubleSemigroup``."""
    if first.n != second.n:
        raise ParseError(f"tables have different orders {first.n} and {second.n}")
    return first, second


def _parse_tables(text, count):
    """The first ``count`` tables of the text, after which it may hold only
    blank lines and comments."""
    lines = text.splitlines()
    tables, pos = [], 0
    for _ in range(count):
        table, pos = _parse_one(lines, pos)
        tables.append(table)
    for i in range(pos, len(lines)):
        if lines[i].strip() and not lines[i].lstrip().startswith("#"):
            raise ParseError("unexpected trailing content", line=i + 1)
    return tables


def _parse_one(lines, start):
    pos = start
    n = None
    flat = []
    while pos < len(lines):
        raw = lines[pos]
        pos += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if n is None:
            n = _number(stripped, "expected the order, got", pos)
            if n is None:
                raise ParseError(f"order {_cut(stripped)} out of range", line=pos)
            if n < 1:
                raise ParseError(f"order must be >= 1, got {_cut(n)}", line=pos)
            continue
        tokens = stripped.split()
        if len(tokens) != n:
            raise ParseError(f"expected {_cut(n)} entries, got {len(tokens)}", line=pos)
        for tok in tokens:
            val = _number(tok, "non-numeric entry", pos)
            if val is None or not 1 <= val <= n:
                shown = _cut(tok if val is None else val)
                raise ParseError(f"entry {shown} out of range 1..{_cut(n)}", line=pos)
            flat.append(val - 1)
        if len(flat) == n * n:
            return CayleyTable(tuple(flat)), pos
    if n is None:
        raise ParseError("no table found", line=pos)
    raise ParseError(f"expected {_cut(n)} rows, got {len(flat) // n}", line=pos)


def _number(token, fault, line):
    """The int that token spells in ASCII decimal digits, or None for a run of
    them too long for ``int()``; for any other token (a sign, an underscore, a
    digit of another script), a ParseError: ``fault``, then the token."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"{fault} {_cut(token)!r}", line=line)
    try:
        return int(token)
    except ValueError:
        return None


def _cut(token) -> str:
    """A token or a number as a message shows it: cut to its first 20 characters."""
    text = str(token)
    return text if len(text) <= 20 else f"{text[:20]}..."


def format_table(t: CayleyTable) -> str:
    body = "\n".join(" ".join(str(v) for v in row) for row in t.rows)
    return f"{t.n}\n{body}\n"


def format_double(hop: CayleyTable, vop: CayleyTable) -> str:
    return format_table(hop) + "\n" + format_table(vop)


def is_associative(t: CayleyTable) -> Verdict:
    """O(n^3) scan; witness is the lexicographically least violating (a,b,c)."""
    T, n = t.flat, t.n
    for a in range(n):
        an = a * n
        for b in range(n):
            abn = T[an + b] * n
            bn = b * n
            for c in range(n):
                if T[abn + c] != T[an + T[bn + c]]:
                    return Verdict(False, (a + 1, b + 1, c + 1))
    return Verdict(True)


def is_commutative(t: CayleyTable) -> Verdict:
    """Witness is the least (a, b), a < b, with a·b != b·a."""
    T, n = t.flat, t.n
    for a in range(n):
        for b in range(a + 1, n):
            if T[a * n + b] != T[b * n + a]:
                return Verdict(False, (a + 1, b + 1))
    return Verdict(True)


def first_difference(s: CayleyTable, t: CayleyTable) -> tuple[int, int] | None:
    """The least (a, b) at which two tables of one order differ; None if they are equal."""
    if s.flat == t.flat:
        return None
    k = next(k for k, (x, y) in enumerate(zip(s.flat, t.flat)) if x != y)
    return k // s.n + 1, k % s.n + 1


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
    return CayleyTable(least_relabeling(t.flat, relabelings(t.n))[0])


def is_canonical(t: CayleyTable) -> bool:
    """True iff no relabeling is lexicographically smaller."""
    return canonical_form(t) == t
