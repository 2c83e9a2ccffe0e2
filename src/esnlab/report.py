"""Verdict and validation-report containers, the identity engine every
validator runs: a range pass derived from the sorts of a value's fields, then
rows of identities over the carriers those sorts name; and the JSON codec of
a value, derived from the same sorts."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from math import prod
from typing import Callable

from .errors import ParseError, distinct, json_field, json_header, json_ids, json_int, keyed


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome plus the least witness when it fails."""

    holds: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.holds

    def as_json(self):
        out = {"holds": self.holds}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


PASS = Verdict(True)


class computed_once:
    """A property of a frozen dataclass computed on first use and then kept on
    the instance, so that a checked value carries its own verdict.

    Unlike ``functools.cached_property`` it never reads the instance
    ``__dict__``: on CPython 3.11 that read takes every later attribute read of
    the instance off its fast path, and the validators read their input's
    fields in their innermost loops.
    """

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.slot = f"_{name}"

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        try:
            return getattr(obj, self.slot)
        except AttributeError:
            value = self.compute(obj)
            object.__setattr__(obj, self.slot, value)
            return value


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    message: str = ""

    def as_json(self):
        return {"axiom": self.axiom, "witness": list(self.witness), "message": self.message}


@dataclass
class ValidationReport:
    """Tagged violations plus, per axiom tag, how many checks actually fired.

    A check is *substantive* when every expression in the identity was defined and
    the two sides were really compared; otherwise it only counts as vacuous.
    """

    violations: list[Violation] = field(default_factory=list)
    substantive: dict[str, int] = field(default_factory=dict)
    vacuous: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def add(self, axiom, witness, message=""):
        self.violations.append(Violation(axiom, tuple(witness), message))

    def bump(self, axiom, substantive, count=1):
        if count:
            counts = self.substantive if substantive else self.vacuous
            counts[axiom] = counts.get(axiom, 0) + count

    def substantive_by_family(self):
        """Substantive totals keyed by the axiom tag up to the first dot."""
        out = {}
        for tag, count in self.substantive.items():
            family = tag.split(".", 1)[0]
            out[family] = out.get(family, 0) + count
        return out

    def merge(self, other, prefix=""):
        for v in other.violations:
            self.violations.append(Violation(prefix + v.axiom, v.witness, v.message))
        for tag, cnt in other.substantive.items():
            self.substantive[prefix + tag] = self.substantive.get(prefix + tag, 0) + cnt
        for tag, cnt in other.vacuous.items():
            self.vacuous[prefix + tag] = self.vacuous.get(prefix + tag, 0) + cnt
        self.notes.extend(other.notes)

    def summary(self):
        if self.ok:
            return "ok"
        first = self.violations[0]
        more = f" (+{len(self.violations) - 1} more)" if len(self.violations) > 1 else ""
        return f"{first.axiom} at {first.witness}{more}"

    def as_json(self):
        return {
            "ok": self.ok,
            "violations": [v.as_json() for v in self.violations],
            "substantive": dict(sorted(self.substantive.items())),
            "vacuous": dict(sorted(self.vacuous.items())),
            "notes": list(self.notes),
        }


def _flat(entry):
    """A witness with its pairs spelled out: ((1, 2), 3) -> (1, 2, 3)."""
    return tuple(x for part in entry for x in (part if isinstance(part, tuple) else (part,)))


def check_ranges(value, fields: dict, carriers: dict, rep: ValidationReport, tags=None) -> bool:
    """The range pass over fields of ``value``, named with their sorts: the key
    sorts, ":" and the value sort of a map (no key sorts for a constant, no
    value sort for values of any kind), two sorts for a relation, one for a
    carrier, which is skipped. Each key, value and pair must lie in the set
    ``carriers`` gives its sort, and a one-key map must be total. An entry
    outside is reported under tags[field], or range.<field>, with the entry
    (the key, for a one-key map) as its witness. Returns whether none was."""
    start = len(rep.violations)
    for name, sorts in fields.items():
        if len(sorts) == 1:
            continue
        keys, is_map, val = sorts.partition(":")
        data, values = getattr(value, name), carriers.get(val)
        if not is_map:
            first, second = (carriers[s] for s in keys)
            bad = [pair for pair in data if pair[0] not in first or pair[1] not in second]
        elif not keys:
            bad = [] if data in values else [(data,)]
        elif len(keys) == 1:
            domain = carriers[keys]
            bad = [(k,) for k in domain if k not in data or values is not None
                   and data[k] not in values] + [(k,) for k in data if k not in domain]
        else:
            first, second = (carriers[s] for s in keys)
            bad = [(*k, v) for k, v in data.items()
                   if k[0] not in first or k[1] not in second or v not in values]
        for entry in bad:
            rep.add((tags or {}).get(name, f"range.{name}"), _flat(entry),
                    "entry outside the carriers of its sorts")
    return len(rep.violations) == start


def to_json(value, fields: dict, rename: dict, listed: tuple) -> dict:
    """The fields of ``value`` as a JSON object, each named as in ``rename``
    or by itself, written by its sorts (see ``check_ranges``): a carrier as
    its size, or as its ids if ``listed``; a one-key map on a sized carrier as
    its values in id order; a relation as its sorted pairs; any other map as
    its sorted [*key, value] entries."""
    doc = {}
    carrier = {sorts: name for name, sorts in fields.items() if len(sorts) == 1}
    for name, sorts in fields.items():
        data = getattr(value, name)
        keys, is_map, _ = sorts.partition(":")
        if len(sorts) == 1:
            data = list(data) if name in listed else len(data)
        elif not is_map:
            data = sorted(map(list, data))
        elif len(keys) == 1 and carrier[keys] not in listed:
            data = [data[i] for i in getattr(value, carrier[keys])]
        else:
            data = sorted([*(k if len(keys) > 1 else (k,)), v] for k, v in data.items())
        doc[rename.get(name, name)] = data
    return doc


def from_json(doc, fields: dict, rename: dict, listed: tuple, kind, at: str = "") -> dict:
    """The field values that ``to_json`` wrote to doc, by field name. Every
    size must be a JSON integer of at least 1 and match the per-id lists, and
    only then are its ids allocated; every id must be a JSON integer. A fault
    is a ParseError naming its JSON path, under ``at`` for a sub-document.
    Once its fields are read, a top-level document must declare its ``kind``
    and schema_version 1; a sub-document, read with kind None, declares
    neither. What the values mean is left to the validators."""
    carrier = {sorts: name for name, sorts in fields.items() if len(sorts) == 1}
    sizes = {sorts: json_int(doc, rename.get(name, name), at + rename.get(name, name))
             for sorts, name in carrier.items() if name not in listed}
    values = {}
    for name, sorts in fields.items():
        if sorts in sizes:
            continue
        key = rename.get(name, name)
        data, path = json_field(doc, key), at + key
        keys, is_map, _ = sorts.partition(":")
        if len(sorts) == 1:
            values[name] = distinct(json_ids(data, path), path)
        elif is_map and keys in sizes:
            if not isinstance(data, list) or len(data) != sizes[keys]:
                raise ParseError(f"{path} must list one entry per id of {carrier[keys]} "
                                 f"({sizes[keys]} declared)")
            values[name] = dict(enumerate(json_ids(data, path), 1))
        elif is_map:  # on pairs, or on a listed carrier
            values[name] = keyed(json_ids(data, path, None, len(keys) + 1), path, len(keys))
        else:
            values[name] = frozenset(map(tuple, json_ids(data, path, None, 2)))
    if kind is not None:
        json_header(doc, kind)
    return {**{carrier[s]: tuple(range(1, n + 1)) for s, n in sizes.items()}, **values}


@dataclass(frozen=True)
class Row:
    """An identity lhs = rhs, or without rhs a predicate lhs, over variables of
    the given sorts; each side is a function of a context and the variables,
    and None where undefined, which makes the tuple vacuous. A failing tuple
    is reported under tag, the variables (in ``order`` if given) its witness;
    substantive and vacuous tuples are counted under ``counts`` if given. With
    ``drive``, the variables range over those sorts: the same carriers, but
    an argument of a partial table that either side reads only over its keys,
    in carrier order. A tuple skipped has an undefined side, so vacuous is
    the product of the carriers of ``sorts`` less substantive."""

    tag: str
    sorts: str
    lhs: Callable
    rhs: Callable = lambda *_: True
    order: tuple | None = None
    counts: str | None = None
    message: str = ""
    drive: str | None = None


def _assignments(domains):
    """``product(*domains)``, lazily, where a callable domain gives the values
    of its variable from the values of those before it."""
    return reduce(_extended, domains, iter([()]))


def _extended(tuples, domain):
    if callable(domain):
        return (t + (x,) for t in tuples for x in domain(*t))
    return (t + (x,) for t in tuples for x in domain)


def check_rows(context, carriers: dict, rows, rep: ValidationReport) -> bool:
    """Run each row over every tuple of its variables, a variable ranging over
    ``carriers[sort]`` (of its driven sort, if any): a collection, or a function
    of the variables before it. Returns whether no row failed."""
    start = len(rep.violations)
    for row in rows:
        domains = [carriers[s] for s in row.drive or row.sorts]
        tuples = _assignments(domains) if any(map(callable, domains)) else product(*domains)
        lhs, rhs = row.lhs, row.rhs
        substantive = vacuous = 0
        for args in tuples:
            left = lhs(context, *args)
            right = None if left is None else rhs(context, *args)
            if right is None:
                vacuous += 1
                continue
            substantive += 1
            if left != right:
                witness = _flat(args)
                if row.order is not None:
                    witness = tuple(witness[i] for i in row.order)
                rep.add(row.tag, witness, row.message)
        if row.counts is not None:
            if row.drive:
                vacuous = prod(len(carriers[s]) for s in row.sorts) - substantive
            rep.bump(row.counts, True, substantive)
            rep.bump(row.counts, False, vacuous)
    return len(rep.violations) == start
