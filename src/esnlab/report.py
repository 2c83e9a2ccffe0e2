"""Verdict and validation-report containers used by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field


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
