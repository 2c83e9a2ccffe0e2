"""Exception types shared across the package, and the JSON readers that report
a non-object, a missing key, a non-list or a list of the wrong length, a size
not an integer or below 1, an id not an integer, a repeated id or key, or a
top-level document of another kind or schema version, as a ParseError naming
its JSON path."""

import json


class EsnlabError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(EsnlabError):
    """Malformed table, groupoid, or presheaf input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _shown(value):
    """A JSON value for a message: the kind of a container, else the value."""
    return {dict: "an object", list: "an array"}.get(type(value)) or json.dumps(value)


def json_field(doc, key):
    """doc[key] for a JSON object read from input; a value that is not an
    object, or a missing key, is malformed input and its message names the key."""
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object with field {key!r}, not {_shown(doc)}")
    try:
        return doc[key]
    except KeyError:
        raise ParseError(f"missing field {key!r}") from None


def json_header(doc, kind):
    """Refuse a top-level document that does not declare this kind and
    schema_version 1; the message names the field."""
    for key, want in (("kind", kind), ("schema_version", 1)):
        value = json_field(doc, key)
        if type(value) is not type(want) or value != want:
            raise ParseError(f"{key} must be {json.dumps(want)}, not {_shown(value)}")


def json_id(value, path):
    """An id read from input, which must be a JSON integer; else malformed
    input named by its JSON path."""
    if type(value) is not int:  # a bool is not one
        raise ParseError(f"{path} must be an integer, not {_shown(value)}")
    return value


def json_int(doc, key, path=None):
    """doc[key], a declared size, which must be a JSON integer of at least 1,
    since no carrier here is empty; else malformed input, named by ``path`` or
    the key."""
    value = json_id(json_field(doc, key), path or key)
    if value < 1:
        raise ParseError(f"{path or key} must be at least 1, not {value}")
    return value


def json_list(value, path, length=None):
    """A JSON list read from input, of ``length`` entries if given; else
    malformed input named by its JSON path."""
    if not isinstance(value, list):
        raise ParseError(f"{path} must be a list, not {_shown(value)}")
    if length is not None and len(value) != length:
        raise ParseError(f"{path} must have {length} entries")
    return value


def json_ids(value, path, length=None, *inner):
    """A JSON list of ids, each a JSON integer, of ``length`` entries if given;
    with ``inner``, a list of such lists, each of the shape ``inner`` gives.
    Anything else is malformed input, and the message names its JSON path."""
    if length is not None and not (isinstance(value, list) and len(value) == length):
        raise ParseError(f"{path} must be a list of {length} ids")
    for i, x in enumerate(json_list(value, path)):
        # checked here; the path is built only to name what is wrong with x
        if not (type(x) is list and len(x) == inner[0] and all(type(y) is int for y in x)
                if inner else type(x) is int):
            (json_ids if inner else json_id)(x, f"{path}[{i}]", *inner)
    return value


def distinct(ids, path):
    """A JSON list of carrier ids, as a tuple; an id listed twice is malformed
    input and the message names its place under ``path``."""
    seen = set()
    for i, x in enumerate(ids):
        if x in seen:
            raise ParseError(f"{path}[{i}] repeats the id {x!r}")
        seen.add(x)
    return tuple(ids)


def keyed(entries, path, arity):
    """A JSON list of entries [*key, value] with ``arity`` key parts, as a dict
    (a one-part key bare); a key listed twice is malformed input and the
    message names its place under ``path``."""
    out = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise ParseError(f"{path}[{i}] must be a list of {arity + 1} ids")
        key = tuple(entry[:arity]) if arity > 1 else entry[0]
        if key in out:
            raise ParseError(f"{path}[{i}] repeats the key {key!r}")
        out[key] = entry[arity]
    return out


class NotASemigroupError(EsnlabError):
    """Operation is not associative; carries the least violating triple."""

    def __init__(self, witness):
        super().__init__(f"not associative, witness (a,b,c) = {witness}")
        self.witness = witness


class NoInverseError(EsnlabError):
    def __init__(self, element):
        super().__init__(f"element {element} has no generalized inverse")
        self.element = element


class NonUniqueInverseError(EsnlabError):
    def __init__(self, element, first, second):
        super().__init__(
            f"element {element} has at least two generalized inverses: {first}, {second}"
        )
        self.element = element
        self.witnesses = (first, second)


class NotIdempotentError(EsnlabError):
    def __init__(self, element):
        super().__init__(f"element {element} is not idempotent")
        self.element = element


class OrderAxiomViolation(EsnlabError):
    """The candidate natural partial order failed reflexivity/antisymmetry/transitivity."""


class InvalidGroupoidError(EsnlabError):
    """An inductive-groupoid value failed validation; carries the report."""

    def __init__(self, report):
        super().__init__(f"invalid inductive groupoid: {report.summary()}")
        self.report = report


class NotDoubleInverseError(EsnlabError):
    def __init__(self, reason):
        super().__init__(f"not a double inverse semigroup: {reason}")
        self.reason = reason


class InvalidDigError(EsnlabError):
    def __init__(self, report):
        super().__init__(f"invalid double inductive groupoid: {report.summary()}")
        self.report = report


class InvalidPresheafError(EsnlabError):
    def __init__(self, report):
        super().__init__(f"invalid presheaf: {report.summary()}")
        self.report = report


class OrderTooLargeError(EsnlabError):
    def __init__(self, n, cap):
        super().__init__(f"order {n} exceeds the search cap {cap}")
        self.n = n
        self.cap = cap


class TheoremViolation(EsnlabError):
    """A statement that must hold on every valid input failed; signals a bug, not bad data."""
