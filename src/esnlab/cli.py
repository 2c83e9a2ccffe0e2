"""Command-line front end.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the report
carries a witness), 2 unreadable or malformed input / bad usage (an
``EsnlabError``), 3 a bug, not bad data: a statement that holds on every valid
input failed (``TheoremViolation``), or any other exception escaped, which is
printed with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

from . import double as dbl
from . import esn, fixtures, inverse, presheaf, search, tables
from .errors import EsnlabError, NotDoubleInverseError, TheoremViolation

SCHEMA_VERSION = 1


class _InputError(EsnlabError):
    """Bad usage or an unreadable input file."""


def _read(path, doc, text=True):
    """An input file, which the report lists with its hash: the text of a
    table, which is UTF-8, or the bytes of a JSON document."""
    try:
        data = Path(path).read_bytes()
        doc["inputs"].append({"path": str(path), "sha256": hashlib.sha256(data).hexdigest()})
        return data.decode() if text else data
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(str(exc)) from exc


def _path(args):
    """The one input file of a single-table or JSON command, which takes no --hop/--vop."""
    for flag in ("hop", "vop"):
        if getattr(args, flag, None):
            raise _InputError(f"--{flag} only applies to pair inputs")
    if not args.path:
        raise _InputError("need an input file")
    return args.path


def _load_single(args, doc):
    return tables.parse_table(_read(_path(args), doc))


def _load_pair(args, doc):
    """A pair file or --hop/--vop, one of them."""
    if args.hop or args.vop:
        if not (args.hop and args.vop):
            raise _InputError("--hop and --vop must be given together")
        if args.path:
            raise _InputError("give a pair file or --hop/--vop, not both")
        hop, vop = [_read(path, doc) for path in (args.hop, args.vop)]
        return dbl.DoubleSemigroup(tables.parse_table(hop), tables.parse_table(vop))
    if not args.path:
        raise _InputError("need a pair file or --hop/--vop")
    return dbl.DoubleSemigroup(*tables.parse_double(_read(args.path, doc)))


def _load_json(args, doc):
    try:  # json detects the encoding from the bytes
        return json.loads(_read(_path(args), doc, text=False))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise _InputError(f"{args.path}: {exc}") from exc


def _check_entry(doc, name, ok, witness=None, info=None):
    entry = {"name": name, "ok": bool(ok)}
    if witness is not None:
        entry["witness"] = list(witness)
    if info is not None:
        entry["info"] = info
    doc["checks"].append(entry)
    return bool(ok)


def cmd_check(args, doc):
    wants_pair = args.double or args.double_inverse
    if wants_pair and (args.semigroup or args.inverse or args.clifford):
        raise _InputError("cannot mix single-table and pair checks in one run")
    selected = [flag for flag in ("semigroup", "inverse", "clifford", "double", "double-inverse")
                if getattr(args, flag.replace("-", "_"))] or ["semigroup"]
    analysis = failure = None
    if wants_pair:
        d = _load_pair(args, doc)
    else:
        t = _load_single(args, doc)
        if args.inverse or args.clifford:
            try:
                analysis = inverse.analyze_inverse(t)
            except inverse.NOT_INVERSE as exc:
                failure = exc
    for kind in selected:
        if kind == "semigroup":
            verdict = tables.is_associative(t)
            _check_entry(doc, "associative", verdict, verdict.witness)
        elif failure is not None:  # an inverse or clifford check of a non-inverse table
            _check_entry(doc, kind, False, getattr(failure, "witness", None), str(failure))
        elif kind == "inverse":
            rep = inverse.characterize_inverse(t, analysis)
            _check_entry(doc, "inverse", True, info={
                "idempotents": list(analysis.idempotent_set),
                "inverse_map": list(analysis.inverse_map), "regular": rep.is_regular,
                "idempotents_commute": rep.idempotents_commute,
                "equivalence_holds": rep.equivalence_holds})
        elif kind == "clifford":
            verdict = inverse.is_clifford(analysis)
            _check_entry(doc, "clifford", verdict, verdict.witness)
        elif kind == "double":
            cls = d.classification
            _check_entry(doc, "double-semigroup", cls.is_double_semigroup, info=cls.as_json())
        elif kind == "double-inverse":
            cls = d.classification
            if _check_entry(doc, "double-inverse-semigroup", cls.is_double_inverse_semigroup,
                            info=cls.as_json()):
                proper = dbl.is_proper(d)
                _check_entry(doc, "improper", not proper, proper.witness)
    if args.format == "dot":
        if failure is not None:
            raise _InputError(f"dot output needs an inverse table: {failure}")
        if analysis is None:
            raise _InputError("dot output needs --inverse or --clifford")
        doc["dot"] = inverse.hasse_dot(analysis)
    if analysis is not None:
        doc["analysis"] = inverse.analysis_to_json(analysis)


def cmd_esn(args, doc):
    if args.direction == "to-groupoid":
        t = _load_single(args, doc)
        analysis = inverse.analyze_inverse(t)  # input error if not inverse
        g = esn.ig_from_is(analysis)
        doc["artifact"] = esn.groupoid_to_json(g)
        if args.format == "dot":
            doc["dot"] = esn.groupoid_dot(g)
        if args.roundtrip:
            verdict = esn.semigroup_roundtrip(t, g)
            _check_entry(doc, "roundtrip", verdict, verdict.witness)
    else:
        g = esn.groupoid_from_json(_load_json(args, doc))
        analysis = esn.is_from_ig(g)  # InvalidGroupoidError (exit 2) if g is invalid
        doc["artifact"] = {"kind": "cayley-table", "cay": tables.format_table(analysis.table)}
        if args.roundtrip:
            verdict = esn.groupoid_roundtrip(g, analysis)
            _check_entry(doc, "roundtrip", verdict, verdict.witness)


def cmd_double(args, doc):
    sub = args.subcommand
    if args.strict_axiom_ix and sub != "validate-axioms":
        raise _InputError("--strict-axiom-ix only applies to validate-axioms")
    if sub in ("to-dig", "roundtrip"):
        d = _load_pair(args, doc)
        g = dbl.dig_from_dis(d)  # NotDoubleInverseError (exit 2) unless double inverse
        if sub == "to-dig":
            doc["artifact"] = dbl.dig_to_json(g)
        else:
            # back is g's certificate, d itself, whose double groupoid is g
            back = dbl.dis_from_dig(g)
            v1 = dbl.roundtrip_double(d, back)
            _check_entry(doc, "semigroup-roundtrip", v1, v1.witness)
            v2 = dbl.roundtrip_dig(g, g)
            _check_entry(doc, "groupoid-roundtrip", v2, v2.witness)
    else:
        g = dbl.dig_from_json(_load_json(args, doc))
        if sub == "to-dis":
            d = dbl.dis_from_dig(g)
            doc["artifact"] = {"kind": "double-semigroup",
                               "cay": tables.format_double(d.hop, d.vop)}
            return
        if sub == "validate-axioms":
            rep, name = dbl.validate_dig(g, strict_ix=args.strict_axiom_ix), "axioms"
            doc["substantive_by_family"] = rep.substantive_by_family()
        else:
            rep, name = dbl.verify_interchange_identities(g), "interchange-identities"
        doc["report"] = rep.as_json()
        first = rep.violations[0] if rep.violations else None
        _check_entry(doc, name, rep.ok, first and first.witness, first and first.axiom)


def cmd_decompose(args, doc):
    d = _load_pair(args, doc)
    try:
        p, report = presheaf.decompose(d)
    except NotDoubleInverseError as exc:
        _check_entry(doc, "double-inverse-semigroup", False, info=str(exc))
        doc["main_theorem"] = d.classification.as_json()
        return
    doc["main_theorem"] = report.as_json()
    doc["artifact"] = presheaf.presheaf_to_json(p)
    _check_entry(doc, "double-inverse-semigroup", True)
    _check_entry(doc, "improper", report.improper)
    _check_entry(doc, "commutative", report.commutative)
    _check_entry(doc, "clifford", report.clifford)


def cmd_compose(args, doc):
    p = presheaf.presheaf_from_json(_load_json(args, doc))
    d = presheaf.compose(p)  # InvalidPresheafError (exit 2) if p is invalid
    doc["artifact"] = {"kind": "double-semigroup", "cay": tables.format_double(d.hop, d.vop)}


def cmd_search(args, doc):
    if args.commutativity and (args.pairs or args.klass != "inverse"):
        raise _InputError(f"--{args.commutativity} only applies to --class inverse "
                          "searches without --pairs")
    if args.expect_none and not args.pairs:
        raise _InputError("--expect-none only applies to --pairs searches")
    if args.pairs:
        report = search.search_double(args.order, args.klass, jobs=args.jobs)
    else:
        filt = "inverse" if args.klass == "inverse" else "all"
        if args.commutativity:  # which implies --class inverse
            filt = f"{args.commutativity}-inverse"
        report = search.enumerate_semigroups(args.order, filt, jobs=args.jobs)
    doc["report"] = report.as_json()
    for name, value in sorted(report.claims.items()):
        _check_entry(doc, f"claim.{name}", value if isinstance(value, bool) else True)
    if args.expect_none:
        _check_entry(doc, "no-proper-pairs", report.proper_pair_count == 0,
                     info={"proper_pair_count": report.proper_pair_count})


def cmd_golden(args, doc):
    for name, verdict in fixtures.golden_suite(jobs=args.jobs):
        _check_entry(doc, name, verdict.holds, verdict.witness)


def _render(doc, fmt, stream):
    if fmt == "json":
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    if fmt == "dot":
        stream.write(doc.get("dot", ""))
        return
    for entry in doc["checks"]:
        status = "PASS" if entry["ok"] else "FAIL"
        line = f"{status} {entry['name']}"
        if not entry["ok"] and "witness" in entry:
            line += f"  witness={tuple(entry['witness'])}"
        stream.write(line + "\n")
    if "report" in doc and "claims" in doc.get("report", {}):
        rep = doc["report"]
        for key in ("labeled_count", "class_count", "pair_count", "proper_pair_count"):
            if key in rep:
                stream.write(f"{key}: {rep[key]}\n")
    if "main_theorem" in doc and doc["main_theorem"].get("double_inverse"):
        mt = doc["main_theorem"]
        stream.write(
            f"improper: {str(mt['improper']).lower()}, "
            f"commutative: {str(mt['commutative']).lower()}, "
            f"clifford: {str(mt['clifford']).lower()}\n"
        )
    if "artifact" in doc:
        artifact = doc["artifact"]
        if isinstance(artifact, dict) and "cay" in artifact:
            stream.write(artifact["cay"])
        else:
            json.dump(artifact, stream, indent=2, sort_keys=True)
            stream.write("\n")
    if "analysis" in doc:
        a = doc["analysis"]
        stream.write(f"idempotents: {a['idempotents']}\n")
        stream.write(f"inverse_map: {a['inverse_map']}\n")


def _positive(text):
    """--jobs and --order: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


@functools.cache
def build_parser():
    """The parser, built once: parsing leaves it unchanged, and building it
    takes longer than most of the commands it parses."""
    parser = argparse.ArgumentParser(
        prog="esnlab",
        description="Finite inverse semigroups, their groupoids, and the double-"
        "structure checks, all by exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, path_optional=False):
        if path_optional:
            p.add_argument("path", nargs="?", help="input file")
        else:
            p.add_argument("path", help="input file")
        p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = sub.add_parser("check", help="run predicate checks on a table or pair")
    add_common(p, path_optional=True)
    p.add_argument("--hop", help="horizontal-operation file")
    p.add_argument("--vop", help="vertical-operation file")
    for flag in ("semigroup", "inverse", "double", "double-inverse", "clifford"):
        p.add_argument(f"--{flag}", action="store_true", dest=flag.replace("-", "_"))
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("esn", help="inverse semigroup <-> inductive groupoid")
    p.add_argument("direction", choices=("to-groupoid", "to-semigroup"))
    add_common(p)
    p.add_argument("--roundtrip", action="store_true")
    p.set_defaults(handler=cmd_esn)

    p = sub.add_parser("double", help="double semigroup <-> double groupoid")
    p.add_argument(
        "subcommand",
        choices=("to-dig", "to-dis", "validate-axioms", "verify-interchange", "roundtrip"),
    )
    add_common(p, path_optional=True)
    p.add_argument("--hop")
    p.add_argument("--vop")
    p.add_argument("--strict-axiom-ix", action="store_true")
    p.set_defaults(handler=cmd_double)

    p = sub.add_parser("decompose", help="double inverse semigroup -> presheaf")
    add_common(p, path_optional=True)
    p.add_argument("--hop")
    p.add_argument("--vop")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("compose", help="presheaf -> double semigroup")
    add_common(p)
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("search", help="enumerate semigroups or pairs")
    p.add_argument("--order", type=_positive, required=True)
    p.add_argument("--class", dest="klass", choices=("semigroup", "inverse"),
                   default="semigroup")
    p.add_argument("--pairs", action="store_true")
    commutativity = p.add_mutually_exclusive_group()
    for flag in ("noncommutative", "commutative"):
        commutativity.add_argument(f"--{flag}", dest="commutativity",
                                   action="store_const", const=flag)
    p.add_argument("--expect-none", action="store_true")
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("golden-suite", help="replay every bundled fixture")
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_golden)

    return parser


def main(argv=None, stream=None):
    stream = stream or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": [],
        "checks": [],
    }
    start = time.monotonic()
    try:
        args.handler(args, doc)
    except TheoremViolation as exc:
        print(f"esnlab: theorem violated (a bug, not bad input): {exc}", file=sys.stderr)
        return 3
    except EsnlabError as exc:
        print(f"esnlab: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"esnlab: internal error (a bug, not bad input): {type(exc).__name__}: {exc}",
              file=sys.stderr)
        traceback.print_exc()
        return 3
    if args.format == "dot" and "dot" not in doc:
        print("esnlab: error: dot output is not available for this command", file=sys.stderr)
        return 2
    doc["ok"] = all(c["ok"] for c in doc["checks"])
    doc["timing_ms"] = int((time.monotonic() - start) * 1000)
    _render(doc, args.format, stream)
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
