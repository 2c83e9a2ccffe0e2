import io
import json
import shutil

import pytest

from esnlab.cli import main
from esnlab.fixtures import fixture_dir


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), stream=out)
    return code, out.getvalue()


def fx(name):
    return str(fixture_dir() / name)


def canonical_json(text):
    doc = json.loads(text)
    doc.pop("timing_ms", None)
    return json.dumps(doc, indent=2, sort_keys=True)


def test_check_inverse_on_brandt():
    code, out = run("check", fx("brandt_b2.cay"), "--inverse")
    assert code == 0
    assert "idempotents: [1, 4, 5]" in out


def test_check_json_report_fields():
    code, out = run("check", fx("brandt_b2.cay"), "--inverse", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["ok"] is True
    assert doc["inputs"][0]["sha256"]
    assert doc["analysis"]["idempotents"] == [1, 4, 5]


def test_check_double_inverse_failure_exit_code():
    code, out = run(
        "check", fx("projection_pair.cay"), "--double-inverse", "--format", "json"
    )
    assert code == 1
    doc = json.loads(out)
    [entry] = [c for c in doc["checks"] if c["name"] == "double-inverse-semigroup"]
    assert entry["ok"] is False
    assert "generalized inverses" in entry["info"]["hop_inverse_failure"]


def test_check_semigroup_witness():
    code, out = run("check", fx("nonassociative2.cay"), "--semigroup", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"][0]["witness"] == [1, 1, 2]


def test_check_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.cay"
    bad.write_text("2\n1 x\n1 1\n")
    code, _ = run("check", str(bad))
    assert code == 2
    code, _ = run("check", str(tmp_path / "missing.cay"))
    assert code == 2


def test_check_hop_vop_flags(tmp_path):
    hop = tmp_path / "h.cay"
    vop = tmp_path / "v.cay"
    hop.write_text("2\n1 1\n2 2\n")
    vop.write_text("2\n1 2\n1 2\n")
    code, out = run("check", "--hop", str(hop), "--vop", str(vop), "--double")
    assert code == 0
    code, _ = run("check", "--hop", str(hop), "--double")
    assert code == 2


def test_hop_and_vop_of_different_orders_exit_2(capsys):
    # the order check of a pair file, not a constructor's ValueError
    capsys.readouterr()
    assert run("check", "--double", "--hop", fx("chain3.cay"),
               "--vop", fx("brandt_b2.cay")) == (2, "")
    assert capsys.readouterr().err == "esnlab: error: tables have different orders 3 and 5\n"


def test_input_that_is_not_utf8_exit_2(tmp_path, capsys):
    # a bad byte is malformed input, in a table file and in a JSON file alike
    table = tmp_path / "bad.cay"
    table.write_bytes((fixture_dir() / "chain3.cay").read_bytes() + b"\xff\n")
    doc = tmp_path / "bad.json"
    doc.write_bytes(b'{"kind": "\xff"}')
    for argv in (("check", str(table)), ("check", "--double", str(table)),
                 ("check", "--double", "--hop", str(table), "--vop", fx("chain3.cay")),
                 ("compose", str(doc)), ("double", "validate-axioms", str(doc)),
                 ("esn", "to-semigroup", str(doc))):
        capsys.readouterr()
        assert run(*argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("esnlab: error: ") and "can't decode byte 0xff" in err
        assert err.count("\n") == 1


def test_json_nested_too_deep_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert run("compose", str(deep)) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"esnlab: error: {deep}: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_inputs_a_command_does_not_take_exit_2(tmp_path, capsys):
    # each used to be ignored, or to fail with a Python error message
    dig = tmp_path / "z2.dig.json"
    dig.write_text(json.dumps(json.loads(run("double", "to-dig", fx("z2_pair.cay"),
                                             "--format", "json")[1])["artifact"]))
    chain3 = fx("chain3.cay")
    for argv, message in (
        (("check", "--inverse"), "need an input file"),
        (("double", "validate-axioms"), "need an input file"),
        (("check", chain3, "--hop", fx("brandt_b2.cay")), "--hop only applies to pair inputs"),
        (("check", chain3, "--vop", chain3), "--vop only applies to pair inputs"),
        (("double", "validate-axioms", str(dig), "--hop", chain3),
         "--hop only applies to pair inputs"),
        (("double", "to-dig", fx("z2_pair.cay"), "--hop", chain3, "--vop", chain3),
         "give a pair file or --hop/--vop, not both"),
        (("decompose",), "need a pair file or --hop/--vop"),
    ):
        capsys.readouterr()
        assert run(*argv)[0] == 2, argv
        assert capsys.readouterr().err == f"esnlab: error: {message}\n", argv


@pytest.mark.parametrize("sub", ("to-dig", "to-dis", "verify-interchange", "roundtrip"))
def test_strict_axiom_ix_outside_validate_axioms_exit_2(sub, tmp_path, capsys):
    # the flag used to be accepted and ignored by every other subcommand
    path = fx("clifford3_pair.cay")
    if sub in ("to-dis", "verify-interchange"):
        dig = json.loads(run("double", "to-dig", path, "--format", "json")[1])["artifact"]
        path = tmp_path / "clifford3.dig.json"
        path.write_text(json.dumps(dig))
    assert run("double", sub, str(path))[0] == 0
    capsys.readouterr()
    assert run("double", sub, str(path), "--strict-axiom-ix") == (2, "")
    assert capsys.readouterr().err == (
        "esnlab: error: --strict-axiom-ix only applies to validate-axioms\n")


def test_check_dot_on_a_table_that_is_not_inverse_names_the_cause(tmp_path, capsys):
    # the message used to ask for --inverse or --clifford, which had been given
    left_zero = tmp_path / "left_zero2.cay"
    left_zero.write_text("2\n1 1\n2 2\n")
    for path, cause in ((fx("nonassociative2.cay"), "not associative, witness (a,b,c) = (1, 1, 2)"),
                        (str(left_zero), "element 1 has at least two generalized inverses: 1, 2")):
        for flag in ("--inverse", "--clifford"):
            capsys.readouterr()
            assert run("check", path, flag, "--format", "dot") == (2, ""), (path, flag)
            assert capsys.readouterr().err == (
                f"esnlab: error: dot output needs an inverse table: {cause}\n"), (path, flag)


def test_check_dot_output():
    code, out = run("check", fx("brandt_b2.cay"), "--inverse", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert '"1" -> "4";' in out


def test_esn_to_groupoid_json():
    code, out = run("esn", "to-groupoid", fx("brandt_b2.cay"), "--format", "json", "--roundtrip")
    assert code == 0
    doc = json.loads(out)
    art = doc["artifact"]
    assert art["objects"] == [1, 4, 5]
    assert art["dom"][1] == 4 and art["cod"][1] == 5
    assert art["dom"][2] == 5 and art["cod"][2] == 4
    assert doc["checks"] == [{"name": "roundtrip", "ok": True}]


def test_esn_to_semigroup_roundtrip(tmp_path):
    code, out = run("esn", "to-groupoid", fx("brandt_b2.cay"), "--format", "json")
    groupoid = json.dumps(json.loads(out)["artifact"])
    path = tmp_path / "b2_groupoid.json"
    path.write_text(groupoid)
    code, out = run("esn", "to-semigroup", str(path), "--roundtrip")
    assert code == 0
    assert "5\n1 1 1 1 1\n" in out


def test_esn_rejects_non_inverse_input():
    code, _ = run("esn", "to-groupoid", fx("nonassociative2.cay"))
    assert code == 2


def test_esn_to_semigroup_on_bundled_groupoid():
    code, out = run("esn", "to-semigroup", fx("partial_bijections_2.json"), "--roundtrip")
    assert code == 0
    expected = (fixture_dir() / "partial_bijections_2.sgp.cay").read_text()
    body = expected[expected.index("7\n"):]
    assert body in out


def test_double_to_dig_and_back(tmp_path):
    code, out = run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")
    assert code == 0
    dig_doc = json.loads(out)["artifact"]
    assert dig_doc["objects"] == 2 and dig_doc["cells"] == 3
    path = tmp_path / "c3.dig.json"
    path.write_text(json.dumps(dig_doc))
    code, out = run("double", "to-dis", str(path))
    assert code == 0
    assert out.count("3\n1 1 1\n1 2 3\n1 3 2\n") == 2


def test_double_validate_axioms_and_mutation(tmp_path):
    code, out = run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")
    dig_doc = json.loads(out)["artifact"]
    path = tmp_path / "good.json"
    path.write_text(json.dumps(dig_doc))
    code, out = run("double", "validate-axioms", str(path), "--format", "json",
                    "--strict-axiom-ix")
    assert code == 0
    doc = json.loads(out)
    fams = doc["substantive_by_family"]
    assert all(fams.get(f, 0) >= 1 for f in ("iii", "iv", "v", "vi", "vii", "viii", "ix"))

    dig_doc["meet_h"] = [
        [e, f, (2 if (e, f) == (1, 2) else m)] for e, f, m in dig_doc["meet_h"]
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dig_doc))
    code, out = run("double", "validate-axioms", str(bad), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"][0]["ok"] is False
    assert doc["report"]["violations"]


def test_double_entry_outside_its_carrier(tmp_path, capsys):
    # a table entry or key outside its carrier is reported, not a crash
    code, out = run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")
    good = json.loads(out)["artifact"]
    for field, entry in (("meet_v", [1, 1, good["hor_arrows"] + 1]),
                         ("h_restrict", [99, *good["h_restrict"][0][1:]])):
        doc = dict(good, **{field: [entry, *good[field][1:]]})
        path = tmp_path / f"bad_{field}.dig.json"
        path.write_text(json.dumps(doc))
        code, out = run("double", "validate-axioms", str(path), "--format", "json")
        assert code == 1
        violations = json.loads(out)["report"]["violations"]
        assert violations == [{"axiom": f"range.{field}", "witness": entry,
                               "message": "entry outside the carriers of its sorts"}]
        capsys.readouterr()
        assert run("double", "to-dis", str(path))[0] == 2
        err = capsys.readouterr().err
        assert err.startswith(f"esnlab: error: invalid double inductive groupoid: range.{field}")


def test_double_verify_interchange(tmp_path):
    code, out = run("double", "to-dig", fx("z2_pair.cay"), "--format", "json")
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(json.loads(out)["artifact"]))
    code, out = run("double", "verify-interchange", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["substantive"]["interchange.products"] == 16


def test_double_roundtrip_command():
    code, out = run("double", "roundtrip", fx("clifford3_pair.cay"))
    assert code == 0
    assert "PASS semigroup-roundtrip" in out and "PASS groupoid-roundtrip" in out


def test_decompose_compose_files(tmp_path):
    code, out = run("decompose", fx("clifford3_pair.cay"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["main_theorem"]["improper"] is True
    assert doc["main_theorem"]["clifford"] is True
    presheaf_path = tmp_path / "p.json"
    presheaf_path.write_text(json.dumps(doc["artifact"]))
    code, out = run("compose", str(presheaf_path))
    assert code == 0
    assert out.count("3\n1 1 1\n1 2 3\n1 3 2\n") == 2


def test_decompose_text_verdict_line():
    code, out = run("decompose", fx("z2_pair.cay"))
    assert code == 0
    assert "improper: true, commutative: true, clifford: true" in out


def test_decompose_json_deterministic(tmp_path):
    first = run("decompose", fx("clifford3_pair.cay"), "--format", "json")[1]
    second = run("decompose", fx("clifford3_pair.cay"), "--format", "json")[1]
    assert canonical_json(first) == canonical_json(second)
    hop = tmp_path / "h.cay"
    hop.write_text((fixture_dir() / "chain3.cay").read_text())
    code, out = run("decompose", "--hop", str(hop), "--vop", str(hop), "--format", "json")
    assert code == 0
    assert json.loads(out)["main_theorem"]["improper"] is True


def test_decompose_rejects_projections_with_exit_1():
    code, out = run("decompose", fx("projection_pair.cay"), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"][0]["ok"] is False


def test_compose_point_fixture():
    code, out = run("compose", fx("point_z2_presheaf.json"))
    assert code == 0
    assert out.count("2\n1 2\n2 1\n") == 2


def test_compose_rejects_bad_presheaf(tmp_path):
    doc = json.loads((fixture_dir() / "clifford3_presheaf.json").read_text())
    del doc["homs"][0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _ = run("compose", str(path))
    assert code == 2


def test_search_cli_expect_none():
    code, out = run(
        "search", "--order", "2", "--class", "inverse", "--pairs", "--expect-none"
    )
    assert code == 0
    code, out = run(
        "search", "--order", "2", "--class", "semigroup", "--pairs", "--expect-none",
        "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    [entry] = [c for c in doc["checks"] if c["name"] == "no-proper-pairs"]
    assert entry["ok"] is False


def test_search_cli_noncommutative_flag():
    for flag, labeled in (("--noncommutative", 0), ("--commutative", 24)):
        code, out = run(
            "search", "--order", "3", "--class", "inverse", flag, "--format", "json",
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert (report["filter"], report["labeled_count"]) == (f"{flag[2:]}-inverse", labeled)


def test_search_cli_filter_flags_that_do_not_apply_exit_2(capsys):
    # each used to be ignored with exit 0
    for argv, flag in (
        (("--order", "3", "--commutative"), "--commutative"),
        (("--order", "3", "--class", "semigroup", "--noncommutative"), "--noncommutative"),
        (("--order", "2", "--pairs", "--noncommutative"), "--noncommutative"),
        (("--order", "2", "--class", "inverse", "--pairs", "--commutative"), "--commutative"),
        (("--order", "2", "--class", "inverse", "--commutative", "--noncommutative"),
         "not allowed with argument --commutative"),
    ):
        capsys.readouterr()
        assert run("search", *argv)[0] == 2, argv
        assert flag in capsys.readouterr().err, argv


def test_search_cli_bad_order_exit_2(capsys):
    code, _ = run("search", "--order", "9", "--class", "inverse")
    assert code == 2
    for order in ("0", "-2"):
        capsys.readouterr()
        assert run("search", "--order", order)[0] == 2
        assert f"argument --order: must be at least 1, not {order}" in capsys.readouterr().err
    code, _ = run("search", "--order", "2", "--expect-none")
    assert code == 2


def test_search_reports_deterministic_across_jobs():
    args = ("search", "--order", "3", "--class", "inverse", "--pairs", "--format", "json")
    code1, out1 = run(*args, "--jobs", "1")
    code2, out2 = run(*args, "--jobs", "8")
    assert code1 == code2 == 0
    assert canonical_json(out1) == canonical_json(out2)


def test_semigroup_pair_report_deterministic_across_jobs():
    args = ("search", "--order", "3", "--pairs", "--format", "json")
    code1, out1 = run(*args, "--jobs", "1")
    code2, out2 = run(*args, "--jobs", "2")
    assert code1 == code2 == 0
    assert canonical_json(out1) == canonical_json(out2)


def test_jobs_below_one_exit_2(capsys):
    for argv in (("search", "--order", "2"), ("golden-suite",)):
        for jobs in ("0", "-3"):
            capsys.readouterr()
            assert run(*argv, "--jobs", jobs)[0] == 2
            assert f"--jobs: must be at least 1, not {jobs}" in capsys.readouterr().err


def test_golden_suite_passes():
    code, out = run("golden-suite")
    assert code == 0
    assert "FAIL" not in out


def test_golden_suite_mutated_fixture(tmp_path, monkeypatch):
    shutil.copytree(fixture_dir(), tmp_path / "fx")
    target = tmp_path / "fx" / "brandt_b2.cay"
    target.write_text(target.read_text().replace("1 5 1 3 1", "1 5 1 3 5"))
    monkeypatch.setenv("ESNLAB_FIXTURES", str(tmp_path / "fx"))
    code, out = run("golden-suite")
    assert code == 1
    assert "FAIL" in out


def test_golden_suite_corrupt_fixture_exit_2(tmp_path, monkeypatch):
    shutil.copytree(fixture_dir(), tmp_path / "fx")
    (tmp_path / "fx" / "brandt_b2.cay").write_text("not a table\n")
    monkeypatch.setenv("ESNLAB_FIXTURES", str(tmp_path / "fx"))
    code, _ = run("golden-suite")
    assert code == 2


def test_structurally_wrong_json_exit_2(tmp_path):
    # valid JSON whose shape is not the expected schema must not traceback
    for payload in ('{"objects": 5}', '{"arrows": {"a": 1}}', "[1, 2, 3]", '"text"'):
        path = tmp_path / "wrong.json"
        path.write_text(payload)
        assert run("esn", "to-semigroup", str(path))[0] == 2
        assert run("double", "to-dis", str(path))[0] == 2
        assert run("compose", str(path))[0] == 2


def test_unknown_command_exit_2():
    assert run("frobnicate")[0] == 2


def test_theorem_violation_exit_3(monkeypatch, capsys):
    # a construction self-check that fails is a bug, not malformed input
    from esnlab import presheaf
    from esnlab.errors import TheoremViolation

    def differ(g):
        raise TheoremViolation("the two views differ in leq")

    monkeypatch.setattr(presheaf, "one_view", differ)
    code, out = run("decompose", fx("clifford3_pair.cay"), "--format", "json")
    assert code == 3
    assert out == ""
    assert capsys.readouterr().err.splitlines() == [
        "esnlab: theorem violated (a bug, not bad input): the two views differ in leq"]


def test_proper_double_inverse_semigroup_is_a_theorem_violation(tmp_path, monkeypatch, capsys):
    # the main theorem says the two operations of a double inverse semigroup
    # coincide; a pair of inverse tables passed off as one must be refused
    # where its double groupoid is built, naming the least cell where they differ
    from esnlab import double as dbl, tables
    from esnlab.errors import TheoremViolation

    clifford3, chain3 = "3\n1 1 1\n1 2 3\n1 3 2\n", "3\n1 1 1\n1 2 2\n1 2 3\n"
    path = tmp_path / "proper.cay"
    path.write_text(f"{clifford3}\n{chain3}")
    monkeypatch.setattr(dbl.DoubleClassification, "is_double_inverse_semigroup",
                        property(lambda cls: True))
    message = "the two operations of a double inverse semigroup differ at (2, 3)"
    d = dbl.DoubleSemigroup(*tables.parse_double(path.read_text()))
    with pytest.raises(TheoremViolation) as info:
        dbl.dig_from_dis(d)
    assert str(info.value) == message
    for sub in ("to-dig", "roundtrip"):
        assert run("double", sub, str(path)) == (3, "")
        assert capsys.readouterr().err.splitlines() == [
            f"esnlab: theorem violated (a bug, not bad input): {message}"]


def _failing_certificate(monkeypatch, part):
    """Make the certificate of every built double groupoid fail at ``part``: a
    view that fails its own check, a view with a cell that is not a loop (every
    view's own check let pass), or a pseudo-product that is not commutative;
    the message it must give."""
    from dataclasses import replace

    from esnlab import double as dbl, presheaf
    from esnlab.esn import InductiveGroupoid, groupoid_of
    from esnlab.fixtures import load_table
    from esnlab.report import ValidationReport

    if part == "view":
        failed = ValidationReport()
        failed.add("groupoid.assoc", (1, 2, 3))
        monkeypatch.setattr(InductiveGroupoid, "report", failed)
        return "construction produced an invalid view: groupoid.assoc at (1, 2, 3)"
    if part == "loop":
        def askew(analysis):  # the first cell that is not an object ends at another object
            h = groupoid_of(analysis)
            a = next(a for a in h.arrows if a not in h.objects)
            return replace(h, cod={**h.cod, a: next(e for e in h.objects if e != h.cod[a])})

        monkeypatch.setattr(InductiveGroupoid, "report", ValidationReport())
        for home in (dbl, presheaf):
            monkeypatch.setattr(home, "groupoid_of", askew)
        return "construction produced a view with a cell that is not a loop"
    b2 = load_table("brandt_b2.cay")
    monkeypatch.setattr(dbl, "pseudo_product_table", lambda h: b2)
    return "the pseudo-product of a constructed view is not commutative at (2, 3)"


@pytest.mark.parametrize("part", ("view", "loop", "commutative"))
def test_a_failing_certificate_is_a_theorem_violation(part, monkeypatch, capsys):
    # a double groupoid the program builds is certified, not validated; a
    # certificate that fails is a bug (exit 3), never bad input (exit 2)
    message = _failing_certificate(monkeypatch, part)
    for argv in (("double", "to-dig", fx("clifford3_pair.cay")),
                 ("double", "roundtrip", fx("clifford3_pair.cay")),
                 ("decompose", fx("clifford3_pair.cay")),
                 ("compose", fx("clifford3_presheaf.json"))):
        for fmt in ("text", "json"):
            capsys.readouterr()
            assert run(*argv, "--format", fmt) == (3, ""), argv
            assert capsys.readouterr().err.splitlines() == [
                f"esnlab: theorem violated (a bug, not bad input): {message}"], argv


def test_a_view_that_differs_from_its_pair_is_a_theorem_violation(monkeypatch, capsys):
    # a build whose view is valid, of loops and commutative, but the view of
    # another pair (chain3's, for clifford3): the certificate ties each built
    # double groupoid to the pair it came from, so no command prints chain3's
    # structures for clifford3 or reports a failed roundtrip instead
    from esnlab import double as dbl
    from esnlab.esn import groupoid_of
    from esnlab.fixtures import load_table
    from esnlab.inverse import analyze_inverse

    chain3 = groupoid_of(analyze_inverse(load_table("chain3.cay")))
    monkeypatch.setattr(dbl, "groupoid_of", lambda analysis: chain3)
    message = "the pseudo-product of a constructed view differs from its pair at (2, 3)"
    for argv in (("double", "to-dig"), ("double", "roundtrip"), ("decompose",)):
        for fmt in ("text", "json"):
            capsys.readouterr()
            assert run(*argv, fx("clifford3_pair.cay"), "--format", fmt) == (3, ""), argv
            assert capsys.readouterr().err.splitlines() == [
                f"esnlab: theorem violated (a bug, not bad input): {message}"], argv


def test_a_double_groupoid_read_from_json_is_validated_in_full(tmp_path, monkeypatch):
    # only a value the program builds is certified: every double groupoid read
    # from a file gets the full validate_dig, once
    code, out = run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")
    assert code == 0
    path = tmp_path / "clifford3.dig.json"
    path.write_text(json.dumps(json.loads(out)["artifact"]))
    counts = _count_checks(monkeypatch)
    for sub in ("to-dis", "validate-axioms", "verify-interchange"):
        counts["validate_dig"] = 0
        assert run("double", sub, str(path))[0] == 0
        assert counts["validate_dig"] == 1, sub


def test_long_cay_tokens_are_cut_in_messages(tmp_path, capsys):
    # a run of digits too long for int() is a number out of range, not a
    # non-number, and a message shows a token or an order cut to 20 characters
    digits, cut = "9" * 5000, "9" * 20 + "..."
    two = "\u0662"  # ARABIC-INDIC DIGIT TWO, a decimal digit to int()
    cases = (
        (f"2\n1 {digits}\n1 1\n", f"line 2: entry {cut} out of range 1..2"),
        (f"2\n1 {digits[:40]}\n1 1\n", f"line 2: entry {cut} out of range 1..2"),
        (f"2\n1 x{digits}\n1 1\n", f"line 2: non-numeric entry 'x{cut[1:]}'"),
        (f"{digits}\n1\n", f"line 1: order {cut} out of range"),
        (f"x{digits}\n1\n", f"line 1: expected the order, got 'x{cut[1:]}'"),
        (f"{digits[:40]}\n1 1\n", f"line 2: expected {cut} entries, got 2"),
        # int() would read each of these as a number; a .cay token is ASCII digits
        ("2\n1 0_2\n1 1\n", "line 2: non-numeric entry '0_2'"),
        ("2\n1 +2\n1 1\n", "line 2: non-numeric entry '+2'"),
        (f"2\n1 {two}\n1 1\n", f"line 2: non-numeric entry '{two}'"),
        ("2\n1 -1\n1 1\n", "line 2: non-numeric entry '-1'"),
        ("+2\n1 1\n1 1\n", "line 1: expected the order, got '+2'"),
        (f"2\n1 {two * 5000}\n1 1\n", f"line 2: non-numeric entry '{two * 20}...'"),
    )
    path = tmp_path / "long.cay"
    for text, message in cases:
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code, out = run("check", str(path))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"esnlab: error: {message}\n"


def test_refuted_natural_order_exit_3(monkeypatch, capsys):
    # analyze_inverse checks the natural order only on a table it has found
    # associative with unique inverses, so a failure there refutes a theorem:
    # no command may take it for a table that is not inverse
    from esnlab import inverse
    from esnlab.errors import OrderAxiomViolation

    def refuted(t, idems=None):
        raise OrderAxiomViolation("not a partial order: order.antisymmetric at (1, 2)")

    monkeypatch.setattr(inverse, "natural_partial_order", refuted)
    for argv in (("check", "--inverse", fx("chain3.cay")),
                 ("check", "--double-inverse", fx("clifford3_pair.cay")),
                 ("decompose", fx("clifford3_pair.cay")),
                 ("search", "--order", "3", "--class", "inverse"),
                 ("golden-suite",),
                 ("double", "to-dig", fx("clifford3_pair.cay"))):
        capsys.readouterr()
        assert run(*argv) == (3, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("esnlab: theorem violated") and err.count("\n") == 1, (argv, err)


def test_internal_error_exit_3(monkeypatch, capsys):
    # an exception that is not an EsnlabError is a bug, not malformed input:
    # one line naming it, then its traceback
    from esnlab import presheaf

    def broken(p):
        raise KeyError("lost")

    monkeypatch.setattr(presheaf, "compose", broken)
    capsys.readouterr()
    assert run("compose", fx("clifford3_presheaf.json")) == (3, "")
    first, *rest = capsys.readouterr().err.splitlines()
    assert first == "esnlab: internal error (a bug, not bad input): KeyError: 'lost'"
    assert rest[0] == "Traceback (most recent call last):" and rest[-1] == "KeyError: 'lost'"


def test_declared_sizes_bounded_by_payload(tmp_path, capsys):
    # each loader compares a declared size with its payload before allocating
    dig = json.loads(run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")[1])
    doc = dig["artifact"]
    doc["cells"] = 10**6
    path = tmp_path / "big.dig.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("double", "validate-axioms", str(path))[0] == 2
    assert "hdom" in capsys.readouterr().err

    doc = json.loads((fixture_dir() / "partial_bijections_2.json").read_text())
    doc["arrows"] = 10**6
    path = tmp_path / "big.groupoid.json"
    path.write_text(json.dumps(doc))
    assert run("esn", "to-semigroup", str(path))[0] == 2
    assert "dom" in capsys.readouterr().err

    doc = json.loads((fixture_dir() / "clifford3_presheaf.json").read_text())
    group = doc["groups"][0]
    group.pop("carrier", None)
    group["order"] = 10**6
    path = tmp_path / "big.presheaf.json"
    path.write_text(json.dumps(doc))
    assert run("compose", str(path))[0] == 2
    assert "order" in capsys.readouterr().err


def test_empty_carriers_exit_2(tmp_path, capsys):
    # a declared size below 1 is malformed input named by its field: an empty
    # double groupoid does not pass the checks, nor fail as a bare "empty carrier"
    dig = json.loads(run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")[1])
    dig = dig["artifact"]
    lists = {name: [] for name, value in dig.items() if isinstance(value, list)}
    groupoid = json.loads((fixture_dir() / "partial_bijections_2.json").read_text())
    presheaf = json.loads((fixture_dir() / "point_z2_presheaf.json").read_text())
    presheaf["groups"][0].update(order=0, carrier=[], op=[])
    cases = (
        (dict(dig, cells=0, **lists), ("double", ("validate-axioms", "verify-interchange",
                                                  "to-dis")), "cells must be at least 1, not 0"),
        (dict(dig, objects=0, ver_arrows=0, hor_arrows=0, cells=0, **lists),
         ("double", ("validate-axioms",)), "objects must be at least 1, not 0"),
        (dict(groupoid, arrows=0, dom=[], cod=[], inverse=[]), ("esn", ("to-semigroup",)),
         "arrows must be at least 1, not 0"),
        (dict(dig, cells=-1), ("double", ("verify-interchange",)),
         "cells must be at least 1, not -1"),
        (presheaf, (None, ("compose",)), "groups[0].order must be at least 1, not 0"),
    )
    for i, (doc, (group, commands), message) in enumerate(cases):
        path = tmp_path / f"empty{i}.json"
        path.write_text(json.dumps(doc))
        for command in commands:
            argv = [*([group] if group else []), command, str(path)]
            capsys.readouterr()
            assert run(*argv) == (2, ""), argv
            assert capsys.readouterr().err == f"esnlab: error: {message}\n", argv


def _count_checks(monkeypatch):
    """Wrap every checker in each esnlab module that binds it; monkeypatch
    restores the originals."""
    import sys

    from esnlab import double, esn, inverse, presheaf, tables

    counts = {}
    for home, name in ((double, "validate_dig"), (double, "classify_double"),
                       (inverse, "analyze_inverse"), (esn, "validate_ig"),
                       (presheaf, "validate_presheaf"), (presheaf, "validate_group"),
                       (tables, "is_associative"), (tables, "is_commutative"),
                       (inverse, "is_clifford")):
        original = getattr(home, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("esnlab")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


def test_each_command_checks_each_value_once(tmp_path, monkeypatch):
    from esnlab.fixtures import load_pair
    from esnlab.tables import format_table

    counts = _count_checks(monkeypatch)

    def counted_run(*argv, code=0):
        for key in counts:
            counts[key] = 0
        assert run(*argv)[0] == code
        return dict(counts)

    got = counted_run("decompose", fx("clifford3_pair.cay"))
    assert got["classify_double"] <= 1 and got["analyze_inverse"] <= 2
    assert got["validate_group"] == 2  # one per component group
    # the certificate of its double groupoid is the one proof of the main theorem
    assert got["is_commutative"] == 1 and got["is_clifford"] == 0
    # a double groupoid the program builds is certified, not validated
    got = counted_run("double", "roundtrip", fx("clifford3_pair.cay"))
    assert got["validate_dig"] == 0 and got["classify_double"] == 1
    got = counted_run("compose", fx("clifford3_presheaf.json"))
    assert got["validate_dig"] == 0 and got["validate_presheaf"] == 1
    assert got["validate_group"] == 2
    assert got["analyze_inverse"] == 1 and got["classify_double"] == 1
    single = tmp_path / "clifford3.cay"
    single.write_text(format_table(load_pair("clifford3_pair.cay").hop))
    got = counted_run("esn", "to-groupoid", str(single), "--roundtrip")
    assert got["validate_ig"] == 1
    got = counted_run("esn", "to-semigroup", fx("partial_bijections_2.json"), "--roundtrip")
    assert got["analyze_inverse"] <= 1
    got = counted_run("check", fx("brandt_b2.cay"), "--inverse")
    assert got["analyze_inverse"] <= 1 and got["is_associative"] <= 1
    # B2 is not Clifford, so this run fails its last check
    got = counted_run("check", fx("brandt_b2.cay"), "--semigroup", "--inverse", "--clifford",
                      code=1)
    assert got["analyze_inverse"] <= 1 and got["is_associative"] <= 2
    got = counted_run("check", fx("clifford3_pair.cay"), "--double-inverse")
    assert got["is_associative"] <= 2


def test_groupoid_and_presheaf_entries_outside_their_carriers(tmp_path, capsys):
    # a stray entry is malformed input (exit 2, the range tag named), not a
    # crash and not a pass
    groupoid = json.loads((fixture_dir() / "partial_bijections_2.json").read_text())
    for field, entry, tag in (("leq", [99, 1], "order.range"),
                              ("compose", [99, 1, 1], "range.compose"),
                              ("restriction", [99, 1, 1], "range.restriction"),
                              ("corestriction", [99, 1, 1], "range.corestriction")):
        path = tmp_path / f"stray_{field}.json"
        path.write_text(json.dumps(dict(groupoid, **{field: groupoid[field] + [entry]})))
        capsys.readouterr()
        assert run("esn", "to-semigroup", str(path))[0] == 2
        err = capsys.readouterr().err
        assert err.startswith(f"esnlab: error: invalid inductive groupoid: {tag} at"), err
    doc = json.loads((fixture_dir() / "clifford3_presheaf.json").read_text())
    doc["base"]["meet"].append([99, 1, 1])
    path = tmp_path / "stray_meet.presheaf.json"
    path.write_text(json.dumps(doc))
    assert run("compose", str(path))[0] == 2
    assert "base.meet-range at (99, 1, 1)" in capsys.readouterr().err


def _rejected(tmp_path, capsys, argv, doc, message):
    """argv on doc written to a file exits 2, naming the JSON path."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(*argv, str(path))[0] == 2
    err = capsys.readouterr().err
    assert err == f"esnlab: error: {message}\n", err


def test_groupoid_ids_and_keys_listed_twice_exit_2(tmp_path, capsys):
    groupoid = json.loads((fixture_dir() / "partial_bijections_2.json").read_text())
    argv = ("esn", "to-semigroup", "--roundtrip")
    objects = groupoid["objects"]
    _rejected(tmp_path, capsys, argv, dict(groupoid, objects=objects + [objects[-1]]),
              f"objects[{len(objects)}] repeats the id {objects[-1]}")
    for field, arity in (("compose", 2), ("identity", 1), ("meet", 2),
                         ("restriction", 2), ("corestriction", 2)):
        entries = groupoid[field]
        key = entries[0][0] if arity == 1 else tuple(entries[0][:2])
        _rejected(tmp_path, capsys, argv, dict(groupoid, **{field: entries + [entries[0]]}),
                  f"{field}[{len(entries)}] repeats the key {key!r}")


def test_double_groupoid_keys_listed_twice_exit_2(tmp_path, capsys):
    # the carriers of a double groupoid are declared as sizes, so its ids are
    # 1..size; what can be listed twice is a key of a two-key map
    doc = json.loads(run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")[1])
    dig = doc["artifact"]
    for field in ("hcompose", "vcompose", "meet_h", "h_restrict", "v_corestrict"):
        entries = dig[field]
        _rejected(tmp_path, capsys, ("double", "validate-axioms"),
                  dict(dig, **{field: entries + [entries[-1]]}),
                  f"{field}[{len(entries)}] repeats the key {tuple(entries[-1][:2])!r}")


def test_presheaf_ids_and_keys_listed_twice_exit_2(tmp_path, capsys):
    original = (fixture_dir() / "clifford3_presheaf.json").read_text()

    def edited(edit):
        doc = json.loads(original)
        edit(doc)
        return doc

    for edit, message in (
        (lambda d: d["base"]["elements"].append(1), "base.elements[2] repeats the id 1"),
        (lambda d: d["base"]["meet"].append([1, 2, 1]), "base.meet[4] repeats the key (1, 2)"),
        (lambda d: d["groups"][1]["carrier"].__setitem__(1, 1),
         "groups[1].carrier[1] repeats the id 1"),
        (lambda d: d["groups"].append(d["groups"][0]), "groups[2].at repeats the element 1"),
        (lambda d: d["homs"].append(d["homs"][0]), "homs[3].pair repeats the pair [1, 1]"),
    ):
        _rejected(tmp_path, capsys, ("compose",), edited(edit), message)


def test_json_input_that_is_not_an_object_exit_2(tmp_path, capsys):
    # the loaders name the field they expected, not a Python indexing error
    for argv, field in ((("esn", "to-semigroup"), "arrows"),
                        (("double", "validate-axioms"), "objects"), (("compose",), "base")):
        for doc, shown in (([1, 2], "an array"), ("x", '"x"')):
            _rejected(tmp_path, capsys, argv, doc,
                      f"expected an object with field {field!r}, not {shown}")


def _headers_rejected(tmp_path, capsys, argv, doc, kind):
    """argv on doc exits 0, and on doc with another kind or schema_version, or
    without one of them, exits 2 naming the field; both used to be ignored."""
    path = tmp_path / "valid.json"
    path.write_text(json.dumps(doc))
    assert run(*argv, str(path))[0] == 0
    other = "inductive-groupoid" if kind == "abelian-group-presheaf" else "abelian-group-presheaf"
    for header, message in (
        ({"kind": other, "schema_version": 99}, f'kind must be "{kind}", not "{other}"'),
        ({"kind": None}, f'kind must be "{kind}", not null'),
        ({"schema_version": 99}, "schema_version must be 1, not 99"),
        ({"schema_version": "two"}, 'schema_version must be 1, not "two"'),
        ({"schema_version": True}, "schema_version must be 1, not true"),
        ({"schema_version": 1.0}, "schema_version must be 1, not 1.0"),
    ):
        _rejected(tmp_path, capsys, argv, {**doc, **header}, message)
    for field in ("kind", "schema_version"):
        _rejected(tmp_path, capsys, argv, {k: v for k, v in doc.items() if k != field},
                  f"missing field {field!r}")


def test_groupoid_json_of_another_kind_or_version_exit_2(tmp_path, capsys):
    groupoid = json.loads((fixture_dir() / "partial_bijections_2.json").read_text())
    _headers_rejected(tmp_path, capsys, ("esn", "to-semigroup"), groupoid, "inductive-groupoid")


def test_double_groupoid_json_of_another_kind_or_version_exit_2(tmp_path, capsys):
    dig = json.loads(run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")[1])
    _headers_rejected(tmp_path, capsys, ("double", "validate-axioms"), dig["artifact"],
                      "double-inductive-groupoid")


def test_presheaf_json_of_another_kind_or_version_exit_2(tmp_path, capsys):
    # the base is a sub-document, which declares neither field
    presheaf = json.loads((fixture_dir() / "clifford3_presheaf.json").read_text())
    assert "kind" not in presheaf["base"]
    _headers_rejected(tmp_path, capsys, ("compose",), presheaf, "abelian-group-presheaf")
    doc = {k: v for k, v in presheaf.items() if k != "kind"}
    _rejected(tmp_path, capsys, ("compose",), {**doc, "schema_version": "two"},
              "missing field 'kind'")


def test_declared_sizes_must_be_json_integers(tmp_path, capsys):
    groupoid = json.loads((fixture_dir() / "partial_bijections_2.json").read_text())
    dig = json.loads(run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")[1])
    presheaf = json.loads((fixture_dir() / "clifford3_presheaf.json").read_text())
    for value, shown in (({}, "an object"), (2.7, "2.7"), (True, "true"), ("3", '"3"')):
        _rejected(tmp_path, capsys, ("esn", "to-semigroup"), dict(groupoid, arrows=value),
                  f"arrows must be an integer, not {shown}")
        for carrier in ("objects", "ver_arrows", "hor_arrows", "cells"):
            _rejected(tmp_path, capsys, ("double", "validate-axioms"),
                      dict(dig["artifact"], **{carrier: value}),
                      f"{carrier} must be an integer, not {shown}")
        groups = [dict(presheaf["groups"][0], order=value), *presheaf["groups"][1:]]
        _rejected(tmp_path, capsys, ("compose",), dict(presheaf, groups=groups),
                  f"groups[0].order must be an integer, not {shown}")
    # a group's unit is a position, which int() no longer makes of a string or a bool
    for value in ("1", True):
        groups = [presheaf["groups"][0], dict(presheaf["groups"][1], unit=value),
                  *presheaf["groups"][2:]]
        _rejected(tmp_path, capsys, ("compose",), dict(presheaf, groups=groups),
                  f"groups[1].unit must be a position in 1..2, not {value!r}")


def test_groupoid_ids_must_be_json_integers(tmp_path, capsys):
    # every id of a groupoid file is a JSON integer; any other value is
    # malformed input named by its JSON path, not a Python error such as
    # "unhashable type: 'list'" or "not enough values to unpack"
    groupoid = json.loads((fixture_dir() / "partial_bijections_2.json").read_text())
    dig = json.loads(run("double", "to-dig", fx("clifford3_pair.cay"), "--format", "json")[1])
    dig = dig["artifact"]

    def edited(doc, field, edit):
        value = json.loads(json.dumps(doc[field]))
        edit(value)
        return dict(doc, **{field: value})

    for doc, argv, field, edit, message in (
        (groupoid, ("esn", "to-semigroup"), "objects", lambda v: v.append([1]),
         "objects[4] must be an integer, not an array"),
        (groupoid, ("esn", "to-semigroup"), "leq", lambda v: v.append([[1], 2]),
         "leq[17][0] must be an integer, not an array"),
        (groupoid, ("esn", "to-semigroup"), "leq", lambda v: v.append([1]),
         "leq[17] must be a list of 2 ids"),
        (groupoid, ("esn", "to-semigroup"), "compose", lambda v: v.append([1, [2], 3]),
         "compose[13][1] must be an integer, not an array"),
        (groupoid, ("esn", "to-semigroup"), "dom", lambda v: v.__setitem__(0, "1"),
         'dom[0] must be an integer, not "1"'),
        (groupoid, ("esn", "to-semigroup"), "identity", lambda v: v[0].__setitem__(1, True),
         "identity[0][1] must be an integer, not true"),
        (dig, ("double", "validate-axioms"), "hdom", lambda v: v.__setitem__(0, [1]),
         "hdom[0] must be an integer, not an array"),
        (dig, ("double", "validate-axioms"), "hcompose", lambda v: v.append([[1], 2, 3]),
         f"hcompose[{len(dig['hcompose'])}][0] must be an integer, not an array"),
        (dig, ("double", "validate-axioms"), "lesssim", lambda v: v.append([1]),
         f"lesssim[{len(dig['lesssim'])}] must be a list of 2 ids"),
        (dig, ("double", "to-dis"), "meet_h", lambda v: v[0].__setitem__(2, None),
         "meet_h[0][2] must be an integer, not null"),
        (dig, ("double", "verify-interchange"), "leq", lambda v: v.__setitem__(0, 5),
         "leq[0] must be a list of 2 ids"),
    ):
        _rejected(tmp_path, capsys, argv, edited(doc, field, edit), message)
    _rejected(tmp_path, capsys, ("double", "validate-axioms"), dict(dig, leq=5),
              "leq must be a list, not 5")


def test_to_dig_of_a_pair_that_is_not_double_inverse_exit_2(capsys):
    capsys.readouterr()
    assert run("double", "to-dig", fx("projection_pair.cay")) == (2, "")
    assert capsys.readouterr().err == (
        "esnlab: error: not a double inverse semigroup: hop: element 1 has at least two "
        "generalized inverses: 1, 2\n")


def test_presheaf_ids_must_be_json_integers(tmp_path, capsys):
    # every id and position of a presheaf file is a JSON integer, and every
    # list one; a bool used to pass as the id 1
    original = (fixture_dir() / "clifford3_presheaf.json").read_text()

    def edited(edit):
        doc = json.loads(original)
        edit(doc)
        return doc

    for edit, message in (
        (lambda d: d["base"]["leq"].append([[1], 2]),
         "base.leq[3][0] must be an integer, not an array"),
        (lambda d: d["base"]["elements"].__setitem__(0, True),
         "base.elements[0] must be an integer, not true"),
        (lambda d: d["groups"][0].__setitem__("at", True),
         "groups[0].at must be an integer, not true"),
        (lambda d: d["homs"][0].__setitem__("pair", [1]), "homs[0].pair must be a list of 2 ids"),
        (lambda d: d["groups"][0]["op"].__setitem__(0, 5), "groups[0].op[0] must be a list, not 5"),
        (lambda d: d["homs"][1].__setitem__("values", 5), "homs[1].values must be a list, not 5"),
        (lambda d: d["groups"][1].__setitem__("carrier", 2),
         "groups[1].carrier must be a list, not 2"),
        (lambda d: d.__setitem__("groups", {}), "groups must be a list, not an object"),
    ):
        _rejected(tmp_path, capsys, ("compose",), edited(edit), message)


def test_one_table_as_both_operations_is_analysed_once(monkeypatch):
    # the pair file holds one table as both operations, and classify_double
    # analyses it once, not twice; the pair rebuilt from its double groupoid is
    # the pair itself, not analysed again
    counts = _count_checks(monkeypatch)
    assert run("double", "roundtrip", fx("clifford3_pair.cay"))[0] == 0
    assert counts["analyze_inverse"] == 1
