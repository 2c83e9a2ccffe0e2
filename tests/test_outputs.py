"""The JSON reports of the deterministic commands, pinned byte for byte.

Each digest is the sha256 of a report dumped with sorted keys and indent 2,
without ``timing_ms`` and without ``inputs``, which names the input's path.
A change that alters any of these bytes alters what a user reads."""

import hashlib
import io
import json

from esnlab.cli import main
from esnlab.fixtures import fixture_dir

FILTERS = {
    "all": (),
    "inverse": ("--class", "inverse"),
    "commutative-inverse": ("--class", "inverse", "--commutative"),
    "noncommutative-inverse": ("--class", "inverse", "--noncommutative"),
}

SEARCHES = {
    (1, "all"):
        "bc17eec5808ec01d85df60022785d030fe0dd46aa0aab1888b1b669e57e2caad",
    (1, "inverse"):
        "0898565f86e81303e2b8c695919177dbc65f6fd71332093aaeab7730b28d48e5",
    (1, "commutative-inverse"):
        "da6c244657e3a1598c033113d74bd29798fed2fb4efd7c96a50e510d4a72ee42",
    (1, "noncommutative-inverse"):
        "e9bcdf3421dacf5238402765560d3797cb1a7fe7d9c390c29caee11df154755b",
    (2, "all"):
        "02616ecc95231908306044a767a3a28371dd18cdd3e2e8ad9b5054aa06146fb8",
    (2, "inverse"):
        "a12162bdd14cc9d271ab7139042548b8e1ecef9e9f49246fffe558f00b0bf45d",
    (2, "commutative-inverse"):
        "2d3f552ef062bfa3eabb07d8d2f7803e3550029e00f13957b078a026c12240f4",
    (2, "noncommutative-inverse"):
        "6458a460974ec3606a4127506229ac118a40b16a1c0778eafa3bc84ee7132f3b",
    (3, "all"):
        "112e16345d0081977d8d8b84a5a45178407d4a5e551b15c50ceeec68d0f985f7",
    (3, "inverse"):
        "b67a1e10a5da24b117a9f1dce1fe8293104607dddc900e42f11a3aa641c1a7cc",
    (3, "commutative-inverse"):
        "861eb37e088546dd94818f6ea848adf7e0800449008264c11dddc626dfb4b67d",
    (3, "noncommutative-inverse"):
        "2843031531dd01f8f195b4dbacc10102fff5ec8350a9aae5887f51cce64d9aaa",
    (4, "all"):
        "17d3896c58f2f0ee8f14902577bf4bf4d47bdca42d98a1bc26f5a87ff74f4ed8",
    (4, "inverse"):
        "1722e14b6f8122b6df8042b0695423692b23a00b66e27e50b2cac1acc70620a6",
    (4, "commutative-inverse"):
        "391430e96d454d11713d47bf33251d1983c309ebad756576d30565b13a8219ff",
    (4, "noncommutative-inverse"):
        "d176b16a8f0845b67b9e024551ca061cf016d975f908663f5c934a31b6d0a9ac",
}

PAIR_SEARCHES = {
    (3, "semigroup"):
        "10421647e79f7b3d3a761f1e3fde06920afd7f69b2b1c53199cf5cdf682bee26",
    (4, "inverse"):
        "458db80c12bc4e1fbe2cc3df839aa46e4d8329cbcccb6e7cb896adf6243b8ed8",
}

GOLDEN = "9b5546bc71d379967cce59740dc1685a109225fed2f40b9f5823eee985b0a7d4"

CHECK_INVERSE = {
    "brandt_b2.cay":
        (0, "3af20be4307cbf0e9ba08cd6d517afac7073174406294cee71fa4736d834686a"),
    "chain3.cay":
        (0, "2c3ee0b4d3f1ccb49592635de6678a7c2d8d04a0f8311e0b1031b44f2fd80176"),
    "nonassociative2.cay":
        (1, "4d0aeca143812c8fd403e1b2131e1daf01ad58bb9e5aa9fac2382e5257091aac"),
    "partial_bijections_2.sgp.cay":
        (0, "c699ba28e4d655f4aca1410c8697f8dfa3a2bb6230ce5f544d517b7a1880c008"),
}

COMPOSE = {
    "clifford3_presheaf.json":
        "021b29c7702de15c893f1746cc6a2426e0655d7dd5db34a3b183ffd6058ed651",
    "point_z2_presheaf.json":
        "c6f2548c3cd4a8a188ad424317236fb97cf5c1e83a3aaff41512d2ed331c92bc",
}

# to-dis of the double groupoid that to-dig makes of each pair
TO_DIS = {
    "clifford3_pair.cay":
        "891d77555fc795d7cf0d2bea2925283538e26663628fcef47f0b27e119de2221",
    "z2_pair.cay":
        "94ebc1e5c6b90b7b8e81c85d14c16ce6114ea5ab0eec377d9e970c62eb193b25",
}

# to-dig of each pair, then the commands that read its double groupoid
DIG = {
    "clifford3_pair.cay": {
        ("to-dig",):
            "73b974a42c250aff2ad94aaec082afad713fd355cf134d5c22b7be3a76e5ea3e",
        ("validate-axioms", "--strict-axiom-ix"):
            "04268344e80a056bc29fcd7323115a862d05642e38e7043d807247a0fdaa17e7",
        ("verify-interchange",):
            "5d736b9dc3606bdda63d7a4b1ddffbe841ef7f63980a8393af30b5aa5856e217",
    },
    "z2_pair.cay": {
        ("to-dig",):
            "1d7881a0c1eb135f01687d103fad508393469de8d5d6cbda3fff1b1cee973cab",
        ("validate-axioms", "--strict-axiom-ix"):
            "c7fb9412aeaf94b768fdbe355dff12b97bd1b2488ae0fe2ec52fb49d43d25d97",
        ("verify-interchange",):
            "41e5fa3e4c9ec8e2693df757e952dc35b6c71deaba27306316a5999f156089ea",
    },
}

DECOMPOSE = {
    "clifford3_pair.cay":
        (0, "e4e7077367a463f8a647110b76c97f42877bd9f0193f5c01aa5ade769111d6b9"),
    "z2_pair.cay":
        (0, "3387bd3e23d251b7264b5111e2c00b5234013da4aa718eba5c9f6d19411314db"),
    "projection_pair.cay":
        (1, "c45897724abc2c13705d4b8feb7d7ab1a5f7d5c4332a59dbbead98edaf5e491f"),
}

# esn to-groupoid --roundtrip of each table, to-semigroup --roundtrip of the groupoid
ESN = {
    ("to-groupoid", "brandt_b2.cay"):
        "b6a331cb1cfb5b8f194cc591de08ee463f387252fd84b95749648138b6167ecf",
    ("to-groupoid", "chain3.cay"):
        "a127f46aa37577200f48be6b5060a2d6ab3386d5bac7e994a4f981376fc0fac2",
    ("to-groupoid", "partial_bijections_2.sgp.cay"):
        "13874a8119c1ceeab62846e50f34b2f04af87a559eda8a8443560b743108c25f",
    ("to-semigroup", "partial_bijections_2.json"):
        "d3b5a27701ce8cdcecf38b3c6c093f9142e0313981e413366e1ebe397e61b634",
}


def report(*argv):
    """(exit code, the JSON report without timing_ms and inputs, as text)."""
    out = io.StringIO()
    code = main([*argv, "--format", "json"], stream=out)
    doc = json.loads(out.getvalue())
    del doc["timing_ms"], doc["inputs"]
    return code, json.dumps(doc, indent=2, sort_keys=True)


def digest(*argv):
    code, text = report(*argv)
    return code, hashlib.sha256(text.encode()).hexdigest()


def fx(name):
    return str(fixture_dir() / name)


def test_search_reports_are_pinned():
    for (n, filt), want in SEARCHES.items():
        assert digest("search", "--order", str(n), *FILTERS[filt]) == (0, want), (n, filt)
    for (n, klass), want in PAIR_SEARCHES.items():
        got = digest("search", "--order", str(n), "--class", klass, "--pairs")
        assert got == (0, want), (n, klass)


def test_golden_suite_report_is_pinned():
    assert digest("golden-suite") == (0, GOLDEN)


def test_fixture_reports_are_pinned(tmp_path):
    for name, want in CHECK_INVERSE.items():
        assert digest("check", fx(name), "--inverse") == want, name
    for name, want in COMPOSE.items():
        assert digest("compose", fx(name)) == (0, want), name
    for name, want in TO_DIS.items():
        code, text = report("double", "to-dig", fx(name))
        assert code == 0, name
        dig = tmp_path / f"{name}.dig.json"
        dig.write_text(json.dumps(json.loads(text)["artifact"]))
        assert digest("double", "to-dis", str(dig)) == (0, want), name


def test_double_reports_are_pinned(tmp_path):
    for name, want in DECOMPOSE.items():
        assert digest("decompose", fx(name)) == want, name
    for name, wants in DIG.items():
        code, text = report("double", "to-dig", fx(name))
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (0, wants["to-dig",]), name
        dig = tmp_path / f"{name}.dig.json"
        dig.write_text(json.dumps(json.loads(text)["artifact"]))
        for (sub, *flags), want in wants.items():
            if sub != "to-dig":
                assert digest("double", sub, str(dig), *flags) == (0, want), (name, sub)


def test_esn_reports_are_pinned():
    for (direction, name), want in ESN.items():
        assert digest("esn", direction, fx(name), "--roundtrip") == (0, want), (direction, name)
