import argparse
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stdout

import pytest

from monoidkit import asets as ak
from monoidkit import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv, standalone=False)
    return code, buf.getvalue()


def doc(*parts):
    return os.path.join(CORPUS, *parts)


def standalone(argv):
    """Run ``python -m monoidkit.cli`` as its own process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "monoidkit.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


# the operation modules a subcommand imports when it runs, and what they pull in
LAZY = ["monoidkit.extensions", "monoidkit.geometry", "monoidkit.homological",
        "monoidkit.projk", "monoidkit.spectra", "monoidkit.torreal", "hashlib"]


def loaded_by(code, modules=LAZY):
    """Which of ``modules`` a fresh process loads while it runs ``code``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = (f"import sys\nbefore = set(sys.modules)\n{code}\n"
             f"import json\nprint(json.dumps(sorted(set({modules!r}) & set(sys.modules) - before)))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_operation_module():
    assert loaded_by("import monoidkit.cli") == set()


def test_a_subcommand_loads_only_its_operation_modules():
    argv = ["k0", doc("monoids", "idem2.json")]
    loaded = loaded_by(f"from monoidkit import cli\ncli.main({argv!r}, standalone=False)")
    assert "monoidkit.projk" in loaded
    assert not loaded & {"monoidkit.torreal", "monoidkit.extensions"}


def test_records_need_neither_dataclasses_nor_inspect():
    # generating dataclass methods, and importing what that needs, cost a
    # CLI process more than most subcommands' work
    argv = ["k0", doc("monoids", "idem2.json")]
    modules = ["monoidkit.cli"] + [m for m in LAZY if m.startswith("monoidkit.")]
    imports = "".join(f"import {m}\n" for m in modules)
    code = f"{imports}monoidkit.cli.main({argv!r}, standalone=False)"
    assert loaded_by(code, ["dataclasses", "inspect"]) == set()


def test_main_reuses_one_parser_without_carrying_state():
    plain = ["k0", doc("monoids", "idem2.json")]
    first = run(plain)
    assert run(["--json", *plain]) != first
    assert run(plain) == first == (0, "Z^4\n")
    assert cli._parser() is cli._parser()


def test_spec_idem2():
    code, out = run(["spec", doc("monoids", "idem2.json")])
    assert code == 0
    assert out.splitlines() == ["(0)", "(x)", "(y)", "(x, y)"]


def test_pic_p2_prints_z():
    code, out = run(["pic", doc("schemes", "p2.json")])
    assert code == 0
    assert out.strip() == "Z"


def test_validate_garbage_exits_2(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text(json.dumps({"kind": "finite-table", "elements": ["0", "1"],
                               "mul": [[0, 0], [0, 0]]}))
    code, out = run(["validate", str(bad)])
    assert code == 2
    bad.write_text("[]")  # not an object, so of no kind
    assert run(["validate", str(bad)]) == (2, "")


@pytest.mark.parametrize("command, documents", [("validate", 1), ("tensor", 2), ("resolve", 1)])
def test_repeated_carrier_name_exits_2(tmp_path, capsys, command, documents):
    with open(doc("asets", "line3-regular.json")) as fh:
        aset = json.load(fh)
    aset["carrier"] = ["0", "p", "p"]
    aset["action"] = {"x": [0, 2, 0]}
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(aset))
    code, out = run([command] + [str(bad)] * documents)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: carrier point 'p' is repeated\n"


def test_usage_error_exits_1():
    code, _ = run(["no-such-command"])
    assert code == 1


def test_standalone_usage_error_exits_1():
    code, out, err = standalone(["k0"])
    assert (code, out) == (1, "")
    assert "required: monoid" in err and "Traceback" not in err
    code, out, _ = standalone(["--help"])
    assert code == 0 and out.startswith("usage: monoidkit")


def test_bound_exceeded_exits_3(tmp_path):
    pres = tmp_path / "free2.json"
    pres.write_text(
        json.dumps(
            {
                "kind": "presentation",
                "generators": ["x", "y"],
                "relations": [["x*y", "0"]],
                "bound": 6,
            }
        )
    )
    code, _ = run(["spec", str(pres)])
    assert code == 3


def test_presentation_that_collapses_to_f1(tmp_path):
    # y = x^2*y*y^2 = 0, and then x = x*y^4 = 0: the quotient is {0, 1}
    pres = tmp_path / "collapse.json"
    pres.write_text(json.dumps({
        "kind": "presentation",
        "generators": ["x", "y"],
        "relations": [["x*y^4", "x"], ["y^2", "0"], ["y", "x^2*y^3"], ["y^2", "x*y"]],
    }))
    assert run(["spec", str(pres)]) == (0, "(0)\n")


@pytest.mark.parametrize("bound", ["8", -2])
def test_normalize_rejects_a_bad_degree_bound(tmp_path, capsys, bound):
    bad = tmp_path / "numsg23.json"
    bad.write_text(json.dumps({"kind": "affine", "name": "numsg23", "rank": 1,
                               "generators": [[2], [3]], "degree_bound": bound}))
    code, out = run(["normalize", str(bad)])
    assert code == 2
    assert out == ""
    assert "degree_bound" in capsys.readouterr().err


def test_byte_identical_reruns():
    argv = ["spec", doc("monoids", "idem2.json")]
    outs = {run(argv)[1] for _ in range(3)}
    assert len(outs) == 1


def test_json_output_roundtrips():
    for argv in (
        ["--json", "spec", doc("monoids", "idem2.json")],
        ["--json", "k0", doc("monoids", "idem2.json")],
        ["--json", "cl", doc("schemes", "quadric.json")],
        ["--json", "tor1", doc("asets", "tchain.json"), "--elem", "t"],
    ):
        code, out = run(argv)
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


def test_homology_of_document(tmp_path):
    # complex document: two-term over line4
    from monoidkit import documents as dc, monoids as mk, asets as ak

    m = mk.build_from_presentation(["x"], [("x^4", "0")], name="line4")
    a = ak.aset_from_monoid(m, name="reg")
    adoc = dc.aset_to_doc(a)
    x2 = m.index_of("x^2")
    r_map = [m.table[x2][p] for p in range(len(a.carrier))]
    comp_doc = {
        "kind": "dacomplex",
        "levels": [adoc, adoc],
        "r": [r_map],
        "s": [[0] * len(a.carrier)],
    }
    f = tmp_path / "comp.json"
    f.write_text(json.dumps(comp_doc))
    code, out = run(["homology", str(f), "--degree", "0"])
    assert code == 0
    assert "H0: carrier 3" in out


def test_resolve_monogenic_aset():
    code, out = run(["resolve", doc("asets", "tchain.json")])
    assert code == 0
    assert out.splitlines() == ["P0: 1 generators", "P1: 1 generators"]


def test_resolve_length_zero_is_incomplete_and_a_negative_length_fails():
    # the reduced flavour used to print complete = True at length 0, and
    # --length -1 used to exit 0
    path = doc("asets", "point-u-line2.json")
    for flags in ([], ["--reduced"]):
        assert run(["resolve", path, "--length", "0", *flags]) == (
            0, "P0: carrier 3\ncomplete = False\n"
        )
        assert run(["resolve", path, "--length", "-1", *flags]) == (2, "")


def test_resolve_length_zero_of_a_free_aset_is_complete():
    # A acting on itself is free: P0 is the whole resolution at any length
    path = doc("asets", "line2-regular.json")
    for flags in ([], ["--reduced"]):
        zero = run(["resolve", path, "--length", "0", *flags])
        assert zero == run(["resolve", path, "--length", "1", *flags])
        assert zero[0] == 0 and zero[1].endswith("complete = True\n"), zero


def test_resolve_prints_the_same_for_isomorphic_asets(tmp_path):
    # p2 -> p1 -> 0 and p1 -> p2 -> 0 are both A/(t^2): one generator and
    # one relation each, whichever point carries the generator
    from monoidkit import documents as docs

    outs = []
    for theta in ([0, 0, 1], [0, 2, 0]):
        path = tmp_path / f"chain-{theta[1]}.json"
        path.write_text(json.dumps(docs.aset_to_doc(ak.aset_from_theta(theta))))
        outs.append([run(["resolve", str(path)]), run(["--json", "resolve", str(path)])])
    assert outs[0] == outs[1]
    assert outs[0][0] == (0, "P0: 1 generators\nP1: 1 generators\n")


EXT_ARGV = ["ext", doc("monoids", "line2.json"),
            "--quot", doc("asets", "point-u-line2.json"),
            "--sub", doc("asets", "line2-regular.json")]
SQZ_ARGV = ["sqz", doc("monoids", "line2.json"),
            "--aset", doc("asets", "point-u-line2.json")]


def test_ext_command():
    code, out = run(EXT_ARGV)
    assert code == 0
    assert out.splitlines()[0] == "2 extensions"


def test_sqz_command():
    code, out = run(SQZ_ARGV)
    assert code == 0
    assert out.splitlines()[0] == "2 square-zero extensions"


def test_sqz_on_mixed23(tmp_path):
    """mixed23 has one A-set class of carrier 2 and 2^18 cochains on it,
    of which 4 are cocycles; each table printed is associative."""
    from monoidkit import documents as docs
    from monoidkit import extensions as ex

    with open(doc("monoids", "mixed23.json")) as fh:
        m = docs.parse_monoid(json.load(fh))
    (x,) = ak.enumerate_asets(m, 2)
    path = tmp_path / "mixed23-c2.json"
    path.write_text(json.dumps(docs.aset_to_doc(x)))
    argv = ["sqz", doc("monoids", "mixed23.json"), "--aset", str(path)]
    code, out = run(argv)
    assert code == 0 and out.splitlines()[0] == "4 square-zero extensions"
    code, out = run(["--json"] + argv)
    payload = json.loads(out)
    assert code == 0 and payload["count"] == len(payload["cocycles"]) == 4
    for cocycle in payload["cocycles"]:
        t = cocycle["table"]
        assert ex.RawMonoidTable("E", t["elements"], t["mul"]).is_associative()


def test_ext_and_sqz_close_their_documents():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(EXT_ARGV)[0] == 0
        assert run(SQZ_ARGV)[0] == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_ext_rejects_a_document_of_another_kind(capsys):
    argv = EXT_ARGV[:3] + [doc("monoids", "line2.json")] + EXT_ARGV[4:]
    assert run(argv) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


FINITE = "finite-table or presentation"
MONOID_DOC = doc("monoids", "line3.json")
ASET_DOC = doc("asets", "tchain.json")
# every subcommand that reads documents of fixed kinds, given another kind
WRONG_KIND = [
    (["spec", ASET_DOC], FINITE, "aset"),
    (["primary", ASET_DOC, "--ideal", "x"], FINITE, "aset"),
    (["assprimes", ASET_DOC, "--ideal", "x"], FINITE, "aset"),
    (["k0", ASET_DOC], FINITE, "aset"),
    (["k1", ASET_DOC], FINITE, "aset"),
    (["g0", ASET_DOC], FINITE, "aset"),
    (["devissage", MONOID_DOC, "--ideal", "x", "--aset", MONOID_DOC], "aset", "finite-table"),
    (["ext", MONOID_DOC, "--quot", MONOID_DOC, "--sub", MONOID_DOC], "aset", "finite-table"),
    (["sqz", doc("monoids", "freeline.json"), "--aset", ASET_DOC], FINITE, "monogenic"),
    (["hom", MONOID_DOC, MONOID_DOC], "aset", "finite-table"),
    (["tensor", MONOID_DOC, MONOID_DOC], "aset", "finite-table"),
    (["splitcheck", MONOID_DOC, "--sub", "x"], "aset", "finite-table"),
    (["resolve", MONOID_DOC], "aset", "finite-table"),
    (["tor1", MONOID_DOC, "--elem", "t"], "aset", "finite-table"),
    (["homology", ASET_DOC], "dacomplex", "aset"),
    (["dk", ASET_DOC, "--trunc", "2"], "dacomplex", "aset"),
    (["adjcheck", ASET_DOC, ASET_DOC], "dacomplex", "aset"),
    (["moore", ASET_DOC], "simplicial", "aset"),
    (["chainhom", ASET_DOC], "simplicial", "aset"),
    (["cl", MONOID_DOC], "scheme", "finite-table"),
    (["pic", doc("monoids", "numsg23.json")], "scheme", "affine"),
    (["normalize", MONOID_DOC], "affine", "finite-table"),
]


@pytest.mark.parametrize("argv, expected, actual", WRONG_KIND, ids=[a[0] for a, _, _ in WRONG_KIND])
def test_a_document_of_the_wrong_kind_exits_2(capsys, argv, expected, actual):
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f": expected a {expected} document, got kind {actual!r}\n")


def test_every_document_subcommand_checks_its_kind():
    (subcommands,) = [
        a.choices for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    # validate takes every kind, corpus a directory
    assert sorted(argv[0] for argv, _, _ in WRONG_KIND) == sorted(
        set(subcommands) - {"validate", "corpus"}
    )


LINE2_REG = doc("asets", "line2-regular.json")
LINE3_REG = doc("asets", "line3-regular.json")
LINE2_DOC = doc("monoids", "line2.json")

# (argv, the A-set document over the wrong base, its name, its base, the monoid)
WRONG_BASE = [
    (["devissage", MONOID_DOC, "--ideal", "x", "--aset", LINE2_REG],
     LINE2_REG, "reg2", "line2", "line3"),
    (["devissage", LINE2_DOC, "--ideal", "x", "--aset", LINE3_REG],
     LINE3_REG, "reg3", "line3", "line2"),
    (["ext", MONOID_DOC, "--quot", LINE2_REG, "--sub", LINE3_REG],
     LINE2_REG, "reg2", "line2", "line3"),
    (["ext", MONOID_DOC, "--quot", LINE3_REG, "--sub", LINE2_REG],
     LINE2_REG, "reg2", "line2", "line3"),
    (["sqz", MONOID_DOC, "--aset", LINE2_REG], LINE2_REG, "reg2", "line2", "line3"),
    (["sqz", LINE2_DOC, "--aset", ASET_DOC], ASET_DOC, "tchain", "N", "line2"),
    (["g0", MONOID_DOC, "--universe", doc("asets")], LINE2_REG, "reg2", "line2", "line3"),
    (["hom", LINE2_REG, LINE3_REG], LINE3_REG, "reg3", "line3", "line2"),
    (["tensor", LINE3_REG, LINE2_REG], LINE2_REG, "reg2", "line2", "line3"),
]


@pytest.mark.parametrize(
    "argv, path, aset, base, monoid", WRONG_BASE,
    ids=[f"{a[0]}-{i}" for i, (a, *_) in enumerate(WRONG_BASE)],
)
def test_an_aset_over_the_wrong_base_exits_2(capsys, argv, path, aset, base, monoid):
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {path}: the A-set {aset} lives over {base}, not over {monoid}\n"
    )


def test_g0_universe_over_the_right_base_runs(tmp_path):
    # line3's own regular A-set is accepted, and gives the seedless answer
    with open(LINE3_REG) as src:
        (tmp_path / "line3-regular.json").write_text(src.read())
    expected = run(["g0", MONOID_DOC])
    assert expected == (0, "Z\nuniverse 627b899c96f7921a\n")
    assert run(["g0", MONOID_DOC, "--universe", str(tmp_path)]) == expected


def test_g0_seed_past_the_bound_exits_3(capsys):
    assert run(["g0", MONOID_DOC, "--bound", "2"]) == (3, "")
    assert capsys.readouterr().err == (
        "bound exceeded: seed line3 has 3 nonzero points, past the bound 2\n"
    )
    assert run(["g0", MONOID_DOC, "--bound", "3"]) == (0, "Z\nuniverse 627b899c96f7921a\n")


@pytest.mark.parametrize(
    "argv", [["corpus", MONOID_DOC], ["g0", MONOID_DOC, "--universe", MONOID_DOC]],
    ids=["corpus", "g0-universe"],
)
def test_a_file_where_a_directory_is_expected_exits_2(capsys, argv):
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Not a directory" in err


def test_corpus_runner_all_pass():
    code, out = run(["corpus", os.path.join(CORPUS, "cases")])
    assert code == 0
    assert out.splitlines()[-1].endswith("passed")


def test_corpus_missing_expectation(tmp_path):
    bad = tmp_path / "broken.case.json"
    bad.write_text(json.dumps({"argv": ["spec", "x"]}))
    code, out = run(["corpus", str(tmp_path)])
    assert code == 2


def test_dk_and_moore_commands(tmp_path):
    from monoidkit import documents as dc, monoids as mk, asets as ak, homological as hmod

    m = mk.build_from_presentation(["x"], [("x^3", "0")], name="line3")
    a = ak.aset_from_monoid(m, name="reg")
    adoc = dc.aset_to_doc(a)
    x1 = m.index_of("x")
    comp_doc = {
        "kind": "dacomplex",
        "levels": [adoc, adoc],
        "r": [[m.table[x1][p] for p in range(len(a.carrier))]],
        "s": [[0] * len(a.carrier)],
    }
    f = tmp_path / "comp.json"
    f.write_text(json.dumps(comp_doc))
    code, out = run(["dk", str(f), "--trunc", "2"])
    assert code == 0 and "valid" in out
    # a negative truncation used to print "valid" for an object without levels
    assert run(["dk", str(f), "--trunc", "-1"]) == (2, "")

    comp = dc.parse_dacomplex(json.loads(f.read_text()))
    sset = hmod.dold_kan_inverse(comp, 2)
    sdoc = dc.simplicial_to_doc(sset)
    g = tmp_path / "simp.json"
    g.write_text(json.dumps(sdoc))
    code, out = run(["moore", str(g)])
    assert code == 0
    code, out = run(["chainhom", str(g), "--degree", "1"])
    assert code == 0
    code, out = run(["adjcheck", str(f), str(g)])
    assert code == 0


@pytest.mark.parametrize(
    "aset, elem, message",
    [
        # a finite-table base is refused whatever the element says
        ("line2-regular.json", "x", "monogenic base required"),
        ("line2-regular.json", "t^2", "monogenic base required"),
        ("line2-regular.json", "t^x", "monogenic base required"),
        # over the monogenic base every non-power spelling reads alike
        ("tchain.json", "x", "element must be a power of t"),
        ("tchain.json", "t^x", "element must be a power of t"),
        ("tchain.json", "t^", "element must be a power of t"),
        ("tchain.json", "t^-1", "element must be a power of t"),
        ("tchain.json", "tt", "element must be a power of t"),
    ],
)
def test_tor1_rejects_bad_base_or_element(capsys, aset, elem, message):
    code, out = run(["tor1", doc("asets", aset), "--elem", elem])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["primary", doc("monoids", "plane22.json"), "--ideal", "z"],
         "'z' is not an element of the monoid plane22"),
        (["assprimes", doc("monoids", "plane22.json"), "--ideal", "x, nope"],
         "'nope' is not an element of the monoid plane22"),
        (["splitcheck", doc("asets", "line3-regular.json"), "--sub", "x,nope"],
         "'nope' is not a point of the A-set reg3"),
    ],
)
def test_unknown_names_are_named(capsys, argv, message):
    code, out = run(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"
