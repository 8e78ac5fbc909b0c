import argparse
import json
import sys
import time
from pathlib import Path

import pytest

from hodgespec import convolution, workbench
from hodgespec.cli import build_parser, main
from hodgespec.resolution import _class_to_json, datum_to_dict, load_class, load_datum
from hodgespec.workbench import fixtures

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_survives_a_parse_error(capsys):
    # main reuses one parser per process; a call that argparse rejects must
    # leave it answering like a freshly built one.
    argvs = (
        ("ts", "--exponents", "3,4,5"),
        ("spectrum", "--datum", str(FIXTURES / "cusp.json"), "--phi"),
    )
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    with pytest.raises(SystemExit) as exc:
        main(["ts", "--exponents"])
    assert exc.value.code == 2
    assert "--exponents" in capsys.readouterr().err
    assert build_parser() is build_parser()
    assert [run(capsys, *argv) for argv in argvs] == fresh


# The usage level as argparse prints it on an 80-column terminal: exit code,
# stdout and stderr of each argv that help, an unknown subcommand or a parse
# error stops before any command runs.
_TOP_USAGE = (
    "usage: hodgespec [-h]\n"
    "                 {spectrum,zeta,iterated,ts,convolve,steenbrink,fixtures,check}\n"
    "                 ...\n"
)
_TOP_HELP = _TOP_USAGE + (
    "\nExact Hodge spectra of hypersurface singularities from resolution data.\n"
    "\npositional arguments:\n"
    "  {spectrum,zeta,iterated,ts,convolve,steenbrink,fixtures,check}\n"
    "    spectrum            spectrum of a datum's nearby or vanishing class\n"
    "    zeta                motivic zeta function of a datum\n"
    "    iterated            iterated two-monodromy class of a joint datum\n"
    "    ts                  spectrum of x1^a1 + ... + xd^ad\n"
    "    convolve            convolution of two arity-1 class files\n"
    "    steenbrink          verify the power-perturbation spectrum identity\n"
    "    fixtures            list shipped fixtures and their provenance\n"
    "    check               run a property suite\n"
    "\noptions:\n"
    "  -h, --help            show this help message and exit\n"
)
_CHOICES = "'spectrum', 'zeta', 'iterated', 'ts', 'convolve', 'steenbrink', 'fixtures', 'check'"
_SPECTRUM_USAGE = "usage: hodgespec spectrum [-h] --datum DATUM [--phi]\n"
_USAGE = [
    ((), 2, "", _TOP_USAGE + "hodgespec: error: the following arguments are required: command\n"),
    (("-h",), 0, _TOP_HELP, ""),
    (("--help",), 0, _TOP_HELP, ""),
    (("bogus",), 2, "",
     _TOP_USAGE + f"hodgespec: error: argument command: invalid choice: 'bogus' (choose from {_CHOICES})\n"),
    (("spectrum",), 2, "",
     _SPECTRUM_USAGE + "hodgespec spectrum: error: the following arguments are required: --datum\n"),
    (("spectrum", "-h"), 0,
     _SPECTRUM_USAGE + "\noptions:\n  -h, --help     show this help message and exit\n"
     "  --datum DATUM\n  --phi          use the vanishing-cycle class\n", ""),
    (("spectrum", "--datum"), 2, "",
     _SPECTRUM_USAGE + "hodgespec spectrum: error: argument --datum: expected one argument\n"),
    (("spectrum", "--datum", "X", "extra"), 2, "",
     _TOP_USAGE + "hodgespec: error: unrecognized arguments: extra\n"),
    (("spectrum", "--datum", "X", "--bogus"), 2, "",
     _TOP_USAGE + "hodgespec: error: unrecognized arguments: --bogus\n"),
    (("--dat", "X"), 2, "",
     _TOP_USAGE + f"hodgespec: error: argument command: invalid choice: 'X' (choose from {_CHOICES})\n"),
    (("--datum=X",), 2, "", _TOP_USAGE + "hodgespec: error: the following arguments are required: command\n"),
    (("spectrum", "--", "--datum", "X"), 2, "",
     _SPECTRUM_USAGE + "hodgespec spectrum: error: the following arguments are required: --datum\n"),
    (("zeta", "--datum", "X", "--truncate", "x"), 2, "",
     "usage: hodgespec zeta [-h] --datum DATUM [--truncate N]\n"
     "hodgespec zeta: error: argument --truncate: invalid int value: 'x'\n"),
    (("ts",), 2, "",
     "usage: hodgespec ts [-h] --exponents a1,a2,...\n"
     "hodgespec ts: error: the following arguments are required: --exponents\n"),
    (("check", "--suite", "nope"), 2, "",
     "usage: hodgespec check [-h] --suite {rings,cones,psi,steenbrink,all}\n"
     "hodgespec check: error: argument --suite: invalid choice: 'nope' "
     "(choose from 'rings', 'cones', 'psi', 'steenbrink', 'all')\n"),
]


@pytest.mark.parametrize("argv, code, out, err", _USAGE, ids=[" ".join(argv) or "none" for argv, *_ in _USAGE])
def test_usage_level_output(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)
    # argv=None reads sys.argv past the program name.
    monkeypatch.setattr(sys, "argv", ["hodgespec", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_a_subcommand_call_runs_one_parse(capsys, monkeypatch):
    # The subcommand's own parser reads its arguments; the top-level parser
    # parses only an argv that opens with no subcommand.
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, "ts", "--exponents", "2,3")[:2] == (0, "t^(5/6) + t^(7/6)\n")
    assert calls == ["hodgespec ts"]
    calls.clear()
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert calls == ["hodgespec"]

def test_spectrum_phi(capsys):
    code, out, _ = run(capsys, "spectrum", "--datum", str(FIXTURES / "cusp.json"), "--phi")
    assert code == 0
    assert out.strip() == "t^(5/6) + t^(7/6)"


def test_spectrum_nearby(capsys):
    code, out, _ = run(capsys, "spectrum", "--datum", str(FIXTURES / "x3.json"))
    assert code == 0
    assert out.strip() == "t^(0) + t^(1/3) + t^(2/3)"


def test_zeta_closed_and_truncated(capsys):
    code, out, _ = run(capsys, "zeta", "--datum", str(FIXTURES / "x2.json"))
    assert code == 0
    assert "p(-1,2)" in out
    code, out, _ = run(capsys, "zeta", "--datum", str(FIXTURES / "x2.json"), "--truncate", "4")
    assert code == 0
    assert "T^2" in out and "T^4" in out and "T^3" not in out


def test_ts(capsys):
    code, out, _ = run(capsys, "ts", "--exponents", "2,3")
    assert code == 0
    assert out.strip() == "t^(5/6) + t^(7/6)"
    code, _, err = run(capsys, "ts", "--exponents", "2,zebra")
    assert code == 2 and "exponents" in err
    # An empty field is refused, not dropped; spaces around a number are not.
    for exponents in ("2,,3", "3,4,", ",2", "2, ,3"):
        code, out, err = run(capsys, "ts", "--exponents", exponents)
        assert code == 2 and out == "" and "--exponents" in err, exponents
    assert run(capsys, "ts", "--exponents", " 2 , 3")[:2] == (0, "t^(5/6) + t^(7/6)\n")


def test_iterated(capsys):
    code, out, _ = run(capsys, "iterated", "--joint", str(FIXTURES / "x2y_y_joint.json"))
    assert code == 0
    assert "(1/2,1/2;0,0)" in out
    assert "t^(1/2)*u^(1/2)*v^(0)" in out


def test_convolve(capsys):
    code, out, _ = run(
        capsys,
        "convolve",
        "--left", str(FIXTURES / "class_x2.json"),
        "--right", str(FIXTURES / "class_x3.json"),
    )
    assert code == 0
    assert "t^(5/6) + t^(7/6)" in out


def test_steenbrink_pass_and_fail(capsys):
    code, out, _ = run(
        capsys,
        "steenbrink",
        "--f", str(FIXTURES / "x2y.json"),
        "--fg", str(FIXTURES / "d_curve_N3.json"),
        "--joint", str(FIXTURES / "x2y_y_joint.json"),
        "--N", "3",
    )
    assert code == 0
    assert "EQUAL" in out
    code, out, _ = run(
        capsys,
        "steenbrink",
        "--f", str(FIXTURES / "x2y.json"),
        "--fg", str(FIXTURES / "x2y.json"),  # wrong spectrum on purpose
        "--joint", str(FIXTURES / "x2y_y_joint.json"),
        "--N", "3",
    )
    assert code == 1
    assert "DIFFER" in out and "difference" in out


def test_check_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "rings")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "cusp" in out and "provenance" in out


def test_input_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2,', encoding="utf-8")
    code, _, err = run(capsys, "spectrum", "--datum", str(bad))
    assert code == 2
    assert "malformed JSON" in err
    # A class file reads through the same path and says the same.
    bad.write_text('[[[1, 2], 0, 0', encoding="utf-8")
    code, _, err = run(capsys, "convolve", "--left", str(bad), "--right", str(FIXTURES / "class_x3.json"))
    assert code == 2
    assert "malformed JSON" in err and str(bad) in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(
        json.dumps(
            {
                "dimension": 1,
                "local": True,
                "functions": ["g"],
                "components": [{"id": "a", "Ng": 1}],
                "strata": [],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "spectrum", "--datum", str(incomplete))
    assert code == 2
    assert "components[0].nu" in err

    code, _, err = run(capsys, "spectrum", "--datum", str(tmp_path / "missing.json"))
    assert code == 2

    def shipped(name):
        return json.loads((FIXTURES / name).read_text(encoding="utf-8"))

    # steenbrink names --N, not the m of the geometric factor it feeds, and
    # a datum of the wrong kind by the flag that supplied it, never by --N.
    x2y, d3, x2y_y = (str(FIXTURES / f"{n}.json") for n in ("x2y", "d_curve_N3", "x2y_y_joint"))
    nonlocal_data, bare_data = shipped("x2y.json"), shipped("x2y_y_joint.json")
    nonlocal_data["local"] = False
    del bare_data["zero_locus_nearby"]
    nonlocal_f, bare_joint = str(tmp_path / "nonlocal.json"), str(tmp_path / "bare_joint.json")
    for path, data in ((nonlocal_f, nonlocal_data), (bare_joint, bare_data)):
        Path(path).write_text(json.dumps(data), encoding="utf-8")
    for f, fg, joint, N, message in (
        (x2y, d3, x2y_y, "0", "--N: 0 is less than 1"),
        (x2y, d3, x2y_y, "-2", "--N: -2 is less than 1"),
        (x2y, x2y_y, x2y_y, "3", "--fg: vanishing_cycles needs a datum with 1 function(s), got 2"),
        (x2y, d3, x2y, "3", "--joint: iterated_vanishing needs a joint datum"),
        (x2y_y, d3, x2y_y, "3", "--f: vanishing_cycles needs a datum with 1 function(s), got 2"),
        (nonlocal_f, d3, x2y_y, "3",
         "--f: non-local datum: the trivial-monodromy part of its zero locus is not computed"),
        (x2y, d3, bare_joint, "3",
         "--joint: joint datum lacks zero_locus_nearby, required for the vanishing-cycle correction"),
    ):
        code, _, err = run(capsys, "steenbrink", "--f", f, "--fg", fg, "--joint", joint, "--N", N)
        assert code == 2
        assert err == f"error: {message}\n"

    # A one-datum command names its flag when the datum is of the wrong kind.
    for argv, message in (
        (("spectrum", "--datum", x2y_y), "--datum: nearby_cycles needs a datum with 1 function(s), got 2"),
        (("zeta", "--datum", x2y_y), "--datum: zeta_series needs a datum with 1 function(s), got 2"),
        (("iterated", "--joint", x2y), "--joint: iterated_nearby needs a datum with 2 function(s), got 1"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    # Class entries take strict integers: no bool, float or str, and den > 0.
    x2 = json.loads((FIXTURES / "x2.json").read_text(encoding="utf-8"))
    for entry, field in (
        ([0, 0, 1.5], "[0][2]: 1.5"), (["a", 0, 1], "[0][0]: 'a'"), ([0, True, 1], "[0][1]: True")
    ):
        x2["strata"][0]["base_class"] = [entry]
        bad_base = tmp_path / "bad_base.json"
        bad_base.write_text(json.dumps(x2), encoding="utf-8")
        code, _, err = run(capsys, "spectrum", "--datum", str(bad_base))
        assert code == 2
        assert f"strata[0].base_class{field} is not an integer" in err

    # A class file's error names the file, then the field path inside it,
    # in the shape a datum file's error has.
    for entry, field in (
        ([[1, 0], 0, 0, 1], "[0][0][1]: 0 is less than 1"),
        ([[1, -2], 0, 0, 1], "[0][0][1]: -2 is less than 1"),
        ([[1, 2], 0, 0, 1.5], "[0][3]: 1.5 is not an integer"),
        ([["1", 2], 0, 0, 1], "[0][0][0]: '1' is not an integer"),
    ):
        bad_class = tmp_path / "bad_class.json"
        bad_class.write_text(json.dumps([entry]), encoding="utf-8")
        code, _, err = run(
            capsys, "convolve", "--left", str(bad_class), "--right", str(FIXTURES / "class_x3.json")
        )
        assert code == 2
        assert err == f"error: {bad_class}: {field}\n"

    # A class file must hold a JSON list; an object names the file.
    object_class = tmp_path / "object_class.json"
    object_class.write_text(json.dumps({"terms": [[[1, 2], 0, 0, 1]]}), encoding="utf-8")
    code, _, err = run(
        capsys, "convolve", "--left", str(object_class), "--right", str(FIXTURES / "class_x3.json")
    )
    assert code == 2
    assert err == f"error: {object_class}: expected a list\n"

    # A class field that is not a list, and a stratum component id that is
    # not a string, name their field path instead of raising a TypeError.
    base, explicit, ids, joint = (shipped(n) for n in ("x2.json",) * 3 + ("x2y_y_joint.json",))
    base["strata"][0]["base_class"] = 5
    del explicit["strata"][0]["base_class"]
    explicit["strata"][0]["cover"] = {"explicit": 5}
    ids["strata"][0]["components"] = [["x1"]]
    joint["zero_locus_nearby"] = 5
    for command, flag, data, message in (
        ("spectrum", "--datum", base, "strata[0].base_class: expected a list"),
        ("spectrum", "--datum", explicit, "strata[0].cover.explicit: expected a list"),
        ("iterated", "--joint", joint, "zero_locus_nearby: expected a list"),
        ("spectrum", "--datum", ids, "strata[0].components[0]: expected str, got list"),
    ):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(capsys, command, flag, str(malformed))
        assert code == 2
        assert message in err


def test_oversized_torus_fiber_fails_fast(capsys, tmp_path):
    # A split stratum of multiplicity 10^6 would enumerate 10^6 characters.
    data = json.loads((FIXTURES / "x2.json").read_text(encoding="utf-8"))
    data["components"][0]["Ng"] = 1000000
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data), encoding="utf-8")
    for argv in (("spectrum", "--datum", str(huge)), ("zeta", "--datum", str(huge), "--truncate", "3")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "1000000 characters" in err and "MAX_TORUS_CHARACTERS" in err


def test_oversized_ts_fails_fast(capsys):
    # 999^3, about 10^9 terms; a trailing 1 would zero the result only
    # after the same joins.
    for exponents in ("1000,1000,1000", "1000,1000,1000,1"):
        start = time.perf_counter()
        code, out, err = run(capsys, "ts", "--exponents", exponents)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "--exponents" in err and "MAX_TS_TERMS" in err
    # The largest tuple the benchmark and tests join stays under the bound.
    assert workbench.MAX_TS_TERMS >= 4 * 6 * 8 * 10 * 12
    assert run(capsys, "ts", "--exponents", "5,7,9,11,13")[0] == 0


def test_oversized_convolve_and_steenbrink_fail_fast(capsys, tmp_path, monkeypatch):
    calls = []
    collapse, factor = convolution._collapse_int, workbench.geometric_factor
    monkeypatch.setattr(convolution, "_collapse_int", lambda *args: calls.append(args) or collapse(*args))
    monkeypatch.setattr(workbench, "geometric_factor", lambda m: calls.append(m) or factor(m))
    # 600 x 600 term pairs for the box the convolution collapses.
    big = tmp_path / "big.json"
    big.write_text(json.dumps([[[k, 601], 0, 0, 1] for k in range(1, 601)]), encoding="utf-8")
    steenbrink = (
        "steenbrink", "--f", str(FIXTURES / "x2y.json"), "--fg", str(FIXTURES / "d_curve_N3.json"),
        "--joint", str(FIXTURES / "x2y_y_joint.json"),
    )
    for argv, message in (
        (("convolve", "--left", str(big), "--right", str(big)),
         "error: --left, --right: box of a 600-term and a 600-term class meets 360000 term pairs, more than MAX_TS_TERMS = 250000\n"),
        ((*steenbrink, "--N", "1000000000"),
         "error: --N: 1000000000 times the 1-term folded spectrum is more than MAX_TS_TERMS = 250000 term pairs\n"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == message
    assert calls == []
    assert run(capsys, *steenbrink, "--N", "3")[0] == 0


def test_oversized_truncation_fails_fast(capsys):
    # About 3 * 10^9 lattice points, which expand would enumerate one by one.
    start = time.perf_counter()
    code, out, err = run(capsys, "zeta", "--datum", str(FIXTURES / "d_curve_N5.json"), "--truncate", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "--truncate: " in err and "degree 100000" in err and "MAX_EXPAND_TERMS" in err


def test_negative_truncation_names_its_flag(capsys):
    code, out, err = run(capsys, "zeta", "--datum", str(FIXTURES / "x2.json"), "--truncate", "-1")
    assert code == 2 and out == ""
    assert err == "error: --truncate: n: -1 is less than 0\n"


def test_exponent_refusals_name_their_flag(capsys):
    for exponents, message in (
        ("2,,3", "could not parse '2,,3'"),
        ("2,0", "exponent: 0 is less than 1"),
    ):
        assert run(capsys, "ts", "--exponents", exponents) == (2, "", f"error: --exponents: {message}\n")


def test_fixtures_write_to_a_file_prints_nothing(capsys, tmp_path):
    # The target directory is made before any fixture is listed, so a path
    # that cannot be one fails with no partial listing.
    target = tmp_path / "taken"
    target.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "fixtures", "--write", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err and err.count("\n") == 1


def test_unreachable_files_are_named_by_path(capsys, tmp_path):
    # An OSError follows the naming rule: <file>: <reason>, exit code 2.
    missing = tmp_path / "missing.json"
    assert run(capsys, "spectrum", "--datum", str(missing)) == (
        2, "", f"error: {missing}: No such file or directory\n")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert run(capsys, "fixtures", "--write", str(taken)) == (2, "", f"error: {taken}: File exists\n")


def test_fixtures_missing_directory_is_an_input_error(capsys, tmp_path, monkeypatch):
    # An installed copy outside a checkout has no fixtures/ next to src/.
    monkeypatch.setattr(workbench, "FIXTURE_DIR", tmp_path / "missing")
    for argv in (("fixtures",), ("check", "--suite", "steenbrink")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "missing" in err and "x2.json" in err


def test_shipped_fixture_files_match_builders():
    # Every registered fixture has its file, every file is in canonical
    # form, and every file is a registered fixture or a class file.
    shipped = {p.name for p in FIXTURES.glob("*.json")}
    registered = {fx.name.replace("^", "") + ".json" for fx in fixtures()}
    assert registered <= shipped, registered - shipped
    assert shipped - registered <= {"class_x2.json", "class_x3.json"}
    for name in registered:
        on_disk = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        assert on_disk == datum_to_dict(load_datum(str(FIXTURES / name))), name
    for name in shipped - registered:
        on_disk = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        assert on_disk == _class_to_json(load_class(str(FIXTURES / name))), name


def test_fixture_write_roundtrip(capsys, tmp_path):
    # The writer reproduces every shipped datum file byte for byte.
    code, out, _ = run(capsys, "fixtures", "--write", str(tmp_path))
    assert code == 0
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(fx.name.replace("^", "") + ".json" for fx in fixtures())
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
