import json
from pathlib import Path

from hodgespec.cli import main
from hodgespec.resolution import datum_to_dict, load_datum
from hodgespec.workbench import fixtures

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    # Class entries take strict integers: no bool, float or str, and den > 0.
    x2 = json.loads((FIXTURES / "x2.json").read_text(encoding="utf-8"))
    for entry, field in (([0, 0, 1.5], "[0][2]"), (["a", 0, 1], "[0][0]"), ([0, True, 1], "[0][1]")):
        x2["strata"][0]["base_class"] = [entry]
        bad_base = tmp_path / "bad_base.json"
        bad_base.write_text(json.dumps(x2), encoding="utf-8")
        code, _, err = run(capsys, "spectrum", "--datum", str(bad_base))
        assert code == 2
        assert f"strata[0].base_class{field}: expected integer" in err

    for entry, field in (
        ([[1, 0], 0, 0, 1], "[0][0][1]: must be a positive integer"),
        ([[1, -2], 0, 0, 1], "[0][0][1]: must be a positive integer"),
        ([[1, 2], 0, 0, 1.5], "[0][3]: expected integer"),
        ([["1", 2], 0, 0, 1], "[0][0][0]: expected integer"),
    ):
        bad_class = tmp_path / "bad_class.json"
        bad_class.write_text(json.dumps([entry]), encoding="utf-8")
        code, _, err = run(
            capsys, "convolve", "--left", str(bad_class), "--right", str(FIXTURES / "class_x3.json")
        )
        assert code == 2
        assert f"bad_class.json{field}" in err


def test_shipped_fixture_files_match_builders():
    shipped = {p.name for p in FIXTURES.glob("*.json")}
    for fx in fixtures():
        name = fx.name.replace("^", "") + ".json"
        assert name in shipped, f"fixture file {name} not shipped"
        on_disk = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        assert on_disk == datum_to_dict(fx.datum), name
        assert load_datum(str(FIXTURES / name)) == fx.datum


def test_fixture_write_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "fixtures", "--write", str(tmp_path))
    assert code == 0
    assert (tmp_path / "cusp.json").exists()
    assert load_datum(str(tmp_path / "cusp.json")) == load_datum(str(FIXTURES / "cusp.json"))
