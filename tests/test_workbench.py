import json
import shutil
from fractions import Fraction as F

import pytest

from hodgespec import workbench
from hodgespec.convolution import collapse_pair, power_pushforward
from hodgespec.monclass import MonodromicClass as MC, hodge_spectrum
from hodgespec.oracles import p1_cover_class, stratum_cover_class
from hodgespec.resolution import (
    jet_count_zeta,
    multiplicity_ratio,
    nearby_cycles,
    vanishing_cycles,
    zeta_series,
)
from hodgespec.spectra import Spectrum
from hodgespec.workbench import (
    TransversalBranch,
    fixture_datum,
    fixtures,
    iterated_vanishing,
    monomial_datum,
    one_variable_vanishing,
    quasihomogeneous_spectrum,
    steenbrink_check,
    steenbrink_conjecture_rhs,
    thom_sebastiani,
)

t = Spectrum.monomial
mono = MC.monomial


def test_thom_sebastiani_examples():
    a1 = one_variable_vanishing(2)
    assert thom_sebastiani(a1, a1) == mono(1, (0,), 1, 1)
    cusp = thom_sebastiani(a1, one_variable_vanishing(3))
    assert cusp == mono(1, (F(5, 6),), 0, 1) + mono(1, (F(1, 6),), 1, 0)
    assert hodge_spectrum(cusp) == t(F(5, 6)) + t(F(7, 6))
    assert thom_sebastiani(a1, MC.zero(1)) == MC.zero(1)


def test_quasihomogeneous_spectrum():
    for a in range(2, 8):
        assert quasihomogeneous_spectrum((a,)) == Spectrum(
            [(F(k, a), 1) for k in range(1, a)]
        )
    assert quasihomogeneous_spectrum((2, 2)) == t(1)
    assert quasihomogeneous_spectrum((2, 3)) == t(F(5, 6)) + t(F(7, 6))
    # permutation invariance
    assert quasihomogeneous_spectrum((3, 4, 2)) == quasihomogeneous_spectrum((2, 3, 4))
    # one smooth factor kills everything
    assert quasihomogeneous_spectrum((1, 5)) == Spectrum.zero()


def test_cusp_two_pipelines():
    engine = hodge_spectrum(vanishing_cycles(fixture_datum("cusp")))
    join = quasihomogeneous_spectrum((2, 3))
    assert engine == join == t(F(5, 6)) + t(F(7, 6))


def test_d_curve_spectra():
    expected = {
        2: t(F(3, 4)) + t(1) + t(F(5, 4)),
        3: t(F(2, 3)) + 2 * t(1) + t(F(4, 3)),
        4: t(F(5, 8)) + t(F(7, 8)) + t(1) + t(F(9, 8)) + t(F(11, 8)),
        5: t(F(3, 5)) + t(F(4, 5)) + 2 * t(1) + t(F(6, 5)) + t(F(7, 5)),
    }
    registry = {fx.name: fx for fx in fixtures()}
    for N, spectrum in expected.items():
        assert hodge_spectrum(vanishing_cycles(fixture_datum(f"d_curve_N{N}"))) == spectrum
        assert registry[f"d_curve_N{N}"].expected_spectrum == spectrum
    with pytest.raises(FileNotFoundError):
        fixture_datum("d_curve_N6")


def _weighted_homogeneous_spectrum(weights, basis):
    """A Milnor-basis monomial prod x_i^(m_i) of a weighted-homogeneous
    isolated germ contributes t^(sum (m_i + 1) w_i)."""
    return Spectrum(
        [(sum((m + 1) * w for m, w in zip(mono, weights)), 1) for mono in basis]
    )


def test_d_curve_spectra_match_weighted_homogeneous_formula():
    # x^2 y + y^N has weights ((N-1)/(2N), 1/N) and Milnor basis
    # 1, y, ..., y^(N-1), x.
    registry = {fx.name: fx for fx in fixtures()}
    for N in (2, 3, 4, 5):
        weights = (F(N - 1, 2 * N), F(1, N))
        basis = [(0, j) for j in range(N)] + [(1, 0)]
        expect = _weighted_homogeneous_spectrum(weights, basis)
        assert hodge_spectrum(vanishing_cycles(fixture_datum(f"d_curve_N{N}"))) == expect
        assert registry[f"d_curve_N{N}"].expected_spectrum == expect


# Local isolated one-function fixtures: (dimension, Milnor number in closed
# form).  x2y is left out because its singular locus is not isolated.
LOCAL_ISOLATED = {
    **{f"x{a}": (1, a - 1) for a in range(2, 9)},
    "cusp": (2, 2),
    **{f"d_curve_N{N}": (2, N + 1) for N in (2, 3, 4, 5)},
}


def test_local_isolated_fixture_invariants():
    for name, (d, milnor) in LOCAL_ISOLATED.items():
        datum = fixture_datum(name)
        assert datum.dimension == d, name
        sp = hodge_spectrum(vanishing_cycles(datum))
        assert sp.mass() == milnor, name
        for exponent, mult in sp.terms():
            assert 0 < exponent < d, name
            assert sp.coefficient(d - exponent) == mult, name


def test_rederive_hooks_read_the_shipped_files(tmp_path, monkeypatch):
    # Adding 1 to one multiplicity of a shipped explicit cover must make
    # that fixture's rederive hook report a failure.
    for source in workbench.FIXTURE_DIR.glob("*.json"):
        shutil.copy(source, tmp_path)
    monkeypatch.setattr(workbench, "FIXTURE_DIR", tmp_path)
    for name in ("cusp", "d_curve_N2", "d_curve_N3", "d_curve_N4", "d_curve_N5"):
        path = tmp_path / f"{name}.json"
        shipped = path.read_text(encoding="utf-8")
        data = json.loads(shipped)
        explicit = next(st["cover"]["explicit"] for st in data["strata"] if st["cover"] != "split")
        explicit[0][-1] += 1
        path.write_text(json.dumps(data), encoding="utf-8")
        hook = next(fx.rederive for fx in fixtures() if fx.name == name)
        assert not all(ok for _name, ok in hook()), name
        path.write_text(shipped, encoding="utf-8")


def test_cusp_rederive_reads_the_dual_graph(tmp_path, monkeypatch):
    # The cover checks find the curve strata and their crossings in the
    # dual graph, so listing the strata in another order changes nothing.
    for source in workbench.FIXTURE_DIR.glob("*.json"):
        shutil.copy(source, tmp_path)
    monkeypatch.setattr(workbench, "FIXTURE_DIR", tmp_path)
    hook = next(fx.rederive for fx in fixtures() if fx.name == "cusp")
    shipped = hook()
    assert len(shipped) == 3 and all(ok for _name, ok in shipped)
    path = tmp_path / "cusp.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    for order in (data["strata"][::-1], data["strata"][3:] + data["strata"][:3]):
        path.write_text(json.dumps({**data, "strata": order}), encoding="utf-8")
        assert hook() == shipped


def test_x2y_matches_the_monomial_oracles():
    # x^2 y in the plane: the jet count of (2, 1) and the generated
    # identity-resolution datum do not read the shipped file.
    datum = fixture_datum("x2y")
    assert zeta_series(datum).expand(40) == jet_count_zeta((2, 1), 40)
    assert nearby_cycles(datum) == nearby_cycles(monomial_datum((2, 1)))


def test_iterated_vanishing_requires_correction():
    joint = fixture_datum("x2y_y_joint")
    got = iterated_vanishing(joint)
    assert got == -mono(2, (F(1, 2), F(1, 2)), 0, 0)
    stripped = type(joint)(
        joint.dimension, joint.local, joint.functions, joint.components, joint.strata
    )
    with pytest.raises(ValueError, match="zero_locus_nearby"):
        iterated_vanishing(stripped)


def test_steenbrink_check_and_conjecture_rhs():
    sp_f = hodge_spectrum(vanishing_cycles(fixture_datum("x2y")))
    assert sp_f == t(1)
    joint = fixture_datum("x2y_y_joint")
    phi_iter = iterated_vanishing(joint)
    threshold = multiplicity_ratio(joint)
    assert threshold == 1
    branch = TransversalBranch(pairs=((F(1, 2), F(1, 2)),), e=1)
    for N in (2, 3, 4, 5):
        sp_fg = hodge_spectrum(vanishing_cycles(fixture_datum(f"d_curve_N{N}")))
        report = steenbrink_check(sp_f, sp_fg, phi_iter, N, threshold)
        assert report.hypothesis_ok and report.equal
        assert sp_fg - sp_f == steenbrink_conjecture_rhs([branch], N)


def test_steenbrink_class_level_identity():
    joint = fixture_datum("x2y_y_joint")
    phi_iter = iterated_vanishing(joint)
    phi_f = vanishing_cycles(fixture_datum("x2y"))
    for N in (2, 3, 4, 5):
        phi_fg = vanishing_cycles(fixture_datum(f"d_curve_N{N}"))
        assert phi_f - phi_fg == collapse_pair(power_pushforward(phi_iter, 2, N))


def test_steenbrink_out_of_hypothesis_reported():
    # N = 1: the perturbed function is smooth at the origin, spectrum 0.
    joint = fixture_datum("x2y_y_joint")
    report = steenbrink_check(
        hodge_spectrum(vanishing_cycles(fixture_datum("x2y"))),
        Spectrum.zero(),
        iterated_vanishing(joint),
        1,
        multiplicity_ratio(joint),
    )
    assert not report.hypothesis_ok
    assert not report.equal
    assert "WARNING" in report.render()


def test_conjecture_rhs_examples():
    branch = TransversalBranch(pairs=((F(1, 2), F(1, 2)),), e=1)
    assert steenbrink_conjecture_rhs([branch], 3) == t(F(2, 3)) + t(1) + t(F(4, 3))
    assert steenbrink_conjecture_rhs([], 5) == Spectrum.zero()
    doubled = TransversalBranch(pairs=((F(1, 2), F(1, 2)),), e=2)
    got = steenbrink_conjecture_rhs([doubled], 2)
    expect = Spectrum.monomial(F(1, 2) + F(1, 8)) * Spectrum(
        [(F(i, 4), 1) for i in range(4)]
    )
    assert got == expect


def test_stratum_cover_rule_degenerates_to_split():
    # Simply connected stratum: the cover rule reproduces base * fiber.
    datum = fixture_datum("cusp")
    assert datum.stratum_class(datum.strata[0]) == stratum_cover_class(2, (6,))
    assert stratum_cover_class(4, (8,)) == MC.lefschetz(1) * MC(
        1, [(((F(k, 4),), 0, 0), 1) for k in range(4)]
    )
    with pytest.raises(ValueError):
        stratum_cover_class(4, (3,))  # degree not divisible


def test_p1_cover_requires_degree_zero():
    with pytest.raises(ValueError):
        p1_cover_class([2], [[1, 0]])


def test_fixture_registry():
    reg = {fx.name: fx for fx in fixtures()}
    assert "cusp" in reg and "x^4" in reg and "d_curve_N3" in reg
    for fx in reg.values():
        assert fx.provenance
        if fx.expected_spectrum is not None and fx.datum.arity == 1:
            got = hodge_spectrum(vanishing_cycles(fx.datum))
            assert got == fx.expected_spectrum, fx.name


def test_fixture_rederive_hooks():
    for fx in fixtures():
        if fx.rederive is None:
            continue
        for name, ok in fx.rederive():
            assert ok, name


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: monomial_datum((2.7, 1)), id="monomial_datum"),
        pytest.param(lambda: workbench.product_joint_datum(2, 1.5), id="product_joint_datum"),
        pytest.param(lambda: jet_count_zeta((True, 2), 5), id="jet_count_zeta"),
        pytest.param(lambda: stratum_cover_class(F(5, 2), (1, 1)), id="stratum_cover_multiplicity"),
        pytest.param(lambda: stratum_cover_class(2, (1.0, 1)), id="stratum_cover_crossings"),
    ],
)
def test_generators_refuse_non_integer_exponents(make):
    # Each used to truncate through int(): 2.7 became 2, True became 1.
    with pytest.raises(ValueError, match="is not an integer"):
        make()
