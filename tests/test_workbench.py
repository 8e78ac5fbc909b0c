import itertools
import json
import math
import random
import shutil
import time
from fractions import Fraction as F

import pytest

from hodgespec import workbench
from hodgespec.convolution import collapse_pair, power_pushforward
from hodgespec.lattice import SchemaError
from hodgespec.monclass import MonodromicClass as MC, hodge_spectrum
from hodgespec.oracles import p1_cover_class, stratum_cover_class
from hodgespec.resolution import (
    datum_from_dict,
    jet_count_zeta,
    nearby_cycles,
    vanishing_cycles,
    zeta_series,
)
from hodgespec.spectra import Spectrum, mod1
from hodgespec.workbench import (
    MAX_TS_TERMS,
    TransversalBranch,
    fixture_datum,
    fixtures,
    iterated_vanishing,
    monomial_datum,
    one_variable_vanishing,
    product_joint_datum,
    quasihomogeneous_spectrum,
    rederive,
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


def test_quasihomogeneous_spectrum_is_the_spectrum_of_the_class_join():
    rng = random.Random(23)
    for _ in range(40):
        exps = tuple(rng.randint(1, 16) for _ in range(rng.randint(1, 4)))
        classes = map(one_variable_vanishing, exps)
        assert quasihomogeneous_spectrum(exps) == hodge_spectrum(thom_sebastiani(*classes)), exps


def test_quasihomogeneous_spectrum_refuses_before_building_a_class(monkeypatch):
    calls = []
    build = workbench.one_variable_vanishing
    monkeypatch.setattr(workbench, "one_variable_vanishing", lambda a: calls.append(a) or build(a))
    for exps in ((10**6,), (1000, 1000, 1000)):
        with pytest.raises(ValueError, match="MAX_TS_TERMS"):
            quasihomogeneous_spectrum(exps)
    # An exponent 1 makes the join 0 without building the other classes.
    assert quasihomogeneous_spectrum((1, 10**6)) == Spectrum.zero()
    assert calls == []
    # The exponents are checked before the size, the size before anything
    # is built, and the empty tuple has its own error.
    with pytest.raises(ValueError, match="^need at least one exponent$"):
        quasihomogeneous_spectrum(())
    with pytest.raises(ValueError, match="^exponent: 0 is less than 1$"):
        quasihomogeneous_spectrum((1000, 1000, 1000, 0))
    with pytest.raises(ValueError, match="^exponents 1000,1000,1000 need a join of more than MAX_TS_TERMS"):
        quasihomogeneous_spectrum((1000, 1000, 1000))
    assert calls == []
    # The spectrum is counted from the exponents: no class is built on any path.
    assert quasihomogeneous_spectrum((2, 3)) == t(F(5, 6)) + t(F(7, 6))
    assert calls == []


def _spectrum_product(exps):
    """The spectrum as a product of one-variable spectra: Thom-Sebastiani
    in the spectrum ring, with no exponent-sum count."""
    factors = [hodge_spectrum(one_variable_vanishing(a)) for a in exps]
    return math.prod(factors[1:], start=factors[0])


def test_quasihomogeneous_spectrum_equals_the_product_of_one_variable_spectra():
    rng = random.Random(35)
    cases = [(1,), (2,), (17,), (2,) * 9, (1, 2, 1), (4, 6, 9), (6, 10, 15), (12, 12, 8)]
    while len(cases) < 220:
        # Small exponents, so that tuples repeat values and share factors.
        exps = tuple(rng.choice((1, 2, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15)) for _ in range(rng.randint(1, 6)))
        if math.prod(a - 1 for a in exps) <= 5000:
            cases.append(exps)
    # At the MAX_TS_TERMS edge: two 500-term spectra, and a collision-heavy tuple.
    cases += [(501, 501), (6,) * 6 + (5, 5)]
    assert all(math.prod(a - 1 for a in exps) == MAX_TS_TERMS for exps in cases[-2:])
    for exps in cases:
        got = quasihomogeneous_spectrum(exps)
        assert got == _spectrum_product(exps), exps
        # Canonical form: a plain dict of numerators over their least den.
        assert type(got._terms) is dict, exps
        assert math.gcd(got.den, *got._terms) == 1, exps
    with pytest.raises(ValueError, match="MAX_TS_TERMS"):
        quasihomogeneous_spectrum((502, 501))


def test_quasihomogeneous_spectrum_trailing_twos_cost_nothing():
    # Each x^2 adds 1/2 to every exponent; the 2s are walked first, so they
    # never pass over the 207,360-term partial count.
    exps = (7, 11, 13, 17, 19)
    start = time.perf_counter()
    got = quasihomogeneous_spectrum(exps + (2,) * 20)
    assert time.perf_counter() - start < 1.0
    assert got == quasihomogeneous_spectrum(exps) * Spectrum.monomial(10)


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


def _lct_and_least_exponent(datum):
    """(min(1, min nu/Ng over the components with Ng > 0), min(1, least
    exponent of the vanishing spectrum)).  The first is the log canonical
    threshold read off the datum's nu, the second the minimal spectral
    number; they agree on an isolated singularity (Varchenko; see Kollar,
    "Singularities of pairs", 1997).  The vanishing class never reads nu."""
    lct = min([F(1), *(F(c.nu, c.ng) for c in datum.components if c.ng > 0)])
    (least, _mult), *_rest = hodge_spectrum(vanishing_cycles(datum)).terms()
    return lct, min(F(1), least)


def test_shipped_nu_gives_the_least_spectral_number():
    for name in LOCAL_ISOLATED:
        lct, least = _lct_and_least_exponent(fixture_datum(name))
        assert lct == least, (name, lct, least)
    # The cusp with e3's nu lowered from 5 to 4: the check reads it.
    data = json.loads((workbench.FIXTURE_DIR / "cusp.json").read_text(encoding="utf-8"))
    next(c for c in data["components"] if c["id"] == "e3")["nu"] = 4
    assert _lct_and_least_exponent(datum_from_dict(data)) == (F(2, 3), F(5, 6))


def test_rederive_hooks_read_the_shipped_files(tmp_path, monkeypatch):
    # Adding 1 to one multiplicity of a shipped explicit cover, or to the
    # base class of a split point stratum, must make rederive report a
    # failure; the point stratum's failing line names it.
    for source in workbench.FIXTURE_DIR.glob("*.json"):
        shutil.copy(source, tmp_path)
    monkeypatch.setattr(workbench, "FIXTURE_DIR", tmp_path)

    def bump_explicit(data):
        explicit = next(st["cover"]["explicit"] for st in data["strata"] if st["cover"] != "split")
        explicit[0][-1] += 1
        return None

    def bump_point_base(data):
        st = next(st for st in data["strata"] if len(st["components"]) == 2)
        st["base_class"][0][-1] += 1
        return "{" + ",".join(st["components"]) + "}"

    cases = [(name, bump_explicit) for name in ("cusp", "d_curve_N2", "d_curve_N3", "d_curve_N4", "d_curve_N5")]
    cases.append(("d_curve_N4", bump_point_base))
    for name, bump in cases:
        path = tmp_path / f"{name}.json"
        shipped = path.read_text(encoding="utf-8")
        data = json.loads(shipped)
        stratum = bump(data)
        path.write_text(json.dumps(data), encoding="utf-8")
        fx = next(fx for fx in fixtures() if fx.name == name)
        failed = [label for label, ok in rederive(fx) if not ok]
        assert failed, name
        if stratum is not None:
            assert any(f"stratum {stratum} " in label for label in failed), failed
        path.write_text(shipped, encoding="utf-8")


def test_rederive_reports_a_refused_oracle(tmp_path, monkeypatch):
    # Ng = 2 on the line of d_curve_N4 makes the crossings of e1 (2 and 8)
    # miss 0 mod its multiplicity 3, so the cyclic-cover oracle refuses:
    # rederive turns that into a failing line for e1 instead of raising.
    for source in workbench.FIXTURE_DIR.glob("*.json"):
        shutil.copy(source, tmp_path)
    monkeypatch.setattr(workbench, "FIXTURE_DIR", tmp_path)
    path = tmp_path / "d_curve_N4.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    next(c for c in data["components"] if c["id"] == "line")["Ng"] = 2
    path.write_text(json.dumps(data), encoding="utf-8")
    lines = rederive(next(fx for fx in fixtures() if fx.name == "d_curve_N4"))
    failed = [label for label, ok in lines if not ok]
    assert failed == [
        "d_curve_N4: stratum {e1} equals the cyclic cover from the dual graph: "
        "crossing multiplicities must sum to 0 mod the multiplicity"
    ]
    assert len(lines) == len(data["strata"]) + 1


def test_cusp_rederive_reads_the_dual_graph(tmp_path, monkeypatch):
    # The cover checks find the curve strata and their crossings in the
    # dual graph, so listing the strata in another order changes nothing
    # but the order of the lines.
    for source in workbench.FIXTURE_DIR.glob("*.json"):
        shutil.copy(source, tmp_path)
    monkeypatch.setattr(workbench, "FIXTURE_DIR", tmp_path)

    def cusp_lines():
        return sorted(rederive(next(fx for fx in fixtures() if fx.name == "cusp")))

    shipped = cusp_lines()
    assert len(shipped) == 7 and all(ok for _name, ok in shipped)
    path = tmp_path / "cusp.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    for order in (data["strata"][::-1], data["strata"][3:] + data["strata"][:3]):
        path.write_text(json.dumps({**data, "strata": order}), encoding="utf-8")
        assert cusp_lines() == shipped


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
    x2y, joint = fixture_datum("x2y"), fixture_datum("x2y_y_joint")
    sp_f = hodge_spectrum(vanishing_cycles(x2y))
    assert sp_f == t(1)
    branch = TransversalBranch(pairs=((F(1, 2), F(1, 2)),), e=1)
    for N in (2, 3, 4, 5):
        fg = fixture_datum(f"d_curve_N{N}")
        report = steenbrink_check(x2y, fg, joint, N)
        assert report.threshold == 1
        assert report.hypothesis_ok and report.equal
        assert hodge_spectrum(vanishing_cycles(fg)) - sp_f == steenbrink_conjecture_rhs([branch], N)


def test_steenbrink_class_level_identity():
    joint = fixture_datum("x2y_y_joint")
    phi_iter = iterated_vanishing(joint)
    phi_f = vanishing_cycles(fixture_datum("x2y"))
    for N in (2, 3, 4, 5):
        phi_fg = vanishing_cycles(fixture_datum(f"d_curve_N{N}"))
        assert phi_f - phi_fg == collapse_pair(power_pushforward(phi_iter, 2, N))


def test_steenbrink_out_of_hypothesis_reported():
    # N = 1: the perturbed function is smooth at the origin, spectrum 0.
    report = steenbrink_check(
        fixture_datum("x2y"), monomial_datum((1,)), fixture_datum("x2y_y_joint"), 1
    )
    assert not report.hypothesis_ok
    assert not report.equal
    assert "WARNING" in report.render()


def test_steenbrink_check_refuses_a_large_N_before_the_geometric_factor(monkeypatch):
    calls = []
    build = workbench.geometric_factor
    monkeypatch.setattr(workbench, "geometric_factor", lambda m: calls.append(m) or build(m))
    x2y, fg, joint = (fixture_datum(name) for name in ("x2y", "d_curve_N3", "x2y_y_joint"))
    # The x2y fold has one term, so N alone counts the term pairs; the fold
    # of (x^3, y^5) has ten, so N = 25,001 is already past the budget.
    for joint_datum, N, k in (
        (joint, MAX_TS_TERMS + 1, 1), (joint, 10**9, 1), (product_joint_datum(3, 5), 25_001, 10)
    ):
        message = f"^N: {N} times the {k}-term folded spectrum is more than MAX_TS_TERMS"
        with pytest.raises(SchemaError, match=message):
            steenbrink_check(x2y, fg, joint_datum, N)
    assert calls == []
    assert len(steenbrink_check(x2y, fg, joint, 10_000).rhs._terms) == 10_000
    assert calls == [10_000]


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


@pytest.mark.parametrize(
    "deck, phi, message",
    [
        ((-2,), ([1, 1],), r"^deck orders, coefficient 0: -2 is less than 1$"),
        ((0,), ([1, 1],), r"^deck orders, coefficient 0: 0 is less than 1$"),
        ((2.0,), ([1, 1],), r"^deck orders, coefficient 0: 2\.0 is not an integer$"),
        ((2,), ([1.0, 1],), r"^phi_0 orders, coefficient 0: 1\.0 is not an integer$"),
        ((2, 3), ([1, 1],), r"^1 phi rows for 2 deck orders$"),
    ],
    ids=["negative-deck", "zero-deck", "float-deck", "float-phi", "missing-phi-row"],
)
def test_p1_cover_checks_its_integer_inputs(deck, phi, message):
    # Each used to return the zero class, divide by zero, raise a TypeError
    # from a Fraction of a float or an IndexError.
    with pytest.raises(ValueError, match=message):
        p1_cover_class(deck, phi)


def test_p1_cover_reads_orders_mod_the_deck_order():
    # Residues depend on the orders mod n only, so a row summing to 0 mod n
    # is accepted and gives the cover of any row congruent to it.
    assert p1_cover_class([2], [[1, 1]]) == p1_cover_class([2], [[1, -1]])
    assert p1_cover_class([2, 3], [[1, 1], [1, 2]]) == p1_cover_class([2, 3], [[1, -1], [1, -1]])


def test_p1_cover_refuses_oversized_decks_up_front():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_TORUS_CHARACTERS"):
        p1_cover_class([600, 600], [[1, -1], [1, -1]])
    assert time.perf_counter() - start < 0.1


def ref_p1_cover_class(deck_orders, phi_orders):
    """The cover rule by plain enumeration: one Fraction residue per
    character and puncture, and the rank-one rule of the ``oracles``
    docstring applied to them."""
    npunct = len(phi_orders[0]) if deck_orders else 0
    terms = []
    for js in itertools.product(*(range(n) for n in deck_orders)):
        eigs = tuple(F(j, n) for j, n in zip(js, deck_orders))
        residues = [
            mod1(sum(F(j * row[s], n) for j, n, row in zip(js, deck_orders, phi_orders)))
            for s in range(npunct)
        ]
        ess = [a for a in residues if a]
        if not ess:
            rows = [(1, 1, 1), (0, 0, 1 - npunct)]
        else:
            total, kp = sum(ess), len(ess)
            assert total.denominator == 1 and kp >= 2, (deck_orders, phi_orders, js)
            rows = [(0, 0, kp - npunct), (1, 0, 1 - total), (0, 1, total + 1 - kp)]
        terms += [((eigs, p, q), int(mult)) for p, q, mult in rows]
    return MC(len(deck_orders), terms)


def test_p1_cover_matches_the_fraction_enumeration():
    rng = random.Random(61)
    for _ in range(120):
        deck = [rng.randint(1, 12) for _ in range(rng.randint(1, 3))]
        npunct = rng.randint(0, 6)
        phi = []
        for n in deck:
            row = [rng.randint(-30, 30) for _ in range(npunct)]
            if row:
                row[rng.randrange(npunct)] -= sum(row) % n
            phi.append(row)
        assert p1_cover_class(deck, phi) == ref_p1_cover_class(deck, phi), (deck, phi)
    for _ in range(60):
        n = rng.randint(1, 200)
        ms = [rng.randint(-3 * n, 3 * n) for _ in range(rng.randint(0, 5))]
        if ms:
            ms[-1] -= sum(ms) % n
        assert stratum_cover_class(n, ms) == ref_p1_cover_class((n,), ([-m for m in ms],)), (n, ms)
    # The trivial deck group has one character: the class L + 1 of P^1.
    assert p1_cover_class((), ()) == ref_p1_cover_class((), ()) == MC.lefschetz(0) + MC.unit(0)


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
        for name, ok in rederive(fx):
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
