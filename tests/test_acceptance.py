"""Acceptance criteria, one test per criterion.

Every comparison is exact (integer/rational equality); there are no
tolerances anywhere.  Each test prints a single PASS/FAIL line (visible
with ``pytest -s``); the same material is runnable from the CLI via
``hodgespec check --suite all``.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from hodgespec.checks import run_suite
from hodgespec.cli import main
from hodgespec.cones import Cone, euler_char, series_limit
from hodgespec.convolution import collapse_pair, collapse_triple, convolve, power_pushforward
from hodgespec.monclass import MonodromicClass as MC, hodge_spectrum, hodge_spectrum2
from hodgespec.resolution import (
    jet_count_zeta,
    vanishing_cycles,
    zeta_series,
)
from hodgespec.spectra import BiSpectrum, Spectrum, fold_bispectrum, geometric_factor
from hodgespec.workbench import (
    TransversalBranch,
    fixture_datum,
    iterated_vanishing,
    monomial_datum,
    quasihomogeneous_spectrum,
    steenbrink_check,
    steenbrink_conjecture_rhs,
)

t = Spectrum.monomial
mono = MC.monomial


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def _rand_class(rng, arity, nterms=4):
    out = MC.zero(arity)
    for _ in range(rng.randint(1, nterms)):
        evs = []
        for _ in range(arity):
            den = rng.randint(1, 12)
            evs.append(F(rng.randint(0, den - 1), den))
        out = out + mono(
            arity, tuple(evs), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-2, 2)
        )
    return out


def test_criterion_1_power_family():
    with criterion(1, "x^a family, a = 2..8: spectrum formula and jet-count oracle"):
        start = time.perf_counter()
        for a in range(2, 9):
            datum = fixture_datum(f"x{a}")
            spectrum = hodge_spectrum(vanishing_cycles(datum))
            assert spectrum == Spectrum([(F(k, a), 1) for k in range(1, a)])
            assert zeta_series(datum).expand(30) == jet_count_zeta((a,), 30)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"power family took {elapsed:.3f}s"


def test_criterion_2_cusp_cross_validation():
    with criterion(2, "cusp: resolution pipeline equals the join pipeline"):
        engine = hodge_spectrum(vanishing_cycles(fixture_datum("cusp")))
        join = quasihomogeneous_spectrum((2, 3))
        assert engine == join == t(F(5, 6)) + t(F(7, 6))


def test_criterion_3_collapse_spectrum_identity():
    with criterion(3, "500 random two-monodromy classes: spectrum of collapse = fold"):
        rng = random.Random(103)
        for _ in range(500):
            x = _rand_class(rng, 2)
            assert hodge_spectrum(collapse_pair(x)) == fold_bispectrum(hodge_spectrum2(x))


def test_criterion_4_convolution_laws():
    with criterion(4, "convolution ring laws and collapse-order independence (200 random)"):
        rng = random.Random(104)
        unit = MC.unit(1)
        for _ in range(200):
            x, y, z = (_rand_class(rng, 1) for _ in range(3))
            assert convolve(x, unit) == x
            assert convolve(x, y) == convolve(y, x)
            assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))
        for _ in range(200):
            w = _rand_class(rng, 3)
            a = collapse_triple(w)
            assert a == collapse_pair(collapse_pair(w, (2, 3)), (1, 2))
            assert a == collapse_pair(collapse_pair(w, (1, 3)), (1, 2))


def test_criterion_5_pushforward_spectrum_identity():
    with criterion(5, "pushforward spectrum identity, N <= 6 (100 random)"):
        rng = random.Random(105)

        def sub_u(bs, N):
            return BiSpectrum([((a, F(b, N), c), m) for (a, b, c), m in bs.terms()])

        for _ in range(100):
            x = _rand_class(rng, 2)
            N = rng.randint(1, 6)
            lhs = hodge_spectrum2(power_pushforward(x, 2, N))
            geo_u = BiSpectrum([((0, F(j, N), 0), 1) for j in range(N)])
            assert lhs == geo_u * sub_u(hodge_spectrum2(x), N)


def test_criterion_6_cone_suite():
    with criterion(6, "cone suite: unimodular limits, two-sided zero limits, chi additivity"):
        rng = random.Random(106)
        from hodgespec.checks import _random_unimodular_cone

        for dim in (1, 2, 3, 4):
            for _ in range(3):
                _G, cone = _random_unimodular_cone(rng, dim)
                assert series_limit(cone, (1,) * dim, (1,) * dim) == (-1) ** dim
        for _ in range(50):
            dim = rng.randint(2, 4)
            ksize = rng.randint(1, dim - 1)
            idx = list(range(dim))
            rng.shuffle(idx)
            K = set(idx[:ksize])
            a = [rng.randint(1, 5) for _ in range(dim)]
            coeffs = tuple(-a[i] if i in K else a[i] for i in range(dim))
            assert series_limit(Cone(dim, ((coeffs, ">="),)), (1,) * dim, (1,) * dim) == 0
        for _ in range(15):
            dim = rng.randint(2, 4)
            cons = tuple(
                (tuple(rng.randint(-2, 2) for _ in range(dim)), rng.choice((">=", ">")))
                for _ in range(rng.randint(0, 2))
            )
            h = tuple(rng.randint(-2, 2) for _ in range(dim))
            whole = euler_char(Cone(dim, cons))
            parts = (
                euler_char(Cone(dim, cons + ((tuple(-c for c in h), ">"),)))
                + euler_char(Cone(dim, cons + ((h, "="),)))
                + euler_char(Cone(dim, cons + ((h, ">"),)))
            )
            assert whole == parts


def test_criterion_7_steenbrink_end_to_end():
    with criterion(7, "power perturbations of x^2 y: spectrum jump equals both closed forms"):
        x2y, joint = fixture_datum("x2y"), fixture_datum("x2y_y_joint")
        sp_f = hodge_spectrum(vanishing_cycles(x2y))
        phi_iter = iterated_vanishing(joint)
        branch = TransversalBranch(pairs=((F(1, 2), F(1, 2)),), e=1)
        for N in (3, 4, 5):
            fg = fixture_datum(f"d_curve_N{N}")
            sp_fg = hodge_spectrum(vanishing_cycles(fg))
            # transversal-data route
            assert sp_fg - sp_f == steenbrink_conjecture_rhs([branch], N)
            # folded iterated-class route, in the conjecture's orientation
            report = steenbrink_check(x2y, fg, joint, N)
            assert report.hypothesis_ok and report.equal
            folded = geometric_factor(N) * fold_bispectrum(hodge_spectrum2(phi_iter), N)
            assert sp_fg - sp_f == -folded
        # N at the threshold: reported as out of hypothesis, not asserted.
        below = steenbrink_check(x2y, monomial_datum((1,)), joint, 1)
        assert not below.hypothesis_ok


def test_criterion_8_full_suite_fast_and_green():
    with criterion(8, "all property suites pass and finish in under 10 seconds"):
        start = time.perf_counter()
        results = run_suite("all")
        elapsed = time.perf_counter() - start
        assert all(r.ok for r in results), [r.name for r in results if not r.ok]
        assert elapsed < 10.0, f"suite took {elapsed:.2f}s"
        assert main(["check", "--suite", "all"]) == 0
