import random
from fractions import Fraction as F
from itertools import product
from operator import itemgetter

import pytest

from hodgespec.monclass import MonodromicClass as MC
from hodgespec.resolution import zeta_series
from hodgespec.series import (
    INT_KEYS_FROM,
    RationalSeries as RS,
    TruncatedPoly as TP,
    _expand_ints,
    _expand_tables,
    _points_bound,
    _spreads,
)
from hodgespec.spectra import _render_terms
from hodgespec.workbench import fixtures

u0 = MC.unit(0)
L = MC.lefschetz


def test_sum_combines_like_terms():
    assert RS.generator(-1, 2) + RS.generator(-1, 2) == RS(0, [(((-1, 2),), 2 * u0)])


def test_product_unions_factors():
    sq = RS.generator(0, 1) * RS.generator(0, 1)
    assert sq == RS(0, [(((0, 1), (0, 1)), u0)])
    one = RS.constant(u0)
    x = RS.generator(-2, 3) + RS.constant(L(0, 5))
    assert x * one == x


def test_limit_examples():
    assert (RS.generator(-1, 2) * RS.generator(0, 3)).limit() == u0
    assert RS.constant(L(0, 7)).limit() == L(0, 7)
    assert RS.generator(-3, 4).limit() == -u0


def test_limit_linear():
    rng = random.Random(1)

    def rand():
        terms = []
        for _ in range(rng.randint(1, 3)):
            fs = tuple((rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
            terms.append((fs, L(0, rng.randint(-2, 2)) * rng.randint(-2, 2)))
        return RS(0, terms)

    for _ in range(40):
        a, b = rand(), rand()
        assert (a + b).limit() == a.limit() + b.limit()
        assert (a * b).limit() == a.limit() * b.limit()
        c = L(0, rng.randint(-2, 2)) * rng.randint(-2, 2)
        assert a.scale(c).limit() == c * a.limit()


def test_expand_examples():
    assert RS.generator(-1, 2).expand(5) == TP(0, {2: L(0, -1), 4: L(0, -2)})
    assert RS.constant(L(0, 2)).expand(9) == TP(0, {0: L(0, 2)})
    # convolution of two geometric series in T
    assert (RS.generator(0, 1) * RS.generator(0, 1)).expand(3) == TP(0, {2: u0, 3: 2 * u0})


def test_expand_compatible_with_ops():
    rng = random.Random(9)

    def rand():
        terms = []
        for _ in range(rng.randint(1, 3)):
            fs = tuple((rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
            terms.append((fs, L(0, rng.randint(-2, 2)) * rng.randint(-2, 2)))
        return RS(0, terms)

    for _ in range(30):
        a, b = rand(), rand()
        n = rng.randint(0, 20)
        assert (a + b).expand(n) == a.expand(n) + b.expand(n)
        assert (a * b).expand(n) == a.expand(n).mul_truncated(b.expand(n), n)


def test_generator_weight_validation():
    with pytest.raises(ValueError):
        RS(0, [(((0, 0),), u0)])


def test_arity_mismatch():
    with pytest.raises(ValueError):
        RS.generator(0, 1, arity=1) + RS.generator(0, 1, arity=2)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: TP(0, {1: 3}), id="poly-int-coefficient"),
        pytest.param(lambda: RS(0, [((), 3)]), id="series-int-coefficient"),
    ],
)
def test_coefficients_must_be_classes(make):
    with pytest.raises(ValueError, match="^coefficient: 3 is not a MonodromicClass$"):
        make()


def _expand_by_products(series, n):
    """Reference expansion: each generator as a truncated polynomial of
    L-power classes, multiplied into the coefficient with mul_truncated."""
    arity = series.arity
    zeros = (0,) * arity
    total = TP.zero(arity)
    for factors, coef in series.terms():
        poly = TP(arity, {0: coef})
        for e, j in factors:
            gen = TP(arity, {j * m: MC.lefschetz(arity, e * m) for m in range(1, n // j + 1)})
            poly = poly.mul_truncated(gen, n)
        total = total + poly
    return total


def test_expand_matches_generator_products():
    rng = random.Random(2024)

    def rand_class(arity):
        terms = []
        for _ in range(rng.randint(1, 4)):
            dens = [rng.randint(1, 6) for _ in range(arity)]
            evs = tuple(F(rng.randrange(d), d) for d in dens)
            terms.append(((evs, rng.randint(-3, 3), rng.randint(-3, 3)), rng.choice((-2, -1, 1, 3))))
        return MC(arity, terms)

    def orbit_difference(arity):
        # c * (L^a - L^b) on one L-orbit: merged counts pass through 0.
        evs = tuple(F(rng.randrange(d), d) for d in (rng.randint(1, 6) for _ in range(arity)))
        p, q, a, b = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-2, 2)
        c = rng.choice((-2, -1, 1, 3))
        return MC(arity, [((evs, p + a, q + a), c), ((evs, p + b, q + b), -c)]) or rand_class(arity)

    def rand_factors(least, most, weight):
        pool = [(rng.randint(-5, 5), rng.randint(1, weight)) for _ in range(2)]
        # Drawing from a pool of two makes repeated generators common.
        return tuple(rng.choice(pool) for _ in range(rng.randint(least, most)))

    def cancelling_pair(arity):
        # c p(e, j) - c L^(e - f) p(f, j): their T^j coefficients cancel.
        e, f, j, c = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 6), rand_class(arity)
        return [(((e, j),), c), (((f, j),), -c * MC.lefschetz(arity, e - f))]

    paths = {False: 0, True: 0}
    for k in range(400):
        arity = rng.randint(0, 2)
        # Every other series has 2 to 4 terms of one or two factors of
        # T-weight at most 3, with n from 30 to 60, so that many reach the
        # integer-key path of expand.
        least, most, weight, count, low, top = (0, 3, 6, 1, 0, 40) if k % 2 else (1, 2, 3, 2, 30, 60)
        coef = orbit_difference if rng.random() < 0.5 else rand_class
        terms = [(rand_factors(least, most, weight), coef(arity)) for _ in range(rng.randint(count, count + 2))]
        if rng.random() < 0.25:
            terms += cancelling_pair(arity)
        series = RS(arity, terms)
        # Now and then below every T-weight, so that every table is empty.
        n = rng.randint(0, 5) if rng.random() < 0.1 else rng.randint(low, top)
        assert series.expand(n) == _expand_by_products(series, n), (series, n)
        size = sum(_points_bound(f, n) * len(c._terms) for f, c in series._terms.items())
        paths[size >= INT_KEYS_FROM and _spreads(series._terms)] += 1
        if n:
            # Both paths on every input, whichever expand chose.
            tables = {d: t for d, t in _expand_tables(series._terms, n).items() if t}
            assert _expand_ints(series._terms, n) == tables, (series, n)
    assert min(paths.values()) >= 40, paths


def test_expand_ints_on_three_factor_terms_with_a_constant():
    # A constant term beside 3-factor terms; _spreads keeps expand itself on
    # tables here, so the integer path is called directly.
    u, inv = MC.unit(1), MC.lefschetz(1, -1)
    c = MC(1, [(((F(1, 3),), 0, 0), 1), (((F(1, 3),), 1, 1), -1)])
    series = RS(1, [((), u - inv), (((-1, 1), (-2, 3), (-5, 2)), c), (((-1, 1), (-1, 1), (-3, 2)), u * 2 - c)])
    for n in (1, 2, 7, 30):
        expected = _expand_by_products(series, n)
        assert series.expand(n) == expected
        got = _expand_ints(series._terms, n)
        assert TP._trusted(1, {d: MC._trusted(1, t) for d, t in got.items()}) == expected, n


def test_expand_drops_cancelled_degrees():
    # p(0,1) - L^-1 p(1,1): both start with T, so degree 1 cancels.
    for arity in (0, 2):
        u, inv = MC.unit(arity), MC.lefschetz(arity, -1)
        series = RS(arity, [(((0, 1),), u), (((1, 1),), -inv)])
        poly = series.expand(3)
        assert poly.degrees() == [2, 3]
        assert poly == _expand_by_products(series, 3)


def test_coefficient_builds_a_zero_only_for_an_absent_degree(monkeypatch):
    zeros = []
    original = MC.zero

    def counting(arity):
        zeros.append(arity)
        return original(arity)

    poly = TP(2, {3: MC.unit(2)})
    monkeypatch.setattr(MC, "zero", counting)
    assert poly.coefficient(3) == MC.unit(2)
    assert zeros == []
    assert poly.coefficient(4) == original(2)
    assert zeros == [2]
    with pytest.raises(ValueError, match="T-degree"):
        poly.coefficient(-1)


def test_expand_matches_generator_products_on_fixtures():
    for fx in fixtures():
        if fx.datum.arity == 1:
            series = zeta_series(fx.datum)
            assert series.expand(160) == _expand_by_products(series, 160), fx.name


def _zeta_fixtures():
    return [(fx.name, zeta_series(fx.datum)) for fx in fixtures() if fx.datum.arity == 1]


def _fraction_render(c):
    """A class's text from its Fraction terms, sorted by Fraction comparison."""
    items = sorted(c.terms(), key=itemgetter(0))
    return _render_terms(items, lambda k: f"({','.join(map(str, k[0]))};{k[1]},{k[2]})")


def test_truncated_render_is_the_per_degree_join():
    for name, series in _zeta_fixtures():
        poly = series.expand(60)
        assert poly.render() == " + ".join(f"({c.render()})*T^{n}" for n, c in poly.terms()), name


def test_series_render_is_the_per_term_join():
    for name, series in _zeta_fixtures():
        parts = []
        for factors, c in series.terms():
            gens = "*".join(f"p({e},{j})" for e, j in factors) or "1"
            parts.append(f"({c.render()})*{gens}")
        assert series.render() == " + ".join(parts), name


def test_truncated_render_shares_one_table_across_degrees():
    # Each degree takes its residues over its own prime, so the common
    # denominator of the whole polynomial is not any one degree's lcm.
    rng = random.Random(12)
    for _ in range(200):
        arity = rng.randint(0, 3)
        coefs = {}
        for n, p in zip(rng.sample(range(12), rng.randint(1, 4)), rng.sample((2, 3, 5, 7, 11), 4)):
            terms = []
            for _ in range(rng.randint(1, 6)):
                evs = tuple(F(rng.randrange(d), d) for d in rng.choices((p, p * p), k=arity))
                terms.append(((evs, rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice((-2, -1, 1, 3))))
            if c := MC(arity, terms):
                coefs[n] = c
        poly = TP(arity, coefs)
        expected = " + ".join(f"({_fraction_render(c)})*T^{n}" for n, c in poly.terms()) or "0"
        assert poly.render() == expected, poly
    # One monomial in every degree, with multiplicities +-1 and +-2, first
    # and last among the monomials of a degree by turns.
    key = ((F(1, 2), F(2, 3)), 0, 1)
    coefs = {}
    for n in range(40):
        others = [(((F(1, 3), F(0)), n % 3 - 1, 0), 1)] if n % 3 else []
        others += [(((F(5, 6), F(1, 2)), 2, -1), -2)] if n % 4 == 1 else []
        coefs[n] = MC(2, [(key, (1, -1, 2, -2)[n % 4])] + others)
    poly = TP(2, coefs)
    expected = " + ".join(f"({_fraction_render(c)})*T^{n}" for n, c in poly.terms())
    assert poly.render() == expected
    for text in ("((1/3,0;0,0) - (1/2,2/3;0,1) - 2*(5/6,1/2;2,-1))*T^1 + ", " + (-2*(1/2,2/3;0,1))*T^3 + ",
                 " + (-(1/2,2/3;0,1) - 2*(5/6,1/2;2,-1))*T^9 + ", " + (2*(1/2,2/3;0,1))*T^6 + "):
        assert text in expected, text


def test_points_bound_bounds_the_lattice_points():
    rng = random.Random(5)
    for _ in range(200):
        factors = [(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        n = rng.randint(0, 30)
        count = sum(
            sum(1 for m in product(range(1, n + 1), repeat=k) if sum(j * x for (_e, j), x in zip(factors, m)) <= n)
            for k in range(1, len(factors) + 1)
        )
        assert count <= _points_bound(factors, n), (factors, n)
        if len(factors) == 1:
            assert count == _points_bound(factors, n)


def test_expand_refuses_an_oversized_expansion():
    series = dict(_zeta_fixtures())["d_curve_N5"]
    with pytest.raises(ValueError, match="more than MAX_EXPAND_TERMS"):
        series.expand(100_000)
    # 1,000 table entries, each merging a 2,000-term coefficient.
    big = MC(1, [(((F(i % 97, 97),), i, 0), 1) for i in range(2000)])
    with pytest.raises(ValueError, match="may merge 2000000 class terms"):
        RS(1, [(((0, 1),), big)]).expand(1000)
