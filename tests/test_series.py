import random
from fractions import Fraction as F
from math import gcd
from itertools import product
from operator import add, itemgetter

import pytest

from hodgespec.monclass import MonodromicClass as MC
from hodgespec.resolution import jet_count_zeta, zeta_series
from hodgespec.series import RationalSeries as RS, TruncatedPoly as TP, _over_lcm, _points_bound
from hodgespec.workbench import fixtures, monomial_datum

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


def _merged(into, key, coef):
    cur = into.get(key)
    new = coef if cur is None else cur + coef
    if new:
        into[key] = new
    else:
        into.pop(key, None)


def _sum_by_merging(x, y):
    out = dict(x._terms)
    for key, coef in y._terms.items():
        _merged(out, key, coef)
    return out


def _product_by_merging(x, y, key_mul):
    out = {}
    for k1, c1 in x._terms.items():
        for k2, c2 in y._terms.items():
            _merged(out, key_mul(k1, k2), c1 * c2)
    return out


@pytest.mark.parametrize("arity", [0, 1])
def test_series_sums_and_products_match_merging_loops(arity):
    # Few keys and two coefficient classes, one drawn more often, of
    # multiplicity +-1, so like terms meet and often cancel to zero.
    rng = random.Random(38 + arity)
    pool = [MC.monomial(arity, (F(k, 3),) * arity, k, 0) for k in (1, 1, 1, 2)]
    gens = [(), ((0, 1),), ((0, 1), (0, 1)), ((-1, 2),)]

    def coef():
        return rng.choice((-1, 1)) * rng.choice(pool)

    def series():
        return RS(arity, [(rng.choice(gens), coef()) for _ in range(rng.randint(0, 5))])

    def poly():
        return TP(arity, [(rng.randint(0, 3), coef()) for _ in range(rng.randint(0, 5))])

    cancelled = [0, 0]
    for make, key_mul in ((series, lambda a, b: tuple(sorted(a + b))), (poly, add)):
        for _ in range(300):
            x, y = make(), make()
            met = [x._terms.keys() | y._terms, {key_mul(k1, k2) for k1 in x._terms for k2 in y._terms}]
            got = [x + y, x * y]
            assert [z._terms for z in got] == [_sum_by_merging(x, y), _product_by_merging(x, y, key_mul)]
            for i, z in enumerate(got):
                assert z.den == 1 and z.arity == arity and all(z._terms.values()), (x, y)
                cancelled[i] += bool(met[i] - z._terms.keys())
            for k in (-2, 0, 3):
                assert (x * k)._terms == (k * x)._terms == {key: c * k for key, c in x._terms.items() if k}
    # A series also takes a class of its arity as a scalar.
    c = coef() + MC.lefschetz(arity)
    for x in (series(), series() * series()):
        assert (x * c)._terms == (c * x)._terms == {key: v for key, d in x._terms.items() if (v := d * c)}
    assert min(cancelled) >= 10, cancelled


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

    for k in range(400):
        arity = rng.randint(0, 2)
        # Every other series has 2 to 4 terms of one or two factors of
        # T-weight at most 3, with n from 30 to 60, so that many walks run
        # long and many running sums cancel along them.
        least, most, weight, count, low, top = (0, 3, 6, 1, 0, 40) if k % 2 else (1, 2, 3, 2, 30, 60)
        coef = orbit_difference if rng.random() < 0.5 else rand_class
        terms = [(rand_factors(least, most, weight), coef(arity)) for _ in range(rng.randint(count, count + 2))]
        if rng.random() < 0.25:
            terms += cancelling_pair(arity)
        series = RS(arity, terms)
        # Now and then below every T-weight, so that every table is empty.
        n = rng.randint(0, 5) if rng.random() < 0.1 else rng.randint(low, top)
        assert series.expand(n) == _expand_by_products(series, n), (series, n)


def test_expand_on_three_factor_terms_with_a_constant():
    # A constant term beside 3-factor terms, repeated factors among them.
    u, inv = MC.unit(1), MC.lefschetz(1, -1)
    c = MC(1, [(((F(1, 3),), 0, 0), 1), (((F(1, 3),), 1, 1), -1)])
    series = RS(1, [((), u - inv), (((-1, 1), (-2, 3), (-5, 2)), c), (((-1, 1), (-1, 1), (-3, 2)), u * 2 - c)])
    for n in (0, 1, 2, 7, 30):
        assert series.expand(n) == _expand_by_products(series, n), n


def test_expand_to_degree_zero_is_the_constant_term_over_its_least_den():
    # The series' lcm is 6, but T^0 holds only the (1/2)-class: over den 2.
    half = MC.monomial(1, (F(1, 2),), 0, 0)
    third = MC.monomial(1, (F(1, 3),), 1, 0)
    series = RS(1, [((), half), (((0, 1),), third)])
    assert _over_lcm(series._terms)[1] == 6
    got = series.expand(0)
    assert got.degrees() == [0] and got.coefficient(0) == half
    assert got.coefficient(0).den == 2 and got.coefficient(0)._terms == half._terms
    # With no constant term the expansion to degree 0 is zero.
    assert RS(1, [(((0, 1),), third)]).expand(0) == TP.zero(1)
    assert series.expand(1) == TP(1, {0: half, 1: third})


def test_expand_matches_jet_counts_on_surface_and_one_slope_data():
    # Shapes with at least 512 class terms to merge: a three-factor surface
    # zeta function and a one-slope two-factor one.
    for exps, n in (((1, 2, 3), 60), ((2, 2), 150)):
        series = zeta_series(monomial_datum(exps))
        assert sum(_points_bound(f, n) * len(c._terms) for f, c in series._terms.items()) >= 512
        assert series.expand(n) == jet_count_zeta(exps, n), exps


def test_expand_gives_every_degree_its_least_den():
    # c p(e, j) - (1/6) L^(e - f) p(f, j) with c = (1/6) + (1/2): at T^j the
    # (1/6) terms cancel, leaving (1/2) L^e over den 2, not the lcm 6; a
    # p(0, k) of a 1/3 residue puts degrees over den 3, and the others of
    # the draw over 6 or 1.  expand must give every degree, after the
    # cancellation too, over its own least denominator.
    rng = random.Random(3107)
    lowered = 0
    for _ in range(60):
        arity = rng.randint(1, 2)
        pad = (0,) * (arity - 1)
        sixth = MC.monomial(arity, (F(1, 6),) + pad, 0, 0)
        half = MC.monomial(arity, (F(1, 2),) + pad, rng.randint(-1, 1), 0)
        third = MC.monomial(arity, (F(1, 3),) + pad, 0, rng.randint(-1, 1))
        e, f, j, k, k2 = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        terms = [
            (((e, j),), sixth + half),
            (((f, j),), -sixth * MC.lefschetz(arity, e - f)),
            (((0, k), (rng.randint(-2, 2), k2)), third - MC.lefschetz(arity, 1) * third),
        ]
        if rng.random() < 0.5:
            terms.append(((), MC.unit(arity) * rng.randint(-2, 2)))
        series = RS(arity, terms)
        n = rng.randint(j, 30)
        assert _over_lcm(series._terms)[1] == 6
        expected = _expand_by_products(series, n)
        got = series.expand(n)
        assert got == expected, (series, n)
        for d, c in got._terms.items():
            nums = [x for evs, _p, _q in c._terms for x in evs]
            assert c._terms and c.den > 0 and gcd(c.den, *nums) == 1, (series, n, d)
        lowered += sum(c.den < 6 for c in got._terms.values())
        # Below the T-degree k + k2 of the third term, degree j holds the
        # (1/2) L^e left by the cancellation (or nothing but it when e == f).
        if j < k + k2:
            assert expected.coefficient(j) == half * MC.lefschetz(arity, e), (series, n)
    assert lowered >= 200, lowered
    # jet_count_zeta shifts its fiber by each count; its degrees are least
    # and equal the expansion of the monomial's resolution datum.
    for exps in ((2,), (4, 6), (3, 6, 9), (1, 2), (2, 2, 4)):
        jets = jet_count_zeta(exps, 12)
        assert jets == zeta_series(monomial_datum(exps)).expand(12), exps
        for _d, c in jets.terms():
            nums = [x for evs, _p, _q in c._terms for x in evs]
            assert gcd(c.den, *nums) == 1 and c.den == gcd(*exps), exps


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
    """A class's text from its Fraction terms, sorted by Fraction comparison,
    with a sign rule written apart from the library: `m*` omitted at 1, a
    `-` on a negative first term, the others joined with ` + ` / ` - `."""
    text = ""
    for i, ((evs, p, q), mult) in enumerate(sorted(c.terms(), key=itemgetter(0))):
        body = f"({','.join(map(str, evs))};{p},{q})"
        body = body if abs(mult) == 1 else f"{abs(mult)}*{body}"
        if i == 0:
            text = body if mult > 0 else f"-{body}"
        else:
            text += (" + " if mult > 0 else " - ") + body
    return text or "0"


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
