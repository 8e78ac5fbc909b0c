import random
from fractions import Fraction as F

import pytest

from hodgespec.monclass import MonodromicClass as MC
from hodgespec.resolution import zeta_series
from hodgespec.series import RationalSeries as RS, TruncatedPoly as TP
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

    def rand_factors():
        pool = [(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(2)]
        # Drawing from a pool of two makes repeated generators common.
        return tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))

    def cancelling_pair(arity):
        # c p(e, j) - c L^(e - f) p(f, j): their T^j coefficients cancel.
        e, f, j, c = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 6), rand_class(arity)
        return [(((e, j),), c), (((f, j),), -c * MC.lefschetz(arity, e - f))]

    for _ in range(300):
        arity = rng.randint(0, 2)
        terms = [(rand_factors(), rand_class(arity)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:
            terms += cancelling_pair(arity)
        series = RS(arity, terms)
        n = rng.randint(0, 40)
        assert series.expand(n) == _expand_by_products(series, n), (series, n)


def test_expand_drops_cancelled_degrees():
    # p(0,1) - L^-1 p(1,1): both start with T, so degree 1 cancels.
    for arity in (0, 2):
        u, inv = MC.unit(arity), MC.lefschetz(arity, -1)
        series = RS(arity, [(((0, 1),), u), (((1, 1),), -inv)])
        poly = series.expand(3)
        assert poly.degrees() == [2, 3]
        assert poly == _expand_by_products(series, 3)


def test_expand_matches_generator_products_on_fixtures():
    for fx in fixtures():
        if fx.datum.arity == 1:
            series = zeta_series(fx.datum)
            assert series.expand(160) == _expand_by_products(series, 160), fx.name
