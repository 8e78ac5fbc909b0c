import random
from fractions import Fraction as F
from math import gcd
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from hodgespec import monclass, series, spectra
from hodgespec.monclass import MonodromicClass
from hodgespec.series import RationalSeries, TruncatedPoly
from hodgespec.spectra import (
    BiSpectrum,
    Spectrum,
    _pair,
    fold_bispectrum,
    frac,
    geometric_factor,
    mod1,
    steenbrink_rhs,
)

t = Spectrum.monomial
b = BiSpectrum.monomial


def test_exponent_addition():
    assert t(F(1, 2)) * t(F(1, 3)) == t(F(5, 6))


def test_cancellation():
    assert t(F(1, 2)) + (-1) * t(F(1, 2)) == Spectrum.zero()
    assert not (t(1) - t(1))
    assert t(1) - t(1) == 0 and 3 * Spectrum.one() == 3 != t(1)


def test_difference_of_squares():
    one = Spectrum.one()
    assert (one + t(F(1, 2))) * (one - t(F(1, 2))) == one - t(1)


def test_mod1_and_frac():
    assert mod1(F(-1, 2)) == F(1, 2)
    assert mod1(F(7, 3)) == F(1, 3)
    assert frac((3, 6)) == F(1, 2)
    assert frac("2/8") == F(1, 4)


def test_fold_examples():
    assert fold_bispectrum(b(F(1, 2), F(1, 2), 0)) == t(1)
    assert fold_bispectrum(b(0, 0, 3)) == t(3)
    # collision of images
    assert fold_bispectrum(b(F(2, 3), F(2, 3), 0) + b(F(1, 3), 0, 1)) == 2 * t(F(4, 3))


def test_fold_scaled_examples():
    assert fold_bispectrum(b(F(1, 2), F(1, 2), 0), 3) == t(F(2, 3))
    assert fold_bispectrum(b(0, F(3, 4), 1), 2) == t(F(11, 8))
    x = b(F(1, 5), F(2, 5), 2) - 3 * b(0, F(1, 2), -1)
    assert fold_bispectrum(x, 1) == fold_bispectrum(x)


def test_fold_additive():
    rng = random.Random(3)
    for _ in range(50):
        terms1 = [((F(rng.randint(0, 5), 6), F(rng.randint(0, 5), 6), rng.randint(-2, 2)), rng.randint(-2, 2)) for _ in range(3)]
        terms2 = [((F(rng.randint(0, 5), 6), F(rng.randint(0, 5), 6), rng.randint(-2, 2)), rng.randint(-2, 2)) for _ in range(3)]
        x, y = BiSpectrum(terms1), BiSpectrum(terms2)
        N = rng.randint(1, 5)
        assert fold_bispectrum(x + y, N) == fold_bispectrum(x, N) + fold_bispectrum(y, N)


def test_fold_wraparound_breaks_multiplicativity():
    m1 = b(F(1, 2), 0, 0)
    m2 = b(F(2, 3), 0, 0)
    assert fold_bispectrum(m1 * m2) == t(F(1, 6))
    assert fold_bispectrum(m1) * fold_bispectrum(m2) == t(F(7, 6))


def test_geometric_factor():
    assert geometric_factor(1) == Spectrum.one()
    assert geometric_factor(3) == Spectrum.one() + t(F(1, 3)) + t(F(2, 3))
    assert geometric_factor(2) == Spectrum.one() + t(F(1, 2))
    one = Spectrum.one()
    for m in range(1, 65):
        assert geometric_factor(m) * (one - t(F(1, m))) == one - t(1)


def test_steenbrink_rhs_examples():
    assert steenbrink_rhs([(F(1, 2), F(1, 2))], 1, 3) == t(F(2, 3)) + t(1) + t(F(4, 3))
    assert steenbrink_rhs([], 4, 9) == Spectrum.zero()
    assert steenbrink_rhs([(F(1, 2), F(1, 2))], 1, 4) == (
        t(F(5, 8)) + t(F(7, 8)) + t(F(9, 8)) + t(F(11, 8))
    )


def test_steenbrink_rhs_rejects_bad_residue():
    with pytest.raises(ValueError):
        steenbrink_rhs([(F(1, 2), F(3, 2))], 1, 3)
    with pytest.raises(ValueError):
        steenbrink_rhs([(F(1, 2), F(-1, 2))], 1, 3)


def test_ring_axioms_random():
    rng = random.Random(11)

    def rand():
        return Spectrum(
            [(F(rng.randint(-40, 40), rng.randint(1, 24)), rng.randint(-3, 3)) for _ in range(4)]
        )

    for _ in range(60):
        x, y, z = rand(), rand(), rand()
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * Spectrum.one() == x


def _fraction_product(x, y):
    """The product of two spectra summed over Fraction exponents, zeros dropped."""
    out = {}
    for a, m in x.terms():
        for b, n in y.terms():
            out[a + b] = out.get(a + b, 0) + m * n
    return {e: m for e, m in out.items() if m}


def test_product_matches_fraction_exponents():
    rng = random.Random(23)

    def rand():
        terms = []
        for _ in range(rng.randint(0, 8)):
            # Small denominators make sums collide, and some cancel to zero.
            den = rng.choice((1, 2, 3, 6, rng.randint(1, 60)))
            terms.append((F(rng.randint(-den, den), den), rng.choice((-1, 1, -1, 1, 2))))
        return Spectrum(terms)

    cancelled = 0
    for _ in range(400):
        x, y = rand(), rand()
        want = _fraction_product(x, y)
        got = x * y
        assert dict(got.terms()) == want
        # Equal term maps: every stored key is the reduced pair.
        assert got == Spectrum(list(want.items()))
        cancelled += len({a + b for a, _m in x.terms() for b, _n in y.terms()}) - len(want)
    assert cancelled > 30


def test_product_with_scalars_and_other_types():
    s = 3 * t(F(1, 2)) - t(F(-2, 3)) + t(4)
    assert s * 1 == s == 1 * s
    assert s * 0 == Spectrum.zero() and not s * 0
    assert 2 * s == s + s == s * 2
    with pytest.raises(ValueError, match="is not an integer"):
        s * True
    with pytest.raises(TypeError):
        s * 1.5
    with pytest.raises(TypeError):
        s * MonodromicClass.unit(1)
    with pytest.raises(TypeError):
        MonodromicClass.unit(1) * s
    with pytest.raises(TypeError):
        s * BiSpectrum.one()


def test_spectrum_equals_ints_but_not_bools_and_hashes_as_them():
    for n in (-2, 0, 1, 5):
        x = Spectrum.monomial(0, n)
        assert x == n and hash(x) == hash(n) and n in {x} and x in {n}
    assert Spectrum.one() != True and Spectrum.zero() != False  # noqa: E712
    assert True not in {Spectrum.one()} and {Spectrum.one(): 0}.get(1) == 0
    # Neither does a non-constant spectrum equal an int.
    assert t(1) != 1 and t(F(1, 2)) != 0 and 2 * t(0) + t(1) != 2


def test_zero_plus_any_ring_element_is_that_element():
    rings = [
        3 * t(F(1, 2)) - t(-1),
        b(F(1, 3), F(1, 2), 2) - BiSpectrum.one(),
        MonodromicClass.monomial(1, (F(1, 4),), 1, 0, -2),
        TruncatedPoly(1, {0: MonodromicClass.unit(1), 3: MonodromicClass.lefschetz(1)}),
        RationalSeries.generator(-1, 2, 1) + RationalSeries.constant(MonodromicClass.unit(1)),
    ]
    for x in rings:
        assert 0 + x is x and sum([x, x]) == x + x, x
        for other in (1, True, 0.0):
            with pytest.raises(TypeError):
                other + x


def test_render_format():
    assert (t(F(5, 6)) + t(F(7, 6))).render() == "t^(5/6) + t^(7/6)"
    assert Spectrum.zero().render() == "0"
    assert (2 * t(F(4, 3))).render() == "2*t^(4/3)"
    assert (Spectrum.one() - 2 * t(F(1, 2))).render() == "t^(0) - 2*t^(1/2)"
    assert (-t(F(1, 2)) + t(2)).render() == "-t^(1/2) + t^(2)"
    assert t(F(-1, 2)).render() == "t^(-1/2)"


def test_bispectrum_render():
    x = b(F(1, 2), F(1, 3), -1) - 2 * b(0, 0, 0)
    assert x.render() == "-2*t^(0)*u^(0)*v^(0) + t^(1/2)*u^(1/3)*v^(-1)"


# ---------------------------------------------------------------------------
# terms() and render() sort stored pairs on integer ranks; the reference
# below sorts the Fraction view of the keys with Fraction comparisons.
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)
DENS = st.integers(1, 60)
RESIDUES = DENS.flatmap(lambda d: st.integers(0, d - 1).map(lambda n: F(n, d)))
RATIONALS = st.builds(F, st.integers(-240, 240), DENS)
MULTS = st.integers(-3, 3)


def _sign_rule(items, mono):
    """Reference text of sorted (key, mult) items, written apart from the
    library: `m*x` terms with `1*` omitted, a `-` on a negative first term,
    the others joined with ` + ` / ` - `."""
    text = ""
    for i, (key, mult) in enumerate(items):
        body = mono(key) if abs(mult) == 1 else f"{abs(mult)}*{mono(key)}"
        if i == 0:
            text = body if mult > 0 else f"-{body}"
        else:
            text += (" + " if mult > 0 else " - ") + body
    return text or "0"


def _fraction_sorted(x, view):
    """The stored terms in their Fraction view, sorted on it.  Every
    rational slot of every key must be an int numerator over the least
    denominator ``den``."""
    if isinstance(x, Spectrum):
        nums = list(x._terms)
    elif isinstance(x, BiSpectrum):
        nums = [n for a, b, _c in x._terms for n in (a, b)]
    else:
        nums = [n for evs, _p, _q in x._terms for n in evs]
    assert all(type(n) is int for n in nums) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *nums) == 1, x
    return tuple(sorted(((view(key), m) for key, m in x._terms.items()), key=itemgetter(0)))


def _pool(data, values):
    # Keys drawn from a few values per slot often share a slot and differ
    # only in a later one.
    return st.sampled_from(data.draw(st.lists(values, min_size=1, max_size=5)))


# Denominators of one prime per slot: each slot's lcm then differs from the
# others' and from the one common denominator the whole map is stored over.
SLOT_DENS = ((2, 4, 8), (3, 9), (5, 25))


def _slot_pool(data, slot):
    """A pool of residues for one key slot: of any denominator, or of that
    slot's own ``SLOT_DENS``."""
    if not data.draw(st.booleans()):
        return _pool(data, RESIDUES)
    dens = st.sampled_from(SLOT_DENS[slot])
    return _pool(data, dens.flatmap(lambda d: st.integers(0, d - 1).map(lambda n: F(n, d))))


@PROPERTY
@given(st.lists(st.tuples(RATIONALS, MULTS), max_size=40))
def test_spectrum_sorts_like_fractions(terms):
    x = Spectrum(terms)
    ref = _fraction_sorted(x, lambda n: F(n, x.den))
    assert x.terms() == ref
    assert x.render() == _sign_rule(ref, lambda e: f"t^({e})")


@PROPERTY
@given(st.data())
def test_bispectrum_sorts_like_fractions(data):
    a, b = _slot_pool(data, 0), _slot_pool(data, 1)
    x = BiSpectrum(data.draw(st.lists(st.tuples(st.tuples(a, b, st.integers(-9, 9)), MULTS), max_size=40)))
    ref = _fraction_sorted(x, lambda k: (F(k[0], x.den), F(k[1], x.den), k[2]))
    assert x.terms() == ref
    assert x.render() == _sign_rule(ref, lambda k: f"t^({k[0]})*u^({k[1]})*v^({k[2]})")


@PROPERTY
@given(st.data())
def test_class_sorts_like_fractions(data):
    arity = data.draw(st.integers(1, 3))
    evs = st.tuples(*[_slot_pool(data, slot) for slot in range(arity)])
    p, q = _pool(data, st.integers(-9, 9)), st.integers(-9, 9)
    x = MonodromicClass(arity, data.draw(st.lists(st.tuples(st.tuples(evs, p, q), MULTS), max_size=40)))
    ref = _fraction_sorted(x, lambda k: (tuple(F(e, x.den) for e in k[0]), k[1], k[2]))
    assert x.terms() == ref
    assert x.render() == _sign_rule(
        ref, lambda k: f"({','.join(map(str, k[0]))};{k[1]},{k[2]})"
    )


_UNIT0 = MonodromicClass.unit(0)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: Spectrum([(0.1, 1)]), id="spectrum-float-exponent"),
        pytest.param(lambda: Spectrum([(True, 1)]), id="spectrum-bool-exponent"),
        pytest.param(lambda: Spectrum([(0, 1.7)]), id="spectrum-float-mult"),
        pytest.param(lambda: Spectrum([(0, True)]), id="spectrum-bool-mult"),
        pytest.param(lambda: Spectrum([(0, F(1, 2))]), id="spectrum-half-mult"),
        pytest.param(lambda: Spectrum.one().coefficient(0.5), id="spectrum-coefficient"),
        pytest.param(lambda: BiSpectrum([((0.5, 0, 0), 1)]), id="bispectrum-float-residue"),
        pytest.param(lambda: BiSpectrum([((0, 0, 1.5), 1)]), id="bispectrum-float-c"),
        pytest.param(lambda: BiSpectrum([((0, 0, 0), "1")]), id="bispectrum-str-mult"),
        pytest.param(lambda: BiSpectrum.one().coefficient(0, 0, 0.0), id="bispectrum-coefficient"),
        pytest.param(lambda: MonodromicClass(1, [(((0.25,), 0, 0), 1)]), id="class-float-residue"),
        pytest.param(lambda: MonodromicClass(1, [(((0,), 1.5, 0), 1)]), id="class-float-p"),
        pytest.param(lambda: MonodromicClass(1, [(((0,), 0, F(1, 2)), 1)]), id="class-half-q"),
        pytest.param(lambda: MonodromicClass(0, [(((), 0, 0), 2.0)]), id="class-float-mult"),
        pytest.param(lambda: MonodromicClass.unit(1).coefficient((0,), True, 0), id="class-coefficient"),
        pytest.param(lambda: RationalSeries(0, [(((1.5, 1),), _UNIT0)]), id="series-float-e"),
        pytest.param(lambda: RationalSeries(0, [(((-1, True),), _UNIT0)]), id="series-bool-j"),
        pytest.param(lambda: TruncatedPoly(0, [(1.0, _UNIT0)]), id="poly-float-degree"),
        pytest.param(lambda: TruncatedPoly.zero(0).coefficient(F(3, 2)), id="poly-coefficient"),
        pytest.param(lambda: frac(0.5), id="frac-float"),
        pytest.param(lambda: frac((1, 2.0)), id="frac-float-den"),
        pytest.param(lambda: frac(True), id="frac-bool"),
        pytest.param(lambda: mod1(0.25), id="mod1-float"),
        pytest.param(lambda: Spectrum.monomial(0).scale(0.5), id="spectrum-scale-float"),
        pytest.param(lambda: Spectrum.monomial(0).scale(True), id="spectrum-scale-bool"),
        pytest.param(lambda: Spectrum.monomial(0).scale(F(2)), id="spectrum-scale-fraction"),
        pytest.param(lambda: BiSpectrum.one().scale(2.0), id="bispectrum-scale-float"),
        pytest.param(lambda: MonodromicClass.unit(1).scale(1.5), id="class-scale-float"),
        pytest.param(lambda: MonodromicClass.unit(1) * True, id="class-times-bool"),
        pytest.param(lambda: TruncatedPoly.zero(0).scale(False), id="poly-scale-bool"),
        pytest.param(lambda: RationalSeries.constant(_UNIT0).scale(1.5), id="series-scale-float"),
        pytest.param(lambda: RationalSeries.constant(_UNIT0).scale(Spectrum.one()), id="series-scale-spectrum"),
    ],
)
def test_ring_constructors_refuse_floats_and_truncation(make):
    with pytest.raises(ValueError, match="is not an (integer|exact rational)"):
        make()


@pytest.mark.parametrize(
    "build, lookup",
    [
        pytest.param(
            lambda: Spectrum([(0.5, 1)]), lambda: Spectrum.one().coefficient(0.5),
            id="spectrum-float-exponent",
        ),
        pytest.param(
            lambda: BiSpectrum([((0, 0, True), 1)]), lambda: BiSpectrum.one().coefficient(0, 0, True),
            id="bispectrum-bool-v-degree",
        ),
        pytest.param(
            lambda: MonodromicClass(1, [(((0,), 1.5, 0), 1)]),
            lambda: MonodromicClass.unit(1).coefficient((0,), 1.5, 0),
            id="class-float-p",
        ),
        pytest.param(
            lambda: MonodromicClass(1, [(((0,), 0, True), 1)]),
            lambda: MonodromicClass.unit(1).coefficient((0,), 0, True),
            id="class-bool-q",
        ),
        pytest.param(
            lambda: MonodromicClass(1, [(((0, 0), 0, 0), 1)]),
            lambda: MonodromicClass.unit(1).coefficient((0, 0), 0, 0),
            id="class-wrong-length-eigenvalues",
        ),
        pytest.param(
            lambda: TruncatedPoly(0, [(-1, _UNIT0)]), lambda: TruncatedPoly.zero(0).coefficient(-1),
            id="poly-negative-degree",
        ),
    ],
)
def test_coefficient_refuses_what_the_constructor_refuses(build, lookup):
    with pytest.raises(ValueError) as built:
        build()
    with pytest.raises(ValueError) as looked_up:
        lookup()
    assert str(looked_up.value) == str(built.value)


def test_ring_constructors_take_exact_integral_values():
    assert Spectrum([(F(1, 10), F(2))]) == Spectrum([("1/10", 2)]) == 2 * Spectrum.monomial((1, 10))
    assert MonodromicClass(1, [(((F(1, 2),), F(1), 0), 1)]) == MonodromicClass.monomial(1, ((1, 2),), 1, 0)
    assert TruncatedPoly(0, [(F(2), _UNIT0)]).degrees() == [2]


@PROPERTY
@given(st.integers(-40, 40), st.integers(1, 30), st.integers(1, 4))
def test_int_pairs_enter_in_lowest_terms(n, d, k):
    # (k n, k d) is read as n / d reduced, as a Fraction and a str are, and
    # as a residue mod 1 in the residue rings, in every ring constructor.
    x = F(n, d)
    for raw in ((k * n, k * d), (n, d)):
        assert _pair(raw) == (x.numerator, x.denominator)
        assert _pair(raw, residue=True) == ((x % 1).numerator, (x % 1).denominator)
        assert Spectrum([(raw, 1)]) == Spectrum.monomial(x) == Spectrum([(str(x), 1)])
        assert Spectrum([(raw, 1)]).den == x.denominator
        assert BiSpectrum([((raw, raw, 0), 1)]) == BiSpectrum.monomial(x % 1, x % 1, 0)
        c = MonodromicClass(2, [(((raw, 0), 0, 0), 1)])
        assert c == MonodromicClass.monomial(2, (x % 1, 0), 0, 0) and c.den == (x % 1).denominator


def test_every_ring_sits_on_one_inheritance_line():
    rings = [
        obj for module in (spectra, monclass, series) for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and issubclass(obj, spectra._SparseMap)
    ]
    core = (spectra._SparseMap, spectra._ArityMap, series._SeriesMap)
    leaves = (Spectrum, BiSpectrum, MonodromicClass, TruncatedPoly, RationalSeries)
    assert set(rings) == {*core, *leaves}, rings
    for cls in rings:
        assert len(cls.__bases__) == 1, cls
        # The trusted constructor and its wrap are written on the core alone.
        for name in ("_trusted", "_like"):
            assert name not in vars(cls) or cls in core[:2], (cls, name)
        # Sums, products and the term list are written on the first alone.
        for name in ("__add__", "__mul__", "terms"):
            assert name not in vars(cls) or cls is core[0], (cls, name)
    for cls in leaves:
        assert cls.__slots__ == (), cls
    # bench/workloads/identities.py::_witness tells a class from a spectrum
    # by hasattr(obj, "arity"): no spectrum may carry one.
    for x in (Spectrum.one(), Spectrum.zero(), BiSpectrum.one(), t(F(1, 2)) * t(F(1, 3))):
        assert not hasattr(x, "arity"), x
    assert MonodromicClass.unit(1).arity == 1
