"""Results built with the trusted constructor hold canonical keys.

Ring operations and the morphisms between rings wrap their term dicts
without re-normalising them.  A non-canonical key (a residue outside
[0, 1), an unreduced (num, den) pair, a Fraction where a pair belongs)
would silently break equality, so every such result is rebuilt through its
public constructor here and must come back with the same term map.

The property tests at the end recompute every pair-keyed operation with
plain ``Fraction`` arithmetic on ``terms()`` and compare the two.
"""

import random
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hodgespec.cones import GE, GT, Cone, lattice_series
from hodgespec.convolution import collapse_pair, convolve, power_pushforward
from hodgespec.monclass import (
    MonodromicClass as MC,
    box,
    embed,
    hodge_spectrum,
    hodge_spectrum2,
    torus_fiber_class,
)
from hodgespec.series import RationalSeries as RS, TruncatedPoly as TP
from hodgespec.spectra import BiSpectrum, Spectrum, fold_bispectrum, geometric_factor, steenbrink_rhs
from hodgespec.workbench import one_variable_vanishing


def _rational(x):
    """A reduced key pair: int num and den, den > 0, gcd(num, den) == 1."""
    return (
        type(x) is tuple and len(x) == 2 and type(x[0]) is int and type(x[1]) is int
        and x[1] > 0 and gcd(*x) == 1
    )


def _residue(x):
    return _rational(x) and 0 <= x[0] < x[1]


def _canonical_key(obj, key):
    if isinstance(obj, Spectrum):
        return _rational(key)
    if isinstance(obj, BiSpectrum):
        a, b, c = key
        return _residue(a) and _residue(b) and type(c) is int
    if isinstance(obj, MC):
        evs, p, q = key
        return (
            len(evs) == obj.arity and all(map(_residue, evs))
            and type(p) is int and type(q) is int
        )
    if isinstance(obj, TP):
        return type(key) is int and key >= 0
    return key == tuple(sorted(key)) and all(
        type(e) is int and type(j) is int and j >= 1 for e, j in key
    )


def _rebuild(obj):
    if isinstance(obj, (Spectrum, BiSpectrum)):
        return type(obj)(obj.terms())
    return type(obj)(obj.arity, obj.terms())


def assert_canonical(obj):
    assert obj._terms == _rebuild(obj)._terms, obj
    for key, coef in obj._terms.items():
        assert _canonical_key(obj, key), (obj, key)
        assert coef
        if isinstance(coef, MC):
            assert coef.arity == obj.arity
            assert_canonical(coef)
        else:
            assert type(coef) is int


def test_trusted_results_are_canonical():
    rng = random.Random(11)

    def res():
        den = rng.randint(1, 8)
        return F(rng.randrange(den), den)

    def rand_class(arity, nterms=4):
        return MC(arity, [
            ((tuple(res() for _ in range(arity)), rng.randint(-2, 2), rng.randint(-2, 2)),
             rng.randint(-3, 3))
            for _ in range(nterms)
        ])

    def rand_spectrum():
        return Spectrum([(F(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(-2, 2)) for _ in range(4)])

    def rand_bispectrum():
        return BiSpectrum([((res(), res(), rng.randint(-2, 2)), rng.randint(-2, 2)) for _ in range(4)])

    def rand_series(arity):
        return RS(arity, [
            (tuple((rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))),
             rand_class(arity, 2))
            for _ in range(3)
        ])

    def ring_ops(x, y, scalars):
        yield from (x + y, x - y, -x, x * y)
        for k in scalars:
            yield from (x * k, k * x, x.scale(k))

    for _ in range(10):
        k = rng.randint(-3, 3)
        for x, y in ((rand_spectrum(), rand_spectrum()), (rand_bispectrum(), rand_bispectrum())):
            for obj in ring_ops(x, y, (k,)):
                assert_canonical(obj)
        for arity in (0, 1, 2, 3):
            x, y = rand_class(arity), rand_class(arity)
            for obj in (*ring_ops(x, y, (k,)), x ** 2, box(x, y)):
                assert_canonical(obj)
            a, b = rand_series(arity), rand_series(arity)
            n = rng.randint(0, 6)
            pa, pb = a.expand(n), b.expand(n)
            for obj in (*ring_ops(a, b, (k, rand_class(arity, 2))), pa, pb,
                        *ring_ops(pa, pb, (k,)), pa.mul_truncated(pb, n)):
                assert_canonical(obj)
            if arity:
                slot = rng.randint(1, arity)
                assert_canonical(embed(x, arity + 1, [s + (s >= slot) for s in range(1, arity + 1)]))
                assert_canonical(power_pushforward(x, slot, rng.randint(1, 4)))
            if arity >= 2:
                i = rng.randint(1, arity - 1)
                assert_canonical(collapse_pair(x, (i, rng.randint(i + 1, arity))))
        x1, x2 = rand_class(1), rand_class(2)
        assert_canonical(hodge_spectrum(x1))
        assert_canonical(hodge_spectrum2(x2))
        assert_canonical(fold_bispectrum(hodge_spectrum2(x2), rng.randint(1, 4)))
        assert_canonical(geometric_factor(rng.randint(1, 9)))
        rows = [[rng.randint(1, 6) for _ in range(3)]]
        if rng.random() < 0.5:
            rows.append([rng.randint(0, 4) for _ in range(3)])
        try:
            fiber = torus_fiber_class(rows)
        except ValueError:  # rank-deficient draw
            continue
        assert_canonical(fiber)

    cone = Cone(2, (((1, -1), GE), ((2, 1), GT)))
    assert_canonical(lattice_series(cone, (1, 2), (1, 1), 12))


# ---------------------------------------------------------------------------
# Pair keys against Fraction arithmetic.
# ---------------------------------------------------------------------------
#
# The oracle works on ``terms()`` (Fraction keys) with plain Fraction key
# arithmetic; ``_collapse_key`` below is the collapse table in Fractions.


def _collapse_key(a, b):
    if a == 0 and b == 0:
        return F(0), 0, 0
    if b == 0:
        return a, 0, 0
    if a == 0:
        return b, 0, 0
    s = a + b
    if s == 1:
        return F(0), 1, 1
    if s < 1:
        return s, 0, 1
    return s - 1, 1, 0


def _add_mod1(a, b):
    s = a + b
    return s - 1 if s >= 1 else s


def _ref(pairs):
    """Term map of (key, coefficient) pairs, like keys summed, zeros dropped."""
    out = {}
    for key, coef in pairs:
        out[key] = out.get(key, 0) + coef
    return {k: c for k, c in out.items() if c}


def _ref_mul(x, y, key_mul):
    return _ref((key_mul(k1, k2), c1 * c2) for k1, c1 in x.terms() for k2, c2 in y.terms())


def _same(obj, ref):
    """obj holds canonical keys and its sorted terms() equal the oracle's."""
    assert_canonical(obj)
    assert obj.terms() == tuple(sorted(ref.items()))


PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)
DENS = st.integers(1, 60)
RESIDUES = DENS.flatmap(lambda d: st.integers(0, d - 1).map(lambda n: F(n, d)))
RATIONALS = st.builds(F, st.integers(-180, 180), DENS)
SMALL = st.integers(-3, 3)


def _eigentuples(arity):
    plain = st.tuples(*[RESIDUES] * arity)
    if arity < 2:
        return plain
    # Often make slots 1 and 2 sum to 1: the (0, 1, 1) row of the collapse
    # table needs a + b == 1 exactly.
    return st.one_of(plain, plain.map(lambda e: (e[0], (1 - e[0]) % 1) + e[2:]))


def _classes(arity):
    term = st.tuples(st.tuples(_eigentuples(arity), SMALL, SMALL), SMALL)
    return st.lists(term, max_size=8).map(lambda terms: MC(arity, terms))


SPECTRA = st.lists(st.tuples(RATIONALS, SMALL), max_size=8).map(Spectrum)
BISPECTRA = st.lists(st.tuples(st.tuples(RESIDUES, RESIDUES, SMALL), SMALL), max_size=8).map(BiSpectrum)


@PROPERTY
@given(SPECTRA, SPECTRA)
def test_spectrum_pair_keys_match_fractions(x, y):
    _same(x + y, _ref((*x.terms(), *y.terms())))
    _same(x * y, _ref_mul(x, y, lambda a, b: a + b))


@PROPERTY
@given(BISPECTRA, BISPECTRA, st.integers(1, 6))
def test_bispectrum_pair_keys_match_fractions(x, y, N):
    _same(x + y, _ref((*x.terms(), *y.terms())))
    _same(x * y, _ref_mul(
        x, y, lambda k1, k2: (_add_mod1(k1[0], k2[0]), _add_mod1(k1[1], k2[1]), k1[2] + k2[2])
    ))
    _same(fold_bispectrum(x, N), _ref((a + b / N + c, m) for (a, b, c), m in x.terms()))


@PROPERTY
@given(st.integers(0, 3).flatmap(lambda k: st.tuples(_classes(k), _classes(k))))
def test_class_ring_pair_keys_match_fractions(xy):
    x, y = xy
    _same(x + y, _ref((*x.terms(), *y.terms())))
    _same(x * y, _ref_mul(x, y, lambda k1, k2: (
        tuple(map(_add_mod1, k1[0], k2[0])), k1[1] + k2[1], k1[2] + k2[2]
    )))
    _same(box(x, y), _ref_mul(x, y, lambda k1, k2: (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])))


@PROPERTY
@given(st.data())
def test_collapse_and_pushforward_pair_keys_match_fractions(data):
    arity = data.draw(st.integers(2, 3))
    x = data.draw(_classes(arity))
    i = data.draw(st.integers(1, arity - 1))
    j = data.draw(st.integers(i + 1, arity))

    def collapsed(evs, p, q):
        new, dp, dq = _collapse_key(evs[i - 1], evs[j - 1])
        return evs[: i - 1] + (new,) + evs[i: j - 1] + evs[j:], p + dp, q + dq

    _same(collapse_pair(x, (i, j)), _ref((collapsed(*key), m) for key, m in x.terms()))

    slot, N = data.draw(st.integers(1, arity)), data.draw(st.integers(1, 5))
    _same(power_pushforward(x, slot, N), _ref(
        ((evs[: slot - 1] + ((evs[slot - 1] + k) / N,) + evs[slot:], p, q), m)
        for (evs, p, q), m in x.terms()
        for k in range(N)
    ))


@PROPERTY
@given(_classes(1), _classes(2), st.integers(1, 6))
def test_hodge_spectra_pair_keys_match_fractions(x1, x2, N):
    _same(hodge_spectrum(x1), _ref((a + p, m) for ((a,), p, _q), m in x1.terms()))
    two = hodge_spectrum2(x2)
    _same(two, _ref(((a, b, p), m) for ((a, b), p, _q), m in x2.terms()))
    _same(fold_bispectrum(two, N), _ref((a + b / N + p, m) for ((a, b), p, _q), m in x2.terms()))


# Residues over a few small denominators collide often, so the products of
# these classes cancel, in the middle of a fold as well as at its end.
FEW_RESIDUES = st.sampled_from((1, 2, 3, 4, 6)).flatmap(
    lambda d: st.integers(0, d - 1).map(lambda n: F(n, d))
)
CONV_CLASSES = st.one_of(*(
    st.lists(st.tuples(st.tuples(st.tuples(res), SMALL, SMALL), SMALL), max_size=8).map(
        lambda terms: MC(1, terms)
    )
    for res in (RESIDUES, FEW_RESIDUES)
))


def _ref_convolve(classes):
    """Left fold of collapse(box(x, y)) on Fraction keys, through the
    Fraction collapse table."""
    acc = _ref(classes[0].terms())
    for y in classes[1:]:
        acc = _ref(
            (((new,), p1 + p2 + dp, q1 + q2 + dq), m1 * m2)
            for ((a,), p1, q1), m1 in acc.items()
            for ((b,), p2, q2), m2 in y.terms()
            for new, dp, dq in [_collapse_key(a, b)]
        )
    return acc


@PROPERTY
@given(st.lists(CONV_CLASSES, min_size=1, max_size=4))
def test_nary_convolve_matches_the_folded_collapse_table(classes):
    got = convolve(*classes)
    _same(got, _ref_convolve(classes))
    assert got == reduce(lambda x, y: collapse_pair(box(x, y)), classes)


def test_convolve_drops_cancelled_terms():
    third, two_thirds = MC.monomial(1, (F(1, 3),), 0, 0), MC.monomial(1, (F(2, 3),), 0, 0)
    x, y = third + two_thirds, two_thirds - third
    # (1/3, 2/3) and (2/3, 1/3) both give (0; 1, 1), with opposite signs.
    expected = MC.monomial(1, (F(1, 3),), 1, 0) - MC.monomial(1, (F(2, 3),), 0, 1)
    assert convolve(x, y)._terms == expected._terms
    z = MC.monomial(1, (F(1, 2),), -1, 2) + MC.unit(1)
    assert_canonical(convolve(x, y, z))
    assert convolve(x, y, z) == convolve(expected, z)


@pytest.mark.parametrize(
    "classes",
    [(), (MC.unit(2),), (MC.unit(1), MC.unit(2)), (MC.unit(1), MC.unit(0), MC.unit(1))],
    ids=["none", "arity-2", "arity-1-and-2", "arity-0-in-the-middle"],
)
def test_convolve_refuses_no_class_and_other_arities(classes):
    with pytest.raises(ValueError, match="convolve"):
        convolve(*classes)


@pytest.mark.parametrize("a", [True, 3.0, F(7, 2), "3"])
def test_one_variable_vanishing_refuses_non_integer_exponents(a):
    with pytest.raises(ValueError, match="exponent"):
        one_variable_vanishing(a)


_X2 = MC.monomial(2, (F(1, 2), F(1, 3)), 0, 0)


@pytest.mark.parametrize("value", [True, 2.0, F(3, 2)], ids=["bool", "float", "fraction"])
@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda v: power_pushforward(_X2, v, 2), "slot", id="pushforward-slot"),
        pytest.param(lambda v: power_pushforward(_X2, 1, v), "N", id="pushforward-N"),
        pytest.param(lambda v: fold_bispectrum(BiSpectrum.one(), v), "N", id="fold-N"),
        pytest.param(geometric_factor, "m", id="geometric-m"),
        pytest.param(lambda v: steenbrink_rhs([(0, 0)], v, 2), "m", id="steenbrink-m"),
        pytest.param(lambda v: steenbrink_rhs([(0, 0)], 2, v), "N", id="steenbrink-N"),
        pytest.param(MC, "arity", id="class-arity"),
        pytest.param(MC.unit, "arity", id="class-unit-arity"),
        pytest.param(MC.lefschetz, "arity", id="class-lefschetz-arity"),
        pytest.param(TP, "arity", id="poly-arity"),
        pytest.param(RS, "arity", id="series-arity"),
    ],
)
def test_integer_parameters_are_strict(call, name, value):
    with pytest.raises(ValueError, match=f"^{name}: .* is not an integer$"):
        call(value)


@pytest.mark.parametrize("ring", [MC, TP, RS])
def test_negative_arity_is_refused(ring):
    with pytest.raises(ValueError, match="arity must be nonnegative"):
        ring(-1)
