"""Results built with the trusted constructor hold canonical keys.

Ring operations, the morphisms between rings and the class producers wrap
their term dicts without re-normalising them.  A non-canonical key (a
residue outside [0, den), a Fraction or a (num, den) pair where an int
numerator belongs) or a ``den`` that is not the least common denominator
would silently break equality, so every such result is rebuilt through its
public constructor here and must come back with the same term map and
``den``.

The property tests at the end recompute every rational-keyed operation
with plain ``Fraction`` arithmetic on ``terms()`` and compare the two.
"""

import json
import random
from fractions import Fraction as F
from math import gcd, lcm
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from hodgespec.cones import GE, GT, Cone, lattice_series
from hodgespec.convolution import collapse_pair, convolve, power_pushforward
from hodgespec.lattice import SchemaError
from hodgespec.monclass import (
    MonodromicClass as MC,
    _render_classes,
    box,
    embed,
    hodge_spectrum,
    hodge_spectrum2,
    torus_fiber_class,
)
from hodgespec.oracles import p1_cover_class, root_of_unity_class, stratum_cover_class
from hodgespec.resolution import (
    Component,
    ResolutionDatum,
    Stratum,
    _class_from_json,
    iterated_nearby,
    jet_count_zeta,
    load_class,
    load_datum,
    nearby_cycles,
)
from hodgespec.series import RationalSeries as RS, TruncatedPoly as TP
from hodgespec.spectra import BiSpectrum, Spectrum, fold_bispectrum, geometric_factor, steenbrink_rhs
from hodgespec.workbench import (
    FIXTURE_DIR,
    fixtures,
    monomial_datum,
    one_variable_vanishing,
    product_joint_datum,
    steenbrink_check,
)


def _numerators(obj):
    """Every rational slot of every key of a spectrum, bispectrum or class."""
    if isinstance(obj, Spectrum):
        return list(obj._terms)
    if isinstance(obj, BiSpectrum):
        return [n for a, b, _c in obj._terms for n in (a, b)]
    return [n for evs, _p, _q in obj._terms for n in evs]


def _canonical_key(obj, key):
    """Rational slots are int numerators over obj.den, residues in [0, den)."""

    def residue(n):
        return type(n) is int and 0 <= n < obj.den

    if isinstance(obj, Spectrum):
        return type(key) is int
    if isinstance(obj, BiSpectrum):
        a, b, c = key
        return residue(a) and residue(b) and type(c) is int
    if isinstance(obj, MC):
        evs, p, q = key
        return (
            type(evs) is tuple and len(evs) == obj.arity and all(map(residue, evs))
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
    rebuilt = _rebuild(obj)
    assert obj._terms == rebuilt._terms, obj
    assert type(obj.den) is int and obj.den == rebuilt.den, obj
    if isinstance(obj, (Spectrum, BiSpectrum, MC)):
        # The least common denominator: 1 for zero and for arity 0.
        assert obj.den > 0 and gcd(obj.den, *_numerators(obj)) == 1, obj
        if not obj or getattr(obj, "arity", None) == 0:
            assert obj.den == 1, obj
    else:
        assert obj.den == 1, obj
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
        try:
            oracle = root_of_unity_class(rows)
        except ValueError:  # root order past the enumeration budget
            continue
        assert_canonical(oracle)

    def rand_orders(n, punctures):
        # Puncture orders summing to 0 (so to 0 mod n), often multiples of n.
        row = [rng.randint(-2, 2) * rng.choice((1, n)) for _ in range(punctures - 1)]
        return row + [-sum(row)]

    for _ in range(10):
        r, k = rng.randint(0, 2), rng.randint(2, 4)
        decks = [rng.randint(1, 6) for _ in range(r)]
        assert_canonical(p1_cover_class(decks, [rand_orders(n, k) for n in decks]))
        n = rng.randint(1, 8)
        assert_canonical(stratum_cover_class(n, [-m for m in rand_orders(n, k)]))
        assert_canonical(one_variable_vanishing(rng.randint(1, 9)))
        assert_canonical(jet_count_zeta([rng.randint(1, 4) for _ in range(rng.randint(1, 2))], 8))
        assert_canonical(nearby_cycles(monomial_datum([rng.randint(1, 4) for _ in range(2)])))
        assert_canonical(iterated_nearby(product_joint_datum(rng.randint(1, 4), rng.randint(1, 4))))
        # Two generator factors of different slopes, walked at length.
        a = RS(1, [(((-1, 1), (-2, 3)), rand_class(1)), (((0, 2),), rand_class(1, 2))])
        assert_canonical(a.expand(40))
    for fx in fixtures():
        assert_canonical(iterated_nearby(fx.datum) if fx.datum.arity == 2 else nearby_cycles(fx.datum))

    cone = Cone(2, (((1, -1), GE), ((2, 1), GT)))
    assert_canonical(lattice_series(cone, (1, 2), (1, 1), 12))


# ---------------------------------------------------------------------------
# Numerator keys against Fraction arithmetic.
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


def _pure(op, *operands):
    """op(*operands), checking that it left each operand's den and term map
    as they were: a kernel that writes into an operand's map fails here."""
    before = [(x.den, dict(x._terms)) for x in operands]
    out = op(*operands)
    assert [(x.den, x._terms) for x in operands] == before, op
    return out


def _doubled(x):
    return _ref((key, 2 * c) for key, c in x.terms())


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
    # Then aliased operands, and x times x + y: one factor over the
    # product's den as is, the other scaled.
    s = _pure(add, x, y)
    _same(s, _ref((*x.terms(), *y.terms())))
    _same(_pure(mul, x, y), _ref_mul(x, y, add))
    _same(_pure(add, x, x), _doubled(x))
    _same(_pure(sub, x, x), {})
    _same(_pure(mul, x, x), _ref_mul(x, x, add))
    _same(_pure(mul, x, s), _ref_mul(x, s, add))


@PROPERTY
@given(BISPECTRA, BISPECTRA, st.integers(1, 6))
def test_bispectrum_pair_keys_match_fractions(x, y, N):
    def key_mul(k1, k2):
        return _add_mod1(k1[0], k2[0]), _add_mod1(k1[1], k2[1]), k1[2] + k2[2]

    s = _pure(add, x, y)
    _same(s, _ref((*x.terms(), *y.terms())))
    _same(_pure(mul, x, y), _ref_mul(x, y, key_mul))
    _same(_pure(add, x, x), _doubled(x))
    _same(_pure(sub, x, x), {})
    _same(_pure(mul, x, x), _ref_mul(x, x, key_mul))
    _same(_pure(mul, x, s), _ref_mul(x, s, key_mul))
    _same(fold_bispectrum(x, N), _ref((a + b / N + c, m) for (a, b, c), m in x.terms()))


@PROPERTY
@given(st.integers(0, 3).flatmap(lambda k: st.tuples(_classes(k), _classes(k))))
def test_class_ring_pair_keys_match_fractions(xy):
    x, y = xy

    def key_mul(k1, k2):
        return tuple(map(_add_mod1, k1[0], k2[0])), k1[1] + k2[1], k1[2] + k2[2]

    def key_box(k1, k2):
        return k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2]

    s = _pure(add, x, y)
    _same(s, _ref((*x.terms(), *y.terms())))
    _same(_pure(mul, x, y), _ref_mul(x, y, key_mul))
    _same(_pure(box, x, y), _ref_mul(x, y, key_box))
    _same(_pure(add, x, x), _doubled(x))
    _same(_pure(sub, x, x), {})
    _same(_pure(mul, x, x), _ref_mul(x, x, key_mul))
    _same(_pure(box, x, x), _ref_mul(x, x, key_box))
    _same(_pure(mul, x, s), _ref_mul(x, s, key_mul))


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


def _same_spectrum(a, b):
    """a and b are canonical, equal and hash-equal, and each ``den`` is the
    lcm of the reduced denominators of its Fraction exponents."""
    for x in (a, b):
        assert_canonical(x)
        assert x.den == lcm(*(e.denominator for e, _m in x.terms())), x
    assert a == b and hash(a) == hash(b), (a, b)


def _dens(fracs):
    return lcm(*(f.denominator for f in fracs))


NOT_ONE = st.integers(-40, 40).filter(lambda n: n != 1)
NONZERO = SMALL.filter(bool)


@PROPERTY
@given(SPECTRA, st.integers(2, 6), st.lists(st.tuples(NOT_ONE, SMALL), max_size=5), NONZERO)
def test_spectrum_den_is_least_after_cancellation(x, k, extra, m):
    # y alone carries the largest denominator, big: x + y is over big, and
    # taking y away again must give x back over its own denominator.
    big = x.den * k
    u = Spectrum.monomial(F(1, big))
    y = u * m + Spectrum([(F(n, big), c) for n, c in extra])
    assert y.den == big
    s = x + y
    zero = Spectrum.zero()
    _same_spectrum(s - y, x)
    _same_spectrum(s + (-y), x)
    _same_spectrum(-(-s) - s, zero)
    _same_spectrum(-s + y, -x)
    _same_spectrum(s.scale(0), zero)
    _same_spectrum(s * 0, zero)
    # Exponent sums over big that reduce, and product terms that cancel.
    _same_spectrum(x * u * Spectrum.monomial(F(-1, big)), x)
    _same_spectrum(x * (Spectrum.one() + u) - x * u, x)
    _same_spectrum((Spectrum.one() + u) * (Spectrum.one() - u), Spectrum.one() - u * u)


@PROPERTY
@given(_classes(1), BISPECTRA, st.integers(2, 6), st.integers(1, 6), SMALL, NONZERO)
def test_morphisms_give_least_den_after_cancellation(x1, x2, k, N, c, m):
    # A pair of terms of a larger denominator than any other, whose images
    # cancel: hodge_spectrum drops q, and fold_bispectrum sends
    # (1/(big N), 0, c) and (0, 1/big, c) to the same exponent.
    big = k * _dens(e for (evs, _p, _q), _m in x1.terms() for e in evs)
    twin1 = MC(1, [(((F(1, big),), c, 0), m), (((F(1, big),), c, 1), -m)])
    _same_spectrum(hodge_spectrum(x1 + twin1), hodge_spectrum(x1))
    big = k * N * _dens(e for (a, b, _c), _m in x2.terms() for e in (a, b))
    twin2 = BiSpectrum([((F(1, big * N), 0, c), m), ((0, F(1, big), c), -m)])
    _same_spectrum(fold_bispectrum(x2 + twin2, N), fold_bispectrum(x2, N))
    _same_spectrum(fold_bispectrum(x2, N), Spectrum([(a + b / N + v, n) for (a, b, v), n in x2.terms()]))


@PROPERTY
@given(st.lists(st.tuples(RATIONALS, RESIDUES), max_size=4), st.integers(1, 6), st.integers(1, 6))
def test_steenbrink_rhs_den_is_least(pairs, m, N):
    # Shifts whose sums with i / (m N) reduce, reached by three routes.
    got = steenbrink_rhs(pairs, m, N)
    ref = Spectrum([(a + b / (m * N) + F(i, m * N), 1) for a, b in pairs for i in range(m * N)])
    _same_spectrum(got, ref)
    _same_spectrum(got, steenbrink_rhs(pairs, 1, m * N))


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
def test_nary_convolve_matches_the_fraction_collapse_table(classes):
    _same(convolve(*classes), _ref_convolve(classes))


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
_POLY = TP(0, {1: MC.unit(0), 2: MC.unit(0)})
_X2Y, _JOINT = monomial_datum((2, 1)), product_joint_datum(2, 1)


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
        pytest.param(
            lambda v: steenbrink_check(_X2Y, _X2Y, _JOINT, v),
            "N",
            id="steenbrink-check-N",
        ),
        pytest.param(MC, "arity", id="class-arity"),
        pytest.param(MC.unit, "arity", id="class-unit-arity"),
        pytest.param(MC.lefschetz, "arity", id="class-lefschetz-arity"),
        pytest.param(TP, "arity", id="poly-arity"),
        pytest.param(RS, "arity", id="series-arity"),
        pytest.param(RS.generator(-1, 2).expand, "n", id="series-expand-n"),
        pytest.param(lambda v: MC.unit(1) ** v, "exponent", id="class-power"),
        pytest.param(lambda v: _POLY.mul_truncated(_POLY, v), "bound", id="poly-mul-bound"),
    ],
)
def test_integer_parameters_are_strict(call, name, value):
    with pytest.raises(ValueError, match=f"^{name}: .* is not an integer$"):
        call(value)


def _datum(dimension=1, nf=0, ng=2, nu=1):
    return ResolutionDatum(
        dimension, True, ("g",), (Component("x", nf, ng, nu),), (Stratum(("x",), base=MC.unit(0)),)
    )


@pytest.mark.parametrize(
    "call, path, minimum",
    [
        pytest.param(lambda v: power_pushforward(_X2, 1, v), "N", 1, id="pushforward-N"),
        pytest.param(lambda v: fold_bispectrum(BiSpectrum.one(), v), "N", 1, id="fold-N"),
        pytest.param(geometric_factor, "m", 1, id="geometric-m"),
        pytest.param(lambda v: steenbrink_rhs([(0, 0)], v, 2), "m", 1, id="steenbrink-m"),
        pytest.param(lambda v: steenbrink_rhs([(0, 0)], 2, v), "N", 1, id="steenbrink-N"),
        pytest.param(
            lambda v: steenbrink_check(_X2Y, _X2Y, _JOINT, v),
            "N",
            1,
            id="steenbrink-check-N",
        ),
        pytest.param(MC, "arity", 0, id="class-arity"),
        pytest.param(MC.unit, "arity", 0, id="class-unit-arity"),
        pytest.param(MC.lefschetz, "arity", 0, id="class-lefschetz-arity"),
        pytest.param(TP, "arity", 0, id="poly-arity"),
        pytest.param(RS, "arity", 0, id="series-arity"),
        pytest.param(lambda v: TP(0, {v: MC.unit(0)}), "T-degree", 0, id="poly-degree"),
        pytest.param(lambda v: RS.generator(-1, v), "generator T-weight j", 1, id="series-weight"),
        pytest.param(RS.generator(-1, 2).expand, "n", 0, id="series-expand-n"),
        pytest.param(lambda v: MC.unit(1) ** v, "exponent", 0, id="class-power"),
        pytest.param(lambda v: _POLY.mul_truncated(_POLY, v), "bound", 0, id="poly-mul-bound"),
        pytest.param(one_variable_vanishing, "exponent", 1, id="one-variable-exponent"),
        pytest.param(lambda v: stratum_cover_class(v, ()), "multiplicity", 1, id="cover-multiplicity"),
        pytest.param(
            lambda v: p1_cover_class((v,), ([0, 0],)), "deck orders, coefficient 0", 1, id="p1-deck"
        ),
        pytest.param(lambda v: jet_count_zeta([2, v], 3), "exponents, coefficient 1", 1, id="jet-a"),
        pytest.param(lambda v: jet_count_zeta([2], v), "n_max", 0, id="jet-n-max"),
        pytest.param(Cone, "cone dimension", 0, id="cone-n"),
        pytest.param(lambda v: _datum(dimension=v), "dimension", 1, id="datum-dimension"),
        pytest.param(lambda v: _datum(nf=v), "components[0].Nf", 0, id="datum-Nf"),
        pytest.param(lambda v: _datum(ng=v), "components[0].Ng", 0, id="datum-Ng"),
        pytest.param(lambda v: _datum(nu=v), "components[0].nu", 1, id="datum-nu"),
    ],
)
def test_integer_parameters_below_their_bound_are_refused(call, path, minimum):
    with pytest.raises(SchemaError) as info:
        call(minimum - 1)
    assert info.value.path == path
    assert str(info.value) == f"{path}: {minimum - 1} is less than {minimum}"


@pytest.mark.parametrize("ring", [MC, TP, RS])
def test_negative_arity_is_refused(ring):
    with pytest.raises(SchemaError, match=r"^arity: -1 is less than 0$"):
        ring(-1)


# ---------------------------------------------------------------------------
# Products with a den-1 factor skip _lowest.
# ---------------------------------------------------------------------------
#
# A den-1 factor lies in the group ring of a torsion-free group, a domain,
# so its product keeps every residue of the other factor, and with it the
# other factor's den.  Each ring below gives its den-1 element of integer
# exponents {k: m} (the class rings put k at bidegree (k, k) or (k, 0)), a
# monomial of den 12, the Fraction key product and its strategy of draws.


def _class_ring(arity):
    def den1(powers):
        return MC(arity, [(((0,) * arity, k, k if k % 2 else 0), m) for k, m in powers])

    def key_mul(k1, k2):
        return tuple(map(_add_mod1, k1[0], k2[0])), k1[1] + k2[1], k1[2] + k2[2]

    u = MC.monomial(arity, (F(1, 12),) + (F(3, 4),) * (arity - 1), 0, 0)
    return den1, u, key_mul, _classes(arity)


_RINGS = {
    "spectrum": (
        lambda powers: Spectrum(powers), Spectrum.monomial(F(1, 12)), lambda a, b: a + b, SPECTRA,
    ),
    "bispectrum": (
        lambda powers: BiSpectrum([((0, 0, k), m) for k, m in powers]),
        BiSpectrum.monomial(F(1, 6), F(3, 4), 0),
        lambda k1, k2: (_add_mod1(k1[0], k2[0]), _add_mod1(k1[1], k2[1]), k1[2] + k2[2]),
        BISPECTRA,
    ),
    "class-1": _class_ring(1),
    "class-2": _class_ring(2),
}


def _den1_product(x, y, key_mul):
    """x * y for a den-1 y: the Fraction product, already least (``_lowest``
    changes nothing), over x.den unless it is zero."""
    assert y.den == 1
    got = x * y
    _same(got, _ref_mul(x, y, key_mul))
    assert type(got)._lowest(dict(got._terms), got.den) == (got._terms, got.den)
    assert got.den == (x.den if got else 1), (x, y, got)
    assert y * x == got
    return got


@pytest.mark.parametrize("ring", sorted(_RINGS))
def test_den1_factor_keeps_the_other_den(ring):
    den1, u, key_mul, _draws = _RINGS[ring]
    L, one, zero = den1([(1, 1)]), den1([(0, 1)]), den1([])
    x = (L + one) * u + u * u * u
    assert x.den == 12
    # (L - 1)(L + 1) cancels its cross terms; zero and one are den 1 too.
    for y in (L - one, L + one, den1([(2, 1), (0, -1)]), one, zero, den1([(-3, 2), (5, -1)])):
        _den1_product(x, y, key_mul)
    assert _den1_product((L + one) * u, L - one, key_mul) == (L * L - one) * u
    assert _den1_product(x, zero, key_mul) == zero
    # Both dens above 1: t^(1/2) * t^(1/2) is over den 1, so _lowest runs.
    half = u * u * u * u * u * u
    assert half.den == 2
    square = half * half
    assert_canonical(square)
    assert square.den == 1 and square == _ref_prod(half, half, key_mul)


def _ref_prod(x, y, key_mul):
    return type(x)(*([x.arity] if isinstance(x, MC) else []), _ref_mul(x, y, key_mul).items())


@PROPERTY
@given(st.data())
def test_den1_products_match_fractions(data):
    den1, _u, key_mul, draws = _RINGS[data.draw(st.sampled_from(sorted(_RINGS)))]
    x = data.draw(draws)
    y = den1(data.draw(st.lists(st.tuples(st.integers(-3, 3), SMALL), max_size=4)))
    _den1_product(x, y, key_mul)


# ---------------------------------------------------------------------------
# Loaded classes are canonical.
# ---------------------------------------------------------------------------
#
# The JSON reader puts a class's eigenvalues straight over one denominator;
# the generic constructor, fed the same entries as (num, den) pairs, is the
# reference.


def _same_as_generic(got, entries, arity):
    want = MC(arity, [((tuple(map(tuple, e[:arity])), e[arity], e[arity + 1]), e[arity + 2]) for e in entries])
    assert (got.arity, got.den, got._terms) == (arity, want.den, want._terms), entries
    assert_canonical(got)


def test_classes_loaded_from_files_are_canonical():
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(data, list):  # a class file
            _same_as_generic(load_class(str(path)), data, 1)
            continue
        datum = load_datum(str(path))
        for raw, st in zip(data["strata"], datum.strata, strict=True):
            if st.base is not None:
                _same_as_generic(st.base, raw["base_class"], 0)
            else:
                _same_as_generic(st.explicit, raw["cover"]["explicit"], datum.arity)
        if "zero_locus_nearby" in data:
            _same_as_generic(datum.zero_locus_nearby, data["zero_locus_nearby"], 1)


_EDGE_ENTRIES = [
    # (arity, entries, den and number of terms of the class)
    (1, [[[2, 4], 0, 0, 1]], 2, 1),                                     # not lowest
    (1, [[[-1, 3], 0, 0, 1], [[5, 3], 0, 0, 1]], 3, 1),                 # both 2/3: merge
    (2, [[[7, 6], [-4, 4], 1, 0, 2], [[1, 6], [0, 1], 1, 0, 1]], 6, 1),
    (1, [[[0, 1], 0, 0, 3], [[4, 1], 1, 1, -1], [[3, 1], 0, 0, -3]], 1, 1),  # den-1 pairs
    (1, [[[1, 6], 0, 0, 1], [[2, 12], 0, 0, -1], [[1, 2], 0, 0, 1]], 2, 1),  # 1/6 cancels
    (1, [[[1, 6], 0, 0, 1], [[7, 6], 0, 0, -1]], 1, 0),                 # cancels to zero
    (2, [[[1, 4], [3, 5], 0, 0, 2], [[-3, 4], [8, 5], 0, 0, -2]], 1, 0),
    (0, [[1, 1, 1], [1, 1, -1]], 1, 0),
    (1, [[[3, 5], 0, 0, 0]], 1, 0),                                     # mult 0
    (1, [], 1, 0),
]


@pytest.mark.parametrize("arity, entries, den, size", _EDGE_ENTRIES)
def test_loaded_edge_entries_are_canonical(arity, entries, den, size):
    got = _class_from_json(entries, arity, "x")
    _same_as_generic(got, entries, arity)
    assert (got.den, len(got._terms)) == (den, size)


def test_seeded_loaded_entries_are_canonical():
    rng = random.Random(33)
    for trial in range(200):
        arity = trial % 4
        entries = []
        for _ in range(rng.randint(0, 8)):
            d = rng.choice((1, 2, 3, 4, 6, 12))
            k = rng.choice((1, 1, 2, 3))  # a pair not in lowest terms
            evs = [[rng.randint(-2 * d, 2 * d) * k, d * k] for _ in range(arity)]
            entries.append([*evs, rng.randint(-1, 2), rng.randint(-1, 2), rng.choice((-2, -1, 1, 1, 3))])
        if entries and rng.random() < 0.3:
            # Duplicates: one cancels an entry, another merges with one.
            a, b = rng.choice(entries), rng.choice(entries)
            entries += [[*a[:-1], -a[-1]], [*b[:-1], b[-1]]]
        rng.shuffle(entries)
        got = _class_from_json(entries, arity, "x")
        _same_as_generic(got, entries, arity)


# ---------------------------------------------------------------------------
# The class printer against a reference from Fraction terms.
# ---------------------------------------------------------------------------


def _ref_render(x):
    """A class's text from ``terms()``: Fraction keys sorted as rationals,
    every sign and coefficient spelled out term by term."""
    text = ""
    for (evs, p, q), m in sorted(x.terms()):
        coef = "" if abs(m) == 1 else f"{abs(m)}*"
        sign = ("-" if m < 0 else "") if not text else (" - " if m < 0 else " + ")
        text += f"{sign}{coef}({','.join(map(str, evs))};{p},{q})"
    return text or "0"


def test_render_classes_matches_a_fraction_printer():
    rng = random.Random(34)
    half, third = MC.monomial(1, (F(1, 2),), 0, 0), MC.monomial(1, (F(1, 3),), 0, 0)
    # The stored tuple (1,) over den 2 and over den 3; and 1/2 over den 2
    # and, as (3,), over den 6.
    fixed = [half, third, half + third, MC.zero(1), -half * 5]
    assert half._terms.keys() == third._terms.keys()
    groups = [fixed]
    for trial in range(60):
        arity = trial % 4
        classes = []
        for _ in range(rng.randint(1, 6)):
            terms = [
                ((tuple(F(rng.randrange(d), d) for d in [rng.choice((1, 2, 3, 4, 5, 6))] for _ in range(arity)),
                  rng.randint(-2, 3), rng.randint(-2, 3)),
                 rng.choice((-12, -3, -2, -1, 1, 1, 2, 7)))
                for _ in range(rng.randint(0, 6))
            ]
            classes.append(MC(arity, terms))
        groups.append(classes)
    for classes in groups:
        want = [_ref_render(x) for x in classes]
        assert _render_classes(classes) == want
        assert [x.render() for x in classes] == want
    assert _render_classes([MC.zero(2)]) == ["0"]
