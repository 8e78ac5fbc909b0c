"""Results built with the trusted constructor hold canonical keys.

Ring operations and the morphisms between rings wrap their term dicts
without re-normalising them.  A non-canonical key (a residue outside
[0, 1), an int where a Fraction belongs) would silently break equality, so
every such result is rebuilt through its public constructor here and must
come back with the same term map.
"""

import random
from fractions import Fraction as F

from hodgespec.cones import GE, GT, Cone, lattice_series
from hodgespec.convolution import collapse_pair, power_pushforward
from hodgespec.monclass import (
    MonodromicClass as MC,
    box,
    embed,
    hodge_spectrum,
    hodge_spectrum2,
    torus_fiber_class,
)
from hodgespec.series import RationalSeries as RS, TruncatedPoly as TP
from hodgespec.spectra import BiSpectrum, Spectrum, fold_bispectrum, geometric_factor


def _residue(x):
    return type(x) is F and 0 <= x < 1


def _canonical_key(obj, key):
    if isinstance(obj, Spectrum):
        return type(key) is F
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
