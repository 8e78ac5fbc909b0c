import random
from fractions import Fraction as F

import pytest

from hodgespec import convolution
from hodgespec.convolution import collapse_pair, collapse_triple, convolve, power_pushforward
from hodgespec.monclass import MAX_TS_TERMS, MonodromicClass as MC, box, hodge_spectrum, hodge_spectrum2
from hodgespec.oracles import collapse_pair_bruteforce
from hodgespec.spectra import BiSpectrum, Spectrum, fold_bispectrum, geometric_factor

mono = MC.monomial
t = Spectrum.monomial


def rand_class(rng, arity, nterms=4):
    out = MC.zero(arity)
    for _ in range(rng.randint(1, nterms)):
        evs = []
        for _ in range(arity):
            den = rng.randint(1, 12)
            evs.append(F(rng.randint(0, den - 1), den))
        out = out + mono(arity, tuple(evs), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-2, 2))
    return out


def test_collapse_table_rows():
    # one row per case of the table
    assert collapse_pair(mono(2, (0, 0), 3, -2)) == mono(1, (0,), 3, -2)
    assert collapse_pair(mono(2, (F(2, 5), 0), 1, 1)) == mono(1, (F(2, 5),), 1, 1)
    assert collapse_pair(mono(2, (0, F(2, 5)), 1, 1)) == mono(1, (F(2, 5),), 1, 1)
    assert collapse_pair(mono(2, (F(1, 2), F(1, 2)), 0, 0)) == mono(1, (0,), 1, 1)
    assert collapse_pair(mono(2, (F(1, 3), F(1, 3)), 0, 0)) == mono(1, (F(2, 3),), 0, 1)
    assert collapse_pair(mono(2, (F(1, 2), F(2, 3)), 0, 0)) == mono(1, (F(1, 6),), 1, 0)


def test_collapse_table_vs_fermat_bruteforce_exhaustive():
    for n in range(2, 9):
        for i in range(n):
            for k in range(n):
                x = mono(2, (F(i, n), F(k, n)), 0, 0)
                assert collapse_pair(x) == collapse_pair_bruteforce(x), (n, i, k)


def test_collapse_vs_bruteforce_random():
    rng = random.Random(7)
    for _ in range(60):
        x = rand_class(rng, 2)
        assert collapse_pair(x) == collapse_pair_bruteforce(x)


def test_collapse_spectrum_identity():
    rng = random.Random(13)
    for _ in range(200):
        x = rand_class(rng, 2)
        assert hodge_spectrum(collapse_pair(x)) == fold_bispectrum(hodge_spectrum2(x))


def test_collapse_pair_slots():
    x = mono(3, (F(1, 2), F(1, 3), F(1, 4)), 0, 0)
    got = collapse_pair(x, (1, 3))
    assert got == mono(2, (F(3, 4), F(1, 3)), 0, 1)
    with pytest.raises(ValueError):
        collapse_pair(x, (2, 2))
    with pytest.raises(ValueError):
        collapse_pair(mono(1, (0,), 0, 0), (1, 2))


def test_convolve_unit_and_join():
    unit = MC.unit(1)
    half = mono(1, (F(1, 2),), 0, 0)
    third = mono(1, (F(1, 3),), 0, 0)
    assert convolve(half, unit) == half
    assert convolve(half, half) == mono(1, (0,), 1, 1)
    got = convolve(half, third) + convolve(half, mono(1, (F(2, 3),), 0, 0))
    assert got == mono(1, (F(5, 6),), 0, 1) + mono(1, (F(1, 6),), 1, 0)


def test_oversized_box_refuses_before_any_collapse(monkeypatch):
    calls = []
    table = convolution._collapse_int
    monkeypatch.setattr(convolution, "_collapse_int", lambda *args: calls.append(args) or table(*args))
    # 600 x 600 = 360,000 term pairs, past the budget; 600 x 416 = 249,600 is inside it.
    x = MC(1, [(((F(k, 601),), 0, 0), 1) for k in range(1, 601)])
    y = MC(1, [(((F(k, 417),), 0, 0), 1) for k in range(1, 417)])
    assert len(x._terms) * len(y._terms) <= MAX_TS_TERMS < len(x._terms) ** 2
    message = "^box of a 600-term and a 600-term class meets 360000 term pairs, more than MAX_TS_TERMS"
    for join in (lambda: box(x, x), lambda: convolve(x, x), lambda: convolve(x, x, y)):
        with pytest.raises(ValueError, match=message):
            join()
    assert calls == []
    assert len(box(x, y)._terms) == len(x._terms) * len(y._terms)
    # The table runs once per term pair of the one box that convolve builds.
    assert convolve(mono(1, (F(1, 2),), 0, 0), mono(1, (F(1, 2),), 0, 0)) == mono(1, (0,), 1, 1)
    assert calls == [(1, 1, 2)]


def test_pushforward_refuses_past_max_ts_terms():
    # A 1-term class: N = 250,000 terms is the budget, one more is past it.
    x = mono(2, (F(1, 3), F(1, 2)), 0, 0)
    assert len(power_pushforward(x, 2, 250_000)._terms) == 250_000 == MAX_TS_TERMS
    message = "^pushforward of a 1-term class along N = 250001 makes 250001 terms, more than MAX_TS_TERMS = 250000$"
    with pytest.raises(ValueError, match=message):
        power_pushforward(x, 2, 250_001)


def test_convolve_ring_laws():
    rng = random.Random(19)
    unit = MC.unit(1)
    for _ in range(100):
        x, y, z = rand_class(rng, 1), rand_class(rng, 1), rand_class(rng, 1)
        assert convolve(x, unit) == x
        assert convolve(x, y) == convolve(y, x)
        assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))
        assert hodge_spectrum(convolve(x, y)) == hodge_spectrum(x) * hodge_spectrum(y)


def test_collapse_triple_order_independent():
    rng = random.Random(29)
    for _ in range(100):
        x = rand_class(rng, 3)
        a = collapse_triple(x)
        assert a == collapse_pair(collapse_pair(x, (2, 3)), (1, 2))
        assert a == collapse_pair(collapse_pair(x, (1, 3)), (1, 2))


def test_collapse_triple_associativity_route():
    rng = random.Random(31)
    for _ in range(40):
        x, y, z = (rand_class(rng, 1, nterms=2) for _ in range(3))
        assert collapse_triple(box(x, box(y, z))) == convolve(x, convolve(y, z))
        assert collapse_triple(box(box(x, y), z)) == convolve(convolve(x, y), z)


def test_pushforward_examples():
    half = mono(1, (F(1, 2),), 0, 0)
    assert power_pushforward(half, 1, 2) == mono(1, (F(1, 4),), 0, 0) + mono(1, (F(3, 4),), 0, 0)
    zero = mono(1, (0,), 0, 0)
    assert power_pushforward(zero, 1, 3) == sum(
        (mono(1, (F(j, 3),), 0, 0) for j in range(1, 3)), zero
    )
    x = mono(1, (F(2, 5),), 1, -1, 3)
    assert power_pushforward(x, 1, 1) == x


def test_pushforward_spectrum_identity():
    rng = random.Random(37)

    def sub_u(bs, N):
        return BiSpectrum([((a, F(b, N), c), m) for (a, b, c), m in bs.terms()])

    for _ in range(100):
        x = rand_class(rng, 2)
        N = rng.randint(1, 6)
        lhs = hodge_spectrum2(power_pushforward(x, 2, N))
        geo_u = BiSpectrum([((0, F(j, N), 0), 1) for j in range(N)])
        assert lhs == geo_u * sub_u(hodge_spectrum2(x), N)


def test_collapse_of_pushforward_folds():
    rng = random.Random(41)
    for _ in range(60):
        x = rand_class(rng, 2)
        N = rng.randint(1, 6)
        lhs = hodge_spectrum(collapse_pair(power_pushforward(x, 2, N)))
        rhs = geometric_factor(N) * fold_bispectrum(hodge_spectrum2(x), N)
        assert lhs == rhs
