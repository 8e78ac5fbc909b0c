import random
from fractions import Fraction as F

import pytest

from hodgespec.lattice import integer_kernel_basis, rational_rank, rational_solve
from hodgespec.monclass import (
    MonodromicClass as MC,
    box,
    embed,
    hodge_spectrum,
    hodge_spectrum2,
    torus_fiber_class,
)
from hodgespec.oracles import torus_fiber_bruteforce
from hodgespec.spectra import BiSpectrum, Spectrum

t = Spectrum.monomial
mono = MC.monomial


def test_eigenvalues_add_mod_one():
    half = mono(1, (F(1, 2),), 0, 0)
    assert half * half == MC.unit(1)


def test_lefschetz_inverse():
    assert MC.lefschetz(1) * MC.lefschetz(1, -1) == MC.unit(1)
    assert MC.lefschetz(2, 3) * MC.lefschetz(2, -3) == MC.unit(2)


def test_lefschetz_minus_one_square():
    L, u = MC.lefschetz(1), MC.unit(1)
    assert (L - u) ** 2 == MC.lefschetz(1, 2) - 2 * L + u


def test_arity_mismatch():
    with pytest.raises(ValueError):
        MC.unit(1) * MC.unit(2)
    with pytest.raises(ValueError):
        MC.unit(1) + MC.unit(2)
    assert MC.zero(1) != MC.zero(2)


def test_box_examples():
    x = mono(1, (F(1, 2),), 0, 0)
    y = mono(1, (F(1, 3),), 1, 1)
    assert box(x, y) == mono(2, (F(1, 2), F(1, 3)), 1, 1)
    assert box(x, MC.unit(1)) == mono(2, (F(1, 2), 0), 0, 0)
    L1, L2 = MC.lefschetz(1), MC.lefschetz(2)
    assert box(L1 * x, y) == L2 * box(x, y)


def test_hodge_spectrum_examples():
    assert hodge_spectrum(mono(1, (F(1, 2),), 0, 0)) == t(F(1, 2))
    assert hodge_spectrum(MC.lefschetz(1)) == t(1)
    x = mono(1, (F(1, 3),), 0, 0) + mono(1, (F(2, 3),), 0, 0)
    assert hodge_spectrum(x) == t(F(1, 3)) + t(F(2, 3))
    # q is dropped
    assert hodge_spectrum(mono(1, (F(1, 4),), 2, -7)) == t(F(9, 4))


def test_hodge_spectrum2_examples():
    assert hodge_spectrum2(mono(2, (F(1, 2), F(1, 2)), 0, 0)) == BiSpectrum.monomial(
        F(1, 2), F(1, 2), 0
    )
    assert hodge_spectrum2(mono(2, (0, 0), 1, 1)) == BiSpectrum.monomial(0, 0, 1)


def test_embed():
    x = mono(1, (F(1, 3),), 2, 1)
    assert embed(x, 2, (2,)) == mono(2, (0, F(1, 3)), 2, 1)
    assert embed(MC.unit(0), 3, ()) == MC.unit(3)


def test_fiber_class_single_power():
    for a in range(1, 7):
        assert torus_fiber_class([[a]]) == MC(
            1, [(((F(k, a),), 0, 0), 1) for k in range(a)]
        )


def test_fiber_class_transverse_pair():
    assert torus_fiber_class([[1, 0], [0, 1]]) == MC.unit(2)


def test_fiber_class_triangular_pair():
    expect = mono(2, (0, 0), 0, 0) + mono(2, (F(1, 2), F(1, 2)), 0, 0)
    assert torus_fiber_class([[2, 1], [0, 1]]) == expect


def test_fiber_class_coprime_row():
    L, u = MC.lefschetz(1), MC.unit(1)
    assert torus_fiber_class([[2, 3]]) == L - u


def test_fiber_class_preconditions():
    with pytest.raises(ValueError):
        torus_fiber_class([[1, 0], [2, 0]])  # zero column
    with pytest.raises(ValueError):
        torus_fiber_class([[1, 1], [2, 2]])  # rank deficient


def test_fiber_class_independent_of_solution():
    rng = random.Random(17)
    count = 0
    while count < 100:
        r = rng.choice((1, 2))
        m = rng.randint(r, 4)
        M = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
        if rational_rank(M) != r or not all(any(M[i][j] for i in range(r)) for j in range(m)):
            continue
        base = [rational_solve(M, [1 if k == i else 0 for k in range(r)]) for i in range(r)]
        kernel = integer_kernel_basis(M)
        shifted = []
        for theta in base:
            extra = [F(0)] * m
            for k in kernel:
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                extra = [e + c * ki for e, ki in zip(extra, k)]
            shifted.append([a + b for a, b in zip(theta, extra)])
        assert torus_fiber_class(M) == torus_fiber_class(M, thetas=shifted)
        count += 1


def test_fiber_class_vs_root_of_unity_enumeration():
    matrices = [[[a]] for a in range(1, 5)]
    matrices += [[[a, b]] for a in range(1, 5) for b in range(1, 5)]
    matrices += [
        [[2, 1], [0, 1]],
        [[2, 6]],
        [[2, 0], [0, 3]],
        [[2, 2], [0, 3]],
        [[1, 1, 1]],
        [[2, 2, 2]],
        [[1, 2, 3]],
        [[3, 0, 1], [0, 2, 1]],
        [[2, 4], [1, 1]],
    ]
    checked = 0
    for M in matrices:
        result = torus_fiber_bruteforce(M, q_cap=24)
        if result is None:
            continue
        ncomp, eigen = result
        r, m = len(M), len(M[0])
        recon = MC.zero(r)
        for key in eigen:
            recon = recon + mono(r, key, 0, 0)
        torus = MC.lefschetz(r) - MC.unit(r)
        assert recon * torus ** (m - r) == torus_fiber_class(M), M
        assert ncomp == len(eigen)
        checked += 1
    assert checked >= 25


def test_ring_axioms_random():
    rng = random.Random(23)

    def rand(arity):
        out = MC.zero(arity)
        for _ in range(3):
            den = rng.randint(1, 12)
            evs = tuple(F(rng.randint(0, den - 1), den) for _ in range(arity))
            out = out + mono(arity, evs, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-2, 2))
        return out

    for _ in range(60):
        arity = rng.choice((1, 2))
        x, y, z = rand(arity), rand(arity), rand(arity)
        L, u = MC.lefschetz(arity), MC.unit(arity)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * u == x
        assert L * x == x * L
