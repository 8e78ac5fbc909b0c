import itertools
import random
import re
import time
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from hodgespec.lattice import (
    elementary_divisors,
    integer_kernel_basis,
    rational_rank,
    rational_solve,
    smith_normal_form,
    snf_divisors,
)
from hodgespec.monclass import (
    MAX_TORUS_CHARACTERS,
    MonodromicClass as MC,
    box,
    embed,
    hodge_spectrum,
    hodge_spectrum2,
    torus_fiber_class,
)
from hodgespec import lattice, oracles
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


def test_powers_square_and_multiply():
    start = time.perf_counter()
    assert MC.lefschetz(1) ** 10**9 == MC.lefschetz(1, 10**9)
    assert time.perf_counter() - start < 1.0
    x = mono(1, (F(1, 3),), 1, 0) - 2 * MC.lefschetz(1)
    power = MC.unit(1)
    for n in range(10):
        assert x ** n == power, n
        power = power * x


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
    with pytest.raises(ValueError, match="column 1"):
        torus_fiber_class([[1, 0], [2, 0]])  # zero column
    with pytest.raises(ValueError, match="rank deficient"):
        torus_fiber_class([[1, 1], [2, 2]])  # rank deficient
    with pytest.raises(ValueError, match="not a solution"):
        torus_fiber_class([[2, 1], [0, 1]], thetas=[[F(1, 2), 0], [0, 0]])
    with pytest.raises(ValueError, match="not a solution"):
        torus_fiber_class([[2, 6]], thetas=[[F(1, 3), 0]])
    # Over the bound the size check raises before anything is enumerated.
    over = MAX_TORUS_CHARACTERS + 1
    for M in ([[over]], [[over, 2 * over]], [[1000, 0], [0, 1000]], [[2, 0, 1], [0, over, 0]]):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_TORUS_CHARACTERS"):
            torus_fiber_class(M)
        assert time.perf_counter() - start < 0.5
    assert torus_fiber_class([[MAX_TORUS_CHARACTERS]]).arity == 1


def _default_thetas(M):
    """The solutions of M theta = e_i that rational_solve returns (leftmost
    pivots, free variables 0), by Gauss-Jordan elimination on Fractions of
    M augmented with the identity; M must have rank r."""
    r, m = len(M), len(M[0])
    aug = [[F(x) for x in row] + [F(int(k == i)) for k in range(r)] for i, row in enumerate(M)]
    pivots = []
    for col in range(m):
        rank = len(pivots)
        pivot = next((i for i in range(rank, r) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [x * inv for x in aug[rank]]
        for i in range(r):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
    thetas = [[F(0)] * m for _ in range(r)]
    for row, col in enumerate(pivots):
        for i in range(r):
            thetas[i][col] = aug[row][m + i]
    return thetas


def _shifted_thetas(M, rng):
    # Solutions of M theta = e_i moved by random rational kernel vectors.
    kernel = integer_kernel_basis(M)
    shifted = []
    for theta in _default_thetas(M):
        for k in kernel:
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            theta = [a + c * ki for a, ki in zip(theta, k)]
        shifted.append(theta)
    return shifted


def _fraction_fiber_class(M, thetas):
    """Torus fiber class by the character sum of the docstring, spelled out
    in Fractions: every torsion character chi = (c, 0) * Vinv paired with
    every theta, times (L - 1)^(m - r) as a ring product."""
    r, m = len(M), len(M[0])
    D, _U, _V, Vinv = smith_normal_form(M)
    divisors = snf_divisors(D)
    cls = MC.zero(r)
    for cs in itertools.product(*(range(d) for d in divisors)):
        chi = [sum(cs[i] * Vinv[i][j] for i in range(r)) for j in range(m)]
        evs = tuple(sum(c * t for c, t in zip(chi, theta)) % 1 for theta in thetas)
        cls = cls + mono(r, evs, 0, 0)
    return cls * (MC.lefschetz(r) - MC.unit(r)) ** (m - r)


def test_fiber_class_matches_fraction_character_sum():
    rng = random.Random(29)
    count = 0
    shapes = [(r, m) for r in (1, 2, 3) for m in range(r, 6)]
    seen = set()
    while count < 360:
        r, m = shapes[count % len(shapes)]
        M = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(r)]
        if rational_rank(M) != r or not all(any(M[i][j] for i in range(r)) for j in range(m)):
            continue
        expect = _fraction_fiber_class(M, _default_thetas(M))
        assert torus_fiber_class(M) == expect, M
        shifted = _shifted_thetas(M, rng)
        assert torus_fiber_class(M, thetas=shifted) == expect, M
        assert _fraction_fiber_class(M, shifted) == expect, M
        seen.add(tuple(elementary_divisors(M)))
        count += 1
    # The draw reaches torsion with two nontrivial divisors of unequal size.
    assert any(len(ds) > 1 and 1 < ds[-2] < ds[-1] for ds in seen)


def test_fiber_class_independent_of_solution():
    rng = random.Random(17)
    count = 0
    while count < 100:
        r = rng.choice((1, 2))
        m = rng.randint(r, 4)
        M = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
        if rational_rank(M) != r or not all(any(M[i][j] for i in range(r)) for j in range(m)):
            continue
        assert torus_fiber_class(M) == torus_fiber_class(M, thetas=_shifted_thetas(M, rng))
        count += 1


def test_one_row_fiber_class_equals_its_smith_path():
    # One row and no thetas reads divisors [gcd(row)] and U = [[1]] without
    # an elimination; given a theta, the same row takes the Smith path.
    rng = random.Random(41)
    big = MAX_TORUS_CHARACTERS
    rows = [[1], [-1], [3, -5], [-4, -6], [big, -2 * big]]
    for _ in range(80):
        g = rng.choice((1, 1, 2, 3, 4, 6, 12))
        rows.append([g * rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(rng.randint(1, 5))])
    oracle_checked = set()
    for row in rows:
        got = torus_fiber_class([row])
        assert got == torus_fiber_class([row], thetas=[rational_solve([row], [1])]), row
        if lcm(*row) ** len(row) <= 20_000:
            assert got == oracles.root_of_unity_class([row]), row
            oracle_checked.add(gcd(*row))
    assert any(x < 0 for row in rows for x in row)
    assert {1, 2, 3, 4, 6, 12} <= {gcd(*row) for row in rows} and big in {gcd(*row) for row in rows}
    assert {1, 2, 3} <= oracle_checked, oracle_checked
    # The refusals are unchanged: the character budget, then a zero column.
    over = big + 1
    message = f"torus fiber of [[{over}, {-2 * over}]] has {over} characters, more than MAX_TORUS_CHARACTERS = {big}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        torus_fiber_class([[over, -2 * over]])
    with pytest.raises(ValueError, match="^column 1 of the exponent matrix is zero$"):
        torus_fiber_class([[3, 0, -2]])


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


def test_root_of_unity_oracle_grows_with_its_root_tuples():
    # Twelve columns at root order 1 and 2: 1 and 4,096 root tuples.  No
    # table of the oracle may grow faster than the tuples it visits; one
    # entry per combination of kernel digits would be 12^11 or 12^10 here.
    for M in ([[1] * 12], [[2] * 12], [[2] * 6 + [4] * 6, [0] * 11 + [2]]):
        start = time.perf_counter()
        assert oracles.root_of_unity_class(M) == torus_fiber_class(M), M
        assert time.perf_counter() - start < 0.5, M


def _fraction_key_bruteforce(M, q_cap):
    """torus_fiber_bruteforce with every eigenvalue key summed in Fractions."""
    r, m = len(M), len(M[0])
    thetas = _default_thetas(M)
    divisors = elementary_divisors(M)
    Q = lcm(*divisors, *(t.denominator for theta in thetas for t in theta))
    if Q > q_cap:
        return None
    kernel = integer_kernel_basis(M)
    eigen = {}
    for w in itertools.product(range(Q), repeat=m):
        if any(sum(wi * ki for wi, ki in zip(w, k)) % Q for k in kernel):
            continue
        key = tuple(sum(F(wi) * ti for wi, ti in zip(w, theta)) % 1 for theta in thetas)
        eigen[key] = eigen.get(key, 0) + 1
    overcount = Q**r
    for d in divisors:
        overcount //= gcd(d, Q)
    multiset = []
    for key, count in sorted(eigen.items()):
        assert count % overcount == 0
        multiset.extend([key] * (count // overcount))
    ncomp = 1
    for d in divisors:
        ncomp *= d
    return ncomp, sorted(multiset)


def test_integer_oracle_matches_fraction_keys():
    # The (rows, columns, root order Q) shapes of the benchmark's torus
    # items, then square ones (no kernel digit), five columns (the most
    # packed digits) and three rows; eight matrices each that need exactly
    # that Q.
    rng = random.Random(43)
    shapes = [(1, 3, 4), (2, 3, 6), (2, 4, 4), (1, 4, 4), (2, 2, 12), (1, 2, 4)]
    shapes += [(1, 1, 4), (3, 3, 6), (1, 5, 4), (2, 5, 3), (3, 4, 4), (3, 5, 4)]
    for r, m, q in shapes:
        found = 0
        while found < 8:
            M = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
            if rational_rank(M) != r or not all(any(M[i][j] for i in range(r)) for j in range(m)):
                continue
            expect = _fraction_key_bruteforce(M, q)
            if expect is None or _fraction_key_bruteforce(M, q - 1) is not None:
                continue
            assert torus_fiber_bruteforce(M, q_cap=q) == expect, M
            assert torus_fiber_bruteforce(M, q_cap=q - 1) is None, M
            found += 1


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


@pytest.mark.parametrize("bad", [2.7, True, F(1, 2)], ids=["float", "bool", "half"])
@pytest.mark.parametrize(
    "fn", [smith_normal_form, torus_fiber_class, torus_fiber_bruteforce], ids=lambda f: f.__name__
)
def test_exponent_matrix_entries_are_strict_integers(fn, bad):
    # A float, a bool or a non-integral rational is refused, not truncated.
    with pytest.raises(ValueError, match=rf"row 1, coefficient 0: {re.escape(repr(bad))} is not an integer"):
        fn([[2, 1], [bad, 3]])


def test_integral_fraction_entries_are_accepted():
    assert torus_fiber_class([[F(2), 3], [0, F(6, 2)]]) == torus_fiber_class([[2, 3], [0, 3]])
    assert torus_fiber_bruteforce([[F(2), 1], [0, 1]]) == torus_fiber_bruteforce([[2, 1], [0, 1]])


def test_oracle_runs_one_smith_normal_form(monkeypatch):
    # Rank, divisors and kernel all come from a single Smith normal form;
    # every lattice routine reaches it through the module global.
    calls = []
    real = lattice.smith_normal_form

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    monkeypatch.setattr(oracles, "smith_normal_form", counted)
    for M in ([[2, 1], [0, 1]], [[2, 6]], [[1, 2, 3]], [[3, 0, 1], [0, 2, 1]], [[2, 4], [1, 1]]):
        calls.clear()
        assert torus_fiber_bruteforce(M, q_cap=24) is not None
        assert len(calls) == 1, M
    calls.clear()
    with pytest.raises(ValueError, match="rank deficient"):
        torus_fiber_bruteforce([[1, 2], [2, 4]])
    assert len(calls) == 1


def test_terms_converts_each_eigenvalue_tuple_once_a_call():
    # Bidegrees repeat each eigenvalue tuple: one terms() call builds one
    # Fraction tuple per distinct tuple, and its values are the per-term
    # conversion numerator / den.
    rng = random.Random(12)
    for arity, den in ((1, 6), (2, 12), (0, 1)):
        evs = [tuple(rng.randrange(den) for _ in range(arity)) for _ in range(5)]
        x = MC(arity, [((tuple(F(n, den) for n in e), p, q), rng.choice((-2, 1, 3)))
                       for e in evs for p in range(4) for q in range(3)])
        terms = x.terms()
        assert len(terms) == len(x._terms) > len(set(evs))
        shared = {}
        for (e, p, q), mult in terms:
            assert shared.setdefault(e, e) is e, e
        assert terms == tuple(
            ((tuple(F(n, x.den) for n in e), p, q), mult) for (e, p, q), mult in sorted(x._terms.items())
        )
        assert x.terms() == terms
