import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd, prod

import pytest

from hodgespec.lattice import (
    elementary_divisors,
    identity,
    integer_kernel_basis,
    mat_mul,
    rational_rank,
    rational_solve,
    smith_normal_form,
)


def test_snf_pinned():
    D, U, V, Vinv = smith_normal_form([[2, 6]])
    assert [D[0][0], D[0][1]] == [2, 0]
    assert elementary_divisors([[2, 1], [0, 1]]) == [1, 2]
    assert elementary_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert elementary_divisors([[2, 3]]) == [1]
    # Swapping each remainder into place, without choosing the smallest
    # entry again, lets the entries of this matrix grow for seconds.
    assert elementary_divisors(STALL_3X5) == [1, 1, 3]


STALL_3X5 = [
    [217, -295, 693, -487, -128],
    [-66, 334, -136, -701, 569],
    [-885, 877, 308, -932, 632],
]


def _det(A):
    """Integer determinant by cofactor expansion along the first row."""
    if not A:
        return 1
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1:] for row in A[1:]])
        for j, a in enumerate(A[0])
        if a
    )


def _random_matrix(rng):
    """Up to 5 x 5, with 3-digit entries on a quarter of the draws; on some,
    the last row is the sum of two others, so rank-deficient inputs show up."""
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    bound = 999 if rng.random() < 0.25 else 9
    M = [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and rng.random() < 0.2:
        M[-1] = [a + b for a, b in zip(M[0], M[-2])]
    return nr, nc, M


def test_snf_random_properties():
    rng = random.Random(0)
    for _ in range(400):
        nr, nc, M = _random_matrix(rng)
        D, U, V, Vinv = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert mat_mul(V, Vinv) == identity(nc)
        # torus_fiber_class reads eigenvalues off U, so U must be unimodular.
        assert abs(_det(U)) == 1
        diag = [D[i][i] for i in range(min(nr, nc))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert D[i][j] == 0


def test_snf_divisors_match_gcd_of_minors():
    # d_1 ... d_k is the gcd of the k x k minors: an oracle that shares no
    # code with the elimination.
    rng = random.Random(3)
    for _ in range(150):
        nr, nc, M = _random_matrix(rng)
        divisors = elementary_divisors(M)
        for k in range(1, min(nr, nc) + 1):
            g = 0
            for rows in combinations(range(nr), k):
                for cols in combinations(range(nc), k):
                    g = gcd(g, _det([[M[i][j] for j in cols] for i in rows]))
            expect = prod(divisors[:k]) if k <= len(divisors) else 0
            assert g == expect, (M, k)


def test_kernel_basis():
    rng = random.Random(5)
    for _ in range(100):
        nr, nc = rng.randint(1, 2), rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        kernel = integer_kernel_basis(M)
        assert len(kernel) == nc - _gauss_jordan_rank(M)
        for k in kernel:
            assert all(sum(M[i][j] * k[j] for j in range(nc)) == 0 for i in range(nr))


def test_rational_solve():
    assert rational_solve([[2, 6]], [1]) is not None
    sol = rational_solve([[2, 1], [0, 1]], [1, 0])
    assert sol is not None
    assert [2 * sol[0] + sol[1], sol[1]] == [1, 0]
    assert rational_solve([[1, 1], [1, 1]], [0, 1]) is None


def test_rational_solve_keeps_exact_solutions_and_refuses_floats():
    # Leftmost pivots, free variables 0: the particular solution is pinned.
    assert rational_solve([[2, 6]], [1]) == [F(1, 2), 0]
    assert rational_solve([[2, 1], [0, 1]], [1, 0]) == [F(1, 2), 0]
    assert rational_solve([[F(1, 3), 1]], [F(2, 3)]) == [2, 0]
    for rows, rhs, where in (
        ([[0.1]], [1], "row 0, coefficient 0"),
        ([[1, True]], [1], "row 0, coefficient 1"),
        ([[1]], [0.5], "right-hand side, coefficient 0"),
        ([[1]], [False], "right-hand side, coefficient 0"),
        ([[1], ["2"]], [1, 2], "row 1, coefficient 0"),
    ):
        with pytest.raises(ValueError, match=f"{where}: .* is not an exact rational"):
            rational_solve(rows, rhs)


def _gauss_jordan(rows):
    """Reference reduced echelon form over Q: Gauss-Jordan elimination on a
    Fraction copy, leftmost pivots, each pivot scaled to 1.  Returns the
    reduced rows and the pivot columns; independent of the Smith normal
    form behind rational_rank and of the integer rows of rational_solve."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def _gauss_jordan_rank(rows):
    return len(_gauss_jordan(rows)[1])


def _gauss_jordan_solve(rows, rhs):
    """Reference solution: None when the right-hand side column pivots,
    else each pivot row's right-hand side at its column, free variables 0."""
    nc = len(rows[0])
    m, pivots = _gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)])
    if nc in pivots:
        return None
    x = [F(0)] * nc
    for r, col in enumerate(pivots):
        x[col] = m[r][nc]
    return x


def test_rational_solve_matches_fraction_gauss_jordan():
    rng = random.Random(37)

    def entry():
        # Mixed denominators, so each row clears over a different lcm.
        return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 5, 6, 12)))

    solved = inconsistent = 0
    for _ in range(2400):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[entry() if rng.random() < 0.6 else rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        rhs = [entry() for _ in range(nr)]
        if nr > 1:
            i, j = rng.sample(range(nr), 2)
            kind = rng.randrange(4)  # row j scaled, duplicate, zero, or drawn
            if kind < 3:
                c = (F(rng.choice((-3, -2, 2, 3)), rng.randint(1, 4)), 1, 0)[kind]
                rows[j] = [c * a for a in rows[i]]
                # Half of the dependent rows get an inconsistent right-hand side.
                rhs[j] = c * rhs[i] + rng.choice((0, 0, 1, F(-1, 7)))
        expect = _gauss_jordan_solve(rows, rhs)
        got = rational_solve(rows, rhs)
        assert got == expect, (rows, rhs)
        if got is None:
            inconsistent += 1
        else:
            assert all(type(v) is F for v in got), got
            solved += 1
    # The draw reaches both outcomes often.
    assert solved > 500 and inconsistent > 500, (solved, inconsistent)


def test_rational_rank_matches_gauss_jordan():
    rng = random.Random(11)
    deficient = 0
    for _ in range(400):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        fractional = rng.random() < 0.5
        if fractional:
            M = [[F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(nc)] for _ in range(nr)]
        else:
            M = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and rng.random() < 0.5:
            # Make the last row a combination of the others.
            cs = [F(rng.randint(-3, 3), rng.randint(1, 4) if fractional else 1) for _ in M[:-1]]
            M[-1] = [sum(c * row[j] for c, row in zip(cs, M)) for j in range(nc)]
            if not fractional:
                M[-1] = [int(x) for x in M[-1]]
        expect = _gauss_jordan_rank(M)
        assert rational_rank(M) == expect, M
        deficient += expect < min(nr, nc)
    assert rational_rank([]) == 0 and rational_rank([[0, 0], [0, 0]]) == 0
    # The draw reaches rank-deficient matrices, where a wrong count shows.
    assert deficient > 50
