import random

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


def _det(A):
    """Integer determinant by cofactor expansion along the first row."""
    if not A:
        return 1
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1:] for row in A[1:]])
        for j, a in enumerate(A[0])
        if a
    )


def test_snf_random_properties():
    rng = random.Random(0)
    for _ in range(400):
        nr, nc = rng.randint(1, 3), rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
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


def test_kernel_basis():
    rng = random.Random(5)
    for _ in range(100):
        nr, nc = rng.randint(1, 2), rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        kernel = integer_kernel_basis(M)
        assert len(kernel) == nc - rational_rank(M)
        for k in kernel:
            assert all(sum(M[i][j] * k[j] for j in range(nc)) == 0 for i in range(nr))


def test_rational_solve():
    assert rational_solve([[2, 6]], [1]) is not None
    sol = rational_solve([[2, 1], [0, 1]], [1, 0])
    assert sol is not None
    assert [2 * sol[0] + sol[1], sol[1]] == [1, 0]
    assert rational_solve([[1, 1], [1, 1]], [0, 1]) is None
