"""Small exact linear algebra over Z and Q.

Everything here operates on lists of lists of ints (or Fractions) and is
sized for the tiny matrices that show up in resolution data (at most a few
rows and a handful of columns), so the algorithms are the plain textbook
ones with no pivoting heuristics beyond picking a small nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    return [
        [sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(A, v):
    return [sum(A[i][k] * v[k] for k in range(len(v))) for i in range(len(A))]


def _row_reduce(m, ncols: int):
    """Gauss-Jordan elimination in place on the first ncols columns of the
    Fraction matrix m; returns the pivot columns, one per rank step.

    Later columns (an augmented right-hand side) are carried along.
    """
    pivots = []
    for col in range(ncols):
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
    return pivots


def rational_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on a fraction copy."""
    m = [[Fraction(x) for x in row] for row in rows]
    return len(_row_reduce(m, len(m[0]) if m else 0))


def rational_solve(rows, rhs):
    """One exact solution of rows * x = rhs over Q, or None if inconsistent.

    Free variables are set to 0.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(nr)]
    pivots = _row_reduce(aug, nc)
    if any(aug[r][nc] for r in range(len(pivots), nr)):
        return None
    x = [Fraction(0)] * nc
    for r, col in enumerate(pivots):
        x[col] = aug[r][nc]
    return x


def smith_normal_form(rows):
    """Smith normal form with transforms: returns (D, U, V, Vinv).

    U * M * V = D with U, V unimodular over Z, D diagonal with nonnegative
    entries d_1 | d_2 | ... ; Vinv is the exact integer inverse of V, kept
    alongside because callers need both the new basis and the change back.
    """
    M = [list(map(int, row)) for row in rows]
    nr = len(M)
    nc = len(M[0]) if M else 0
    U = identity(nr)
    V = identity(nc)
    Vinv = identity(nc)

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def add_row(i, j, k):  # row_i += k * row_j
        M[i] = [a + k * b for a, b in zip(M[i], M[j])]
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]

    def negate_row(i):
        M[i] = [-a for a in M[i]]
        U[i] = [-a for a in U[i]]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_col(i, j, k):  # col_i += k * col_j, so Vinv row_j -= k * row_i
        for row in M:
            row[i] += k * row[j]
        for row in V:
            row[i] += k * row[j]
        Vinv[j] = [a - k * b for a, b in zip(Vinv[j], Vinv[i])]

    def smallest_nonzero(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        return best

    def reduce_pivot(t):
        # Reduce the pivot row and column until the pivot divides everything
        # it meets; each pass strictly shrinks |pivot| so this terminates.
        while True:
            dirty = False
            for r in range(t + 1, nr):
                if M[r][t]:
                    q = M[r][t] // M[t][t]
                    add_row(r, t, -q)
                    if M[r][t]:
                        swap_rows(t, r)
                        dirty = True
            for c in range(t + 1, nc):
                if M[t][c]:
                    q = M[t][c] // M[t][t]
                    add_col(c, t, -q)
                    if M[t][c]:
                        swap_cols(t, c)
                        dirty = True
            if not dirty:
                break
        if M[t][t] < 0:
            negate_row(t)

    t = 0
    while t < min(nr, nc):
        pos = smallest_nonzero(t)
        if pos is None:
            break
        i, j = pos
        swap_rows(t, i)
        swap_cols(t, j)
        reduce_pivot(t)
        t += 1

    # Enforce the divisibility chain d_k | d_{k+1}.
    k = 0
    while k < min(nr, nc) - 1:
        a, b = M[k][k], M[k + 1][k + 1]
        if a and b % a != 0:
            add_col(k, k + 1, 1)  # puts b into column k at row k+1
            reduce_pivot(k)  # re-run the local reduction from position k
            k = max(k - 1, 0)
        else:
            k += 1

    for i in range(min(nr, nc)):
        if M[i][i] < 0:
            negate_row(i)

    return M, U, V, Vinv


def snf_divisors(D):
    """Nonzero diagonal entries of a Smith normal form D; their number is the
    rank."""
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i]]


def elementary_divisors(rows):
    """Nonzero diagonal entries of the Smith normal form."""
    return snf_divisors(smith_normal_form(rows)[0])


def integer_kernel_basis(rows):
    """Z-basis of the integer kernel {v : rows * v = 0}, as column vectors."""
    D, _, V, _ = smith_normal_form(rows)
    nc = len(V)
    rank = len(snf_divisors(D))
    return [[V[i][j] for i in range(nc)] for j in range(rank, nc)]
