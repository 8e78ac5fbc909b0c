"""Small exact linear algebra over Z and Q, for the few-row, few-column
matrices of resolution data (plain textbook algorithms).

``smith_normal_form`` (U M V = D, U and V unimodular) answers every
integer-lattice question: the rank is the number of nonzero divisors of D,
those are the elementary divisors, and the last m - r columns of V span the
integer kernel.  ``rational_rank`` clears each row's denominators (a
nonzero multiple of a row keeps the rank) and counts the same divisors.
Gauss-Jordan elimination stays only in ``rational_solve``, whose contract
is one particular solution (leftmost pivots, free variables 0), the one the
root-of-unity oracle pairs its roots with.  Entry is strict:
``rational_solve`` takes only ints and Fractions (``_frac_row``).

``_strict_int`` and ``_int_row`` are the package's one integer rule, used
by every ring, oracle, datum and CLI path: an int passes, an integral
Fraction becomes its int, and anything else (bool, float, str, a
non-integral value) raises ``SchemaError`` naming the field, as does a
value below the optional ``minimum``.  ``SchemaError`` is a ValueError
carrying the offending field path in ``.path``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class SchemaError(ValueError):
    """Input validation failure, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _strict_int(value, where: str, minimum: int | None = None) -> int:
    """``value`` as an int, strictly: bool, float, str and non-integral
    values, and values below ``minimum``, raise a SchemaError naming
    ``where``."""
    if type(value) is int and (minimum is None or value >= minimum):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)) or value.denominator != 1:
        raise SchemaError(where, f"{value!r} is not an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(where, f"{value!r} is less than {minimum}")
    return int(value)


def _int_row(values, where: str, minimum: int | None = None) -> tuple:
    """An integer row, strictly (see ``_strict_int``); an error names
    `where` and the index."""
    return tuple(
        v if type(v) is int and (minimum is None or v >= minimum)
        else _strict_int(v, f"{where}, coefficient {j}", minimum)
        for j, v in enumerate(values)
    )


def _frac_row(values, where: str) -> list:
    """A Fraction row, strictly: only ints and Fractions pass; a bool, a
    float (binary-rounded) or a str raises a ValueError naming `where` and
    the index."""
    row = []
    for j, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValueError(f"{where}, coefficient {j}: {v!r} is not an exact rational")
        row.append(Fraction(v))
    return row


def _int_matrix(rows) -> list:
    """Mutable integer copy of a matrix, strictly (see ``_strict_int``)."""
    return [list(_int_row(row, f"row {i}")) for i, row in enumerate(rows)]


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    return [
        [sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def rational_rank(rows) -> int:
    """Rank over Q of a matrix of ints and Fractions: the number of Smith
    divisors once each row is multiplied by the lcm of its denominators."""
    cleared = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
        cleared.append(row if scale == 1 else [x * scale for x in row])
    return len(snf_divisors(smith_normal_form(cleared)[0]))


def rational_solve(rows, rhs):
    """One exact solution of rows * x = rhs over Q, or None if inconsistent.

    Gauss-Jordan elimination on the augmented Fraction matrix, pivoting on
    the leftmost column left; free variables are set to 0.  Entries must be
    ints or Fractions (see ``_frac_row``).
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    rhs = _frac_row(rhs, "right-hand side")
    aug = [_frac_row(rows[i], f"row {i}") + [rhs[i]] for i in range(nr)]
    pivots = []
    for col in range(nc):
        rank = len(pivots)
        pivot = next((r for r in range(rank, nr) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [x * inv for x in aug[rank]]
        for r in range(nr):
            if r != rank and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
        pivots.append(col)
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
    Entries must be integers (see ``_strict_int``).
    """
    M = _int_matrix(rows)
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
