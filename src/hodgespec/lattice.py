"""Small exact linear algebra over Z and Q, for the few-row, few-column
matrices of resolution data (plain textbook algorithms).

``smith_normal_form`` (U M V = D, U and V unimodular) answers every
integer-lattice question: the rank is the number of nonzero divisors of D,
those are the elementary divisors, and the last m - r columns of V span the
integer kernel.  It is one pivot loop over the diagonal positions t: the
smallest nonzero entry in rows and columns >= t moves to (t, t) and is
divided out of row t and column t; once both are clear, a row holding an
entry the pivot p does not divide is added to row t, and the loop goes
round again.  Each repeat leaves a nonzero remainder smaller than |p| (in
the round itself, or in the next, where p is kept and divided out of row
t), so the pivot shrinks strictly and the loop ends.  When t advances, p
divides every entry left and every integer combination of them, so
d_t | d_(t+1) holds with no later pass.  ``rational_rank`` clears each
row's denominators (a nonzero multiple of a row keeps the rank) and counts
the same divisors.  Gauss-Jordan elimination stays only in
``rational_solve``, whose contract is one particular solution (leftmost
pivots, free variables 0), the one the root-of-unity oracle pairs its
roots with.  It too clears each row's denominators once and eliminates on
ints, making a Fraction only for each solution entry.  Entry is strict:
``rational_solve`` takes only ints and Fractions (``_frac_row``).

``_strict_int`` and ``_int_row`` are the package's one integer rule, used
by every ring, oracle, datum and CLI path: an int passes, an integral
Fraction becomes its int, and anything else (bool, float, str, a
non-integral value) raises ``SchemaError`` naming the field, as does a
value below the optional ``minimum``.  ``SchemaError`` is a ValueError
with the field path in ``.path``; ``_named`` puts an input's name in front.
The row rule rides on it: ``_int_row``, ``_frac_row`` (a given ``length``)
and ``_int_matrix`` (a given ``width``, else the first row's) refuse a row
of another length with a ``SchemaError`` naming it; every row, matrix,
form, slot tuple and constraint system of the package enters through them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SchemaError(ValueError):
    """Input validation failure, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


def _named(source: str, fn, *args):
    """``fn(*args)``; a ValueError from it becomes a SchemaError under
    ``source`` (a file, flag or parameter): ``<source>: <path>: <message>``,
    or ``<source>: <message>``; a call, not a context manager, for speed."""
    try:
        return fn(*args)
    except SchemaError as exc:
        raise SchemaError(f"{source}: {exc.path}" if exc.path else source, exc.message) from exc
    except ValueError as exc:
        raise SchemaError(source, str(exc)) from exc


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


def _sized(row, where: str, length: int | None):
    """row, or a SchemaError naming `where` if it is not of a given length."""
    if length is not None and len(row) != length:
        raise SchemaError(where, f"has length {len(row)}, expected {length}")
    return row


def _int_row(values, where: str, minimum: int | None = None, length: int | None = None) -> tuple:
    """An integer row, strictly (see ``_strict_int``), of the given length
    if any; an error names `where` and the index."""
    return _sized(tuple(
        v if type(v) is int and (minimum is None or v >= minimum)
        else _strict_int(v, f"{where}, coefficient {j}", minimum)
        for j, v in enumerate(values)
    ), where, length)


def _frac_row(values, where: str, length: int | None = None) -> list:
    """A Fraction row, strictly, of the given length if any: only ints and
    Fractions pass; a bool, a float (binary-rounded) or a str raises a
    SchemaError naming `where` and the index."""
    row = []
    for j, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise SchemaError(f"{where}, coefficient {j}", f"{v!r} is not an exact rational")
        row.append(Fraction(v))
    return _sized(row, where, length)


def _int_matrix(rows, where: str = "row {}", width: int | None = None) -> list:
    """Mutable integer copy of a matrix, strictly (see ``_strict_int``):
    row i, named ``where.format(i)``, has ``width`` entries, or the first's."""
    out = []
    for i, row in enumerate(rows):
        out.append(list(_int_row(row, where.format(i), length=width)))
        width = len(out[-1])
    return out


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

    Entries must be ints or Fractions (see ``_frac_row``), in rows of one
    width.  Each augmented row is multiplied once by the lcm of its
    denominators, and Gauss-Jordan elimination runs on those integer rows,
    pivoting on the leftmost column left: a row with f in the pivot column
    becomes p * row - f * pivot_row over its gcd.  Free variables are set
    to 0, so x[col] = rhs_r / p_r for the row r pivoting on col; the reduced
    echelon form is unique, so these are the Fractions that Gauss-Jordan
    on Fractions gives.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    rhs = _frac_row(rhs, "right-hand side", nr)
    aug = []
    for i, row in enumerate(rows):
        row = _frac_row(row, f"row {i}", nc) + [rhs[i]]
        scale = lcm(*(x.denominator for x in row))
        aug.append([x.numerator * (scale // x.denominator) for x in row])
    pivots = []
    for col in range(nc):
        rank = len(pivots)
        pivot = next((r for r in range(rank, nr) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        prow = aug[rank]
        p = prow[col]
        for r in range(nr):
            f = aug[r][col]
            if r != rank and f:
                row = [p * a - f * b for a, b in zip(aug[r], prow)]
                g = gcd(*row) or 1
                aug[r] = [a // g for a in row]
        pivots.append(col)
    if any(aug[r][nc] for r in range(len(pivots), nr)):
        return None
    x = [Fraction(0)] * nc
    for r, col in enumerate(pivots):
        x[col] = Fraction(aug[r][nc], aug[r][col])
    return x


def smith_normal_form(rows):
    """Smith normal form with transforms: returns (D, U, V, Vinv).

    U * M * V = D with U, V unimodular over Z, D diagonal with nonnegative
    entries d_1 | d_2 | ... ; Vinv is the exact integer inverse of V, kept
    alongside because callers need both the new basis and the change back.
    Entries must be integers (see ``_strict_int``).  The pivot loop and
    why it ends are described in the module docstring.
    """
    M = _int_matrix(rows)
    nr, nc = len(M), len(M[0]) if M else 0
    U, V, Vinv = identity(nr), identity(nc), identity(nc)

    def add_row(i, j, k):  # row_i += k * row_j
        M[i] = [a + k * b for a, b in zip(M[i], M[j])]
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, k):  # col_i += k * col_j, so Vinv row_j -= k * row_i
        for row in M:
            row[i] += k * row[j]
        for row in V:
            row[i] += k * row[j]
        Vinv[j] = [a - k * b for a, b in zip(Vinv[j], Vinv[i])]

    for t in range(min(nr, nc)):
        while True:
            # The smallest nonzero entry left moves to (t, t); ties keep it.
            size = i = j = 0
            for r in range(t, nr):
                for c in range(t, nc):
                    x = abs(M[r][c])
                    if x and (x < size or not size):
                        size, i, j = x, r, c
            if not size:
                return M, U, V, Vinv
            if i != t:
                M[t], M[i] = M[i], M[t]
                U[t], U[i] = U[i], U[t]
            if j != t:
                for row in M:
                    row[t], row[j] = row[j], row[t]
                for row in V:
                    row[t], row[j] = row[j], row[t]
                Vinv[t], Vinv[j] = Vinv[j], Vinv[t]
            p = M[t][t]
            clean = True
            for r in range(t + 1, nr):
                if M[r][t]:
                    add_row(r, t, -(M[r][t] // p))
                    clean = clean and not M[r][t]
            for c in range(t + 1, nc):
                if M[t][c]:
                    add_col(c, t, -(M[t][c] // p))
                    clean = clean and not M[t][c]
            if not clean:
                continue  # a remainder smaller than |p| is left
            if size == 1:
                break  # a unit divides every entry left
            bad = next((r for r in range(t + 1, nr) if any(x % p for x in M[r][t + 1:])), None)
            if bad is None:
                break
            add_row(t, bad, 1)  # row t now holds an entry p does not divide
        if M[t][t] < 0:
            M[t] = [-a for a in M[t]]
            U[t] = [-a for a in U[t]]
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
