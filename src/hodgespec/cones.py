"""Rational polyhedral cones in the open positive orthant.

A cone is cut out of {x : x_i > 0 for all i} by finitely many homogeneous
integral constraints, each one of `>= 0`, `> 0`, or `= 0`.  The module
provides

* exact linear programming by Fourier-Motzkin elimination (feasibility and
  one-dimensional extrema) on primitive integer rows: denominators are
  cleared once on entry, equalities are substituted before any inequality
  pair is formed, every derived row is divided by its gcd, and strict
  inequalities are tracked symbolically;
* the lattice-point generating series sum over k in the cone with positive
  integer coordinates of T^(l(k)) L^(-nu(k)), by direct enumeration up to a
  degree bound;
* the Euler characteristic with compact supports, via the decomposition of
  the cone into the relatively open sign cells of its defining hyperplane
  arrangement (a nonempty cell of dimension d contributes (-1)^d); the
  cells are reached by a depth-first search over sign choices that drops
  every subtree whose partial system is already infeasible;
* the limit of the generating series at T -> infinity, which equals that
  Euler characteristic whenever l and nu are positive on the closed cone
  minus the origin.

Cone data is strictly integral: bool, float, str and non-integral values
are rejected.  Dimensions are desk scale (<= 6), so no effort is spent on
sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .lattice import _int_row, _strict_int, rational_rank
from .monclass import MonodromicClass
from .series import TruncatedPoly
from .spectra import _merge

GE, GT, EQ = ">=", ">", "="
_RELS = (GE, GT, EQ)


def dot(form, x):
    return sum(a * b for a, b in zip(form, x))


@dataclass(frozen=True)
class Cone:
    """Cone in R^n_{>0} given by homogeneous constraints (coeffs, rel)."""

    n: int
    constraints: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n", _strict_int(self.n, "cone dimension", 0))
        if self.n > 6:
            raise ValueError("cone dimension above the supported bound of 6")
        cleaned = []
        for i, (coeffs, rel) in enumerate(self.constraints):
            coeffs = _int_row(coeffs, f"constraint {i}")
            if len(coeffs) != self.n:
                raise ValueError(f"constraint {i}: length does not match ambient dimension")
            if rel not in _RELS:
                raise ValueError(f"constraint {i}: unknown relation {rel!r}")
            cleaned.append((coeffs, rel))
        object.__setattr__(self, "constraints", tuple(cleaned))

    def contains(self, point) -> bool:
        """Exact membership for a rational point."""
        if any(x <= 0 for x in point):
            return False
        for coeffs, rel in self.constraints:
            v = dot(coeffs, point)
            if rel == GE and v < 0:
                return False
            if rel == GT and v <= 0:
                return False
            if rel == EQ and v != 0:
                return False
        return True

    def _strict_system(self):
        sys = [_unit_constraint(self.n, i, GT) for i in range(self.n)]
        sys += [(coeffs, 0, rel) for coeffs, rel in self.constraints]
        return sys

    def _closure_system(self):
        # Valid as the closure only when the cone is nonempty (a nonempty
        # set cut out by equalities and strict/weak inequalities has the
        # relaxed system as its closure).
        sys = [_unit_constraint(self.n, i, GE) for i in range(self.n)]
        sys += [(coeffs, 0, GE if rel == GT else rel) for coeffs, rel in self.constraints]
        return sys

    def is_empty(self) -> bool:
        return not feasible(self._strict_system(), self.n)


def _unit_constraint(n, i, rel, const=0):
    return (tuple(int(j == i) for j in range(n)), const, rel)


# ---------------------------------------------------------------------------
# Fourier-Motzkin machinery.  A constraint is (coeffs, const, rel) meaning
# dot(coeffs, x) + const REL 0.  Callers may pass Fractions; internally every
# row is primitive: integer entries with gcd 1.
# ---------------------------------------------------------------------------


def _holds(value, rel) -> bool:
    return value > 0 if rel == GT else value >= 0 if rel == GE else value == 0


def _primitive(values, rel):
    """(coeffs, const, rel) from integers values = coeffs + [const], divided
    by their gcd."""
    g = gcd(*values)
    if g > 1:
        values = [v // g for v in values]
    return (tuple(values[:-1]), values[-1], rel)


def _normalize(con):
    """Clear the denominators of a rational constraint: a primitive row."""
    coeffs, const, rel = con
    values = (*coeffs, const)
    scale = lcm(*(v.denominator for v in values))
    return _primitive([v.numerator * (scale // v.denominator) for v in values], rel)


def _combine(a, row1, b, row2, rel, k):
    """a * row1 + b * row2, whose x_k coefficient vanishes, without x_k."""
    c1, b1, _ = row1
    c2, b2, _ = row2
    values = [a * x + b * y for i, (x, y) in enumerate(zip(c1, c2)) if i != k]
    values.append(a * b1 + b * b2)
    return _primitive(values, rel)


def _drop(con, k):
    coeffs, const, rel = con
    return (coeffs[:k] + coeffs[k + 1:], const, rel)


def _eliminate(cons, k):
    """Project the system onto the coordinates other than x_k."""
    # Equality substitution wins when available: exact and size-stable.
    # Scaling the other row by |p| > 0 keeps its direction.
    for idx, pivot in enumerate(cons):
        p = pivot[0][k]
        if pivot[2] == EQ and p:
            ap = abs(p)
            sign = 1 if p > 0 else -1
            out = []
            for j, row in enumerate(cons):
                if j == idx:
                    continue
                c = row[0][k]
                out.append(_combine(ap, row, -sign * c, pivot, row[2], k) if c else _drop(row, k))
            return out
    lowers, uppers, rest = [], [], []
    for row in cons:
        c = row[0][k]
        if c > 0:
            lowers.append(row)
        elif c < 0:
            uppers.append(row)
        else:
            rest.append(_drop(row, k))
    for low in lowers:
        for up in uppers:
            # low[k] * upper + (-up[k]) * lower eliminates x_k.
            rel = GT if GT in (low[2], up[2]) else GE
            rest.append(_combine(low[0][k], up, -up[0][k], low, rel, k))
    return rest


def _settle(cons):
    """Deduplicate; drop the rows with no variable left that hold.  None when
    one of them fails, which proves the system infeasible."""
    out = []
    for row in dict.fromkeys(cons):
        if any(row[0]):
            out.append(row)
        elif not _holds(row[1], row[2]):
            return None
    return out


def _project(cons, nvars: int):
    """Eliminate x_(nvars-1), ..., x_0 from rational constraints.

    Returns the primitive rows left in the remaining variables, or None if
    the system is infeasible.
    """
    cons = _settle([_normalize(c) for c in cons])
    for k in range(nvars - 1, -1, -1):
        if cons is None:
            break
        cons = _settle(_eliminate(cons, k))
    return cons


def feasible(cons, nvars: int) -> bool:
    """Exact feasibility of a system of affine constraints over Q."""
    return _project(cons, nvars) is not None


def extremum(obj, cons, nvars: int, maximize: bool = True):
    """Sup (or inf) of dot(obj, x) over a nonempty system; None if unbounded.

    The system is assumed feasible; the bound returned is the exact
    supremum/infimum whether or not it is attained.
    """
    # Add t = obj . x as a fresh last variable and project onto it.
    ext = [(tuple(coeffs) + (0,), const, rel) for coeffs, const, rel in cons]
    ext.append((tuple(-c for c in obj) + (1,), 0, EQ))
    best = None
    for (a,), const, rel in _project(ext, nvars) or ():
        if rel == EQ:
            return Fraction(-const, a)
        # a*t + const >= 0 (or > 0)
        if maximize and a < 0:
            bound = Fraction(-const, a)
            best = bound if best is None else min(best, bound)
        if not maximize and a > 0:
            bound = Fraction(-const, a)
            best = bound if best is None else max(best, bound)
    return best


# ---------------------------------------------------------------------------
# Cone-level operations.
# ---------------------------------------------------------------------------


def euler_char(cone: Cone) -> int:
    """Euler characteristic with compact supports.

    Every sign assignment on the defining hyperplanes carves a relatively
    open convex cell out of the open orthant; summing (-1)^dim over the
    nonempty cells compatible with the constraint relations gives chi_c.
    The `>` and `=` constraints have one sign each and form the root
    system; a depth-first search then chooses `>` or `=` for each `>=`
    constraint in turn and drops the whole subtree below an infeasible
    partial system, so only nonempty cells are reached as leaves.
    """
    n = cone.n
    root = [_unit_constraint(n, i, GT) for i in range(n)]
    root_eqs = []
    choices = []
    for coeffs, rel in cone.constraints:
        if rel == GE:
            choices.append(coeffs)
        else:
            root.append((coeffs, 0, rel))
            if rel == EQ:
                root_eqs.append(coeffs)

    def walk(sys, eqs, depth):
        if not feasible(sys, n):
            return 0
        if depth == len(choices):
            return (-1) ** (n - (rational_rank(eqs) if eqs else 0))
        coeffs = choices[depth]
        return (walk(sys + [(coeffs, 0, GT)], eqs, depth + 1)
                + walk(sys + [(coeffs, 0, EQ)], eqs + [coeffs], depth + 1))

    return walk(root, root_eqs, 0)


def _positive_on_closure(cone: Cone, form) -> bool:
    # The cone is known to be nonempty.
    sys = cone._closure_system() + [((1,) * cone.n, -1, EQ)]
    low = extremum(form, sys, cone.n, maximize=False)
    return low is not None and low > 0


def form_positive_on_closure(cone: Cone, form) -> bool:
    """Whether an integral linear form is positive on closure(cone) - {0}.

    Checked on the compact slice {sum x_i = 1} of the closed cone, which
    meets every ray; vacuously true for the empty cone.
    """
    form = _int_row(form, "form")
    return cone.is_empty() or _positive_on_closure(cone, form)


def _require_positive(cone: Cone, ell, nu) -> None:
    """Raise unless ell and nu are positive on the nonempty cone's closure."""
    for name, form in (("ell", ell), ("nu", nu)):
        if not _positive_on_closure(cone, form):
            raise ValueError(f"form {name} is not positive on the closed cone minus 0")


def lattice_series(cone: Cone, ell, nu, n: int) -> TruncatedPoly:
    """Sum of T^(l(k)) L^(-nu(k)) over lattice points of the cone with all
    coordinates >= 1 and l(k) <= n, by direct enumeration."""
    ell, nu = _int_row(ell, "ell"), _int_row(nu, "nu")
    if cone.is_empty():
        return TruncatedPoly.zero(0)
    _require_positive(cone, ell, nu)
    # Box bounds from exact LP over the closure with x_i >= 1 and l <= n.
    sys = cone._closure_system()
    sys += [_unit_constraint(cone.n, i, GE, -1) for i in range(cone.n)]
    sys.append((tuple(-c for c in ell), n, GE))
    if not feasible(sys, cone.n):
        return TruncatedPoly.zero(0)
    bounds = []
    for i in range(cone.n):
        obj = [1 if j == i else 0 for j in range(cone.n)]
        top = extremum(obj, sys, cone.n, maximize=True)
        if top is None:  # cannot happen: l positive forces compactness
            raise ValueError("unbounded enumeration region")
        bounds.append(int(top))
    out: dict[int, MonodromicClass] = {}
    for point in product(*(range(1, b + 1) for b in bounds)):
        if not cone.contains(point):
            continue
        deg = dot(ell, point)
        if deg > n:
            continue
        e = -dot(nu, point)
        _merge(out, deg, MonodromicClass._trusted(0, {((), e, e): 1}))
    return TruncatedPoly._trusted(0, out)


def series_limit(cone: Cone, ell, nu) -> int:
    """Limit at T -> infinity of the lattice-point series: the compactly
    supported Euler characteristic of the cone."""
    ell, nu = _int_row(ell, "ell"), _int_row(nu, "nu")
    if cone.is_empty():
        return 0
    _require_positive(cone, ell, nu)
    return euler_char(cone)


def kernel_cone(nvars: int, rows):
    """Nonemptiness and dimension of {x in R^n_{>0} : rows . x = 0}.

    Returns (nonempty, dim); dim is None when empty.  When nonempty the set
    is relatively open in the kernel subspace, so its dimension is
    n - rank(rows).
    """
    cone = Cone(nvars, tuple((row, EQ) for row in rows))
    if cone.is_empty():
        return False, None
    rows = [coeffs for coeffs, _rel in cone.constraints]
    rank = rational_rank(rows) if rows else 0
    return True, nvars - rank


def stays_bounded(nvars: int, rows, num_form, den_form) -> bool:
    """Whether the kernel cone is nonempty and num/den stays bounded on it.

    num_form and den_form have nonnegative coefficients.  Unboundedness of
    the ratio is witnessed by a direction in the closed kernel cone where
    the denominator form vanishes and the numerator form is positive; the
    check is an exact LP on the closure.  An identically zero denominator
    (empty support) fails outright.
    """
    rows = [_int_row(row, f"row {i}") for i, row in enumerate(rows)]
    num_form = _int_row(num_form, "num_form")
    den_form = _int_row(den_form, "den_form")
    nonempty, _dim = kernel_cone(nvars, rows)
    if not nonempty:
        return False
    if not any(den_form):
        return False
    sys = [_unit_constraint(nvars, i, GE) for i in range(nvars)]
    sys += [(row, 0, EQ) for row in rows]
    sys.append((tuple(-c for c in den_form), 0, GE))
    sys.append((den_form, 0, GE))
    sys.append((num_form, 0, GT))
    return not feasible(sys, nvars)
