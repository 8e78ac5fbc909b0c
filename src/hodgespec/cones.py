"""Rational polyhedral cones in the open positive orthant.

A cone is cut out of {x : x_i > 0 for all i} by finitely many homogeneous
integral constraints, each one of `>= 0`, `> 0`, or `= 0`.  The module
provides

* exact linear programming by Fourier-Motzkin elimination (feasibility and
  one-dimensional extrema), strict inequalities tracked symbolically;
* the lattice-point generating series sum over k in the cone with positive
  integer coordinates of T^(l(k)) L^(-nu(k)), by direct enumeration up to a
  degree bound;
* the Euler characteristic with compact supports, via the decomposition of
  the cone into the relatively open sign cells of its defining hyperplane
  arrangement (a nonempty cell of dimension d contributes (-1)^d);
* the limit of the generating series at T -> infinity, which equals that
  Euler characteristic whenever l and nu are positive on the closed cone
  minus the origin.

Dimensions are desk scale (<= 6), so no effort is spent on sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .lattice import rational_rank
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
        if self.n > 6:
            raise ValueError("cone dimension above the supported bound of 6")
        cleaned = []
        for coeffs, rel in self.constraints:
            coeffs = tuple(int(c) for c in coeffs)
            if len(coeffs) != self.n:
                raise ValueError("constraint length does not match ambient dimension")
            if rel not in _RELS:
                raise ValueError(f"unknown relation {rel!r}")
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
        sys += [(tuple(Fraction(c) for c in coeffs), Fraction(0), rel)
                for coeffs, rel in self.constraints]
        return sys

    def _closure_system(self):
        # Valid as the closure only when the cone is nonempty (a nonempty
        # set cut out by equalities and strict/weak inequalities has the
        # relaxed system as its closure).
        sys = [_unit_constraint(self.n, i, GE) for i in range(self.n)]
        sys += [
            (tuple(Fraction(c) for c in coeffs), Fraction(0), GE if rel == GT else rel)
            for coeffs, rel in self.constraints
        ]
        return sys

    def is_empty(self) -> bool:
        return not feasible(self._strict_system(), self.n)


def _unit_constraint(n, i, rel):
    coeffs = tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
    return (coeffs, Fraction(0), rel)


# ---------------------------------------------------------------------------
# Fourier-Motzkin machinery.  A constraint is (coeffs, const, rel) meaning
# dot(coeffs, x) + const REL 0, all entries exact Fractions.
# ---------------------------------------------------------------------------


def _normalize(con):
    coeffs, const, rel = con
    denoms = [c.denominator for c in coeffs] + [const.denominator]
    scale = 1
    for d in denoms:
        scale = scale * d // gcd(scale, d)
    ints = [int(c * scale) for c in coeffs] + [int(const * scale)]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return (tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1]), rel)


def _eliminate(cons, k):
    """Project the system onto the coordinates other than x_k."""
    # Equality substitution wins when available: exact and size-stable.
    for idx, (coeffs, const, rel) in enumerate(cons):
        if rel == EQ and coeffs[k]:
            pivot = coeffs[k]
            out = []
            for j, (c2, b2, r2) in enumerate(cons):
                if j == idx:
                    continue
                factor = c2[k] / pivot
                new_coeffs = tuple(
                    c2[i] - factor * coeffs[i] for i in range(len(c2))
                )
                out.append((new_coeffs, b2 - factor * const, r2))
            return [_drop(c, k) for c in out]
    lowers, uppers, rest = [], [], []
    for coeffs, const, rel in cons:
        c = coeffs[k]
        if c > 0:
            lowers.append((coeffs, const, rel))
        elif c < 0:
            uppers.append((coeffs, const, rel))
        else:
            rest.append((coeffs, const, rel))
    for cl, bl, rl in lowers:
        for cu, bu, ru in uppers:
            # cl[k] * upper + (-cu[k]) * lower eliminates x_k.
            a, b = cl[k], -cu[k]
            coeffs = tuple(a * cu[i] + b * cl[i] for i in range(len(cl)))
            const = a * bu + b * bl
            rel = GT if GT in (rl, ru) else GE
            rest.append((coeffs, const, rel))
    return [_drop(c, k) for c in rest]


def _drop(con, k):
    coeffs, const, rel = con
    return (coeffs[:k] + coeffs[k + 1:], const, rel)


def feasible(cons, nvars: int) -> bool:
    """Exact feasibility of a system of affine constraints over Q."""
    cons = [_normalize(c) for c in cons]
    for k in range(nvars - 1, -1, -1):
        cons = [_normalize(c) for c in _eliminate(cons, k)]
        cons = list(dict.fromkeys(cons))
    for _coeffs, const, rel in cons:
        if rel == GE and const < 0:
            return False
        if rel == GT and const <= 0:
            return False
        if rel == EQ and const != 0:
            return False
    return True


def extremum(obj, cons, nvars: int, maximize: bool = True):
    """Sup (or inf) of dot(obj, x) over a nonempty system; None if unbounded.

    The system is assumed feasible; the bound returned is the exact
    supremum/infimum whether or not it is attained.
    """
    # Add t = obj . x as a fresh last variable and project onto it.
    ext = []
    for coeffs, const, rel in cons:
        ext.append((tuple(coeffs) + (Fraction(0),), const, rel))
    link = tuple(-Fraction(c) for c in obj) + (Fraction(1),)
    ext.append((link, Fraction(0), EQ))
    for k in range(nvars - 1, -1, -1):
        ext = [_normalize(c) for c in _eliminate(ext, k)]
        ext = list(dict.fromkeys(ext))
    best = None
    for (a,), const, rel in ext:
        if rel == EQ:
            if a:
                return -const / a
            continue
        # a*t + const >= 0 (or > 0)
        if maximize and a < 0:
            bound = -const / a
            best = bound if best is None else min(best, bound)
        if not maximize and a > 0:
            bound = -const / a
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
    """
    hyperplanes = [coeffs for coeffs, _rel in cone.constraints]
    options = []
    for _coeffs, rel in cone.constraints:
        if rel == GE:
            options.append((GT, EQ))
        elif rel == GT:
            options.append((GT,))
        else:
            options.append((EQ,))
    total = 0
    for signs in product(*options):
        sys = [_unit_constraint(cone.n, i, GT) for i in range(cone.n)]
        eqs = []
        for coeffs, sign in zip(hyperplanes, signs):
            fr = tuple(Fraction(c) for c in coeffs)
            sys.append((fr, Fraction(0), sign))
            if sign == EQ:
                eqs.append(coeffs)
        if not feasible(sys, cone.n):
            continue
        dim = cone.n - (rational_rank(eqs) if eqs else 0)
        total += (-1) ** dim
    return total


def form_positive_on_closure(cone: Cone, form) -> bool:
    """Whether an integral linear form is positive on closure(cone) - {0}.

    Checked on the compact slice {sum x_i = 1} of the closed cone, which
    meets every ray; vacuously true for the empty cone.
    """
    if cone.is_empty():
        return True
    sys = cone._closure_system()
    slice_eq = (tuple(Fraction(1) for _ in range(cone.n)), Fraction(-1), EQ)
    sys = sys + [slice_eq]
    low = extremum(form, sys, cone.n, maximize=False)
    return low is not None and low > 0


def lattice_series(cone: Cone, ell, nu, n: int) -> TruncatedPoly:
    """Sum of T^(l(k)) L^(-nu(k)) over lattice points of the cone with all
    coordinates >= 1 and l(k) <= n, by direct enumeration."""
    for name, form in (("ell", ell), ("nu", nu)):
        if not form_positive_on_closure(cone, form):
            raise ValueError(f"form {name} is not positive on the closed cone minus 0")
    if cone.is_empty():
        return TruncatedPoly.zero(0)
    # Box bounds from exact LP over the closure with x_i >= 1 and l <= n.
    sys = cone._closure_system()
    for i in range(cone.n):
        coeffs = tuple(Fraction(1) if j == i else Fraction(0) for j in range(cone.n))
        sys.append((coeffs, Fraction(-1), GE))
    sys.append((tuple(-Fraction(c) for c in ell), Fraction(n), GE))
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
    for name, form in (("ell", ell), ("nu", nu)):
        if not form_positive_on_closure(cone, form):
            raise ValueError(f"form {name} is not positive on the closed cone minus 0")
    return euler_char(cone)


def kernel_cone(nvars: int, rows):
    """Nonemptiness and dimension of {x in R^n_{>0} : rows . x = 0}.

    Returns (nonempty, dim); dim is None when empty.  When nonempty the set
    is relatively open in the kernel subspace, so its dimension is
    n - rank(rows).
    """
    rows = [tuple(int(c) for c in row) for row in rows]
    cone = Cone(nvars, tuple((row, EQ) for row in rows))
    if cone.is_empty():
        return False, None
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
    rows = [tuple(int(c) for c in row) for row in rows]
    nonempty, _dim = kernel_cone(nvars, rows)
    if not nonempty:
        return False
    if all(c == 0 for c in den_form):
        return False
    sys = [_unit_constraint(nvars, i, GE) for i in range(nvars)]
    for row in rows:
        sys.append((tuple(Fraction(c) for c in row), Fraction(0), EQ))
    sys.append((tuple(-Fraction(c) for c in den_form), Fraction(0), GE))
    sys.append((tuple(Fraction(c) for c in den_form), Fraction(0), GE))
    sys.append((tuple(Fraction(c) for c in num_form), Fraction(0), GT))
    return not feasible(sys, nvars)
