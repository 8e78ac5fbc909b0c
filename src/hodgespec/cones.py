"""Rational polyhedral cones in the open positive orthant.

A cone is cut out of {x : x_i > 0 for all i} by finitely many homogeneous
integral constraints, each one of `>= 0`, `> 0`, or `= 0`.  The module
provides

* exact linear programming by Fourier-Motzkin elimination (feasibility and
  one-dimensional extrema) on primitive integer rows: denominators are
  cleared once on entry, equalities are substituted before any inequality
  pair is formed, every derived row is divided by its gcd, and strict
  inequalities are tracked symbolically.  Each row carries the set of
  input inequalities it combines, and a row formed during the j-th pair
  elimination from more than j + 1 of them is redundant and dropped
  (Chernikov 1965).  Rows keep their full width (an eliminated coefficient
  is 0), and the elimination keeps every level: the system before x_k is
  eliminated is the exact projection onto x_0..x_k.  Elimination runs only
  in `feasible`, `extremum` and the lattice-point scan;
* the lattice-point generating series sum over k in the cone with positive
  integer coordinates of T^(l(k)) L^(-nu(k)) up to a degree bound, by one
  elimination scanned level by level (Ancourt-Irigoin): with x_0..x_(k-1)
  fixed, the rows of the level before x_k is eliminated give the exact
  integer range of x_k, so no point outside the cone is visited, and a scan
  past MAX_EXPAND_TERMS points raises ValueError;
* the Euler characteristic with compact supports, via the decomposition of
  the cone into the relatively open sign cells of its defining hyperplane
  arrangement (a nonempty cell of dimension d contributes (-1)^d); the
  cells are reached by a depth-first search over sign choices, each cell
  held as the extreme rays of its closure and cut by one hyperplane at a
  time as in the double description method (Motzkin et al. 1953;
  Fukuda-Prodon 1996): Fourier-Motzkin on generators instead of rows, with
  the combinatorial adjacency test, so a cell's emptiness and dimension
  are read off the signs of dot products and no elimination is run;
* the extreme rays of a closed cone {x >= 0 : rows}, each with the set of
  rows tight at it, built by the same cut from the unit rays; every yes/no
  question is read off the rays of the cone's closure with no elimination:
  the cone is nonempty when each strict row (x_i > 0 and every `>` row) is
  untight at some ray, and a form is positive on the closure minus 0 when
  it is positive at every ray;
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
from math import gcd, lcm
from operator import mul

from .lattice import SchemaError, _frac_row, _int_matrix, _int_row, _strict_int, rational_rank
from .monclass import MonodromicClass
from .series import MAX_EXPAND_TERMS, TruncatedPoly

GE, GT, EQ = ">=", ">", "="
_RELS = (GE, GT, EQ)


def dot(form, x):
    return sum(map(mul, form, x))


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
            coeffs = _int_row(coeffs, f"constraint {i}", length=self.n)
            if rel not in _RELS:
                raise ValueError(f"constraint {i}: unknown relation {rel!r}")
            cleaned.append((coeffs, rel))
        object.__setattr__(self, "constraints", tuple(cleaned))

    def contains(self, point) -> bool:
        """Exact membership for a rational point."""
        return all(x > 0 for x in point) and all(
            _holds(dot(coeffs, point), rel) for coeffs, rel in self.constraints)

    def _closure_rays(self):
        """The extreme rays of the closure, or None when the cone is empty."""
        return _closure_rays(self.n, self.constraints)

    def is_empty(self) -> bool:
        return self._closure_rays() is None


def _closure_rays(n: int, rows):
    """The extreme rays of the closure of {x > 0 : rows} (checked rows),
    or None when that cone is empty.

    The rays span the relaxed cone {x >= 0 : every `>` read as `>=`},
    which is the closure whenever the cone is nonempty.  A strict row
    (x_i > 0, or a `>` constraint) tight at every ray vanishes on the
    relaxed cone, so the cone is empty; otherwise the sum of the rays is a
    point of it.  With no ray the relaxed cone is {0}, which is a point of
    the cone only in R^0 with no `>` row.
    """
    rays = _extreme_rays(n, [(coeffs, GE if rel == GT else rel) for coeffs, rel in rows])
    strict = (1 << n) - 1
    for bit, (_coeffs, rel) in enumerate(rows, n):
        if rel == GT:
            strict |= 1 << bit
    tight = -1
    for _ray, mask in rays:
        tight &= mask
    return None if tight & strict else rays


# ---------------------------------------------------------------------------
# Fourier-Motzkin machinery.  A constraint is (coeffs, const, rel) meaning
# dot(coeffs, x) + const REL 0.  Callers may pass Fractions, cleared once by
# `_system`; every row is primitive: integer entries with gcd 1.
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


def _normalize(values, rel):
    """Clear the denominators of rational coeffs + [const]: a primitive row."""
    scale = lcm(*(v.denominator for v in values))
    return _primitive([v.numerator * (scale // v.denominator) for v in values], rel)


def _system(cons, nvars: int) -> list:
    """Primitive rows, strictly: constraint i holds nvars coefficients, a
    constant (ints and Fractions) and a known relation, or is refused."""
    rows = []
    for i, (coeffs, const, rel) in enumerate(cons):
        where = f"constraint {i}"
        if rel not in _RELS:
            raise SchemaError(where, f"unknown relation {rel!r}")
        values = _frac_row(coeffs, where, nvars) + _frac_row((const,), f"{where} constant")
        rows.append(_normalize(values, rel))
    return rows


def _combine(a, row1, b, row2, rel):
    """a * row1 + b * row2, primitive; the eliminated coefficient stays as 0."""
    values = [a * x + b * y for x, y in zip(row1[0], row2[0])]
    values.append(a * row1[1] + b * row2[1])
    return _primitive(values, rel)


def _substitute(system, k, pivot):
    """Eliminate x_k with the `=` row pivot: (row, set) pairs.  Scaling the
    other row by |p| > 0 keeps its direction, and its set is unchanged:
    the substitution is a change of coordinates on the pivot's hyperplane."""
    p = pivot[0][k]
    ap, sign = abs(p), 1 if p > 0 else -1
    return [(_combine(ap, row, -sign * row[0][k], pivot, row[2]) if row[0][k] else row, hist)
            for row, hist in system.items() if row is not pivot]


def _pair_off(system, k, limit):
    """Eliminate x_k, which no `=` row involves, by pairing every lower
    bound with every upper one: (row, set) pairs.  A pair row whose set
    has more than limit members is dropped."""
    lowers, uppers, out = [], [], []
    for row, hist in system.items():
        c = row[0][k]
        if c > 0:
            lowers.append((row, hist))
        elif c < 0:
            uppers.append((row, hist))
        else:
            out.append((row, hist))
    for low, low_hist in lowers:
        for up, up_hist in uppers:
            hist = low_hist | up_hist
            if hist.bit_count() <= limit:
                # low[k] * upper + (-up[k]) * lower eliminates x_k.
                rel = GT if GT in (low[2], up[2]) else GE
                out.append((_combine(low[0][k], up, -up[0][k], low, rel), hist))
    return out


def _settle(rows):
    """{row: set} from (row, set) pairs: a repeated row keeps its smaller
    set, and a `>=` row whose `>` twin is present and the rows with no
    variable left that hold are dropped.  None when one of those fails,
    which proves the system infeasible."""
    system = {}
    for row, hist in rows:
        old = system.get(row)
        if old is None or hist.bit_count() < old.bit_count():
            system[row] = hist
    for row in list(system):
        coeffs, const, rel = row
        if not any(coeffs):
            if not _holds(const, rel):
                return None
            del system[row]
        elif rel == GE and (coeffs, const, GT) in system:
            del system[row]
    return system


def _levels(rows, nvars: int):
    """Eliminate x_(nvars-1), ..., x_0 from primitive rows, keeping every
    intermediate system; None if the system is infeasible.

    A level maps each row to the set of input inequalities it combines (a
    bitmask; `=` rows carry none), and iterates over its rows.
    levels[k + 1] is the system before x_k is eliminated, the exact
    projection of the input onto x_0..x_k; levels[nvars] is the primitive
    input, and the last level, levels[0], holds no row.  Chernikov's rule
    keeps the levels small: a row formed during the j-th pair elimination
    from more than j + 1 input inequalities is a positive combination of
    rows with smaller sets, so it is redundant and dropped.
    """
    system = _settle((row, 0 if row[2] == EQ else 1 << i) for i, row in enumerate(rows))
    levels = [system]
    pairs = 0
    for k in range(nvars - 1, -1, -1):
        if system is None:
            break
        # Equality substitution wins when available: exact and size-stable.
        pivot = next((row for row in system if row[2] == EQ and row[0][k]), None)
        if pivot is None:
            pairs += 1
            system = _settle(_pair_off(system, k, pairs + 1))
        else:
            system = _settle(_substitute(system, k, pivot))
        levels.append(system)
    if system is None:
        return None
    levels.reverse()
    return levels


def feasible(cons, nvars: int) -> bool:
    """Exact feasibility of a system of affine constraints over Q."""
    nvars = _strict_int(nvars, "nvars", 0)
    return _levels(_system(cons, nvars), nvars) is not None


def extremum(obj, cons, nvars: int, maximize: bool = True):
    """Sup (or inf) of dot(obj, x) over a system; None if unbounded.

    The bound returned is the exact supremum/infimum whether or not it is
    attained.  Raises ValueError when the system is infeasible.
    """
    nvars = _strict_int(nvars, "nvars", 0)
    obj = _frac_row(obj, "objective", nvars)
    # t = obj . x is a fresh first variable, so it is eliminated last: the
    # level before it goes bounds t alone, and the last level proves the
    # whole system feasible.
    ext = [((0, *coeffs), const, rel) for coeffs, const, rel in _system(cons, nvars)]
    ext.append(_normalize([1, *(-c for c in obj), 0], EQ))
    levels = _levels(ext, nvars + 1)
    if levels is None:
        raise ValueError("extremum over an infeasible system")
    best = None
    for coeffs, const, rel in levels[1]:
        a = coeffs[0]
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


def _cut(rays, h, bit):
    """Cut the closed cell spanned by rays with the hyperplane h . x = 0.

    rays holds the extreme rays of the cell's closure as (ray, mask)
    pairs, mask being the set of constraint bits tight at the ray.
    Returns (pos, on, neg): the rays where h is positive, the extreme rays
    of the closure cut by h = 0 (tight at bit), and whether h is negative
    at some ray.  A ray of the cut is a zero ray of h or one new ray per
    adjacent pair (p, q) with h.p > 0 > h.q; p and q are adjacent when no
    third ray is tight on every constraint tight at both (the
    combinatorial test of the double description method; distinct extreme
    rays have distinct masks).
    """
    pos, on, neg = [], [], []
    for ray, mask in rays:
        v = dot(h, ray)
        if v > 0:
            pos.append((ray, mask, v))
        elif v < 0:
            neg.append((ray, mask, v))
        else:
            on.append((ray, mask | bit))
    for p, mp, vp in pos:
        for q, mq, vq in neg:
            common = mp & mq
            if any(m & common == common and m != mp and m != mq for _r, m in rays):
                continue
            values = [vp * b - vq * a for a, b in zip(p, q)]
            g = gcd(*values)
            on.append((tuple(v // g for v in values), common | bit))
    return [(ray, mask) for ray, mask, _v in pos], on, bool(neg)


def _unit_rays(n):
    """The extreme rays e_i of the orthant {x >= 0} in R^n, each tight at
    every orthant bit but its own."""
    orthant, zeros = (1 << n) - 1, (0,) * n
    return [(zeros[:i] + (1,) + zeros[i + 1:], orthant ^ (1 << i)) for i in range(n)]


def extreme_rays(nvars: int, rows) -> list:
    """Extreme rays of the closed cone {x in R^nvars : x >= 0, rows}.

    Each row is (coeffs, rel) with rel `>=` or `=`.  Returns (ray, mask)
    pairs: ray is a primitive integer vector, and mask has bit i set when
    x_i = 0 at the ray and bit nvars + j when row j is tight there.  The
    rays are built from the unit rays by one `_cut` per row; the list is
    empty when the cone is {0}.  Coefficients must be nvars integers: a
    bool, float or str, or a row of another length, raises ValueError
    naming the row; so does an nvars that is not an int >= 0.
    """
    nvars = _strict_int(nvars, "nvars", 0)
    rows = [(_int_row(coeffs, f"row {j}", length=nvars), rel) for j, (coeffs, rel) in enumerate(rows)]
    for j, (_coeffs, rel) in enumerate(rows):
        if rel not in (GE, EQ):
            raise ValueError(f"row {j}: extreme_rays takes `>=` and `=` rows, got {rel!r}")
    return _extreme_rays(nvars, rows)


def _extreme_rays(nvars, rows):
    """`extreme_rays` on rows already checked, as `Cone` checks its own."""
    rays = _unit_rays(nvars)
    for bit, (coeffs, rel) in enumerate(rows, nvars):
        pos, on, _neg = _cut(rays, coeffs, 1 << bit)
        rays = pos + on if rel == GE else on
    return rays


def euler_char(cone: Cone) -> int:
    """Euler characteristic with compact supports.

    Every sign assignment on the defining hyperplanes carves a relatively
    open convex cell out of the open orthant; summing (-1)^dim over the
    nonempty cells compatible with the constraint relations gives chi_c.
    A cell is held as the extreme rays of its closure, starting from the
    unit vectors of the orthant, and each hyperplane is applied by one
    `_cut`.  The cell is the relative interior of that closure, so its
    `>` side is nonempty exactly when some ray is positive, and its `=`
    side when rays of both signs exist (one dimension less) or none (h
    vanishes on the cell).  The `>` and `=` constraints are cut first; a
    depth-first search then chooses `>` or `=` for each `>=` constraint
    in turn, so only nonempty cells are reached as leaves.
    """
    n = cone.n
    rays = _unit_rays(n)
    dim = n
    choices = []
    for bit, (coeffs, rel) in enumerate(cone.constraints, n):
        if rel == GE:
            choices.append((coeffs, 1 << bit))
            continue
        pos, on, neg = _cut(rays, coeffs, 1 << bit)
        if rel == GT:
            if not pos:
                return 0
            rays = pos + on
        elif bool(pos) != neg:
            return 0
        else:
            rays, dim = on, dim - bool(pos)

    def walk(rays, dim, depth):
        if depth == len(choices):
            return (-1) ** dim
        pos, on, neg = _cut(rays, *choices[depth])
        total = walk(pos + on, dim, depth + 1) if pos else 0
        if bool(pos) == neg:
            total += walk(on, dim - bool(pos), depth + 1)
        return total

    return walk(rays, dim, 0)


def form_positive_on_closure(cone: Cone, form) -> bool:
    """Whether an integral linear form is positive on closure(cone) - {0}.

    Checked at the extreme rays of the closure, which span it; vacuously
    true for the empty cone.
    """
    form = _int_row(form, "form", length=cone.n)
    rays = cone._closure_rays()
    return rays is None or _positive_at(rays, form)


def _positive_at(rays, form) -> bool:
    return all(dot(form, ray) > 0 for ray, _mask in rays)


def _require_positive(rays, ell, nu) -> None:
    """Raise unless ell and nu are positive at every extreme ray of a
    nonempty cone's closure."""
    for name, form in (("ell", ell), ("nu", nu)):
        if not _positive_at(rays, form):
            raise ValueError(f"form {name} is not positive on the closed cone minus 0")


def _integer_range(rows, prefix):
    """(lo, hi) of the integers x_k satisfying every row a * x_k + head .
    prefix + const REL 0 given as (a, head, const, rel); None if there are
    none.  An `=` row pins x_k, or leaves no value when a does not divide."""
    lo = hi = None
    for a, head, const, rel in rows:
        r = const + dot(head, prefix)
        if rel == EQ:
            if r % a:
                return None
            low = high = -r // a
        elif a > 0:  # x_k >= -r / a, or >: round up
            low, high = (-(r // a) if rel == GE else -r // a + 1), None
        else:  # x_k <= r / -a, or <: round down
            low, high = None, (r // -a if rel == GE else -(-r // -a) - 1)
        if low is not None and (lo is None or low > lo):
            lo = low
        if high is not None and (hi is None or high < hi):
            hi = high
    if lo is None or hi is None:  # cannot happen: l positive forces compactness
        raise ValueError("unbounded enumeration region")
    return (lo, hi) if lo <= hi else None


def _count_points(levels, ell, nu) -> dict:
    """{(l(k), -nu(k)): count} over the integer points k of the system
    whose levels are given, fixing x_0, x_1, ... in turn.  Raises
    ValueError once more than MAX_EXPAND_TERMS points have been visited."""
    nvars = len(ell)
    if not nvars:
        return {(0, 0): 1}  # the one point of Z^0
    # The rows of the system before x_k is eliminated that involve x_k.
    rows = [[(c[k], c[:k], const, rel) for c, const, rel in levels[k + 1] if c[k]]
            for k in range(nvars)]
    counts = {}
    prefix = []
    visited = 0

    def scan(k, deg, e):
        nonlocal visited
        span = _integer_range(rows[k], prefix)
        if span is None:
            return
        values = range(span[0], span[1] + 1)
        l, m = ell[k], nu[k]
        if k == nvars - 1:
            visited += len(values)
            if visited > MAX_EXPAND_TERMS:
                raise ValueError(
                    f"lattice point scan visits more than MAX_EXPAND_TERMS = {MAX_EXPAND_TERMS} points"
                )
            for v in values:
                key = (deg + l * v, e - m * v)
                counts[key] = counts.get(key, 0) + 1
            return
        prefix.append(0)
        for v in values:
            prefix[k] = v
            scan(k + 1, deg + l * v, e - m * v)
        prefix.pop()

    scan(0, 0, 0)
    return counts


def lattice_series(cone: Cone, ell, nu, n: int) -> TruncatedPoly:
    """Sum of T^(l(k)) L^(-nu(k)) over lattice points of the cone with all
    coordinates >= 1 and l(k) <= n.

    The rays of the cone's closure answer emptiness and the positivity of
    l and nu.  One elimination of {cone rows, x_i >= 1, l(x) <= n} keeps
    its projection onto every prefix of the coordinates; the scan then fixes
    x_0, x_1, ... in turn, each over the exact integer range that the
    level before x_k is eliminated gives it.  Raises ValueError once the
    scan passes MAX_EXPAND_TERMS points.
    """
    ell, nu = _int_row(ell, "ell", length=cone.n), _int_row(nu, "nu", length=cone.n)
    n = _strict_int(n, "n")
    rays = cone._closure_rays()
    if rays is None:
        return TruncatedPoly.zero(0)
    _require_positive(rays, ell, nu)
    sys = [_primitive([*coeffs, 0], rel) for coeffs, rel in cone.constraints]
    sys += [(unit, -1, GE) for unit, _mask in _unit_rays(cone.n)]
    sys.append(_primitive([*(-c for c in ell), n], GE))
    levels = _levels(sys, cone.n)
    if levels is None:
        return TruncatedPoly.zero(0)
    out: dict[int, dict] = {}
    for (deg, e), count in _count_points(levels, ell, nu).items():
        out.setdefault(deg, {})[((), e, e)] = count
    return TruncatedPoly._trusted(0, {deg: MonodromicClass._trusted(0, terms, 1)
                                      for deg, terms in out.items()})


def series_limit(cone: Cone, ell, nu) -> int:
    """Limit at T -> infinity of the lattice-point series: the compactly
    supported Euler characteristic of the cone."""
    ell, nu = _int_row(ell, "ell", length=cone.n), _int_row(nu, "nu", length=cone.n)
    rays = cone._closure_rays()
    if rays is None:
        return 0
    _require_positive(rays, ell, nu)
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
    return True, cone.n - rational_rank([coeffs for coeffs, _rel in cone.constraints])


def stays_bounded(nvars: int, rows, num_form, den_form) -> bool:
    """Whether the kernel cone is nonempty and num/den stays bounded on it.

    num_form and den_form have nonnegative coefficients.  Unboundedness of
    the ratio is witnessed by a direction in the closed kernel cone where
    the denominator form vanishes and the numerator form is positive; that
    cone is spanned by the extreme rays of the closure cut by den = 0, so
    the numerator is tested at those.  An identically zero denominator
    (empty support) fails outright.
    """
    nvars = Cone(nvars).n  # the dimension rule of every cone
    rows = _int_matrix(rows, width=nvars)
    num_form = _int_row(num_form, "num_form", length=nvars)
    den_form = _int_row(den_form, "den_form", length=nvars)
    rays = _closure_rays(nvars, [(row, EQ) for row in rows])
    if rays is None or not any(den_form):
        return False
    _pos, on, _neg = _cut(rays, den_form, 1 << (nvars + len(rows)))
    return all(dot(num_form, ray) <= 0 for ray, _mask in on)
