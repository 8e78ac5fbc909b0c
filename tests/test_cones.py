import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from hodgespec import cones
from hodgespec.cones import (
    Cone,
    dot,
    euler_char,
    extreme_rays,
    extremum,
    feasible,
    form_positive_on_closure,
    kernel_cone,
    lattice_series,
    series_limit,
    stays_bounded,
)
from hodgespec.monclass import MonodromicClass as MC
from hodgespec.series import RationalSeries as RS, TruncatedPoly as TP

L = MC.lefschetz


def test_series_open_quadrant():
    cone = Cone(2)
    got = lattice_series(cone, (1, 1), (1, 1), 3)
    assert got == TP(0, {2: L(0, -2), 3: 2 * L(0, -3)})


def test_series_empty_cone():
    empty = Cone(2, (((-1, -1), ">="),))
    assert empty.is_empty()
    assert lattice_series(empty, (1, 1), (1, 1), 6) == TP.zero(0)


def test_series_scaled_ray():
    got = lattice_series(Cone(1), (2,), (1,), 4)
    assert got == TP(0, {2: L(0, -1), 4: L(0, -2)})


def test_euler_char_examples():
    assert euler_char(Cone(2)) == 1
    assert euler_char(Cone(1)) == -1
    assert euler_char(Cone(3)) == -1
    # open part (chi 1) plus wall (chi -1)
    assert euler_char(Cone(2, (((-1, 1), ">="),))) == 0
    assert euler_char(Cone(2, (((-1, -1), ">="),))) == 0  # empty


def test_limit_examples():
    assert series_limit(Cone(2), (1, 1), (1, 1)) == 1
    assert series_limit(Cone(1), (1,), (1,)) == -1
    assert series_limit(Cone(2, (((-1, 1), ">="),)), (1, 1), (1, 1)) == 0


def test_dimension_zero_obeys_the_limit_lemma():
    # Z^0 has one point, of degree 0; closure minus 0 is empty, so every
    # form is vacuously positive and the limit is chi_c of a point.
    point = Cone(0)
    assert form_positive_on_closure(point, ())
    for n in (0, 3):
        assert lattice_series(point, (), (), n) == TP(0, {0: L(0, 0)})
    assert lattice_series(point, (), (), -1) == TP.zero(0)
    assert series_limit(point, (), ()) == 1 == euler_char(point)


def test_positivity_precondition():
    with pytest.raises(ValueError):
        series_limit(Cone(2), (1, -1), (1, 1))
    with pytest.raises(ValueError):
        lattice_series(Cone(2), (1, 1), (0, 1), 3)
    assert form_positive_on_closure(Cone(2), (1, 1))
    assert not form_positive_on_closure(Cone(2), (1, 0))


def test_two_sided_cones_have_zero_limit():
    rng = random.Random(2)
    for _ in range(50):
        dim = rng.randint(2, 4)
        ksize = rng.randint(1, dim - 1)
        idx = list(range(dim))
        rng.shuffle(idx)
        K = set(idx[:ksize])
        a = [rng.randint(1, 5) for _ in range(dim)]
        coeffs = tuple(-a[i] if i in K else a[i] for i in range(dim))
        assert series_limit(Cone(dim, ((coeffs, ">="),)), (1,) * dim, (1,) * dim) == 0


def test_euler_additive_under_splits():
    rng = random.Random(4)
    for _ in range(25):
        dim = rng.randint(2, 4)
        cons = tuple(
            (tuple(rng.randint(-2, 2) for _ in range(dim)), rng.choice((">=", ">")))
            for _ in range(rng.randint(0, 2))
        )
        h = tuple(rng.randint(-2, 2) for _ in range(dim))
        whole = euler_char(Cone(dim, cons))
        below = euler_char(Cone(dim, cons + ((tuple(-c for c in h), ">"),)))
        on = euler_char(Cone(dim, cons + ((h, "="),)))
        above = euler_char(Cone(dim, cons + ((h, ">"),)))
        assert whole == below + on + above


def test_unimodular_series_coherence():
    # Generators (1,1), (0,1): lattice points m(1,1) + k(0,1), m,k >= 1.
    cone = Cone(2, (((1, 0), ">"), ((-1, 1), ">")))
    ell, nu = (1, 1), (1, 2)
    closed = RS.generator(-dot(nu, (1, 1)), dot(ell, (1, 1))) * RS.generator(
        -dot(nu, (0, 1)), dot(ell, (0, 1))
    )
    assert closed.expand(25) == lattice_series(cone, ell, nu, 25)
    assert closed.limit() == MC.unit(0) * euler_char(cone)
    assert euler_char(cone) == 1


def test_kernel_cone():
    assert kernel_cone(3, []) == (True, 3)
    assert kernel_cone(2, [(1, 1)]) == (False, None)
    assert kernel_cone(2, [(1, -1)]) == (True, 1)
    assert kernel_cone(3, [(1, -1, 0)]) == (True, 2)
    assert kernel_cone(3, [(0, 0, 0), (0, 0, 0)]) == (True, 3)
    assert kernel_cone(3, [(1, -1, 0), (0, 1, -1)]) == (True, 1)


def test_stays_bounded():
    assert stays_bounded(2, [], (1, 0), (1, 1)) is True
    assert stays_bounded(2, [], (0, 1), (1, 0)) is False
    assert stays_bounded(2, [], (1, 0), (0, 0)) is False
    assert stays_bounded(2, [(1, 1)], (1, 0), (0, 1)) is False
    assert stays_bounded(3, [(1, -1, 0)], (1, 0, 0), (0, 1, 0)) is True
    assert stays_bounded(3, [(1, -1, 0)], (0, 0, 1), (1, 1, 0)) is False


def test_cone_membership():
    cone = Cone(2, (((-1, 1), ">="),))
    assert cone.contains((1, 1))
    assert cone.contains((1, 2))
    assert not cone.contains((2, 1))
    assert not cone.contains((0, 1))


def test_dimension_bound():
    with pytest.raises(ValueError):
        Cone(7)


def test_dimension_and_coefficients_are_strict_integers():
    for n in (-1, True, 2.0, "2"):
        with pytest.raises(ValueError, match="dimension"):
            Cone(n)
    assert Cone(0).constraints == ()
    # An integral Fraction is an integer here as in every other constructor.
    assert type(Cone(Fraction(2)).n) is int and Cone(Fraction(2)).n == 2
    assert Cone(2, (((Fraction(4, 2), -1), ">="),)).constraints == (((2, -1), ">="),)
    for bad in (1.5, 2.0, True, "1", Fraction(1, 2), None):
        with pytest.raises(ValueError, match="constraint 1"):
            Cone(2, (((1, 1), ">"), ((bad, -1), ">=")))
        with pytest.raises(ValueError, match="constraint 0"):
            kernel_cone(2, [(bad, -1)])
        with pytest.raises(ValueError, match="row 1"):
            stays_bounded(2, [(1, -1), (-1, bad)], (1, 0), (0, 1))
        with pytest.raises(ValueError, match="num_form"):
            stays_bounded(2, [], (bad, 0), (1, 1))
        with pytest.raises(ValueError, match="den_form"):
            stays_bounded(2, [], (1, 0), (1, bad))
        for cone in (Cone(2), Cone(2, (((-1, -1), ">="),))):
            with pytest.raises(ValueError, match="ell"):
                lattice_series(cone, (1, bad), (1, 1), 3)
            with pytest.raises(ValueError, match="nu"):
                series_limit(cone, (1, 1), (bad, 1))
            with pytest.raises(ValueError, match="form"):
                form_positive_on_closure(cone, (bad, 1))
    with pytest.raises(ValueError, match="constraint 0"):
        Cone(2, (((1, 1, 1), ">="),))
    with pytest.raises(ValueError, match="constraint 0"):
        Cone(2, (((1, 1), "<"),))


def test_one_emptiness_test_per_series_call(monkeypatch):
    # One ray cut answers emptiness and both positivity questions.  `Cone`
    # has checked its rows, so the cut loop is reached without
    # `extreme_rays`'s entry check.
    calls = []
    original = cones._extreme_rays

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_extreme_rays", counting)
    full, empty = Cone(2), Cone(2, (((-1, -1), ">="),))
    for cone in (full, empty):
        for run in (lambda: lattice_series(cone, (1, 1), (1, 1), 3),
                    lambda: series_limit(cone, (1, 1), (1, 1))):
            calls.clear()
            run()
            assert len(calls) == 1
    # Non-positive forms raise on a nonempty cone and pass on an empty one.
    with pytest.raises(ValueError, match="form nu"):
        lattice_series(full, (1, 1), (1, 0), 3)
    with pytest.raises(ValueError, match="form ell"):
        series_limit(full, (0, 1), (1, 1))
    assert lattice_series(empty, (1, -1), (0, 0), 3) == TP.zero(0)
    assert series_limit(empty, (1, -1), (0, 0)) == 0


def test_one_elimination_per_series_call(monkeypatch):
    # A series call on a nonempty cone asks three yes/no questions (the
    # cone is nonempty, ell and nu are positive on its closure) and answers
    # them from rays, with no LP; the points come from one elimination,
    # scanned level by level.
    calls = []
    for name in ("feasible", "_levels", "extremum"):
        def counting(*args, _name=name, _original=getattr(cones, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cones, name, counting)
    for cone in (Cone(2), Cone(3, (((1, -2, 1), ">="), ((0, 1, -1), "=")))):
        calls.clear()
        lattice_series(cone, (1,) * cone.n, (2,) * cone.n, 9)
        assert calls.count("feasible") == 0
        assert calls.count("_levels") == 1
        assert "extremum" not in calls


def _unit_rows(n, rel):
    return [(tuple(int(j == i) for j in range(n)), 0, rel) for i in range(n)]


def _strict_system(cone):
    """The cone as an LP: x_i > 0 and its own rows."""
    return _unit_rows(cone.n, ">") + [(coeffs, 0, rel) for coeffs, rel in cone.constraints]


def _closure_rows(cone):
    """Its closure when it is nonempty, as (coeffs, rel) rows on x >= 0."""
    return [(coeffs, ">=" if rel == ">" else rel) for coeffs, rel in cone.constraints]


def test_positivity_matches_the_minimum_over_the_slice():
    # A form is positive on closure - 0 exactly when its minimum over the
    # compact slice {sum x = 1} of the closed cone is positive.  The minimum
    # comes from an elimination, independent of the rays that
    # form_positive_on_closure reads.
    rng = random.Random(43)
    verdicts = set()
    for trial in range(360):
        n = 1 + trial % 6
        cone = Cone(n, tuple(
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.choice((">=", ">=", ">", "=")))
            for _ in range(rng.randint(0, 3))
        ))
        if cone.is_empty():
            continue
        form = tuple(rng.randint(-2, 3) for _ in range(n))
        sys = _unit_rows(n, ">=") + [(coeffs, 0, rel) for coeffs, rel in _closure_rows(cone)]
        want = extremum(form, sys + [((1,) * n, -1, "=")], n, maximize=False) > 0
        assert form_positive_on_closure(cone, form) == want, (cone, form)
        verdicts.add((n, want))
    assert verdicts == {(n, v) for n in range(1, 7) for v in (True, False)}


def test_series_refuses_an_oversized_scan():
    # The open 4-dimensional orthant holds C(n, 4) points of degree <= n:
    # 487,635 at n = 60, and far more than MAX_EXPAND_TERMS at n = 400.
    with pytest.raises(ValueError, match="MAX_EXPAND_TERMS"):
        lattice_series(Cone(4), (1,) * 4, (1,) * 4, 400)


def test_extremum_refuses_an_infeasible_system():
    # x >= 0 and x <= -1: no bound of x exists, in either direction.
    cons = [((1,), 0, ">="), ((-1,), -1, ">=")]
    for maximize in (True, False):
        with pytest.raises(ValueError, match="infeasible"):
            extremum((1,), cons, 1, maximize)
    # Infeasible only through a strict row that the objective never sees.
    cons = [((1, 0), 0, ">="), ((0, 1), 0, ">"), ((0, -1), 0, ">=")]
    for maximize in (True, False):
        with pytest.raises(ValueError, match="infeasible"):
            extremum((1, 0), cons, 2, maximize)
    assert extremum((1, 0), cons[:2], 2, False) == 0


def _box_series(cone, ell, nu, n):
    """{degree: {L-power: count}} by plain enumeration of a box that holds
    every point with coordinates >= 1 and l(x) <= n (l has entries >= 1),
    filtered by Cone.contains."""
    out = {}
    for point in product(range(1, n - cone.n + 2), repeat=cone.n):
        deg = dot(ell, point)
        if deg <= n and cone.contains(point):
            e = -dot(nu, point)
            terms = out.setdefault(deg, {})
            terms[e] = terms.get(e, 0) + 1
    return out


def test_series_matches_box_enumeration():
    rng = random.Random(41)

    def row(point, rel):
        # A random row, turned to hold at a small positive point so that
        # most cones are not empty.
        coeffs = [rng.randint(-3, 3) for _ in point]
        value = dot(coeffs, point)
        if rel == "=":
            j = rng.randrange(len(point))
            coeffs = [c * point[j] - value * (i == j) for i, c in enumerate(coeffs)]
        elif value < 0:
            coeffs = [-c for c in coeffs]
        return tuple(coeffs), rel

    shapes = set()
    for trial in range(200):
        dim = 1 + trial % 4
        point = [rng.randint(1, 2) for _ in range(dim)]
        rels = [rng.choice((">=", ">=", ">", "=")) for _ in range(rng.randint(0, 3))]
        cone = Cone(dim, tuple(row(point, rel) for rel in rels))
        ell = tuple(rng.randint(1, 2) for _ in range(dim))
        nu = tuple(rng.randint(1, 3) for _ in range(dim))
        n = rng.randint(0, 12)
        want = _box_series(cone, ell, nu, n)
        got = lattice_series(cone, ell, nu, n)
        assert got == TP(0, {d: sum((c * L(0, e) for e, c in terms.items()), MC.zero(0))
                             for d, terms in want.items()}), (cone, ell, nu, n)
        points = sum(sum(terms.values()) for terms in want.values())
        shapes.add((dim, "=" in rels, min(points, 2)))
    # No points, one point, and several, with and without an equality.
    assert {(dim, eq, k) for dim in (2, 3, 4) for eq in (False, True) for k in (0, 1, 2)} <= shapes
    # A non-unimodular equality pins a coordinate only where it divides:
    # 3y = 2x holds at (3m, 2m).
    got = lattice_series(Cone(2, (((2, -3), "="),)), (1, 1), (1, 1), 12)
    assert got == TP(0, {5: L(0, -5), 10: L(0, -10)})


# ---------------------------------------------------------------------------
# Reference oracle: the 2^k sign-cell enumeration over Fraction
# Fourier-Motzkin elimination, with its own rank.  It shares no code with
# hodgespec.cones, so euler_char, feasible and extremum are checked against
# an independent computation rather than through themselves.
# ---------------------------------------------------------------------------


def _ref_normalize(con):
    coeffs, const, rel = con
    scale = 1
    for v in (*coeffs, const):
        d = Fraction(v).denominator
        scale = scale * d // gcd(scale, d)
    ints = [int(Fraction(v) * scale) for v in (*coeffs, const)]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return (tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1]), rel)


def _ref_eliminate(cons, k):
    def drop(con):
        coeffs, const, rel = con
        return (coeffs[:k] + coeffs[k + 1:], const, rel)

    for idx, (coeffs, const, rel) in enumerate(cons):
        if rel == "=" and coeffs[k]:
            out = []
            for j, (c2, b2, r2) in enumerate(cons):
                if j != idx:
                    f = c2[k] / coeffs[k]
                    out.append((tuple(x - f * y for x, y in zip(c2, coeffs)), b2 - f * const, r2))
            return [drop(c) for c in out]
    lowers = [c for c in cons if c[0][k] > 0]
    uppers = [c for c in cons if c[0][k] < 0]
    rest = [c for c in cons if c[0][k] == 0]
    for cl, bl, rl in lowers:
        for cu, bu, ru in uppers:
            a, b = cl[k], -cu[k]
            rest.append((tuple(a * x + b * y for x, y in zip(cu, cl)), a * bu + b * bl,
                         ">" if ">" in (rl, ru) else ">="))
    return [drop(c) for c in rest]


def _ref_project(cons, nvars):
    cons = [_ref_normalize(c) for c in cons]
    for k in range(nvars - 1, -1, -1):
        cons = list(dict.fromkeys(_ref_normalize(c) for c in _ref_eliminate(cons, k)))
    return cons


def ref_feasible(cons, nvars):
    holds = {">=": lambda v: v >= 0, ">": lambda v: v > 0, "=": lambda v: v == 0}
    return all(holds[rel](const) for _c, const, rel in _ref_project(cons, nvars))


def ref_extremum(obj, cons, nvars, maximize):
    ext = [(tuple(c) + (Fraction(0),), Fraction(b), rel) for c, b, rel in cons]
    ext.append((tuple(-Fraction(c) for c in obj) + (Fraction(1),), Fraction(0), "="))
    best = None
    for (a,), const, rel in _ref_project(ext, nvars):
        if rel == "=":
            if a:
                return -const / a
        elif a and (a < 0) == maximize:
            bound = -const / a
            best = bound if best is None else (min if maximize else max)(best, bound)
    return best


def ref_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def ref_euler_char(n, constraints):
    options = [(">", "=") if rel == ">=" else (rel,) for _c, rel in constraints]
    total = 0
    for signs in product(*options):
        sys = [(tuple(Fraction(int(i == j)) for j in range(n)), Fraction(0), ">") for i in range(n)]
        sys += [(tuple(map(Fraction, c)), Fraction(0), s) for (c, _r), s in zip(constraints, signs)]
        if ref_feasible(sys, n):
            total += (-1) ** (n - ref_rank([c for (c, _r), s in zip(constraints, signs) if s == "="]))
    return total


def test_euler_char_matches_sign_cell_enumeration():
    rng = random.Random(31)
    seen = set()
    for trial in range(300):
        n = 1 + trial % 5
        cons = tuple(
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.choice((">=", ">=", ">", "=")))
            for _ in range(rng.randint(0, 6 if n < 5 else 4))
        )
        want = ref_euler_char(n, cons)
        assert euler_char(Cone(n, cons)) == want, (n, cons)
        seen.add((Cone(n, cons).is_empty(), bool(cons)))
    assert seen == {(False, False), (False, True), (True, True)}


def test_feasible_and_extremum_match_fraction_elimination():
    rng = random.Random(37)

    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        cons = [(tuple(frac() for _ in range(n)), frac(), rng.choice((">=", ">", "=")))
                for _ in range(rng.randint(0, 6))]
        ok = ref_feasible(cons, n)
        verdicts.add(ok)
        assert feasible(cons, n) == ok, cons
        if ok:
            obj = tuple(frac() for _ in range(n))
            for maximize in (True, False):
                got = extremum(obj, cons, n, maximize)
                assert got == ref_extremum(obj, cons, n, maximize), (obj, cons, maximize)
                assert got is None or type(got) is Fraction
    assert verdicts == {True, False}


def test_chernikov_rule_keeps_strict_systems_exact(monkeypatch):
    # Integer systems with many strict rows, repeated rows and nonzero
    # constants, checked against the reference elimination, which drops no
    # row; the rule must drop rows here, or the test shows nothing.
    dropped = []
    original = cones._pair_off

    def counting(system, k, limit):
        rows = original(system, k, limit)
        # No system here has 64 input rows, so that limit drops nothing.
        dropped.append(len(original(system, k, 64)) - len(rows))
        return rows

    monkeypatch.setattr(cones, "_pair_off", counting)
    rng = random.Random(53)
    verdicts = set()
    for trial in range(400):
        n = 1 + trial % 4
        cons = []
        for _ in range(rng.randint(1, 8)):
            if cons and rng.random() < 0.2:
                coeffs, const, _rel = rng.choice(cons)
            else:
                coeffs = tuple(rng.randint(-2, 2) for _ in range(n))
                const = rng.choice((-2, -1, 1, 2))
            cons.append((coeffs, const, rng.choice((">", ">", ">=", "="))))
        ok = ref_feasible(cons, n)
        assert feasible(cons, n) == ok, cons
        verdicts.add(ok)
        if ok:
            obj = tuple(rng.randint(-2, 2) for _ in range(n))
            for maximize in (True, False):
                assert extremum(obj, cons, n, maximize) == ref_extremum(obj, cons, n, maximize), (obj, cons)
    assert verdicts == {True, False}
    assert sum(dropped) > 100


def test_emptiness_and_a_point_from_the_rays():
    # {x >= y >= 0}: the ray (1, 0) lies on y = 0, and (1, 1) on the row.
    assert extreme_rays(2, [((1, -1), ">=")]) == [((1, 0), 0b010), ((1, 1), 0b100)]
    assert extreme_rays(2, [((1, 1), "=")]) == []
    for bad in (((1, -1), ">"), ((1, -1, 0), ">="), ((1,), "=")):
        with pytest.raises(ValueError, match="row 1"):
            extreme_rays(2, [((1, 1), ">="), bad])
    # Only integer coefficients pass; each used to return rays (the bool)
    # or raise a TypeError.
    for coeffs in ((1.5, -1), (True, -1), ("1", -1)):
        with pytest.raises(ValueError, match="^row 1, coefficient 0: "):
            extreme_rays(2, [((1, 1), ">="), (coeffs, ">=")])
    rng = random.Random(59)
    seen = set()
    for trial in range(360):
        n = 1 + trial % 6
        cone = Cone(n, tuple(
            (tuple(rng.randint(-2, 2) for _ in range(n)), rng.choice((">=", ">", ">", "=")))
            for _ in range(rng.randint(0, 4 if n > 4 else 6))
        ))
        empty = cone.is_empty()
        assert empty == (not ref_feasible(_strict_system(cone), n)), cone
        if not empty:
            rays = extreme_rays(n, _closure_rows(cone))
            assert cone.contains([sum(x) for x in zip(*(ray for ray, _mask in rays))]), cone
        seen.add((n, empty))
    assert seen == {(n, e) for n in range(1, 7) for e in (True, False)}


def test_euler_char_cuts_only_the_hyperplanes_it_reaches(monkeypatch):
    calls = []
    for name in ("feasible", "_levels", "rational_rank", "_cut"):
        def counting(*args, _name=name, _original=getattr(cones, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cones, name, counting)
    # y - x > 0 leaves neither sign x - y > 0 nor x - y = 0, so the search
    # stops after the root's cut and the first split; the four later
    # hyperplanes are never cut, and no elimination or rank is computed.
    later = (((1, 0), ">="), ((0, 1), ">="), ((1, 1), ">="), ((2, -1), ">="))
    cone = Cone(2, (((-1, 1), ">"), ((1, -1), ">=")) + later)
    assert euler_char(cone) == ref_euler_char(2, cone.constraints) == 0
    assert calls == ["_cut", "_cut"]


def _chain(n, rel):
    """x_0 REL x_1 REL ... REL x_(n-1), as n - 1 constraints."""
    return tuple((tuple(int(j == i) - int(j == i + 1) for j in range(n)), rel)
                 for i in range(n - 1))


def test_euler_char_closed_forms():
    for n in (4, 5, 6):
        # An open n-cell; a closed chamber, whose walls cancel its
        # interior; and the diagonal ray x_0 = ... = x_(n-1), a 1-cell.
        cycle = ((tuple(int(j == n - 1) - int(j == 0) for j in range(n)), ">="),)
        assert euler_char(Cone(n, _chain(n, ">"))) == (-1) ** n
        assert euler_char(Cone(n, _chain(n, ">="))) == 0
        assert euler_char(Cone(n, _chain(n, ">=") + cycle)) == -1
    # R^0 is one point: every row reads 0, which is not > 0.
    for rel, want in ((">=", 1), (">", 0), ("=", 1)):
        cons = (((), rel),)
        assert euler_char(Cone(0, cons)) == ref_euler_char(0, cons) == want


def test_euler_char_matches_sign_cells_on_degenerate_rows():
    # Dimensions 5 and 6, where the extreme rays of a cell are many, with
    # rows that repeat, negate, vanish or add up earlier rows, so that
    # several hyperplanes meet in one face and rays lie on many of them.
    rng = random.Random(47)
    seen = set()
    for trial in range(120):
        n = 5 + trial % 2
        rows = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.choice(("new", "new", "copy", "negate", "zero", "sum"))
            if len(rows) < 2 and kind != "zero":
                kind = "new"
            if kind == "zero":
                row = (0,) * n
            elif kind == "new":
                row = tuple(rng.randint(-2, 2) for _ in range(n))
            elif kind == "copy":
                row = rng.choice(rows)
            elif kind == "negate":
                row = tuple(-c for c in rng.choice(rows))
            else:
                a, b = rng.sample(rows, 2)
                row = tuple(x + y for x, y in zip(a, b))
            rows.append(row)
            seen.add(kind)
        cons = tuple((row, rng.choice((">=", ">=", ">", "="))) for row in rows)
        got = euler_char(Cone(n, cons))
        assert got == ref_euler_char(n, cons), (n, cons)
        seen.add(got)
    assert {"copy", "negate", "zero", "sum", -1, 0, 1} <= seen


def test_random_unimodular_cone_forms_invert_the_generators():
    # The check suite's cones are cut out by the columns of G^-1, read off
    # the Smith normal form of G; generator row i pairs with form k to 1
    # exactly when i == k.
    from hodgespec.checks import _random_unimodular_cone

    rng = random.Random(3)
    nontrivial = 0
    for dim in (1, 2, 3, 4):
        for _ in range(10):
            G, cone = _random_unimodular_cone(rng, dim)
            forms = [coeffs for coeffs, _rel in cone.constraints]
            assert [[dot(form, row) for form in forms] for row in G] == [
                [int(i == k) for k in range(dim)] for i in range(dim)
            ]
            nontrivial += any(G[i][j] for i in range(dim) for j in range(i + 1, dim) if G[i][j] > 1)
    assert nontrivial > 5
