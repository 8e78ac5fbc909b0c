"""Property suites behind ``hodgespec check --suite ...``.

Each suite runs deterministic randomized checks (every random draw comes
from the one constant ``SEED``) plus the hand-pinned examples, and returns
(name, ok, detail) records; the CLI prints one line per record and exits
nonzero on any failure.  The acceptance tests draw their own seeds for
criteria 1-7; they share only ``_random_unimodular_cone`` (criterion 6) and
``run_suite`` itself (criterion 8) with this module.  The steenbrink suite
runs ``workbench.rederive`` on every shipped fixture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cones import Cone, euler_char, kernel_cone, lattice_series, series_limit, stays_bounded
from .convolution import collapse_pair, collapse_triple, convolve, power_pushforward
from .lattice import integer_kernel_basis, mat_mul, rational_rank, rational_solve, smith_normal_form
from .monclass import (
    MonodromicClass,
    box,
    embed,
    hodge_spectrum,
    hodge_spectrum2,
    torus_fiber_class,
)
from .oracles import collapse_pair_bruteforce, root_of_unity_class
from .resolution import (
    iterated_nearby,
    multiplicity_ratio,
    nearby_cycles,
    vanishing_cycles,
    zeta_series,
)
from .series import RationalSeries
from .spectra import BiSpectrum, Spectrum, fold_bispectrum, geometric_factor
from .workbench import (
    TransversalBranch,
    fixture_datum,
    fixtures,
    iterated_vanishing,
    monomial_datum,
    product_joint_datum,
    quasihomogeneous_spectrum,
    rederive,
    steenbrink_check,
    steenbrink_conjecture_rhs,
)

SEED = 20250801


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _rand_spectrum(rng, max_den=24):
    terms = []
    for _ in range(rng.randint(0, 5)):
        den = rng.randint(1, max_den)
        terms.append((Fraction(rng.randint(-2 * den, 2 * den), den), rng.randint(-3, 3)))
    return Spectrum(terms)


def _rand_class(rng, arity, max_den=12, pq=5, nterms=4):
    t = MonodromicClass.zero(arity)
    for _ in range(rng.randint(1, nterms)):
        evs = []
        for _ in range(arity):
            den = rng.randint(1, max_den)
            evs.append(Fraction(rng.randint(0, den - 1), den))
        t = t + MonodromicClass.monomial(
            arity, tuple(evs), rng.randint(-pq, pq), rng.randint(-pq, pq), rng.randint(-2, 2)
        )
    return t


def run_rings():
    rng = random.Random(SEED)
    out = []

    ok = True
    for _ in range(60):
        x, y, z = (_rand_spectrum(rng) for _ in range(3))
        ok &= x + y == y + x and x * y == y * x
        ok &= (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
        ok &= x * (y + z) == x * y + x * z
        ok &= x * Spectrum.one() == x
    out.append(CheckResult("spectrum ring axioms (60 random triples, denominators <= 24)", ok))

    one, t = Spectrum.one(), Spectrum.monomial
    ok = all(
        geometric_factor(m) * (one - t(Fraction(1, m))) == one - t(1) for m in range(1, 65)
    )
    out.append(CheckResult("geometric factor telescopes for m <= 64", ok))

    def rand_bi():
        terms = []
        for _ in range(rng.randint(0, 5)):
            d1, d2 = rng.randint(1, 12), rng.randint(1, 12)
            terms.append(
                (
                    (Fraction(rng.randint(0, d1 - 1), d1), Fraction(rng.randint(0, d2 - 1), d2), rng.randint(-3, 3)),
                    rng.randint(-3, 3),
                )
            )
        return BiSpectrum(terms)

    ok = True
    for _ in range(60):
        x, y = rand_bi(), rand_bi()
        ok &= fold_bispectrum(x + y) == fold_bispectrum(x) + fold_bispectrum(y)
        N = rng.randint(1, 6)
        ok &= fold_bispectrum(x + y, N) == fold_bispectrum(x, N) + fold_bispectrum(y, N)
        ok &= fold_bispectrum(x, 1) == fold_bispectrum(x)
    out.append(CheckResult("fold maps are additive; N=1 fold is the plain fold", ok))

    ok = True
    for _ in range(40):
        # monomials whose residues do not wrap: fold is multiplicative.
        a1, b1 = Fraction(rng.randint(0, 3), 8), Fraction(rng.randint(0, 3), 8)
        a2, b2 = Fraction(rng.randint(0, 3), 8), Fraction(rng.randint(0, 3), 8)
        m1 = BiSpectrum.monomial(a1, b1, rng.randint(-2, 2))
        m2 = BiSpectrum.monomial(a2, b2, rng.randint(-2, 2))
        ok &= fold_bispectrum(m1 * m2) == fold_bispectrum(m1) * fold_bispectrum(m2)
    wrap1 = BiSpectrum.monomial(Fraction(1, 2), 0, 0)
    wrap2 = BiSpectrum.monomial(Fraction(2, 3), 0, 0)
    wrapped = fold_bispectrum(wrap1 * wrap2) != fold_bispectrum(wrap1) * fold_bispectrum(wrap2)
    out.append(
        CheckResult(
            "fold multiplicative on non-wrapping monomials; wraparound breaks it", ok and wrapped
        )
    )

    ok = True
    L1 = MonodromicClass.lefschetz(1)
    for _ in range(60):
        x = _rand_class(rng, rng.choice((1, 2)))
        y, z = _rand_class(rng, x.arity), _rand_class(rng, x.arity)
        unit = MonodromicClass.unit(x.arity)
        L = MonodromicClass.lefschetz(x.arity)
        ok &= x * y == y * x and (x * y) * z == x * (y * z)
        ok &= x * (y + z) == x * y + x * z and x * unit == x
        ok &= L * MonodromicClass.lefschetz(x.arity, -1) == unit
    out.append(CheckResult("monodromic class ring axioms; L invertible (60 random)", ok))

    ok = True
    for _ in range(40):
        x, x2 = _rand_class(rng, 1), _rand_class(rng, 1)
        y = _rand_class(rng, 1)
        ok &= box(x + x2, y) == box(x, y) + box(x2, y)
        ok &= box(L1 * x, y) == MonodromicClass.lefschetz(2) * box(x, y)
        ok &= box(x, MonodromicClass.unit(1)) == embed(x, 2, (1,))
        ok &= hodge_spectrum(x + y) == hodge_spectrum(x) + hodge_spectrum(y)
        ok &= hodge_spectrum(L1 * x) == Spectrum.monomial(1) * hodge_spectrum(x)
    out.append(CheckResult("box bilinear/unital; spectrum additive and L-twist = t-shift", ok))

    ok = True
    for _ in range(100):
        r = rng.choice((1, 2))
        m = rng.randint(r, 4)
        M = None
        while M is None:
            cand = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
            if rational_rank(cand) == r and all(
                any(cand[i][j] for i in range(r)) for j in range(m)
            ):
                M = cand
        base = [rational_solve(M, [1 if k == i else 0 for k in range(r)]) for i in range(r)]
        kernel = integer_kernel_basis(M)
        shifted = []
        for theta in base:
            extra = [Fraction(0)] * m
            for k in kernel:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                extra = [e + c * ki for e, ki in zip(extra, k)]
            shifted.append([a + b for a, b in zip(theta, extra)])
        ok &= torus_fiber_class(M) == torus_fiber_class(M, thetas=shifted)
    out.append(CheckResult("torus fiber class independent of the solution choice (100 random)", ok))

    samples = [[[a]] for a in range(1, 5)]
    samples += [[[a, b]] for a in range(1, 5) for b in range(1, 5)]
    samples += [
        [[2, 1], [0, 1]], [[2, 6]], [[3, 6]], [[4, 8]], [[2, 0], [0, 3]],
        [[1, 2], [2, 1]], [[2, 2], [0, 3]], [[3, 0, 1], [0, 2, 1]],
        [[1, 1, 1]], [[2, 2, 2]], [[1, 2, 3]], [[2, 4]], [[3, 3], [1, 2]],
    ]
    ok = all(root_of_unity_class(M) == torus_fiber_class(M) for M in samples)
    name = f"torus fiber class equals root-of-unity enumeration ({len(samples)} matrices)"
    out.append(CheckResult(name, ok))

    def rand_series(arity=0):
        terms = []
        for _ in range(rng.randint(1, 3)):
            fs = tuple((rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
            terms.append((fs, _rand_class(rng, arity, max_den=6, pq=2, nterms=2)))
        return RationalSeries(arity, terms)

    ok = True
    for _ in range(40):
        a, b = rand_series(), rand_series()
        n = rng.randint(0, 20)
        ok &= (a + b).limit() == a.limit() + b.limit()
        ok &= (a * b).limit() == a.limit() * b.limit()
        c = _rand_class(rng, 0, max_den=4, pq=2, nterms=2)
        ok &= a.scale(c).limit() == c * a.limit()
        ok &= (a + b).expand(n) == a.expand(n) + b.expand(n)
        ok &= (a * b).expand(n) == a.expand(n).mul_truncated(b.expand(n), n)
    out.append(CheckResult("series limit is linear and multiplicative; expand is exact", ok))
    return out


def _random_unimodular_cone(rng, dim):
    # Rows of an upper-triangular unimodular matrix with nonnegative
    # entries generate an open simplicial unimodular cone in the open
    # orthant; the defining forms are the columns of the inverse.
    G = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        G[i][i] = 1
        for j in range(i + 1, dim):
            G[i][j] = rng.randint(0, 2)
    # U G V = I for the unimodular G, so G^-1 = V U.
    _D, U, V, _Vinv = smith_normal_form(G)
    inv = mat_mul(V, U)
    forms = [tuple(inv[i][k] for i in range(dim)) for k in range(dim)]
    return G, Cone(dim, tuple((f, ">") for f in forms))


def run_cones():
    rng = random.Random(SEED)
    out = []

    ok = True
    for dim in (1, 2, 3, 4):
        for _ in range(4):
            G, cone = _random_unimodular_cone(rng, dim)
            ell = tuple(rng.randint(1, 3) for _ in range(dim))
            nu = tuple(rng.randint(1, 3) for _ in range(dim))
            ok &= series_limit(cone, ell, nu) == (-1) ** dim
    out.append(CheckResult("unimodular open cones: limit = (-1)^dim, dim <= 4", ok))

    ok = True
    for dim, degree in ((1, 25), (2, 25), (3, 14), (4, 9)):
        for _ in range(2):
            G, cone = _random_unimodular_cone(rng, dim)
            ell = tuple(rng.randint(1, 2) for _ in range(dim))
            nu = tuple(rng.randint(1, 2) for _ in range(dim))
            closed = RationalSeries.constant(MonodromicClass.unit(0))
            for g in G:
                lg = sum(a * b for a, b in zip(ell, g))
                ng = sum(a * b for a, b in zip(nu, g))
                closed = closed * RationalSeries.generator(-ng, lg)
            ok &= closed.expand(degree) == lattice_series(cone, ell, nu, degree)
            ok &= closed.limit() == MonodromicClass.unit(0) * euler_char(cone)
    out.append(
        CheckResult("unimodular cones: generator product matches enumeration and limit", ok)
    )

    ok = True
    for _ in range(50):
        dim = rng.randint(2, 4)
        ksize = rng.randint(1, dim - 1)
        idx = list(range(dim))
        rng.shuffle(idx)
        K = idx[:ksize]
        a = [rng.randint(1, 5) for _ in range(dim)]
        coeffs = tuple(-a[i] if i in K else a[i] for i in range(dim))
        cone = Cone(dim, ((coeffs, ">="),))
        ell = tuple(1 for _ in range(dim))
        ok &= series_limit(cone, ell, ell) == 0
    out.append(CheckResult("two-sided inequality cones have limit 0 (50 random)", ok))

    ok = True
    for _ in range(25):
        dim = rng.randint(2, 4)
        ncons = rng.randint(0, 2)
        cons = tuple(
            (tuple(rng.randint(-2, 2) for _ in range(dim)), rng.choice((">=", ">")))
            for _ in range(ncons)
        )
        cone = Cone(dim, cons)
        h = tuple(rng.randint(-2, 2) for _ in range(dim))
        below = Cone(dim, cons + ((tuple(-c for c in h), ">"),))
        on = Cone(dim, cons + ((h, "="),))
        above = Cone(dim, cons + ((h, ">"),))
        ok &= euler_char(cone) == euler_char(below) + euler_char(on) + euler_char(above)
    out.append(CheckResult("Euler characteristic additive under hyperplane splits", ok))

    ok = kernel_cone(3, []) == (True, 3)
    ok &= kernel_cone(2, [(1, 1)]) == (False, None)  # positive row cannot vanish
    ok &= kernel_cone(2, [(1, -1)]) == (True, 1)
    # Rows supported away from the index set leave the whole orthant.
    ok &= kernel_cone(3, [(0, 0, 0), (0, 0, 0)]) == (True, 3)
    ok &= kernel_cone(3, [(1, 2, 0)]) == (False, None)
    ok &= kernel_cone(3, [(1, -1, 0)]) == (True, 2)
    out.append(CheckResult("kernel cone pinned examples", ok))

    ok = stays_bounded(2, [], (1, 0), (1, 1)) is True
    ok &= stays_bounded(2, [], (0, 1), (1, 0)) is False  # recession (0,1) unbounded
    ok &= stays_bounded(2, [], (1, 0), (0, 0)) is False  # empty denominator support
    ok &= stays_bounded(2, [(1, 1)], (1, 0), (0, 1)) is False  # empty kernel cone
    ok &= stays_bounded(3, [(1, -1, 0)], (1, 0, 0), (0, 1, 0)) is True  # ratio = 1 on the kernel
    out.append(CheckResult("boundedness membership pinned examples", ok))

    # Validate the boundedness LP against the Euler-characteristic route:
    # on structurally valid data (every coordinate carries a numerator or a
    # denominator multiplicity) the membership holds exactly when the
    # kernel cone truncated by num <= gamma * den keeps a nonzero
    # characteristic for large gamma, in which case it keeps the full one.
    ok = True
    gamma = 997  # beyond every ratio the small integer data can produce
    for _ in range(25):
        dim = rng.randint(2, 4)
        nrows = rng.randint(0, 2)
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(nrows)]
        num, den = [], []
        for _i in range(dim):
            which = rng.randint(0, 2)
            num.append(rng.randint(1, 3) if which != 1 else 0)
            den.append(rng.randint(1, 2) if which != 0 else 0)
        member = stays_bounded(dim, rows, tuple(num), tuple(den))
        eq_cons = tuple((r, "=") for r in rows)
        cut = tuple(gamma * d - n for n, d in zip(num, den))
        chi_cut = euler_char(Cone(dim, eq_cons + ((cut, ">="),)))
        if member:
            ok &= chi_cut == euler_char(Cone(dim, eq_cons)) != 0
        else:
            ok &= chi_cut == 0
    out.append(CheckResult("boundedness LP agrees with the Euler-characteristic route", ok))
    return out


def run_psi():
    rng = random.Random(SEED)
    out = []

    ok = True
    for n in range(2, 9):
        for i in range(n):
            for k in range(n):
                x = MonodromicClass.monomial(2, (Fraction(i, n), Fraction(k, n)), 0, 0)
                ok &= collapse_pair(x) == collapse_pair_bruteforce(x)
    out.append(
        CheckResult("collapse table re-derived from Fermat eigendata, denominators 2..8", ok)
    )

    ok = True
    for _ in range(500):
        x = _rand_class(rng, 2)
        ok &= hodge_spectrum(collapse_pair(x)) == fold_bispectrum(hodge_spectrum2(x))
    out.append(CheckResult("spectrum of a collapse = folded two-variable spectrum (500 random)", ok))

    ok = True
    unit = MonodromicClass.unit(1)
    for _ in range(200):
        x, y, z = (_rand_class(rng, 1) for _ in range(3))
        ok &= convolve(x, unit) == x
        ok &= convolve(x, y) == convolve(y, x)
        ok &= convolve(convolve(x, y), z) == convolve(x, convolve(y, z))
        ok &= hodge_spectrum(convolve(x, y)) == hodge_spectrum(x) * hodge_spectrum(y)
    out.append(
        CheckResult(
            "convolution commutative/associative/unital; spectrum is a ring morphism (200 random)",
            ok,
        )
    )

    ok = True
    for _ in range(200):
        x = _rand_class(rng, 3)
        a = collapse_triple(x)
        ok &= a == collapse_pair(collapse_pair(x, (2, 3)), (1, 2))
        ok &= a == collapse_pair(collapse_pair(x, (1, 3)), (1, 2))
        y, z, w = (_rand_class(rng, 1, nterms=2) for _ in range(3))
        ok &= collapse_triple(box(y, box(z, w))) == convolve(y, convolve(z, w))
    out.append(CheckResult("triple collapse independent of the pair order (200 random)", ok))

    def sub_u(bs, N):
        return BiSpectrum([((a, Fraction(b, N), c), m) for (a, b, c), m in bs.terms()])

    ok = True
    for _ in range(100):
        x = _rand_class(rng, 2)
        N = rng.randint(1, 6)
        lhs = hodge_spectrum2(power_pushforward(x, 2, N))
        geo_u = BiSpectrum([((0, Fraction(j, N), 0), 1) for j in range(N)])
        ok &= lhs == geo_u * sub_u(hodge_spectrum2(x), N)
    out.append(
        CheckResult("pushforward spectrum identity (1-u)/(1-u^(1/N)) twist, N <= 6 (100 random)", ok)
    )

    ok = True
    for _ in range(60):
        x = _rand_class(rng, 2)
        N = rng.randint(1, 6)
        lhs = hodge_spectrum(collapse_pair(power_pushforward(x, 2, N)))
        rhs = geometric_factor(N) * fold_bispectrum(hodge_spectrum2(x), N)
        ok &= lhs == rhs
    out.append(
        CheckResult("collapse-of-pushforward equals geometric factor times N-fold (60 random)", ok)
    )
    return out


def run_steenbrink():
    rng = random.Random(SEED)
    out = []

    results = [line for fx in fixtures() for line in rederive(fx)]
    ok = all(flag for _name, flag in results)
    detail = "; ".join(name for name, flag in results if not flag)
    out.append(CheckResult(f"fixture rederivation oracles ({len(results)} checks)", ok, detail))

    ok = True
    for datum in (
        monomial_datum((2, 3)),
        monomial_datum((1, 1)),
        fixture_datum("cusp"),
        fixture_datum("d_curve_N3"),
    ):
        ok &= nearby_cycles(datum) == zeta_series(datum).limit() * (-1)
    out.append(CheckResult("nearby class equals minus the zeta limit on fixtures", ok))

    ok = True
    for _ in range(20):
        exps = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
        sp = quasihomogeneous_spectrum(exps)
        rng.shuffle(exps)
        ok &= sp == quasihomogeneous_spectrum(exps)
    out.append(CheckResult("join spectrum is permutation invariant", ok))

    x2y, joint = fixture_datum("x2y"), fixture_datum("x2y_y_joint")
    phi_f = vanishing_cycles(x2y)
    phi_iter = iterated_vanishing(joint)
    branch = TransversalBranch(pairs=((Fraction(1, 2), Fraction(1, 2)),), e=1)
    ok = True
    for N in (3, 4, 5):
        fg = fixture_datum(f"d_curve_N{N}")
        report = steenbrink_check(x2y, fg, joint, N)
        ok &= report.equal and report.hypothesis_ok and report.threshold == 1
        ok &= -report.lhs == steenbrink_conjecture_rhs([branch], N)
        ok &= phi_f - vanishing_cycles(fg) == collapse_pair(power_pushforward(phi_iter, 2, N))
    out.append(
        CheckResult(
            "x^2 y vs y-power perturbations: spectrum jump matches both closed forms "
            "and the class-level identity, N = 3, 4, 5",
            ok,
        )
    )

    # N = 1: x^2 y + y is smooth at the origin, vanishing class 0.
    report = steenbrink_check(x2y, monomial_datum((1,)), joint, 1)
    out.append(
        CheckResult(
            "N at the threshold is reported out-of-hypothesis (and indeed differs)",
            (not report.hypothesis_ok) and (not report.equal),
        )
    )

    ok = True
    for a, b in ((2, 3), (3, 3), (4, 2)):
        pj = product_joint_datum(a, b)
        ok &= iterated_nearby(pj) == box(
            nearby_cycles(monomial_datum((a,))), nearby_cycles(monomial_datum((b,)))
        )
        ok &= multiplicity_ratio(pj) == 0
    out.append(CheckResult("disjoint-variable joints: iterated class is the box product", ok))

    return out


SUITES = {
    "rings": run_rings,
    "cones": run_cones,
    "psi": run_psi,
    "steenbrink": run_steenbrink,
}


def run_suite(name: str):
    if name == "all":
        return [res for run in SUITES.values() for res in run()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name]()
