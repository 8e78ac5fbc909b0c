"""Fixture library, join/perturbation combiners, and identity verifiers.

The fixtures are standard plane-curve and monomial singularity data whose
resolution combinatorics were derived by hand from point blowups.  That
data lives only in ``fixtures/*.json`` at the root of the checkout and is
read through ``fixture_datum``; this module holds what is said about it:
each fixture's provenance note, its expected spectrum, and, where
feasible, a rederive hook that recomputes the shipped numbers from a
brute-force oracle (jet counting, cyclic cover classes, root-of-unity
fiber enumeration).  The parametric generators (``monomial_datum``,
``smooth_point_datum``, ``product_joint_datum``) compute their data from
their arguments.

The verifiers compare, exactly, the spectrum jump between a function and
its power perturbations against the two closed forms: the folded spectrum
of the iterated vanishing-cycle class, and the transversal-data sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from .convolution import convolve
from .lattice import _int_row, _strict_int
from .monclass import MonodromicClass, embed, hodge_spectrum, hodge_spectrum2, torus_fiber_class
from .oracles import stratum_cover_class, torus_fiber_bruteforce
from .resolution import (
    Component,
    ResolutionDatum,
    Stratum,
    iterated_nearby,
    jet_count_zeta,
    load_datum,
    vanishing_cycles,
    zeta_series,
)
from .spectra import Spectrum, _reduced, fold_bispectrum, frac, geometric_factor, steenbrink_rhs


def thom_sebastiani(*phis: MonodromicClass) -> MonodromicClass:
    """Vanishing-cycle class of a join f_1(x_1) + ... + f_d(x_d) from the
    classes of its factors."""
    return convolve(*phis)


def one_variable_vanishing(a: int) -> MonodromicClass:
    """Vanishing-cycle class of x^a at the origin of the line."""
    a = _strict_int(a, "exponent")
    if a < 1:
        raise ValueError("exponent must be positive")
    return MonodromicClass._trusted(1, {((_reduced(k, a),), 0, 0): 1 for k in range(1, a)})


# quasihomogeneous_spectrum folds the joins left to right in one n-ary
# convolve; the step that takes in the first k exponents meets prod(a_i - 1)
# term pairs over them.  The largest the benchmark and tests reach is 23,040
# terms (5,7,9,11,13); this bound leaves a margin of about ten.  At 207,360
# terms (7,11,13,17,19) the whole `hodgespec ts` process takes 1.3-1.6 s
# and 121 MB peak RSS on a 2-core Xeon (CPython 3.11); CI requires it to
# finish within 30 s.
MAX_TS_TERMS = 250_000


def quasihomogeneous_spectrum(exponents: Sequence[int]) -> Spectrum:
    """Spectrum of x_1^(a_1) + ... + x_d^(a_d), by iterated joins of the
    one-variable classes.

    A join that would hold more than ``MAX_TS_TERMS`` terms raises
    ``ValueError`` before any join is computed.
    """
    classes = [one_variable_vanishing(a) for a in exponents]
    if not classes:
        raise ValueError("need at least one exponent")
    size = 1
    for a in exponents:
        size *= a - 1
        if size > MAX_TS_TERMS:
            raise ValueError(
                f"exponents {','.join(map(str, exponents))} need a join of more than "
                f"MAX_TS_TERMS = {MAX_TS_TERMS} terms"
            )
    return hodge_spectrum(thom_sebastiani(*classes))


def iterated_vanishing(joint: ResolutionDatum) -> MonodromicClass:
    """Iterated vanishing-cycle class of a joint datum.

    The engine's iterated class is the nearby-of-nearby sum; passing to
    vanishing cycles of the first function subtracts the nearby class of
    the second function on its zero locus (the ``zero_locus_nearby`` input,
    carried in the second monodromy slot) and twists by (-1)^(d-1).
    """
    if joint.arity != 2:
        raise ValueError("iterated_vanishing needs a joint datum")
    if joint.zero_locus_nearby is None:
        raise ValueError(
            "joint datum lacks zero_locus_nearby, required for the vanishing-cycle correction"
        )
    base = iterated_nearby(joint)
    correction = embed(joint.zero_locus_nearby, 2, (2,))
    return (base - correction) * ((-1) ** (joint.dimension - 1))


@dataclass(frozen=True)
class TransversalBranch:
    """Transversal data along one branch of the critical curve.

    ``pairs`` lists (exponent, vertical residue in [0,1)) of the transversal
    singularity; ``e`` is the order of the auxiliary function on the branch.
    """

    pairs: tuple
    e: int


def steenbrink_conjecture_rhs(branches: Sequence[TransversalBranch], N: int) -> Spectrum:
    """Transversal-data prediction for Sp(f + g^N) - Sp(f)."""
    total = Spectrum.zero()
    for branch in branches:
        total = total + steenbrink_rhs(branch.pairs, branch.e, N)
    return total


@dataclass(frozen=True)
class SteenbrinkReport:
    N: int
    threshold: Fraction
    lhs: Spectrum
    rhs: Spectrum
    equal: bool
    hypothesis_ok: bool

    def render(self) -> str:
        lines = [
            f"N = {self.N}, validity threshold = {self.threshold}"
            + ("" if self.hypothesis_ok else "  [WARNING: N <= threshold, identity not guaranteed]"),
            f"  lhs (Sp(f) - Sp(f+g^N)) = {self.lhs.render()}",
            f"  rhs (folded iterated)   = {self.rhs.render()}",
            f"  verdict: {'EQUAL' if self.equal else 'DIFFER'}",
        ]
        if not self.equal:
            lines.append(f"  difference (lhs - rhs)  = {(self.lhs - self.rhs).render()}")
        return "\n".join(lines)


def steenbrink_check(
    sp_f: Spectrum,
    sp_fg: Spectrum,
    phi_iterated: MonodromicClass,
    N: int,
    threshold: Fraction,
) -> SteenbrinkReport:
    """Compare Sp(f) - Sp(f + g^N) with the folded iterated spectrum.

    ``phi_iterated`` is the iterated vanishing-cycle class (see
    ``iterated_vanishing``); the right-hand side is the degree-N geometric
    factor times the N-folded two-variable spectrum.  The check reports
    rather than asserts: when N is at or below the threshold the hypothesis
    failure is flagged and the comparison still runs.
    """
    lhs = sp_f - sp_fg
    rhs = geometric_factor(N) * fold_bispectrum(hodge_spectrum2(phi_iterated), N)
    return SteenbrinkReport(
        N=N,
        threshold=threshold,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        hypothesis_ok=N > threshold,
    )


# ---------------------------------------------------------------------------
# Fixtures.
# ---------------------------------------------------------------------------


@dataclass
class Fixture:
    name: str
    datum: ResolutionDatum
    provenance: str
    expected_spectrum: Optional[Spectrum] = None
    rederive: Optional[Callable[[], list]] = None


# The hand-derived resolution data ships only as JSON, next to ``src/``.
FIXTURE_DIR = Path(__file__).resolve().parents[2] / "fixtures"


def fixture_datum(name: str) -> ResolutionDatum:
    """The shipped datum ``fixtures/<name>.json``."""
    return load_datum(str(FIXTURE_DIR / f"{name}.json"))


_BASE_POINT = MonodromicClass.unit(0)


def monomial_datum(exponents: Sequence[int]) -> ResolutionDatum:
    """Identity-resolution datum of prod x_i^(a_i), local at the origin."""
    comps = tuple(
        Component(f"x{i+1}", 0, a, 1) for i, a in enumerate(_int_row(exponents, "exponents"))
    )
    stratum = Stratum(tuple(c.id for c in comps), base=_BASE_POINT)
    return ResolutionDatum(len(comps), True, ("g",), comps, (stratum,))


def smooth_point_datum() -> ResolutionDatum:
    """A reduced smooth hypersurface germ: one component, multiplicity 1."""
    comps = (Component("z", 0, 1, 1),)
    return ResolutionDatum(1, True, ("g",), comps, (Stratum(("z",), base=_BASE_POINT),))


def product_joint_datum(a: int, b: int) -> ResolutionDatum:
    """Joint datum for the disjoint-variable pair (x^a, y^b) on the plane."""
    a, b = _strict_int(a, "a"), _strict_int(b, "b")
    comps = (Component("cx", a, 0, 1), Component("cy", 0, b, 1))
    stratum = Stratum(("cx", "cy"), base=_BASE_POINT)
    return ResolutionDatum(
        2, True, ("f", "g"), comps, (stratum,),
        zero_locus_nearby=torus_fiber_class([[b]]),
    )


# Expected spectra (all derived in-package; see provenance strings).


def _power_spectrum(a: int) -> Spectrum:
    return Spectrum([(Fraction(k, a), 1) for k in range(1, a)])


def _d_curve_spectrum(N: int) -> Spectrum:
    """Spectrum of the weighted-homogeneous germ y(x^2 + y^(N-1)), weights
    (w_x, w_y) = ((N-1)/(2N), 1/N): each monomial x^i y^j of the Milnor
    basis 1, y, ..., y^(N-1), x contributes t^((i+1) w_x + (j+1) w_y)."""
    wx, wy = Fraction(N - 1, 2 * N), Fraction(1, N)
    basis = [(0, j) for j in range(N)] + [(1, 0)]
    return Spectrum([((i + 1) * wx + (j + 1) * wy, 1) for i, j in basis])


def _rederive_monomial(a: int):
    def run():
        datum = fixture_datum(f"x{a}")
        results = []
        results.append(
            (
                f"x^{a}: truncated zeta equals the jet count",
                zeta_series(datum).expand(20) == jet_count_zeta((a,), 20),
            )
        )
        results.append(
            (
                f"x^{a}: engine spectrum equals the power formula",
                hodge_spectrum(vanishing_cycles(datum)) == _power_spectrum(a),
            )
        )
        return results

    return run


def _dual_graph_cover(datum: ResolutionDatum, st: Stratum) -> MonodromicClass:
    """Cyclic-cover class over the curve stratum of ``st.components[0]``,
    with the crossing multiplicities read off the dual graph (the strata
    with two components that contain it)."""
    cid = st.components[0]
    crossings = tuple(
        datum.component(other).ng
        for other_st in datum.strata
        if len(other_st.components) == 2 and cid in other_st.components
        for other in other_st.components
        if other != cid
    )
    return stratum_cover_class(datum.component(cid).ng, crossings)


def _rederive_cusp():
    datum = fixture_datum("cusp")
    curves = [st for st in datum.strata if len(st.components) == 1]
    explicit = [st for st in curves if st.explicit is not None]
    split = [st for st in curves if st.explicit is None]
    results = []
    results.append(
        (
            "cusp: explicit stratum class matches the cyclic-cover rule",
            bool(explicit) and all(st.explicit == _dual_graph_cover(datum, st) for st in explicit),
        )
    )
    # The split strata are simply connected, but the cover rule must agree.
    results.append(
        (
            "cusp: split strata agree with the cyclic-cover rule",
            bool(split)
            and all(datum.stratum_class(st) == _dual_graph_cover(datum, st) for st in split),
        )
    )
    results.append(
        (
            "cusp: engine spectrum equals the join of (2, 3)",
            hodge_spectrum(vanishing_cycles(datum)) == quasihomogeneous_spectrum((2, 3)),
        )
    )
    return results


def _rederive_d_curve(N: int):
    def run():
        datum = fixture_datum(f"d_curve_N{N}")
        results = []
        for st in datum.strata:
            if st.explicit is None:
                continue
            results.append(
                (
                    f"D-curve N={N}: cover over {st.components[0]} from the dual graph",
                    st.explicit == _dual_graph_cover(datum, st),
                )
            )
        sp = hodge_spectrum(vanishing_cycles(datum))
        results.append((f"D-curve N={N}: spectrum equals the shipped value", sp == _d_curve_spectrum(N)))
        return results

    return run


def _rederive_joint():
    joint = fixture_datum("x2y_y_joint")
    got = iterated_nearby(joint)
    bf = torus_fiber_bruteforce([[2, 1], [0, 1]])
    ok = bf is not None
    if ok:
        ncomp, eigen = bf
        recon = MonodromicClass(2, [((key, 0, 0), 1) for key in eigen])
        ok = got == recon and ncomp == 2
    return [("joint (x^2 y, y): iterated class matches root-of-unity enumeration", ok)]


def fixtures() -> list:
    """The shipped fixture library, with provenance and rederive hooks."""
    out = []
    for a in range(2, 9):
        out.append(
            Fixture(
                name=f"x^{a}",
                datum=fixture_datum(f"x{a}"),
                provenance=(
                    "identity resolution of the one-variable power; expected spectrum "
                    "sum of t^(k/a) derived from the root-of-unity fiber and verified "
                    "against direct jet counting"
                ),
                expected_spectrum=_power_spectrum(a),
                rederive=_rederive_monomial(a),
            )
        )
    out.append(
        Fixture(
            name="x2y",
            datum=fixture_datum("x2y"),
            provenance=(
                "normal-crossing pair of a double and a simple line; nearby class "
                "1 - L by the connected-fiber computation, spectrum t; consistent "
                "with the power-perturbation identity against the D-curves"
            ),
            expected_spectrum=Spectrum.monomial(1),
        )
    )
    out.append(
        Fixture(
            name="cusp",
            datum=fixture_datum("cusp"),
            provenance=(
                "three point blowups of x^2 + y^3; multiplicities (2,3,6), "
                "discrepancies (2,3,5); connected degree-6 cover over the central "
                "curve from the cyclic-cover rule with crossings (2,3,1); expected "
                "spectrum t^(5/6) + t^(7/6) equals the join of the one-variable "
                "classes of x^2 and y^3"
            ),
            expected_spectrum=Spectrum([(frac((5, 6)), 1), (frac((7, 6)), 1)]),
            rederive=_rederive_cusp,
        )
    )
    # Point blowups of y(x^2 + y^(N-1)): one for N = 3 (three transverse
    # lines), two for N = 2 and 5, three for N = 4 (exceptional chain with
    # (multiplicity, discrepancy) = (3,2), (4,3), (8,5)).
    for N in (2, 3, 4, 5):
        out.append(
            Fixture(
                name=f"d_curve_N{N}",
                datum=fixture_datum(f"d_curve_N{N}"),
                provenance=(
                    f"embedded resolution of y(x^2 + y^{N-1}) by point blowups; "
                    "covers over rational strata from the cyclic-cover rule; the "
                    "expected spectrum comes from the weighted-homogeneous formula "
                    f"with weights ({Fraction(N - 1, 2 * N)}, {Fraction(1, N)}), not "
                    "from this datum, and is double-checked through the "
                    "power-perturbation identity Sp(f + g^N) - Sp(f) with "
                    "f = x^2 y, g = y"
                ),
                expected_spectrum=_d_curve_spectrum(N),
                rederive=_rederive_d_curve(N),
            )
        )
    out.append(
        Fixture(
            name="x2y_y_joint",
            datum=fixture_datum("x2y_y_joint"),
            provenance=(
                "joint normal-crossing datum of (x^2 y, y); zero_locus_nearby is "
                "the unit: the zero locus is two smooth lines, the second function "
                "is a coordinate on one and vanishes identically on the other"
            ),
            rederive=_rederive_joint,
        )
    )
    return out


def rederive_all() -> list:
    """Run every fixture's rederive hook; returns (name, ok) pairs."""
    results = []
    for fx in fixtures():
        if fx.rederive is None:
            continue
        results.extend(fx.rederive())
    return results
