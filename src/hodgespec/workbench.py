"""Fixture library, join/perturbation combiners, and identity verifiers.

The fixtures are standard plane-curve and monomial singularity data whose
resolution combinatorics were derived by hand from point blowups.  That
data lives only in ``fixtures/*.json`` at the root of the checkout and is
read through ``fixture_datum``; this module holds what is said about it:
each fixture's provenance note and expected spectrum.  ``rederive`` checks
any fixture against the brute-force oracles by rule, not by name: each
stratum against the cyclic-cover class (curves) or the root-of-unity fiber
enumeration (points), a monomial's identity resolution against jet
counting, and the expected spectrum against the engine.  The parametric
generators (``monomial_datum``, ``product_joint_datum``) compute their data
from their arguments.

The verifiers compare, exactly, the spectrum jump between a function and
its power perturbations against the two closed forms: the folded spectrum
of the iterated vanishing-cycle class, and the transversal-data sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional, Sequence

from .convolution import convolve
from .lattice import SchemaError, _int_row, _named, _strict_int
from .monclass import (
    MAX_TS_TERMS,
    MonodromicClass,
    embed,
    hodge_spectrum,
    hodge_spectrum2,
    torus_fiber_class,
)
from .oracles import root_of_unity_class, stratum_cover_class
from .resolution import (
    Component,
    ResolutionDatum,
    Stratum,
    iterated_nearby,
    jet_count_zeta,
    load_datum,
    multiplicity_ratio,
    vanishing_cycles,
    zeta_series,
)
from .spectra import Spectrum, fold_bispectrum, geometric_factor, steenbrink_rhs


def thom_sebastiani(*phis: MonodromicClass) -> MonodromicClass:
    """Vanishing-cycle class of a join f_1(x_1) + ... + f_d(x_d) from the
    classes of its factors."""
    return convolve(*phis)


def one_variable_vanishing(a: int) -> MonodromicClass:
    """Vanishing-cycle class of x^a at the origin of the line."""
    a = _strict_int(a, "exponent", 1)
    return MonodromicClass._trusted(1, {((k,), 0, 0): 1 for k in range(1, a)}, a)


def quasihomogeneous_spectrum(exponents: Sequence[int]) -> Spectrum:
    """Spectrum of x_1^(a_1) + ... + x_d^(a_d): by Thom-Sebastiani, the sum
    of t^(k_1/a_1 + ... + k_d/a_d) over 1 <= k_i < a_i (Steenbrink), each
    exponent a sum of numerators over L = lcm(a_i), counted once.

    Every exponent is checked first, then the size: a join that would hold
    more than ``MAX_TS_TERMS`` terms raises ``ValueError`` before any sum is
    formed.  The count walks the exponents in ascending order, so each list
    of partial sums is at least twice the last (an exponent 2 keeps it, and
    comes first): the work is at most twice the join's mass, plus one step
    per exponent 2.
    """
    exponents = [_strict_int(a, "exponent", 1) for a in exponents]
    if not exponents:
        raise ValueError("need at least one exponent")
    size = 1
    for a in exponents:
        size *= a - 1
        if size > MAX_TS_TERMS:
            raise ValueError(
                f"exponents {','.join(map(str, exponents))} need a join of more than "
                f"MAX_TS_TERMS = {MAX_TS_TERMS} terms"
            )
    if not size:
        # An exponent 1 has the zero class, so the join is 0 however large
        # the other exponents are.
        return Spectrum.zero()
    L = lcm(*exponents)
    sums = [0]
    for a in sorted(exponents):
        step = L // a
        sums = [k + x for k in range(step, L, step) for x in sums]
    # A Counter answers 0 for a missing key; the term map is a plain dict.
    # The list of sums is let go before the copy, so the two never coexist.
    counts = Counter(sums)
    del sums
    return Spectrum._trusted(*Spectrum._lowest(dict(counts), L))


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

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    @property
    def hypothesis_ok(self) -> bool:
        return self.N > self.threshold

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
    f: ResolutionDatum, fg: ResolutionDatum, joint: ResolutionDatum, N: int
) -> SteenbrinkReport:
    """Compare Sp(f) - Sp(f + g^N) with the folded iterated spectrum.

    ``f`` and ``fg`` are the one-function data of f and f + g^N, ``joint``
    the joint datum of (f, g).  The right-hand side is the degree-N
    geometric factor times the N-folded two-variable spectrum of
    ``iterated_vanishing(joint)``, and the validity threshold is
    ``multiplicity_ratio(joint)``.  The check reports rather than asserts:
    when N is at or below the threshold the hypothesis failure is flagged
    and the comparison still runs.

    Every refusal is a ``SchemaError`` naming its parameter (``f``, ``fg``,
    ``joint`` or ``N``); N too when the N-term geometric factor would meet
    more than ``MAX_TS_TERMS`` term pairs, checked before it is built.
    """
    N = _strict_int(N, "N", 1)
    lhs = hodge_spectrum(_named("f", vanishing_cycles, f)) - hodge_spectrum(_named("fg", vanishing_cycles, fg))
    folded = fold_bispectrum(hodge_spectrum2(_named("joint", iterated_vanishing, joint)), N)
    if N * max(len(folded._terms), 1) > MAX_TS_TERMS:
        raise SchemaError(
            "N",
            f"{N} times the {len(folded._terms)}-term folded spectrum is more than "
            f"MAX_TS_TERMS = {MAX_TS_TERMS} term pairs",
        )
    rhs = geometric_factor(N) * folded
    return SteenbrinkReport(N, _named("joint", multiplicity_ratio, joint), lhs, rhs)


# ---------------------------------------------------------------------------
# Fixtures.
# ---------------------------------------------------------------------------


@dataclass
class Fixture:
    name: str
    datum: ResolutionDatum
    provenance: str
    expected_spectrum: Optional[Spectrum] = None


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


def _d_curve_spectrum(N: int) -> Spectrum:
    """Spectrum of the weighted-homogeneous germ y(x^2 + y^(N-1)), weights
    (w_x, w_y) = ((N-1)/(2N), 1/N): each monomial x^i y^j of the Milnor
    basis 1, y, ..., y^(N-1), x contributes t^((i+1) w_x + (j+1) w_y)."""
    wx, wy = Fraction(N - 1, 2 * N), Fraction(1, N)
    basis = [(0, j) for j in range(N)] + [(1, 0)]
    return Spectrum([((i + 1) * wx + (j + 1) * wy, 1) for i, j in basis])


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


def _is_monomial_identity(datum: ResolutionDatum) -> bool:
    """One-function identity resolution of a monomial: one split stratum
    holding every component over the point, every nu = 1."""
    return (
        datum.arity == 1
        and len(datum.strata) == 1
        and len(datum.strata[0].components) == len(datum.components)
        and datum.strata[0].base == _BASE_POINT
        and all(c.nu == 1 for c in datum.components)
    )


def rederive(fx: Fixture) -> list:
    """Recompute what fixture ``fx`` ships from oracles that do not read it;
    returns (label, ok) pairs.

    Every stratum I is checked by the oracle its dimension d - |I| picks: a
    curve stratum must equal the cyclic-cover class with its crossings read
    off the dual graph, a point stratum the root-of-unity enumeration of its
    multiplicity rows (the class of a point is 1, so no oracle reads the
    shipped base class; it refuses more than ``MAX_TORUS_CHARACTERS`` root
    tuples, Q^m for root order Q and m components).  Any other stratum has
    no oracle and fails.  On
    one-function data two datum-level lines follow: the identity resolution
    of a monomial expands through degree 30 to the jet count of its Ng row,
    and an expected spectrum equals the engine's vanishing-cycle spectrum.
    A check that an oracle or the engine refuses with ``ValueError`` is a
    failing line: its label followed by the refusal.
    """
    datum = fx.datum
    out = []

    def check(label, test):
        try:
            out.append((label, test()))
        except ValueError as exc:
            out.append((f"{label}: {exc}", False))

    for st in datum.strata:
        label = f"{fx.name}: stratum {{{','.join(st.components)}}}"
        dim = datum.dimension - len(st.components)
        if dim == 1:
            check(f"{label} equals the cyclic cover from the dual graph",
                  lambda: datum.stratum_class(st) == _dual_graph_cover(datum, st))
        elif dim == 0:
            rows = datum.multiplicity_rows(st)
            check(f"{label} equals the root-of-unity fiber over a point",
                  lambda: datum.stratum_class(st) == root_of_unity_class(rows))
        else:
            out.append((f"{label} has no oracle", False))
    if _is_monomial_identity(datum):
        exps = [c.ng for c in datum.components]
        check(f"{fx.name}: zeta through degree 30 equals the jet count",
              lambda: zeta_series(datum).expand(30) == jet_count_zeta(exps, 30))
    if datum.arity == 1 and fx.expected_spectrum is not None:
        check(f"{fx.name}: engine vanishing spectrum equals the expected spectrum",
              lambda: hodge_spectrum(vanishing_cycles(datum)) == fx.expected_spectrum)
    return out


def fixtures() -> list:
    """The shipped fixture library, with provenance and expected spectra."""
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
                expected_spectrum=quasihomogeneous_spectrum((a,)),
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
            expected_spectrum=quasihomogeneous_spectrum((2, 3)),
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
        )
    )
    return out
