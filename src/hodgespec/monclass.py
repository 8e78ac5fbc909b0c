"""Virtual Hodge classes graded by commuting finite-order monodromies.

A class of arity k is a finitely supported Z-combination of monomials
keyed by (eigenvalues, p, q): a k-tuple of rational residues in [0, 1)
recording the eigenvalues exp(2*pi*i*a_j) of k commuting finite-order
automorphisms, and a Hodge bidegree.  Multiplication is the group-ring
product (eigenvalues add mod 1, bidegrees add), which realizes the tensor
product of Hodge structures with automorphisms.  The distinguished class
``L`` (all-zero eigenvalues, bidegree (1, 1)) is the Lefschetz motive; it
is invertible.

Arity 0 classes are plain virtual Hodge-Deligne classes, arity 1 carries a
single monodromy, arity 2 two commuting monodromies.

``torus_fiber_class`` computes the class, with its monodromies, of the
fiber at 1 of a monomial map (G_m)^m -> (G_m)^r given by an integer
exponent matrix, assuming the ambient units are trivial (split case).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping

from .lattice import rational_solve, smith_normal_form, snf_divisors
from .spectra import (
    BiSpectrum,
    Spectrum,
    _add_mod1,
    _ArityMap,
    _items,
    _merge,
    _render_frac,
    _render_terms,
    frac,
    mod1,
)


class MonodromicClass(_ArityMap):
    """Z-combination of (eigenvalue tuple, p, q) monomials of a fixed arity."""

    __slots__ = ()

    def __init__(self, arity: int, terms: Mapping | Iterable = ()):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.arity = arity
        data: dict[tuple, int] = {}
        for (evs, p, q), mult in _items(terms):
            evs = tuple(mod1(e) for e in evs)
            if len(evs) != arity:
                raise ValueError(f"eigenvalue tuple {evs} has wrong arity (want {arity})")
            _merge(data, (evs, int(p), int(q)), int(mult))
        self._terms = data

    @staticmethod
    def _key_mul(k1, k2):
        (e1, p1, q1), (e2, p2, q2) = k1, k2
        return tuple(map(_add_mod1, e1, e2)), p1 + p2, q1 + q2

    @classmethod
    def zero(cls, arity: int) -> "MonodromicClass":
        return cls(arity)

    @classmethod
    def unit(cls, arity: int) -> "MonodromicClass":
        return cls.monomial(arity, (0,) * arity, 0, 0)

    @classmethod
    def monomial(cls, arity, evs, p, q, mult: int = 1) -> "MonodromicClass":
        return cls(arity, [((tuple(evs), p, q), mult)])

    @classmethod
    def lefschetz(cls, arity: int, power: int = 1) -> "MonodromicClass":
        """L^n for any integer n; the inverse has bidegree (-1, -1)."""
        return cls.monomial(arity, (0,) * arity, power, power)

    def coefficient(self, evs, p, q) -> int:
        key = (tuple(mod1(e) for e in evs), int(p), int(q))
        return self._terms.get(key, 0)

    def __pow__(self, n: int) -> "MonodromicClass":
        if n < 0:
            raise ValueError("negative powers only exist for L; use lefschetz()")
        out = MonodromicClass.unit(self.arity)
        for _ in range(n):
            out = out * self
        return out

    def render(self) -> str:
        def mono(key):
            evs, p, q = key
            evs_str = ",".join(_render_frac(e) for e in evs)
            return f"({evs_str};{p},{q})"

        return _render_terms(self.terms(), mono)

    def __repr__(self):
        return f"MonodromicClass({self.arity}, {self.render()})"


def embed(x: MonodromicClass, arity: int, slots) -> MonodromicClass:
    """Place x's monodromy gradings into the given 1-based slots of a larger
    arity, with trivial eigenvalue elsewhere."""
    slots = tuple(slots)
    if len(slots) != x.arity:
        raise ValueError("slot count must match the arity of x")
    if any(not 1 <= s <= arity for s in slots) or len(set(slots)) != len(slots):
        raise ValueError("slots must be distinct and within range")
    out = {}
    for (evs, p, q), mult in x._terms.items():
        new = [Fraction(0)] * arity
        for s, e in zip(slots, evs):
            new[s - 1] = e
        out[(tuple(new), p, q)] = mult  # distinct slots: keys stay distinct
    return MonodromicClass._trusted(arity, out)


def box(x: MonodromicClass, y: MonodromicClass) -> MonodromicClass:
    """External product: eigenvalue tuples concatenate, bidegrees add."""
    out: dict[tuple, int] = {}
    for (e1, p1, q1), m1 in x._terms.items():
        for (e2, p2, q2), m2 in y._terms.items():
            _merge(out, (e1 + e2, p1 + p2, q1 + q2), m1 * m2)
    return MonodromicClass._trusted(x.arity + y.arity, out)


def hodge_spectrum(x: MonodromicClass) -> Spectrum:
    """One-monodromy Hodge spectrum: (a, p, q) maps to t^(a+p), q dropped.

    Applied to the realization of a vanishing-cycle class this is the Hodge
    spectrum of the singularity.  Additive; satisfies
    hodge_spectrum(L * x) = t * hodge_spectrum(x).
    """
    if x.arity != 1:
        raise ValueError("hodge_spectrum needs an arity-1 class")
    out: dict[Fraction, int] = {}
    for ((a,), p, _q), mult in x._terms.items():
        _merge(out, a + p, mult)
    return Spectrum._trusted(out)


def hodge_spectrum2(x: MonodromicClass) -> BiSpectrum:
    """Two-monodromy spectrum: ((a, b), p, q) maps to t^a u^b v^p."""
    if x.arity != 2:
        raise ValueError("hodge_spectrum2 needs an arity-2 class")
    out: dict[tuple, int] = {}
    for ((a, b), p, _q), mult in x._terms.items():
        _merge(out, (a, b, p), mult)
    return BiSpectrum._trusted(out)


def torus_fiber_class(rows, thetas=None) -> MonodromicClass:
    """Class of T = {y in (G_m)^m : prod_j y_j^(M_ij) = 1 for all i}, with
    its r commuting translation monodromies.

    M is the r x m integer exponent matrix (rows); it must have rank r and
    no zero column.  The i-th monodromy is translation by exp(2*pi*i*theta)
    for any rational solution of M theta = e_i.  Writing X = Z^m / (row
    lattice), the result is

        (L - 1)^(m - r) * sum over torsion characters chi of X of the
        monomial with eigenvalues (<chi, theta_i> mod 1) and bidegree (0,0),

    which is independent of the solution choices: two solutions differ by a
    rational kernel vector, and torsion characters pair integrally with the
    kernel.
    """
    M = [list(map(int, row)) for row in rows]
    r = len(M)
    m = len(M[0]) if M else 0
    if r == 0 or m == 0:
        raise ValueError("exponent matrix must be nonempty")
    for j in range(m):
        if all(M[i][j] == 0 for i in range(r)):
            raise ValueError(f"column {j} of the exponent matrix is zero")
    D, _U, _V, Vinv = smith_normal_form(M)
    divisors = snf_divisors(D)
    if len(divisors) != r:
        raise ValueError("exponent matrix is rank deficient")

    if thetas is None:
        thetas = []
        for i in range(r):
            rhs = [1 if k == i else 0 for k in range(r)]
            sol = rational_solve(M, rhs)
            if sol is None:  # impossible at full rank
                raise ValueError("no rational solution for monodromy direction")
            thetas.append(sol)
    else:
        thetas = [[frac(t) for t in theta] for theta in thetas]
        for i, theta in enumerate(thetas):
            if [sum(Fraction(M[k][j]) * theta[j] for j in range(m)) for k in range(r)] != [
                Fraction(1 if k == i else 0) for k in range(r)
            ]:
                raise ValueError("supplied theta is not a solution")

    # Torsion characters of Z^m / rows: in the V-coordinates they are the
    # tuples (c_1..c_r, 0..0) with 0 <= c_i < d_i; back in the standard
    # basis the character is (c, 0) * Vinv.
    result: dict[tuple, int] = {}
    for cs in itertools.product(*(range(d) for d in divisors)):
        chi = [sum(cs[i] * Vinv[i][j] for i in range(len(cs))) for j in range(m)]
        evs = tuple(
            mod1(sum(chi[j] * thetas[i][j] for j in range(m))) for i in range(r)
        )
        _merge(result, (evs, 0, 0), 1)
    cls = MonodromicClass._trusted(r, result)
    torus = MonodromicClass.lefschetz(r) - MonodromicClass.unit(r)
    return cls * torus ** (m - r)
