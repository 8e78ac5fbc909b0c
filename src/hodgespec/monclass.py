"""Virtual Hodge classes graded by commuting finite-order monodromies.

A class of arity k is a finitely supported Z-combination of monomials
keyed by (eigenvalues, p, q): a k-tuple of rational residues in [0, 1)
recording the eigenvalues exp(2*pi*i*a_j) of k commuting finite-order
automorphisms, and a Hodge bidegree.  Each residue is stored as a reduced
int pair (num, den) with 0 <= num < den (see ``hodgespec.spectra``);
``terms()`` returns them as Fractions, and ``render`` sorts and formats the
pairs without that view, through ``_evs_table``: one table for every class
in a printed output, which ranks and formats each distinct eigenvalue tuple
once; ``_term_texts`` then formats each term in one f-string.
Multiplication is the group-ring product (eigenvalues add mod 1, bidegrees
add), which realizes the tensor product of Hodge structures with
automorphisms.  The distinguished class ``L`` (all-zero eigenvalues,
bidegree (1, 1)) is the Lefschetz motive; it is invertible.

Arity 0 classes are plain virtual Hodge-Deligne classes, arity 1 carries a
single monodromy, arity 2 two commuting monodromies.

``torus_fiber_class`` computes the class, with its monodromies, of the
fiber at 1 of a monomial map (G_m)^m -> (G_m)^r given by an integer
exponent matrix, assuming the ambient units are trivial (split case).  It
works on integers from the Smith normal form U M V = D alone: the torsion
character c (0 <= c_k < d_k) has monodromy-i eigenvalue
sum_k c_k U[k][i] / d_k mod 1, so no solution of M theta = e_i is needed,
and a supplied theta gives the same numbers (see the function).  One integer
odometer, ``_character_columns``, walks these characters and the deck
characters of ``oracles.p1_cover_class``.
"""

from __future__ import annotations

from math import comb, lcm, prod

from .lattice import _int_matrix, _strict_int, smith_normal_form, snf_divisors
from .spectra import (
    BiSpectrum,
    Spectrum,
    _add_mod1,
    _ArityMap,
    _lead,
    _merge,
    _pair,
    _reduced,
    _render_pair,
    _to_frac,
    frac,
)


# torus_fiber_class enumerates one character per element of the torsion
# group of Z^m / rows, whose order is the product of the elementary
# divisors, and oracles.p1_cover_class one per deck character; a larger
# group is refused up front.  On a 2-core Xeon (CPython 3.11),
# torus_fiber_class([[250000]]) takes 0.4 s, and covers of 240,000
# characters on 3 and 4 punctures 0.8 and 1.0 s (CI: within 10 s).
MAX_TORUS_CHARACTERS = 250_000


def _rank_classes(classes):
    """The sort key on the items of any of the classes (of one arity), and
    the rank it gives each distinct eigenvalue tuple in them.

    Each tuple is ranked once, as one integer: with L the lcm of every
    denominator in every tuple, a residue n / d is the digit n * (L // d) in
    [0, L), and the tuple reads as a base-L number, which orders tuples
    slot by slot as the rationals they stand for.  A term then ranks as
    (the rank of its tuple, p, q).
    """
    tuples = {evs for x in classes for evs, _p, _q in x._terms}
    big = lcm(*{d for evs in tuples for _n, d in evs})
    ranks = {}
    for evs in tuples:
        r = 0
        for n, d in evs:
            r = r * big + n * (big // d)
        ranks[evs] = r

    def rank(item):
        (evs, p, q), _mult = item
        return ranks[evs], p, q

    return rank, ranks


def _evs_table(classes):
    """The ranks of ``_rank_classes`` and the text of every distinct
    eigenvalue tuple in the classes (of one arity), each built once."""
    _rank, ranks = _rank_classes(classes)
    return ranks, {evs: ",".join(map(_render_pair, evs)) for evs in ranks}


def _term_texts(rows, evs_text) -> list:
    """The sorted rows (d, rank, p, q, mult, evs) as `(evs;p,q)` term texts,
    each one f-string with its separator: the rule of ``_render_terms``."""
    return [
        f" + ({evs_text[evs]};{p},{q})" if mult == 1
        else f" - ({evs_text[evs]};{p},{q})" if mult == -1
        else f" + {mult}*({evs_text[evs]};{p},{q})" if mult > 0
        else f" - {-mult}*({evs_text[evs]};{p},{q})"
        for _d, _rank, p, q, mult, evs in rows
    ]


def _class_renderer(classes):
    """One renderer for the classes (of one arity): a function giving the
    ``render`` text of any of them, through one ``_evs_table``."""
    ranks, evs_text = _evs_table(classes)

    def render(x) -> str:
        if not x._terms:
            return "0"
        rows = sorted([(0, ranks[evs], p, q, mult, evs) for (evs, p, q), mult in x._terms.items()])
        return _lead("".join(_term_texts(rows, evs_text)))

    return render


class MonodromicClass(_ArityMap):
    """Z-combination of (eigenvalue tuple, p, q) monomials of a fixed arity."""

    __slots__ = ()

    def _key(self, raw):
        evs, p, q = raw
        evs = tuple(_pair(e, residue=True) for e in evs)
        if len(evs) != self.arity:
            shown = tuple(map(_to_frac, evs))
            raise ValueError(f"eigenvalue tuple {shown} has wrong arity (want {self.arity})")
        return evs, _strict_int(p, "bidegree p"), _strict_int(q, "bidegree q")

    @staticmethod
    def _key_mul(k1, k2):
        (e1, p1, q1), (e2, p2, q2) = k1, k2
        return tuple(map(_add_mod1, e1, e2)), p1 + p2, q1 + q2

    def _rank(self):
        return _rank_classes((self,))[0]

    def terms(self):
        """``_SparseMap.terms``, converting each distinct eigenvalue tuple once."""
        views, out = {}, []
        for (evs, p, q), coef in self._sorted():
            if (view := views.get(evs)) is None:
                view = views[evs] = tuple(map(_to_frac, evs))
            out.append(((view, p, q), coef))
        return tuple(out)

    @classmethod
    def unit(cls, arity: int) -> "MonodromicClass":
        return cls.lefschetz(arity, 0)

    @classmethod
    def monomial(cls, arity, evs, p, q, mult: int = 1) -> "MonodromicClass":
        return cls(arity, [((tuple(evs), p, q), mult)])

    @classmethod
    def lefschetz(cls, arity: int, power: int = 1) -> "MonodromicClass":
        """L^n for any integer n; the inverse has bidegree (-1, -1)."""
        arity = _strict_int(arity, "arity")
        return cls.monomial(arity, (0,) * arity, power, power)

    def coefficient(self, evs, p, q) -> int:
        return self._terms.get(self._key((evs, p, q)), 0)

    def __pow__(self, n: int) -> "MonodromicClass":
        n = _strict_int(n, "exponent", 0)
        out = MonodromicClass.unit(self.arity)
        for _ in range(n):
            out = out * self
        return out

    def render(self) -> str:
        return _class_renderer((self,))(self)

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
        new = [(0, 1)] * arity
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
    out: dict[tuple, int] = {}
    for (((n, d),), p, _q), mult in x._terms.items():
        # n / d + p; already reduced, since gcd(n + p * d, d) = gcd(n, d).
        _merge(out, (n + p * d, d), mult)
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
        monomial with eigenvalues (<chi, theta_i> mod 1) and bidegree (0,0).

    With U M V = D the Smith normal form (divisors d_1 | ... | d_r) the
    torsion characters are chi = (c, 0) Vinv, 0 <= c_k < d_k, and
    D (Vinv theta_i) = U e_i, so

        <chi, theta_i> = sum_k c_k U[k][i] / d_k  (mod 1),

    read off U without solving for any theta.  A supplied ``thetas`` is
    checked to solve M theta = e_i and then enters as Vinv[k] . theta_i;
    that pairing equals U[k][i] / d_k for every solution (two solutions
    differ by a kernel vector, on which the first r rows of Vinv vanish),
    so the result does not depend on the choice.  A torsion group of more
    than ``MAX_TORUS_CHARACTERS`` elements raises ``ValueError``.
    """
    M = _int_matrix(rows)
    r = len(M)
    m = len(M[0]) if M else 0
    if r == 0 or m == 0:
        raise ValueError("exponent matrix must be nonempty")
    for j in range(m):
        if all(M[i][j] == 0 for i in range(r)):
            raise ValueError(f"column {j} of the exponent matrix is zero")
    D, U, _V, Vinv = smith_normal_form(M)
    divisors = snf_divisors(D)
    if len(divisors) != r:
        raise ValueError("exponent matrix is rank deficient")
    if prod(divisors) > MAX_TORUS_CHARACTERS:
        raise ValueError(
            f"torus fiber of {M} has {prod(divisors)} characters, "
            f"more than MAX_TORUS_CHARACTERS = {MAX_TORUS_CHARACTERS}"
        )

    # gens[k][i]: numerator over big = d_r of the eigenvalue the k-th
    # cyclic generator of the torsion group gives monodromy i.
    big = divisors[-1]
    if thetas is None:
        gens = [[U[k][i] * (big // d) % big for i in range(r)] for k, d in enumerate(divisors)]
    else:
        thetas = [[frac(t) for t in theta] for theta in thetas]
        for i, theta in enumerate(thetas):
            if [sum(row[j] * theta[j] for j in range(m)) for row in M] != [int(k == i) for k in range(r)]:
                raise ValueError("supplied theta is not a solution")
        gens = [
            [int(sum(v * t for v, t in zip(Vinv[k], theta)) * big) % big for theta in thetas]
            for k in range(r)
        ]

    cols = _character_columns(divisors, gens, big)
    reduced = [{n: _reduced(n, big) for n in set(col)} for col in cols]
    # U is unimodular, so distinct characters have distinct eigenvalue
    # tuples and every key below is new.  (L - 1)^e is the sum over j of
    # (-1)^(e - j) C(e, j) L^j, an L^j shifting the bidegree by (j, j).
    e = m - r
    shifts = [(j, (-1) ** (e - j) * comb(e, j)) for j in range(e + 1)]
    result = {
        (evs, j, j): coef
        for evs in zip(*(map(red.__getitem__, col) for red, col in zip(reduced, cols)))
        for j, coef in shifts
    }
    return MonodromicClass._trusted(r, result)


def _character_columns(orders, gens, big):
    """Walk Z/d_1 + ... + Z/d_k (d = orders) as k cyclic odometers: given
    the numerator gens[k][i] over ``big`` that generator k adds to column i,
    column i lists every character's numerator, in one shared order."""
    cols = [[0] for _ in gens[0]] if gens else []
    for d, gen in zip(orders, gens):
        if d > 1:
            cols = [[(a + c * g) % big for a in col for c in range(d)] for col, g in zip(cols, gen)]
    return cols
