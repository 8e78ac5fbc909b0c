"""Virtual Hodge classes graded by commuting finite-order monodromies.

A class of arity k is a finitely supported Z-combination of monomials
keyed by (eigenvalues, p, q): a k-tuple of rational residues in [0, 1)
recording the eigenvalues exp(2*pi*i*a_j) of k commuting finite-order
automorphisms, and a Hodge bidegree.  The residues are int numerators over
the class's one least denominator ``den`` (the key format of
``hodgespec.spectra``), so eigenvalue tuples sort as the rationals they
stand for; ``terms()`` returns them as Fractions.  ``MonodromicClass`` has
the one base ``spectra._ArityMap`` and supplies the core's key hooks and
its product kernel, which builds a key with no per-pair tuple
comprehension at den 1 (arity 0 among these: every residue is 0) and at
arity 1, and its ``_viewer`` (the Fractions of ``terms()``, one tuple per
distinct eigenvalue tuple of a call); its trusted constructor
``_trusted(arity, terms, den)``, sums, products and term list are the
core's.  ``box`` scales each factor's eigenvalue tuples to the lcm of the
two dens once, inside its own loops.  Every printed
class goes through ``_render_classes``, which takes all the classes of one
printed output (a truncated polynomial's degrees, say), formats each
distinct eigenvalue tuple among them once, and sorts each class's terms on
their own.
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
and a supplied theta gives the same numbers (see the function).  One row
needs no elimination: its Smith data are [gcd(row)] and U = [[1]], so its
terms are written down directly.  One integer odometer,
``_character_columns``, walks the characters of every other matrix and
the deck characters of ``oracles.p1_cover_class``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain
from math import comb, gcd, lcm, prod
from operator import itemgetter

from .lattice import _int_matrix, _int_row, _sized, _strict_int, smith_normal_form, snf_divisors
from .spectra import BiSpectrum, Spectrum, _ArityMap, _heads, _lead, _merge, _pair, _ratio, frac


# torus_fiber_class enumerates one character per element of the torsion
# group of Z^m / rows, whose order is the product of the elementary
# divisors, and oracles.p1_cover_class one per deck character; a larger
# group is refused up front.  On a 2-core Xeon (CPython 3.11),
# torus_fiber_class([[250000]]) takes 0.4 s, and covers of 240,000
# characters on 3 and 4 punctures 0.8 and 1.0 s (CI: within 10 s).
MAX_TORUS_CHARACTERS = 250_000

# The term-pair budget of a join.  ``box`` meets len(x) * len(y) term pairs
# and refuses more before its loop; every class join (``convolve``,
# ``thom_sebastiani``, the CLI ``convolve``) goes through it.
# ``workbench.quasihomogeneous_spectrum`` refuses a ``ts`` tuple whose join
# would hold more terms (its mass), which also bounds its work: it counts
# one exponent sum per unit of mass, after at most as many partial sums.
# ``workbench.steenbrink_check`` refuses an N whose right-hand side would
# meet more term pairs.  The largest class join a shipped input, check
# suite or CI step reaches is 5,7,9,11,13: its last box meets 1,920 x 12 =
# 23,040 pairs, and its spectrum holds 23,040 terms; this bound leaves a
# margin of about ten.  At 207,360 terms (7,11,13,17,19) the whole
# `hodgespec ts` process takes 0.25-0.30 s and 56 MB peak RSS on a 2-core
# Xeon (CPython 3.11), where rendering the spectrum (0.15 s) outweighs the
# count (0.02-0.04 s); CI requires it to finish within 30 s.
MAX_TS_TERMS = 250_000


class _EigenTexts(dict):
    """The printed text of each eigenvalue tuple over one ``den``, each
    formatted when first looked up."""

    __slots__ = ("den",)

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, evs):
        text = self[evs] = ",".join([_ratio(n, self.den) for n in evs])
        return text


def _render_classes(classes) -> list:
    """The ``render`` text of each of the classes (of one arity), in order.

    Each class's terms are sorted on their own stored keys, printed as
    `(evs;p,q)` terms and joined, so one class's terms are held at a time.
    The classes share one ``_EigenTexts`` table per ``den``, which formats
    a tuple once however many classes hold it, and one ``_heads`` table of
    sign texts.
    """
    tables: dict = {}
    head = _heads(chain.from_iterable([x._terms.values() for x in classes]))
    out = []
    for x in classes:
        terms = x._terms
        if not terms:
            out.append("0")
            continue
        if (text := tables.get(x.den)) is None:
            text = tables[x.den] = _EigenTexts(x.den)
        out.append(_lead("".join([f"{head[terms[k]]}({text[k[0]]};{k[1]},{k[2]})" for k in sorted(terms)])))
    return out


class MonodromicClass(_ArityMap):
    """Z-combination of (eigenvalue tuple, p, q) monomials of a fixed arity."""

    __slots__ = ()

    def _key(self, raw):
        evs, p, q = raw
        evs = [_pair(e, residue=True) for e in evs]
        if len(evs) != self.arity:
            shown = tuple(Fraction(n, d) for n, d in evs)
            raise ValueError(f"eigenvalue tuple {shown} has wrong arity (want {self.arity})")
        d = lcm(*[d for _n, d in evs])
        evs = tuple([n * (d // e) for n, e in evs])
        return (evs, _strict_int(p, "bidegree p"), _strict_int(q, "bidegree q")), d

    def _mul_terms(self, xs, sx, ys, sy, den):
        out: dict = {}
        get = out.get
        xs = xs.items()
        if den == 1:
            # Every residue is 0 (arity 0 among these), and so is every sum.
            for (e, p2, q2), m2 in ys.items():
                for (_e, p1, q1), m1 in xs:
                    k = e, p1 + p2, q1 + q2
                    out[k] = get(k, 0) + m1 * m2
        elif self.arity == 1:
            for ((v,), p2, q2), m2 in ys.items():
                v *= sy
                for ((u,), p1, q1), m1 in xs:
                    k = ((u * sx + v) % den,), p1 + p2, q1 + q2
                    out[k] = get(k, 0) + m1 * m2
        else:
            for (e2, p2, q2), m2 in ys.items():
                e2 = [v * sy for v in e2]
                for (e1, p1, q1), m1 in xs:
                    k = tuple([(u * sx + v) % den for u, v in zip(e1, e2)]), p1 + p2, q1 + q2
                    out[k] = get(k, 0) + m1 * m2
        return out

    @staticmethod
    def _add_scaled(out, terms, s):
        # Each distinct eigenvalue tuple scaled once: bidegrees repeat them.
        get, scale = out.get, s.__mul__
        new: dict = {}
        for (evs, p, q), m in terms.items():
            if (e := new.get(evs)) is None:
                e = new[evs] = tuple(map(scale, evs))
            k = e, p, q
            out[k] = get(k, 0) + m

    @staticmethod
    def _rekeyed(terms, f):
        # Each distinct eigenvalue tuple once: bidegrees repeat them.
        new: dict = {}
        out = {}
        for (evs, p, q), m in terms.items():
            if (e := new.get(evs)) is None:
                e = new[evs] = tuple(map(f, evs))
            out[e, p, q] = m
        return out

    _nums = partial(map, itemgetter(0))

    def _viewer(self):
        # One Fraction tuple per distinct eigenvalue tuple: bidegrees repeat them.
        den, views = self.den, {}

        def view(key):
            evs, p, q = key
            if (e := views.get(evs)) is None:
                e = views[evs] = tuple([Fraction(n, den) for n in evs])
            return e, p, q

        return view

    @classmethod
    def unit(cls, arity: int) -> "MonodromicClass":
        return cls.lefschetz(arity, 0)

    @classmethod
    def monomial(cls, arity, evs, p, q, mult: int = 1) -> "MonodromicClass":
        return cls(arity, [((tuple(evs), p, q), mult)])

    @classmethod
    def lefschetz(cls, arity: int, power: int = 1) -> "MonodromicClass":
        """L^n for any integer n; the inverse has bidegree (-1, -1)."""
        arity, power = _strict_int(arity, "arity", 0), _strict_int(power, "bidegree p")
        return cls._trusted(arity, {((0,) * arity, power, power): 1}, 1)

    def coefficient(self, evs, p, q) -> int:
        return self._get((evs, p, q))

    def __pow__(self, n: int) -> "MonodromicClass":
        n = _strict_int(n, "exponent", 0)
        out, base = MonodromicClass.unit(self.arity), self
        while n:  # square and multiply: at most 2 log2(n) + 1 products
            if n & 1:
                out = out * base
            if n := n >> 1:
                base = base * base
        return out

    def render(self) -> str:
        return _render_classes((self,))[0]

    def __repr__(self):
        return f"MonodromicClass({self.arity}, {self.render()})"


def embed(x: MonodromicClass, arity: int, slots) -> MonodromicClass:
    """Place x's monodromy gradings into the given 1-based slots of a larger
    arity, with trivial eigenvalue elsewhere: one slot per grading of x."""
    arity = _strict_int(arity, "arity", 0)
    slots = _int_row(slots, "slots", length=x.arity)
    if any(not 1 <= s <= arity for s in slots) or len(set(slots)) != len(slots):
        raise ValueError("slots must be distinct and within range")
    out = {}
    for (evs, p, q), mult in x._terms.items():
        new = [0] * arity
        for s, e in zip(slots, evs):
            new[s - 1] = e
        out[(tuple(new), p, q)] = mult  # distinct slots: keys stay distinct
    return MonodromicClass._trusted(arity, out, x.den)


def _times_base(x: MonodromicClass, base: MonodromicClass) -> MonodromicClass:
    """x times an arity-0 class base, given trivial eigenvalues: x's terms
    with their bidegrees shifted by each term of base and scaled by its
    multiplicity, zero terms dropped.  This is embed(base, x.arity, ()) * x;
    base has den 1, so the product keeps x.den (see ``hodgespec.spectra``).
    """
    out: dict = {}
    for (_evs, dp, dq), count in base._terms.items():
        for (evs, p, q), mult in x._terms.items():
            _merge(out, (evs, p + dp, q + dq), count * mult)
    return x._like(out)


def box(x: MonodromicClass, y: MonodromicClass) -> MonodromicClass:
    """External product: eigenvalue tuples concatenate, bidegrees add.

    A product of more than ``MAX_TS_TERMS`` term pairs raises ``ValueError``
    before any pair is formed.  The keys are over lcm(x.den, y.den): each
    tuple of y is scaled once before the pair loop, each of x once in its
    outer loop, like keys merge in the inner loop and zero terms are
    dropped once at the end.
    """
    pairs = len(x._terms) * len(y._terms)
    if pairs > MAX_TS_TERMS:
        raise ValueError(
            f"box of a {len(x._terms)}-term and a {len(y._terms)}-term class meets "
            f"{pairs} term pairs, more than MAX_TS_TERMS = {MAX_TS_TERMS}"
        )
    den = lcm(x.den, y.den)
    scale_x, scale_y = (den // x.den).__mul__, (den // y.den).__mul__
    ys = [(tuple(map(scale_y, e2)), p2, q2, m2) for (e2, p2, q2), m2 in y._terms.items()]
    out: dict = {}
    get = out.get
    for (e1, p1, q1), m1 in x._terms.items():
        e1 = tuple(map(scale_x, e1))
        for e2, p2, q2, m2 in ys:
            k = e1 + e2, p1 + p2, q1 + q2
            out[k] = get(k, 0) + m1 * m2
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return MonodromicClass._trusted(x.arity + y.arity, *MonodromicClass._lowest(out, den))


def hodge_spectrum(x: MonodromicClass) -> Spectrum:
    """One-monodromy Hodge spectrum: (a, p, q) maps to t^(a+p), q dropped.

    Applied to the realization of a vanishing-cycle class this is the Hodge
    spectrum of the singularity.  Additive; satisfies
    hodge_spectrum(L * x) = t * hodge_spectrum(x).
    """
    if x.arity != 1:
        raise ValueError("hodge_spectrum needs an arity-1 class")
    den = x.den
    out: dict[int, int] = {}
    for ((a,), p, _q), mult in x._terms.items():
        _merge(out, a + p * den, mult)
    return Spectrum._trusted(*Spectrum._lowest(out, den))


def hodge_spectrum2(x: MonodromicClass) -> BiSpectrum:
    """Two-monodromy spectrum: ((a, b), p, q) maps to t^a u^b v^p."""
    if x.arity != 2:
        raise ValueError("hodge_spectrum2 needs an arity-2 class")
    out: dict[tuple, int] = {}
    for ((a, b), p, _q), mult in x._terms.items():
        _merge(out, (a, b, p), mult)
    return BiSpectrum._trusted(*BiSpectrum._lowest(out, x.den))


def _exponent_matrix(rows) -> list:
    """The integer rows of a monomial map's exponent matrix: a ragged row
    is refused by the row rule, and a matrix with no row or no column with
    ValueError."""
    M = _int_matrix(rows)
    if not M or not M[0]:
        raise ValueError("exponent matrix must be nonempty")
    return M


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

    read off U without solving for any theta.  One row (r = 1) with no
    ``thetas`` is not eliminated: with no zero column its entries are all
    nonzero, its one divisor is their gcd g and U = [[1]], so its terms
    are built directly, eigenvalue c / g for each c < g at each shift of
    (L - 1)^(m - 1).  Every other case runs ``smith_normal_form``.  A
    supplied ``thetas`` must hold r rows of m entries (else a
    ``ValueError`` naming ``thetas``); each theta_i enters through
    ``frac`` and is kept as int numerators over their lcm t, checked to solve M theta = e_i as M nums = t e_i, and then enters
    as the integer Vinv[k] . nums * d_r / t.  That pairing equals
    U[k][i] / d_k for every solution (two solutions differ by a kernel
    vector, on which the first r rows of Vinv vanish), so the result does
    not depend on the choice.  A torsion group of more than
    ``MAX_TORUS_CHARACTERS`` elements raises ``ValueError``.
    """
    M = _exponent_matrix(rows)
    r, m = len(M), len(M[0])
    for j in range(m):
        if all(M[i][j] == 0 for i in range(r)):
            raise ValueError(f"column {j} of the exponent matrix is zero")
    # (L - 1)^e is the sum over j of (-1)^(e - j) C(e, j) L^j, an L^j
    # shifting the bidegree by (j, j).
    e = m - r
    shifts = [(j, (-1) ** (e - j) * comb(e, j)) for j in range(e + 1)]
    if r == 1 and thetas is None:
        # Character c < g = gcd(row) has eigenvalue c / g, and g is least.
        g = gcd(*M[0])
        _check_characters(M, g)
        return MonodromicClass._trusted(1, {((c,), j, j): coef for c in range(g) for j, coef in shifts}, g)
    D, U, _V, Vinv = smith_normal_form(M)
    divisors = snf_divisors(D)
    if len(divisors) != r:
        raise ValueError("exponent matrix is rank deficient")
    _check_characters(M, prod(divisors))

    # gens[k][i]: numerator over big = d_r of the eigenvalue the k-th
    # cyclic generator of the torsion group gives monodromy i.
    big = divisors[-1]
    if thetas is None:
        gens = [[U[k][i] * (big // d) % big for i in range(r)] for k, d in enumerate(divisors)]
    else:
        thetas = _sized([
            _sized([frac(t) for t in theta], f"thetas, row {i}", m) for i, theta in enumerate(thetas)
        ], "thetas", r)
        # Theta i is int numerators nums over their lcm t: M nums = t e_i,
        # and its pairing with Vinv[k] times big is an integer.
        pairings = []
        for i, theta in enumerate(thetas):
            t = lcm(*(x.denominator for x in theta))
            nums = [x.numerator * (t // x.denominator) for x in theta]
            if [sum(a * n for a, n in zip(row, nums)) for row in M] != [t * (k == i) for k in range(r)]:
                raise ValueError("supplied theta is not a solution")
            pairings.append([sum(v * n for v, n in zip(row, nums)) * big // t % big for row in Vinv[:r]])
        gens = list(zip(*pairings))

    # U is unimodular, so distinct characters have distinct eigenvalue
    # tuples and every key below is new, and big is least: the character of
    # the last generator pairs to row r - 1 of U over d_r, whose entries
    # have gcd 1.
    result = {
        (evs, j, j): coef
        for evs in zip(*_character_columns(divisors, gens, big))
        for j, coef in shifts
    }
    return MonodromicClass._trusted(r, result, big)


def _check_characters(M, count: int) -> None:
    """Refuse a torus fiber of more than ``MAX_TORUS_CHARACTERS`` characters."""
    if count > MAX_TORUS_CHARACTERS:
        raise ValueError(
            f"torus fiber of {M} has {count} characters, "
            f"more than MAX_TORUS_CHARACTERS = {MAX_TORUS_CHARACTERS}"
        )


def _character_columns(orders, gens, big):
    """Walk Z/d_1 + ... + Z/d_k (d = orders) as k cyclic odometers: given
    the numerator gens[k][i] over ``big`` that generator k adds to column i,
    column i lists every character's numerator, in one shared order."""
    cols = [[0] for _ in gens[0]] if gens else []
    for d, gen in zip(orders, gens):
        if d > 1:
            cols = [[(a + c * g) % big for a in col for c in range(d)] for col, g in zip(cols, gen)]
    return cols
