"""Rational power series built from the generators L^e T^j / (1 - L^e T^j).

A series is a finite sum of terms ``coefficient * product of generators``,
with coefficients in a monodromic class ring of fixed arity.  The empty
product is the constant term.  Both series rings, ``RationalSeries`` and
``TruncatedPoly``, are ``_SeriesMap``s: the ring core of
``hodgespec.spectra`` with class coefficients, whose sums and products are
the core's; only their product kernel is written here.  Two operations
matter downstream:

* ``expand(n)`` -- the exact truncated power-series expansion, using the
  geometric expansion of each generator (sum over m >= 1 of L^(e m) T^(j m)).
  A generator product only ever yields integer counts of monomials L^k T^d,
  so classes are never multiplied or added: each count scales a shifted
  copy of the term's coefficient, all put over one lcm of denominators
  (the key format of ``hodgespec.spectra``) once.  Every series takes one
  path: a class monomial is one integer key (a digit each for the
  T-degree, the L-power and the L-orbit (evs, p - q)), a generator moves
  every key by one fixed step, each factor walks its keys with a running
  sum along each chain of steps, and the last factor adds each nonzero
  running sum straight into the class term maps of the degrees it passes.
  A degree holding an eigenvalue tuple coprime to that lcm is over its
  least denominator already; the walk notes those degrees, and only the
  others go through ``MonodromicClass._lowest``.
  ``TruncatedPoly.mul_truncated`` stays as the independent route that
  checks multiplicativity;
* ``limit()`` -- the value at T -> infinity, which sends each term to its
  coefficient times (-1)^(number of generator factors).

The limit is evaluated termwise on the stored presentation; every series
constructed by this package is an explicit combination of generator
products, for which that is the defining formula.
"""

from __future__ import annotations

from math import gcd, lcm
from collections import defaultdict
from itertools import count
from operator import add, itemgetter

from .lattice import _strict_int
from .monclass import MonodromicClass, _render_classes
from .spectra import _ArityMap, _merge


# expand refuses a truncation that may merge more class terms than this
# (each term's _points_bound times the number of terms of its coefficient,
# summed over the series) before it walks any factor.  The shipped fixtures
# reach 16,790 at n = 160 (d_curve_N4), the largest truncation the tests and
# the benchmark ask for; d_curve_N5 at n = 1,250 (941,662; 314,498 terms
# out, 2,249 distinct class keys) takes 0.51-0.70 s and 46 MB peak RSS as a
# whole `hodgespec zeta --truncate` process on a 2-core Xeon (CPython
# 3.11); CI runs it within 10 s and 70 MB and checks its output.
MAX_EXPAND_TERMS = 1_000_000


def _points_bound(factors, n: int) -> int:
    """An upper bound on the count-table entries ``expand(n)`` walks for
    one term.

    The table of a prefix of k factors (e_i, j_i) has at most one entry per
    lattice point m >= 1 of sum_i j_i m_i <= n, and there are at most
    n^k / (k! * prod_i j_i) of those: the unit cubes [m - 1, m] are disjoint
    and lie in that simplex.  The bound is the floor of that, summed over
    every nonempty prefix; it is exact for one factor.
    """
    size = 0
    num = den = 1
    for k, (_e, j) in enumerate(factors, 1):
        num, den = num * n, den * k * j
        size += num // den
    return size


def _over_lcm(terms: dict) -> tuple:
    """({factors: coefficient term map}, den): the coefficient classes of a
    series' terms put over den, the lcm of their denominators, once."""
    den = lcm(*[c.den for c in terms.values()])
    return {factors: c._over(den) for factors, c in terms.items()}, den


def _stretches(table: dict, step: int, j: int, n: int, width: int):
    """(b, run, m) for each stretch of the walk of a factor of T-weight j
    over ``table`` ({key: count}): run is to be added at b + i * step for
    1 <= i <= m, keeping T-degree (key // width) <= n.

    Keys b with equal b % step lie on one chain; walking a chain in
    ascending order with the running sum of the counts passed so far visits
    each of its keys once, however many bases share it.  A stretch ends at
    the next key of its chain, or at degree n; one whose sum is 0 is not
    given.
    """
    # Ascending keys, then stably grouped by chain.
    order = sorted(sorted(table), key=step.__rmod__)
    run = 0
    for b, nb in zip(order, order[1:] + [None]):
        run += table[b]
        last = nb is None or (nb - b) % step
        if run:
            yield b, run, (n - b // width) // j if last else (nb - b) // step
        if last:
            run = 0


def _expand(terms: dict, n: int, den: int, arity: int) -> dict:
    """{d: class of T^d} of ``RationalSeries.expand`` for n >= 1, over the
    generator terms ``terms`` ({factors: class term map over den}, as
    ``_over_lcm`` gives).

    The class monomial (evs, p + k, q + k) at T-degree d is the key
    d * width + l * r + o: o indexes its L-orbit (evs, p - q) among the r
    orbits of the series, l = p + k + shift lies in [0, W), and width = W r.
    With E the largest |e|, every reachable k lies in [-E n, E n], so
    shift = E n - (the least p) and W = shift + E n + (the largest p) + 1
    (0 counts among the p's, so the count tables, at l = E n + k, fit too);
    then the factor (e, j) moves every key by the step j width + e r, which
    is positive as W > E.  Each term starts from its count table {E n r: 1}
    (no factor yet), walks every factor but the one of least T-weight on
    it, merges the coefficient at each entry, and walks that last factor
    on the merged keys: each nonzero running sum is added straight into
    the class term maps of the degrees its stretch passes, under one key
    tuple per (orbit, l) shared by every degree, and a stretch whose sum
    cancels to 0 is skipped.  A degree keeps den when the last stretch of
    a tuple coprime to den that passed it cancelled no term (its term
    there still stands); one that only stretches of zero tuples passed has
    den 1; any other goes through ``_lowest``.
    """
    orbits: dict = {}
    ps = [0]
    big_e = 0
    for factors, coef in terms.items():
        for e, _j in factors:
            big_e = max(big_e, abs(e))
        for evs, p, q in coef:
            orbits.setdefault((evs, p - q), len(orbits))
            ps.append(p)
    rev = list(orbits)
    # Each orbit's tuple: 0 coprime to den, 1 any other but zero, 2 zero.
    side = [2 if not any(evs) else 0 if gcd(den, *evs) == 1 else 1 for evs, _delta in rev]
    r = len(rev)
    reach = big_e * n
    shift = reach - min(ps)
    width = (shift + reach + max(ps) + 1) * r
    keys: dict[int, tuple] = {}
    get_key = keys.get
    out: defaultdict = defaultdict(dict)
    # The degrees a coprime tuple holds, and those some tuple but zero may.
    known: set = set()
    mixed: set = set()
    for factors, coef in terms.items():
        # The factor of least T-weight walks last: the fewest, longest stretches.
        *inner, (e, j) = sorted(factors, key=itemgetter(1), reverse=True)
        table = {reach * r: 1}
        for e_i, j_i in inner:
            step = j_i * width + e_i * r
            nxt: dict[int, int] = {}
            get = nxt.get
            for b, run, m in _stretches(table, step, j_i, n, width):
                for x in range(b + step, b + step * (m + 1), step):
                    nxt[x] = get(x, 0) + run
            table = nxt
        merged: dict[int, int] = {}
        get = merged.get
        for (evs, p, q), mult in coef.items():
            offset = (p + shift - reach) * r + orbits[evs, p - q]
            for b, c in table.items():
                x = b + offset
                merged[x] = get(x, 0) + c * mult
        er = e * r
        for b, run, m in _stretches(merged, j * width + er, j, n, width):
            d, low = divmod(b, width)
            l, o = divmod(low, r)
            evs, delta = rev[o]
            degrees = range(d + j, d + j * m + 1, j)
            cancelled = False
            for t, x, p in zip(map(out.__getitem__, degrees), count(low + er, er), count(l - shift + e, e)):
                key = get_key(x)
                if key is None:
                    key = keys[x] = (evs, p, p - delta)
                v = t.get(key, 0) + run
                if v:
                    t[key] = v
                else:
                    del t[key]
                    cancelled = True
            if side[o] == 0 and not cancelled:
                known.update(degrees)
            elif side[o] < 2:
                if cancelled:
                    known.difference_update(degrees)
                mixed.update(degrees)
    lowest, trusted = MonodromicClass._lowest, MonodromicClass._trusted
    return {
        d: trusted(arity, t, den) if d in known else trusted(arity, *lowest(t, den if d in mixed else 1))
        for d, t in out.items() if t
    }


class _SeriesMap(_ArityMap):
    """The part of the ring core only the series rings use: coefficients
    are classes of the ring's arity, and keys hold no rational, so ``_key``
    returns (key, 1) and every den is 1.  Sums and products are the core's,
    the product kernel forming each key by ``_key_mul``."""

    __slots__ = ()

    def _coef(self, c: MonodromicClass) -> MonodromicClass:
        if not isinstance(c, MonodromicClass):
            raise ValueError(f"coefficient: {c!r} is not a MonodromicClass")
        if c.arity != self.arity:
            raise ValueError("coefficient arity mismatch")
        return c

    def _mul_terms(self, xs, _sx, ys, _sy, _den):
        key_mul = self._key_mul
        out: dict = {}
        get = out.get
        xs = xs.items()
        for k2, c2 in ys.items():
            for k1, c1 in xs:
                k = key_mul(k1, k2)
                out[k] = get(k, 0) + c1 * c2
        return out


class TruncatedPoly(_SeriesMap):
    """Polynomial in T of bounded degree with monodromic-class coefficients."""

    __slots__ = ()
    _key_mul = staticmethod(add)

    @staticmethod
    def _key(n) -> tuple:
        return _strict_int(n, "T-degree", 0), 1

    def coefficient(self, n: int) -> MonodromicClass:
        c = self._terms.get(self._key(n)[0])
        return MonodromicClass.zero(self.arity) if c is None else c

    def degrees(self):
        return sorted(self._terms)

    def mul_truncated(self, other: "TruncatedPoly", bound: int) -> "TruncatedPoly":
        """Product with every degree above bound dropped."""
        bound = _strict_int(bound, "bound", 0)
        self._check(other)
        out: dict[int, MonodromicClass] = {}
        for n1, c1 in self._terms.items():
            for n2, c2 in other._terms.items():
                if n1 + n2 <= bound:
                    _merge(out, n1 + n2, c1 * c2)
        return self._like(out)

    def render(self) -> str:
        """`(class)*T^d` groups in ascending degree, each class as its own
        ``render`` gives it: one ``_render_classes`` over every degree."""
        degrees = sorted(self._terms)
        texts = _render_classes([self._terms[d] for d in degrees])
        return " + ".join([f"({text})*T^{d}" for d, text in zip(degrees, texts)]) or "0"


class RationalSeries(_SeriesMap):
    """Finite combination of generator products with class coefficients.

    Terms are keyed by the multiset of generator indices (e, j), stored as a
    sorted tuple; like terms are combined on construction.  Integers and
    classes of the same arity act as scalars.
    """

    __slots__ = ()
    _scalars = (int, MonodromicClass)

    @staticmethod
    def _key(factors) -> tuple:
        return tuple(sorted(
            (_strict_int(e, "generator L-power e"), _strict_int(j, "generator T-weight j", 1))
            for e, j in factors
        )), 1

    @staticmethod
    def _key_mul(f1, f2):
        return tuple(sorted(f1 + f2))

    @classmethod
    def constant(cls, coef: MonodromicClass) -> "RationalSeries":
        return cls(coef.arity, [((), coef)])

    @classmethod
    def generator(cls, e: int, j: int, arity: int = 0) -> "RationalSeries":
        """The series L^e T^j / (1 - L^e T^j) with unit coefficient."""
        return cls(arity, [(((e, j),), MonodromicClass.unit(arity))])

    def limit(self) -> MonodromicClass:
        """Value at T -> infinity: each generator factor contributes -1."""
        return sum((c * (-1) ** len(f) for f, c in self._terms.items()), MonodromicClass.zero(self.arity))

    def expand(self, n: int) -> TruncatedPoly:
        """Exact power-series expansion through degree n in T.

        A product of generators L^e T^j / (1 - L^e T^j) contributes only
        integer counts of monomials L^k T^d, and the coefficient class is
        merged into degree d with its bidegrees raised by k and its
        multiplicities scaled by the count; no class arithmetic is needed.
        Degree 0 is the constant term alone; every other degree comes from
        ``_expand`` (see there), over the lcm of the coefficients'
        denominators, and goes through ``_lowest`` only when the walk has
        not seen one of its eigenvalue tuples coprime to that lcm still
        standing.  A truncation that may merge more than
        ``MAX_EXPAND_TERMS`` class terms raises ``ValueError`` before any
        factor is walked.
        """
        n = _strict_int(n, "n", 0)
        size = sum(_points_bound(f, n) * len(c._terms) for f, c in self._terms.items())
        if size > MAX_EXPAND_TERMS:
            raise ValueError(
                f"expansion through degree {n} may merge {size} class terms, "
                f"more than MAX_EXPAND_TERMS = {MAX_EXPAND_TERMS}"
            )
        coefs, den = _over_lcm(self._terms)
        const = coefs.pop((), None)
        out = {0: MonodromicClass._trusted(self.arity, *MonodromicClass._lowest(const, den))} if const else {}
        if n and coefs:
            out.update(_expand(coefs, n, den, self.arity))
        return TruncatedPoly._trusted(self.arity, out)

    def render(self) -> str:
        """`(class)*p(e,j)*...` terms in ascending key order, the empty
        product printed as `1`: one ``_render_classes`` over every term."""
        items = self._sorted()
        texts = _render_classes([coef for _factors, coef in items])
        parts = []
        for (factors, _coef), text in zip(items, texts):
            gens = "*".join(f"p({e},{j})" for e, j in factors) or "1"
            parts.append(f"({text})*{gens}")
        return " + ".join(parts) or "0"
