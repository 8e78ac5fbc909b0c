"""Rational power series built from the generators L^e T^j / (1 - L^e T^j).

A series is a finite sum of terms ``coefficient * product of generators``,
with coefficients in a monodromic class ring of fixed arity.  The empty
product is the constant term.  Two operations matter downstream:

* ``expand(n)`` -- the exact truncated power-series expansion, using the
  geometric expansion of each generator (sum over m >= 1 of L^(e m) T^(j m)).
  A generator product only ever yields integer counts of monomials L^k T^d,
  so it is expanded as a plain-int table keyed by (T-degree, L-power) and
  each count scales a shifted copy of the term's coefficient; classes are
  never multiplied or added.  ``TruncatedPoly.mul_truncated`` stays as the
  independent route that checks multiplicativity;
* ``limit()`` -- the value at T -> infinity, which sends each term to its
  coefficient times (-1)^(number of generator factors).

The limit is evaluated termwise on the stored presentation; every series
constructed by this package is an explicit combination of generator
products, for which that is the defining formula.
"""

from __future__ import annotations

from operator import add

from .lattice import _int_row, _strict_int
from .monclass import MonodromicClass, _class_renderer
from .spectra import _ArityMap, _merge


# expand refuses a truncation that may merge more class terms than this
# (each term's _points_bound times the number of terms of its coefficient,
# summed over the series) before it builds any table.  The shipped fixtures
# reach 16,790 at n = 160 (d_curve_N4), the largest truncation the tests and
# the benchmark ask for; d_curve_N5 at n = 1,250 (941,662) takes about 1.8 s
# and 91 MB peak RSS as a whole `hodgespec zeta` process on a 2-core Xeon
# (CPython 3.11).
MAX_EXPAND_TERMS = 1_000_000


def _points_bound(factors, n: int) -> int:
    """An upper bound on the table entries ``expand(n)`` builds for one term.

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


def _class_coef(self, c: MonodromicClass) -> MonodromicClass:
    """The ``_coef`` of both series rings: a class of the ring's arity."""
    if not isinstance(c, MonodromicClass):
        raise ValueError(f"coefficient: {c!r} is not a MonodromicClass")
    if c.arity != self.arity:
        raise ValueError("coefficient arity mismatch")
    return c


class TruncatedPoly(_ArityMap):
    """Polynomial in T of bounded degree with monodromic-class coefficients."""

    __slots__ = ()
    _coef = _class_coef
    _key_mul = staticmethod(add)

    @staticmethod
    def _key(n) -> int:
        return _strict_int(n, "T-degree", 0)

    def coefficient(self, n: int) -> MonodromicClass:
        c = self._terms.get(self._key(n))
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
        if not self._terms:
            return "0"
        text = _class_renderer(self._terms.values())
        return " + ".join(f"({text(c)})*T^{n}" for n, c in self._sorted())


class RationalSeries(_ArityMap):
    """Finite combination of generator products with class coefficients.

    Terms are keyed by the multiset of generator indices (e, j), stored as a
    sorted tuple; like terms are combined on construction.  Integers and
    classes of the same arity act as scalars.
    """

    __slots__ = ()
    _scalars = (int, MonodromicClass)
    _coef = _class_coef

    @staticmethod
    def _key(factors) -> tuple:
        return tuple(sorted(
            (_strict_int(e, "generator L-power e"), _strict_int(j, "generator T-weight j", 1))
            for e, j in factors
        ))

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
        total = MonodromicClass.zero(self.arity)
        for factors, coef in self._terms.items():
            total = total + coef * ((-1) ** len(factors))
        return total

    def expand(self, n: int) -> TruncatedPoly:
        """Exact power-series expansion through degree n in T.

        A product of generators L^e T^j / (1 - L^e T^j) contributes only
        integer counts of monomials L^k T^d, so each term first builds that
        product as a plain table {(d, k): count} with d <= n: start from
        {(0, 0): 1} and, for each factor (e, j), shift every entry by
        (j m, e m) for each m >= 1 that keeps d <= n.  The coefficient class
        is then merged into degree d with its bidegrees raised by k and its
        multiplicities scaled by the count; no class arithmetic is needed.
        A truncation that may merge more than ``MAX_EXPAND_TERMS`` class
        terms raises ``ValueError`` before any table is built.
        """
        n = _strict_int(n, "n", 0)
        size = sum(_points_bound(f, n) * len(c._terms) for f, c in self._terms.items())
        if size > MAX_EXPAND_TERMS:
            raise ValueError(
                f"expansion through degree {n} may merge {size} class terms, "
                f"more than MAX_EXPAND_TERMS = {MAX_EXPAND_TERMS}"
            )
        out: dict[int, dict] = {}
        for factors, coef in self._terms.items():
            table = {(0, 0): 1}
            for e, j in factors:
                nxt: dict[tuple, int] = {}
                for (d, k), count in table.items():
                    for m in range(1, (n - d) // j + 1):
                        key = (d + j * m, k + e * m)
                        nxt[key] = nxt.get(key, 0) + count
                table = nxt
                if not table:
                    break
            monomials = coef._terms.items()
            for (d, k), count in table.items():
                terms = out.setdefault(d, {})
                for (evs, p, q), mult in monomials:
                    key = (evs, p + k, q + k)
                    new = terms.get(key, 0) + count * mult
                    if new:
                        terms[key] = new
                    else:
                        del terms[key]
        arity = self.arity
        return TruncatedPoly._trusted(arity, {
            d: MonodromicClass._trusted(arity, terms) for d, terms in out.items() if terms
        })

    def render(self) -> str:
        if not self._terms:
            return "0"
        text = _class_renderer(self._terms.values())
        parts = []
        for factors, coef in self._sorted():
            gens = "*".join(f"p({e},{j})" for e, j in factors) or "1"
            parts.append(f"({text(coef)})*{gens}")
        return " + ".join(parts)
