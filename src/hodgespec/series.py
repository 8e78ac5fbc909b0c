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
from .monclass import MonodromicClass
from .spectra import _ArityMap, _merge


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
        n = _strict_int(n, "T-degree")
        if n < 0:
            raise ValueError("negative T-degree")
        return n

    def coefficient(self, n: int) -> MonodromicClass:
        return self._terms.get(self._key(n), MonodromicClass.zero(self.arity))

    def degrees(self):
        return sorted(self._terms)

    def mul_truncated(self, other: "TruncatedPoly", bound: int) -> "TruncatedPoly":
        """Product with every degree above bound dropped."""
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
        return " + ".join(f"({c.render()})*T^{n}" for n, c in self.terms())


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
        factors = tuple(sorted(_int_row(f, "generator (e, j)") for f in factors))
        for _e, j in factors:
            if j < 1:
                raise ValueError("generator T-weight must be >= 1")
        return factors

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
        """
        if n < 0:
            raise ValueError("truncation degree must be nonnegative")
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
        parts = []
        for factors, coef in self.terms():
            gens = "*".join(f"p({e},{j})" for e, j in factors) or "1"
            parts.append(f"({coef.render()})*{gens}")
        return " + ".join(parts)
