"""Rational power series built from the generators L^e T^j / (1 - L^e T^j).

A series is a finite sum of terms ``coefficient * product of generators``,
with coefficients in a monodromic class ring of fixed arity.  The empty
product is the constant term.  Two operations matter downstream:

* ``expand(n)`` -- the exact truncated power-series expansion, using the
  geometric expansion of each generator (sum over m >= 1 of L^(e m) T^(j m));
* ``limit()`` -- the value at T -> infinity, which sends each term to its
  coefficient times (-1)^(number of generator factors).

The limit is evaluated termwise on the stored presentation; every series
constructed by this package is an explicit combination of generator
products, for which that is the defining formula.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping

from .monclass import MonodromicClass
from .spectra import _ArityMap, _items, _merge


class TruncatedPoly(_ArityMap):
    """Polynomial in T of bounded degree with monodromic-class coefficients."""

    __slots__ = ()
    _key_mul = staticmethod(add)

    def __init__(self, arity: int, coeffs: Mapping[int, MonodromicClass] | Iterable = ()):
        self.arity = arity
        data: dict[int, MonodromicClass] = {}
        for n, c in _items(coeffs):
            if c.arity != arity:
                raise ValueError("coefficient arity mismatch")
            if n < 0:
                raise ValueError("negative T-degree")
            _merge(data, n, c)
        self._terms = data

    @classmethod
    def zero(cls, arity: int) -> "TruncatedPoly":
        return cls(arity)

    def coefficient(self, n: int) -> MonodromicClass:
        return self._terms.get(n, MonodromicClass.zero(self.arity))

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

    def __init__(self, arity: int, terms: Mapping | Iterable = ()):
        self.arity = arity
        data: dict[tuple, MonodromicClass] = {}
        for factors, coef in _items(terms):
            factors = tuple(sorted((int(e), int(j)) for e, j in factors))
            for _e, j in factors:
                if j < 1:
                    raise ValueError("generator T-weight must be >= 1")
            if coef.arity != arity:
                raise ValueError("coefficient arity mismatch")
            _merge(data, factors, coef)
        self._terms = data

    @staticmethod
    def _key_mul(f1, f2):
        return tuple(sorted(f1 + f2))

    @classmethod
    def zero(cls, arity: int) -> "RationalSeries":
        return cls(arity)

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
        """Exact power-series expansion through degree n in T."""
        if n < 0:
            raise ValueError("truncation degree must be nonnegative")
        arity = self.arity
        zeros = ((0, 1),) * arity
        total = TruncatedPoly._trusted(arity, {})
        for factors, coef in self._terms.items():
            poly = TruncatedPoly._trusted(arity, {0: coef})
            for e, j in factors:
                gen = TruncatedPoly._trusted(arity, {
                    j * m: MonodromicClass._trusted(arity, {(zeros, e * m, e * m): 1})
                    for m in range(1, n // j + 1)
                })
                poly = poly.mul_truncated(gen, n)
                if not poly:
                    break
            total = total + poly
        return total

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for factors, coef in self.terms():
            gens = "*".join(f"p({e},{j})" for e, j in factors) or "1"
            parts.append(f"({coef.render()})*{gens}")
        return " + ".join(parts)
