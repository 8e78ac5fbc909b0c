"""Exact spectrum rings and the sparse group-ring core shared by every ring.

Every ring in the package -- spectra, bispectra, monodromic classes and the
two series types -- is a finitely supported map from a canonical key (a
monomial of its grading) to a nonzero coefficient.  ``_SparseMap`` holds that
map and implements the ring once: sums, negation, scaling, the product
through the subclass's key product, equality, hashing and the sorted term
list.  ``_ArityMap`` adds a fixed arity that operands must share.

One rule keeps the keys canonical without normalising them twice: only the
public constructors normalise (``frac``, ``mod1``, ``int``).  A result whose
keys are canonical by construction -- a ring operation, a morphism such as
``fold_bispectrum`` -- is wrapped as is by the trusted constructor
``_trusted``.

A spectrum here is a finitely supported integer combination of monomials
``t^a`` with rational exponent ``a``, i.e. an element of the group ring of
(Q, +).  Its two-variable companion is graded by a pair of residues mod 1
together with an integer: monomials ``t^a u^b v^c`` with ``a, b`` in
Q/Z and ``c`` in Z.  All arithmetic is exact; exponents are
``fractions.Fraction`` values kept in lowest terms.

The folding maps between the two rings send ``t^a u^b v^c`` to
``t^{s(a) + s(b)/N + c}`` where ``s`` picks the canonical representative of
a residue in [0, 1); with ``N = 1`` this is the plain collapse used to
compare one- and two-monodromy spectra.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Tuple, Union

Frac = Fraction

FracLike = Union[Fraction, int, str, Tuple[int, int]]


def frac(value: FracLike, den: int | None = None) -> Fraction:
    """Coerce ints, strings, or (num, den) pairs to an exact Fraction."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, tuple):
        return Fraction(value[0], value[1])
    return Fraction(value)


def mod1(x: FracLike) -> Fraction:
    """Canonical representative of a rational residue mod 1, in [0, 1)."""
    return frac(x) % 1


def _add_mod1(a: Fraction, b: Fraction) -> Fraction:
    """Sum of two canonical residues, reduced back into [0, 1)."""
    s = a + b
    return s - 1 if s >= 1 else s


def _items(terms):
    return terms.items() if isinstance(terms, Mapping) else terms


def _merge(into: dict, key, coef) -> None:
    """Add coef to the coefficient of key, dropping the key at zero."""
    cur = into.get(key)
    new = coef if cur is None else cur + coef
    if new:
        into[key] = new
    else:
        into.pop(key, None)


def _render_frac(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _render_terms(items, monomial_str) -> str:
    # items: list of (key, mult) already sorted; monomial_str(key) -> str
    if not items:
        return "0"
    parts = []
    for i, (key, mult) in enumerate(items):
        mag = abs(mult)
        body = monomial_str(key) if mag == 1 else f"{mag}*{monomial_str(key)}"
        if i == 0:
            parts.append(body if mult > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if mult > 0 else f" - {body}")
    return "".join(parts)


class _SparseMap:
    """Group-ring element: ``_terms`` maps canonical keys to nonzero
    coefficients (integers, or classes for the series types).

    A subclass supplies its public constructor (the only place its keys are
    normalised), ``_key_mul`` (the product of two keys, canonical when both
    are) and ``render``.  ``_scalars`` lists the types ``*`` treats as
    coefficient scalars.
    """

    __slots__ = ("_terms",)
    _scalars: tuple = (int,)

    @classmethod
    def _trusted(cls, terms: dict):
        """Wrap a dict of canonical keys and nonzero coefficients as is."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    def _like(self, terms: dict):
        return self._trusted(terms)

    def _check(self, other) -> None:
        pass

    def terms(self):
        """Term list sorted by ascending key."""
        return tuple(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for key, coef in other._terms.items():
            _merge(out, key, coef)
        return self._like(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def scale(self, k):
        """Multiply every coefficient by a scalar."""
        return self._like({key: v for key, c in self._terms.items() if (v := c * k)})

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        key_mul = self._key_mul
        out: dict = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                _merge(out, key_mul(k1, k2), c1 * c2)
        return self._like(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class _ArityMap(_SparseMap):
    """Sparse map of a fixed arity; sums and products need equal arities
    (ValueError otherwise), and maps of different arities are unequal."""

    __slots__ = ("arity",)

    @classmethod
    def _trusted(cls, arity: int, terms: dict):
        out = object.__new__(cls)
        out.arity = arity
        out._terms = terms
        return out

    def _like(self, terms: dict):
        return self._trusted(self.arity, terms)

    def _check(self, other) -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    # Defining __eq__ clears the inherited hash.
    __hash__ = _SparseMap.__hash__


class Spectrum(_SparseMap):
    """Finitely supported Z-combination of monomials t^a, a rational.

    Multiplication follows t^a * t^b = t^(a+b); zero multiplicities are
    never stored, so equality is equality of term maps.  A spectrum also
    compares equal to the integer n when it is n * t^0.
    """

    __slots__ = ()
    _key_mul = staticmethod(add)

    def __init__(self, terms: Mapping[FracLike, int] | Iterable = ()):
        data: dict[Fraction, int] = {}
        for exp, mult in _items(terms):
            _merge(data, frac(exp), int(mult))
        self._terms = data

    @classmethod
    def zero(cls) -> "Spectrum":
        return cls()

    @classmethod
    def one(cls) -> "Spectrum":
        return cls.monomial(0)

    @classmethod
    def monomial(cls, exponent: FracLike, mult: int = 1) -> "Spectrum":
        return cls([(exponent, mult)])

    def coefficient(self, exponent: FracLike) -> int:
        return self._terms.get(frac(exponent), 0)

    def mass(self) -> int:
        """Sum of multiplicities (the virtual rank)."""
        return sum(self._terms.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({Fraction(0): other} if other else {})
        return super().__eq__(other)

    __hash__ = _SparseMap.__hash__

    def render(self) -> str:
        """Canonical text form: ascending exponents, `mult*t^(num/den)` terms,
        `1*` and `/1` omitted, joined with ` + ` / ` - `."""
        return _render_terms(self.terms(), lambda e: f"t^({_render_frac(e)})")


class BiSpectrum(_SparseMap):
    """Z-combination of monomials t^a u^b v^c with a, b residues mod 1.

    The grading group is (Q/Z)^2 x Z; monomials multiply by componentwise
    addition, with the residues reduced eagerly so term keys are canonical.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping | Iterable = ()):
        data: dict[tuple, int] = {}
        for (a, b, c), mult in _items(terms):
            _merge(data, (mod1(a), mod1(b), int(c)), int(mult))
        self._terms = data

    @staticmethod
    def _key_mul(k1, k2):
        (a1, b1, c1), (a2, b2, c2) = k1, k2
        return _add_mod1(a1, a2), _add_mod1(b1, b2), c1 + c2

    @classmethod
    def zero(cls) -> "BiSpectrum":
        return cls()

    @classmethod
    def one(cls) -> "BiSpectrum":
        return cls.monomial(0, 0, 0)

    @classmethod
    def monomial(cls, a: FracLike, b: FracLike, c: int, mult: int = 1) -> "BiSpectrum":
        return cls([((a, b, c), mult)])

    def coefficient(self, a: FracLike, b: FracLike, c: int) -> int:
        return self._terms.get((mod1(a), mod1(b), int(c)), 0)

    def render(self) -> str:
        def mono(key):
            a, b, c = key
            return f"t^({_render_frac(a)})*u^({_render_frac(b)})*v^({c})"

        return _render_terms(self.terms(), mono)


def fold_bispectrum(x: BiSpectrum, N: int = 1) -> Spectrum:
    """Collapse t^a u^b v^c to t^{s(a) + s(b)/N + c}.

    Additive group morphism; with N = 1 both residues are folded with full
    weight.  Multiplicativity on monomials holds only when neither residue
    sum wraps past 1, which is why the map is defined termwise.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    out: dict[Fraction, int] = {}
    for (a, b, c), mult in x._terms.items():
        _merge(out, a + b / N + c, mult)
    return Spectrum._trusted(out)


def geometric_factor(m: int) -> Spectrum:
    """The exact expansion (1 - t) / (1 - t^(1/m)) = sum_{i<m} t^(i/m)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return Spectrum._trusted({Fraction(i, m): 1 for i in range(m)})


def steenbrink_rhs(pairs, m: int, N: int) -> Spectrum:
    """Correction term sum_{(a,b)} t^(a + b/(mN)) * (1 - t)/(1 - t^(1/(mN))).

    Each pair is (exponent a, vertical residue b) with b in [0, 1); m is the
    order of the auxiliary function along the branch and N the power being
    added.
    """
    if m < 1 or N < 1:
        raise ValueError("m and N must be positive integers")
    gf = geometric_factor(m * N)
    total = Spectrum.zero()
    for alpha, beta in pairs:
        alpha, beta = frac(alpha), frac(beta)
        if not 0 <= beta < 1:
            raise ValueError(f"vertical residue {beta} outside [0, 1)")
        total = total + Spectrum.monomial(alpha + Fraction(beta, m * N)) * gf
    return total
