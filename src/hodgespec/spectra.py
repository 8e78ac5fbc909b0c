"""Exact spectrum rings and the sparse group-ring core shared by every ring.

Every ring in the package -- spectra, bispectra, monodromic classes and the
two series types -- is a finitely supported map from a canonical key (a
monomial of its grading) to a nonzero coefficient.  ``_SparseMap`` holds that
map and implements the ring once: sums, negation, scaling, the product
through the subclass's key product, equality, hashing and the sorted term
list.  ``_ArityMap`` adds a fixed arity that operands must share.

One rule keeps the keys canonical without normalising them twice: outside
data enters only through the one constructor loop of ``_SparseMap``, which
runs each ring's ``_key`` hook (raw key to canonical key, with that ring's
checks) and ``_coef`` hook (a strict-int multiplicity unless overridden)
on every input term; ``coefficient`` normalises through the same ``_key``.
A result whose keys are canonical by construction -- a ring operation, a
morphism such as ``fold_bispectrum`` -- is wrapped as is by the trusted
constructor ``_trusted``.

A spectrum here is a finitely supported integer combination of monomials
``t^a`` with rational exponent ``a``, i.e. an element of the group ring of
(Q, +).  Its two-variable companion is graded by a pair of residues mod 1
together with an integer: monomials ``t^a u^b v^c`` with ``a, b`` in
Q/Z and ``c`` in Z.  All arithmetic is exact.

Inside a key every rational is stored as a reduced pair of ints
``(num, den)``: ``den > 0`` and ``gcd(num, den) == 1``, and a residue mod 1
also has ``0 <= num < den``.  Keys then hash and compare as plain ints.
``_reduced`` makes the key pair of n / d with one ``math.gcd``.  The
``Spectrum`` product adds exponents as the ints n * (L // d), L the lcm of
every denominator of both factors, and reduces each distinct sum once.
The public API speaks ``Fraction``: constructors and ``coefficient`` take
any ``FracLike``; ``terms()`` returns ascending ``Fraction`` keys.

Sorting and rendering never build that ``Fraction`` view.  ``_sorted_items``
sorts the stored items on one rank per item, which each ring's ``_rank``
hook builds over one scale table for the whole map: with L the lcm of every
denominator in every pair slot of every key, a pair (num, den) ranks as the
integer ``num * (L // den)``, which orders the pairs as the rationals they
stand for (any common multiple of the denominators would do); an int slot
ranks as itself.  ``render`` formats the pairs as they are.

The folding maps between the two rings send ``t^a u^b v^c`` to
``t^{s(a) + s(b)/N + c}`` where ``s`` picks the canonical representative of
a residue in [0, 1); with ``N = 1`` this is the plain collapse used to
compare one- and two-monodromy spectra.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping, Tuple, Union

from .lattice import _strict_int

FracLike = Union[Fraction, int, str, Tuple[int, int]]
# A rational inside a ring key: (num, den), den > 0, gcd(num, den) == 1.
Pair = Tuple[int, int]


def frac(value: FracLike, den: int | None = None) -> Fraction:
    """Coerce ints, strings, or (num, den) pairs to an exact Fraction; a
    float or a bool raises ValueError (``Fraction(0.1)`` is binary-rounded)."""
    if den is None and isinstance(value, tuple):
        value, den = value
    for x in (value, den):
        if isinstance(x, (bool, float)):
            raise ValueError(f"{x!r} is not an exact rational")
    return Fraction(value) if den is None else Fraction(value, den)


def mod1(x: FracLike) -> Fraction:
    """Canonical representative of a rational residue mod 1, in [0, 1)."""
    return frac(x) % 1


def _pair(value: FracLike, residue: bool = False) -> Pair:
    """Reduced key pair of a FracLike; with ``residue``, of its residue mod 1
    (still reduced: gcd(n mod d, d) = gcd(n, d))."""
    if type(value) is int:
        return (0 if residue else value), 1
    x = value if isinstance(value, Fraction) else frac(value)
    n, d = x.numerator, x.denominator
    return (n % d if residue else n), d


def _reduced(n: int, d: int) -> Pair:
    """The key pair of n / d, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def _add_mod1(x: Pair, y: Pair) -> Pair:
    """Sum of two canonical residue pairs, reduced back into [0, 1)."""
    (a, b), (c, d) = x, y
    n, m = a * d + c * b, b * d
    return _reduced(n - m if n >= m else n, m)


def _to_frac(x: Pair) -> Fraction:
    """The Fraction a key pair stands for."""
    return Fraction(x[0], x[1])


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


def _scales(dens) -> dict:
    """The scale table {d: L // d} of L = lcm(dens), so that num * table[den]
    ranks every pair over dens as the rational it stands for."""
    big = lcm(*dens)
    return {d: big // d for d in dens}


def _sorted_items(terms: dict, rank=None) -> list:
    """The (key, coef) items of a term dict in ascending key order: sorted on
    ``rank(item)`` when given, else on the stored key."""
    return sorted(terms.items(), key=rank or itemgetter(0))


def _render_pair(x: Pair) -> str:
    n, d = x
    return str(n) if d == 1 else f"{n}/{d}"


def _lead(text: str) -> str:
    """Term texts joined with their ` + ` / ` - ` separators, the first
    separator cut (a negative first term keeps its `-`)."""
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


def _render_terms(items, monomial_str) -> str:
    """The text of sorted (key, mult) items, monomial_str(key) giving each
    monomial: `m*x` terms, `1*` omitted, joined with ` + ` / ` - `.  Each
    term is one f-string, its separator included (see ``_lead``)."""
    if not items:
        return "0"
    return _lead("".join([
        f" + {monomial_str(key)}" if mult == 1
        else f" - {monomial_str(key)}" if mult == -1
        else f" + {mult}*{monomial_str(key)}" if mult > 0
        else f" - {-mult}*{monomial_str(key)}"
        for key, mult in items
    ]))


class _SparseMap:
    """Group-ring element: ``_terms`` maps canonical keys to nonzero
    coefficients (integers, or classes for the series types).

    The constructor is the only place keys are normalised: it merges
    ``_key(raw)`` with ``_coef(value)`` over the input terms.  A subclass
    supplies ``_key`` (a raw key to its canonical form, ValueError on
    anything else), optionally ``_coef`` (the default takes a strict-int
    multiplicity), ``_key_mul`` (the product of two keys, canonical when
    both are; ``Spectrum`` multiplies in ``__mul__``), ``_key_view`` (a
    stored key in its public form, for ``terms()``), ``_rank`` (when keys
    hold rational pairs, the sort key ``_sorted_items`` uses on this map's
    items: the keys' slots as exact integers over one scale table for the
    whole map) and ``render``.  ``_scalars`` lists the types ``*`` treats
    as coefficient scalars, the only ones ``scale`` accepts.
    """

    __slots__ = ("_terms",)
    _scalars: tuple = (int,)

    def __init__(self, terms: Mapping | Iterable = ()):
        key, coef = self._key, self._coef
        data: dict = {}
        for raw, value in _items(terms):
            _merge(data, key(raw), coef(value))
        self._terms = data

    @staticmethod
    def _coef(value) -> int:
        return value if type(value) is int else _strict_int(value, "multiplicity")

    @classmethod
    def zero(cls):
        return cls()

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

    @staticmethod
    def _key_view(key):
        return key

    def _rank(self):
        """Sort key on this map's items; None sorts on the stored keys."""
        return None

    def _sorted(self) -> list:
        """Stored (key, coef) items in ascending key order."""
        return _sorted_items(self._terms, self._rank())

    def terms(self):
        """Term list with keys in their public form, sorted by ascending key."""
        view = self._key_view
        return tuple((view(key), coef) for key, coef in self._sorted())

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
        """Multiply every coefficient by a scalar, strictly: anything but one
        of ``_scalars`` (a bool or a float, say) raises ValueError."""
        if isinstance(k, bool) or not isinstance(k, self._scalars):
            raise ValueError(f"scale: {k!r} is not an integer")
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

    def __init__(self, arity: int, terms: Mapping | Iterable = ()):
        self.arity = _strict_int(arity, "arity", 0)
        _SparseMap.__init__(self, terms)

    @classmethod
    def zero(cls, arity: int):
        return cls(arity)

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
    _key = staticmethod(_pair)
    _key_view = staticmethod(_to_frac)

    def __mul__(self, other):
        """The product on integer exponents over one denominator (see the
        module docstring); other operands go to ``_SparseMap.__mul__``."""
        if type(other) is not Spectrum:
            return _SparseMap.__mul__(self, other)
        big = lcm(*[d for terms in (self._terms, other._terms) for _n, d in terms])
        xs = [(n * (big // d), c) for (n, d), c in self._terms.items()]
        sums: dict = {}
        get = sums.get
        for (n, d), c2 in other._terms.items():
            b = n * (big // d)
            for a, c1 in xs:
                s = a + b
                sums[s] = get(s, 0) + c1 * c2
        return Spectrum._trusted({(s // (g := gcd(s, big)), big // g): c for s, c in sums.items() if c})

    def _rank(self):
        scale = _scales({d for _n, d in self._terms})

        def rank(item):
            (n, d), _mult = item
            return n * scale[d]

        return rank

    @classmethod
    def one(cls) -> "Spectrum":
        return cls.monomial(0)

    @classmethod
    def monomial(cls, exponent: FracLike, mult: int = 1) -> "Spectrum":
        return cls([(exponent, mult)])

    def coefficient(self, exponent: FracLike) -> int:
        return self._terms.get(self._key(exponent), 0)

    def mass(self) -> int:
        """Sum of multiplicities (the virtual rank)."""
        return sum(self._terms.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({_pair(0): other} if other else {})
        return super().__eq__(other)

    __hash__ = _SparseMap.__hash__

    def render(self) -> str:
        """Canonical text form: ascending exponents, `mult*t^(num/den)` terms,
        `1*` and `/1` omitted, joined with ` + ` / ` - `: the rule of
        ``_render_terms``, with the exponent text inlined, since the largest
        printed outputs (``ts``) are spectra."""
        if not self._terms:
            return "0"
        return _lead("".join([
            f" + t^({e})" if mult == 1
            else f" - t^({e})" if mult == -1
            else f" + {mult}*t^({e})" if mult > 0
            else f" - {-mult}*t^({e})"
            for (n, d), mult in self._sorted() for e in [n if d == 1 else f"{n}/{d}"]
        ]))


class BiSpectrum(_SparseMap):
    """Z-combination of monomials t^a u^b v^c with a, b residues mod 1.

    The grading group is (Q/Z)^2 x Z; monomials multiply by componentwise
    addition, with the residues reduced eagerly so term keys are canonical.
    """

    __slots__ = ()

    @staticmethod
    def _key(raw):
        a, b, c = raw
        return _pair(a, residue=True), _pair(b, residue=True), _strict_int(c, "v-degree")

    @staticmethod
    def _key_mul(k1, k2):
        (a1, b1, c1), (a2, b2, c2) = k1, k2
        return _add_mod1(a1, a2), _add_mod1(b1, b2), c1 + c2

    @staticmethod
    def _key_view(key):
        a, b, c = key
        return _to_frac(a), _to_frac(b), c

    def _rank(self):
        scale = _scales({d for a, b, _c in self._terms for _n, d in (a, b)})

        def rank(item):
            ((an, ad), (bn, bd), c), _mult = item
            return an * scale[ad], bn * scale[bd], c

        return rank

    @classmethod
    def one(cls) -> "BiSpectrum":
        return cls.monomial(0, 0, 0)

    @classmethod
    def monomial(cls, a: FracLike, b: FracLike, c: int, mult: int = 1) -> "BiSpectrum":
        return cls([((a, b, c), mult)])

    def coefficient(self, a: FracLike, b: FracLike, c: int) -> int:
        return self._terms.get(self._key((a, b, c)), 0)

    def render(self) -> str:
        def mono(key):
            a, b, c = key
            return f"t^({_render_pair(a)})*u^({_render_pair(b)})*v^({c})"

        return _render_terms(self._sorted(), mono)


def fold_bispectrum(x: BiSpectrum, N: int = 1) -> Spectrum:
    """Collapse t^a u^b v^c to t^{s(a) + s(b)/N + c}.

    Additive group morphism; with N = 1 both residues are folded with full
    weight.  Multiplicativity on monomials holds only when neither residue
    sum wraps past 1, which is why the map is defined termwise.
    """
    N = _strict_int(N, "N", 1)
    out: dict[Pair, int] = {}
    for ((an, ad), (bn, bd), c), mult in x._terms.items():
        den = ad * bd * N
        _merge(out, _reduced(an * bd * N + bn * ad + c * den, den), mult)
    return Spectrum._trusted(out)


def geometric_factor(m: int) -> Spectrum:
    """The exact expansion (1 - t) / (1 - t^(1/m)) = sum_{i<m} t^(i/m)."""
    m = _strict_int(m, "m", 1)
    return Spectrum._trusted({_reduced(i, m): 1 for i in range(m)})


def steenbrink_rhs(pairs, m: int, N: int) -> Spectrum:
    """Correction term sum_{(a,b)} t^(a + b/(mN)) * (1 - t)/(1 - t^(1/(mN))).

    Each pair is (exponent a, vertical residue b) with b in [0, 1); m is the
    order of the auxiliary function along the branch and N the power being
    added.
    """
    m, N = _strict_int(m, "m", 1), _strict_int(N, "N", 1)
    shifts: dict[Pair, int] = {}
    for alpha, beta in pairs:
        alpha, beta = frac(alpha), frac(beta)
        if not 0 <= beta < 1:
            raise ValueError(f"vertical residue {beta} outside [0, 1)")
        _merge(shifts, _pair(alpha + beta / (m * N)), 1)
    return Spectrum._trusted(shifts) * geometric_factor(m * N)
