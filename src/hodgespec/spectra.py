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
``Spectrum``, whose keys share one denominator, has its own constructor
on the same ``_pair`` and ``_coef``.
A result whose keys are canonical by construction -- a ring operation, a
morphism such as ``fold_bispectrum`` -- is wrapped as is by the trusted
constructor ``_trusted``.

A spectrum here is a finitely supported integer combination of monomials
``t^a`` with rational exponent ``a``, i.e. an element of the group ring of
(Q, +).  Its two-variable companion is graded by a pair of residues mod 1
together with an integer: monomials ``t^a u^b v^c`` with ``a, b`` in
Q/Z and ``c`` in Z.  All arithmetic is exact.

A ``Spectrum`` keeps its exponents as int numerators over one slot ``den``,
their least common denominator: ``gcd(den, *numerators) == 1``, and
``den == 1`` when the spectrum is zero, so equal spectra hold equal
(``den``, term map) pairs.  ``_lowest`` restores that form with one
``gcd(den, *numerators)``; only a cancelled term or a sum of exponents (in
a product or a fold) can break it.  The constructor scales its inputs over
their lcm once, and a product adds numerators over the lcm of both
denominators, so no exponent is reduced on its own until it is printed.

Inside the keys of the other rings every rational is a reduced pair of
ints ``(num, den)``: ``den > 0`` and ``gcd(num, den) == 1``, and a residue
mod 1 also has ``0 <= num < den``.  Keys then hash and compare as plain
ints; ``_reduced`` makes the key pair of n / d with one ``math.gcd``.  The
public API speaks ``Fraction``: constructors and ``coefficient`` take any
``FracLike``; ``terms()`` returns ascending ``Fraction`` keys.

Sorting and rendering never build that ``Fraction`` view.  A spectrum
sorts on its int numerators as they are.  ``_sorted`` sorts the stored
items of the pair-keyed rings on one rank per item, which each ring's
``_rank`` hook builds over one ``_scales`` table for the whole map: with L
the lcm of every denominator in every pair slot of every key, a pair
(num, den) ranks as the integer ``num * (L // den)``, which orders the
pairs as the rationals they stand for (any common multiple of the
denominators would do); an int slot ranks as itself.  Every ``render``
formats the pairs as they are and takes the sign and multiplicity text of
each term from one ``_heads`` table, the only place the sign rule is
written.

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


def _lowest(terms: dict, den: int) -> tuple:
    """(terms, den) of int numerators over den, divided by their one gcd:
    den is then the least common denominator (1 when terms is empty)."""
    g = gcd(den, *terms)
    if g == 1:
        return terms, den
    return {n // g: c for n, c in terms.items()}, den // g


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


def _render_pair(x: Pair) -> str:
    n, d = x
    return str(n) if d == 1 else f"{n}/{d}"


def _lead(text: str) -> str:
    """Term texts joined with their ` + ` / ` - ` separators, the first
    separator cut (a negative first term keeps its `-`)."""
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


def _heads(mults) -> dict:
    """The sign rule of every printed ring: each distinct multiplicity m to
    the text before its monomial, separator included -- ` + `, ` - `,
    ` + m*` or ` - |m|*` (`1*` omitted; ``_lead`` cuts the first)."""
    return {
        m: " + " if m == 1 else " - " if m == -1 else f" + {m}*" if m > 0 else f" - {-m}*"
        for m in set(mults)
    }


def _render_terms(items, monomial_str) -> str:
    """The text of sorted (key, mult) items, monomial_str(key) giving each
    monomial after its ``_heads`` text, joined as ``_lead`` says."""
    if not items:
        return "0"
    head = _heads(mult for _key, mult in items)
    return _lead("".join([f"{head[mult]}{monomial_str(key)}" for key, mult in items]))


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
    hold rational pairs, the sort key ``_sorted`` uses on this map's
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
        """Stored (key, coef) items in ascending key order: sorted on the
        ``_rank`` sort key, or on the stored keys."""
        return sorted(self._terms.items(), key=self._rank() or itemgetter(0))

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
    compares equal to the integer n when it is n * t^0.  ``_terms`` maps
    the int numerator of each exponent over ``den`` to its multiplicity
    (see the module docstring).
    """

    __slots__ = ("den",)

    def __init__(self, terms: Mapping | Iterable = ()):
        # Reduced pairs merge first; the exponents left are distinct, and
        # the lcm of their denominators is least, so one scaling ends it.
        coef = self._coef
        pairs: dict = {}
        for raw, value in _items(terms):
            _merge(pairs, _pair(raw), coef(value))
        den = self.den = lcm(*{d for _n, d in pairs})
        self._terms = {n * (den // d): c for (n, d), c in pairs.items()}

    @classmethod
    def _trusted(cls, terms: dict, den: int) -> "Spectrum":
        """Wrap numerators over their least common denominator as is."""
        out = object.__new__(cls)
        out._terms = terms
        out.den = den
        return out

    def _like(self, terms: dict) -> "Spectrum":
        # Negation and scaling keep every key, or drop them all.
        return Spectrum._trusted(terms, self.den if terms else 1)

    def __add__(self, other):
        """The sum over lcm(den, other.den), self's map copied as is when
        den is already that lcm; only a cancelled term can leave a smaller
        least denominator, and only then is ``_lowest`` called."""
        if type(other) is not Spectrum:
            return NotImplemented
        den = lcm(self.den, other.den)
        s1, s2 = den // self.den, den // other.den
        out = dict(self._terms) if s1 == 1 else {n * s1: c for n, c in self._terms.items()}
        get = out.get
        for n, c in other._terms.items():
            n *= s2
            out[n] = get(n, 0) + c
        if 0 in out.values():
            return Spectrum._trusted(*_lowest({n: c for n, c in out.items() if c}, den))
        return Spectrum._trusted(out, den)

    def __mul__(self, other):
        """The product on the numerators over lcm(den, other.den), the
        smaller operand in the outer loop; other operands go to
        ``_SparseMap.__mul__``."""
        if type(other) is not Spectrum:
            return _SparseMap.__mul__(self, other)
        if len(self._terms) < len(other._terms):
            self, other = other, self
        big = lcm(self.den, other.den)
        s1, s2 = big // self.den, big // other.den
        xs = self._terms.items() if s1 == 1 else [(n * s1, c) for n, c in self._terms.items()]
        sums: dict = {}
        get = sums.get
        for n, c2 in other._terms.items():
            b = n * s2
            for a, c1 in xs:
                s = a + b
                sums[s] = get(s, 0) + c1 * c2
        if 0 in sums.values():
            sums = {s: c for s, c in sums.items() if c}
        return Spectrum._trusted(*_lowest(sums, big))

    @classmethod
    def one(cls) -> "Spectrum":
        return cls.monomial(0)

    @classmethod
    def monomial(cls, exponent: FracLike, mult: int = 1) -> "Spectrum":
        return cls([(exponent, mult)])

    def coefficient(self, exponent: FracLike) -> int:
        n, d = _pair(exponent)
        scale, rest = divmod(self.den, d)
        return 0 if rest else self._terms.get(n * scale, 0)

    def terms(self):
        """Term list with ``Fraction`` exponents, ascending."""
        den = self.den
        return tuple((Fraction(n, den), c) for n, c in self._sorted())

    def mass(self) -> int:
        """Sum of multiplicities (the virtual rank)."""
        return sum(self._terms.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.den == 1 and self._terms == ({0: other} if other else {})
        if type(other) is not Spectrum:
            return NotImplemented
        return self.den == other.den and self._terms == other._terms

    def __hash__(self):
        return hash((self.den, frozenset(self._terms.items())))

    def render(self) -> str:
        """Canonical text form: ascending exponents, `mult*t^(num/den)` terms,
        `1*` and `/1` omitted, joined with ` + ` / ` - `: ``_render_terms``
        with the exponent text inlined, since the largest printed outputs
        (``ts``) are spectra.  Each exponent is reduced here, for printing
        only."""
        if not self._terms:
            return "0"
        terms, den = self._terms, self.den
        head = _heads(terms.values())
        return _lead("".join([
            f"{head[terms[n]]}t^({n // g})" if g == den else f"{head[terms[n]]}t^({n // g}/{den // g})"
            for n in sorted(terms) for g in [gcd(n, den)]
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
    sum wraps past 1, which is why the map is defined termwise.  Every image
    is a numerator over one denominator, the lcm of every a-denominator and
    N times every b-denominator.
    """
    N = _strict_int(N, "N", 1)
    big = lcm(*{d for (_an, ad), (_bn, bd), _c in x._terms for d in (ad, bd * N)})
    out: dict[int, int] = {}
    for ((an, ad), (bn, bd), c), mult in x._terms.items():
        _merge(out, an * (big // ad) + bn * (big // (bd * N)) + c * big, mult)
    return Spectrum._trusted(*_lowest(out, big))


def geometric_factor(m: int) -> Spectrum:
    """The exact expansion (1 - t) / (1 - t^(1/m)) = sum_{i<m} t^(i/m)."""
    m = _strict_int(m, "m", 1)
    return Spectrum._trusted(dict.fromkeys(range(m), 1), m)


def steenbrink_rhs(pairs, m: int, N: int) -> Spectrum:
    """Correction term sum_{(a,b)} t^(a + b/(mN)) * (1 - t)/(1 - t^(1/(mN))).

    Each pair is (exponent a, vertical residue b) with b in [0, 1); m is the
    order of the auxiliary function along the branch and N the power being
    added.
    """
    m, N = _strict_int(m, "m", 1), _strict_int(N, "N", 1)
    shifts = []
    for alpha, beta in pairs:
        alpha, beta = frac(alpha), frac(beta)
        if not 0 <= beta < 1:
            raise ValueError(f"vertical residue {beta} outside [0, 1)")
        shifts.append((alpha + beta / (m * N), 1))
    return Spectrum(shifts) * geometric_factor(m * N)
