"""Exact spectrum rings and the sparse group-ring core shared by every ring.

Every ring in the package -- spectra, bispectra, monodromic classes and the
two series types -- is a finitely supported map from a canonical key (a
monomial of its grading) to a nonzero coefficient.  ``_SparseMap`` holds that
map and implements the ring once: sums and products (through the
subclass's product kernel) of int and class coefficients alike, a zero of
either kind being false and dropped; negation, scaling, equality, hashing
and the sorted term list.  ``_ArityMap`` adds a fixed arity that operands
must share, and ``series._SeriesMap`` class coefficients and keys that hold
no rational; every ring sits on this one line of single bases.

One key format.  Every exponent of a spectrum and every eigenvalue of
commuting finite-order monodromies lies in (1/n)Z for one n, so every ring
keeps the rationals of its keys (those of ``Spectrum``, ``BiSpectrum`` and
``MonodromicClass``) as int numerators over one slot ``den``, the least
common denominator: ``gcd(den, *numerators) == 1``, residues lie in
``[0, den)``, and ``den == 1`` for zero, for arity 0 and for the series
rings, whose keys hold no rational.  Keys hash, compare and sort as ints
(tuples of numerators over one ``den`` sort as the rationals they stand
for), and a rational is reduced on its own only when printed (``_ratio``)
or viewed: constructors and ``coefficient`` take any ``FracLike``, and
``terms()`` returns ascending ``Fraction`` keys.  ``_SparseMap`` writes the
den arithmetic once.  Outside data enters through one constructor loop
running each ring's ``_key`` (with its checks; ``_pair`` and ``frac`` parse
every rational) and ``_coef`` hooks, the keys left put over their lcm once;
only the JSON class reader (``resolution._class_from_json``), whose
entries are checked int pairs, puts them over their lcm itself.
Sums and products work over lcm(d1, d2) and build no rescaled copy of an
operand: a sum puts only the map it returns over the lcm and adds the
other operand's terms with their keys scaled in its loop (``_add_scaled``),
and a product hands both term maps, with their scale factors lcm // d, to
the ring's product kernel (``_mul_terms``), which scales, sums and reduces
each key inside its pair loop.  ``_over`` rescales a whole map, for callers
whose result is that map.  Only a cancellation, a product or a morphism
can leave a smaller least denominator, and only then is ``_lowest``
called.  A product with a factor of ``den == 1`` needs no
``_lowest``: that factor lies in the group ring of a torsion-free group
(integer exponents, or zero residues with integer gradings), a domain, so
its product with each residue class of the other factor is nonzero, and
every residue of the other factor survives.  Results canonical by
construction are wrapped as is by the trusted constructor ``_trusted``.

A spectrum here is a finitely supported integer combination of monomials
``t^a`` with rational exponent ``a``, i.e. an element of the group ring of
(Q, +).  Its two-variable companion is graded by a pair of residues mod 1
together with an integer: monomials ``t^a u^b v^c`` with ``a, b`` in
Q/Z and ``c`` in Z.  All arithmetic is exact.  The folding maps between
the two rings send ``t^a u^b v^c`` to ``t^{s(a) + s(b)/N + c}`` where
``s`` picks the canonical representative of a residue in [0, 1); with
``N = 1`` this is the plain collapse used to compare one- and two-monodromy
spectra.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Tuple, Union

from .lattice import _strict_int

FracLike = Union[Fraction, int, str, Tuple[int, int]]


def frac(value: FracLike, den: int | None = None) -> Fraction:
    """Coerce ints, strings, or (num, den) pairs to an exact Fraction; a
    float or a bool raises ValueError (``Fraction(0.1)`` is binary-rounded),
    and so does a zero denominator."""
    if den is None and isinstance(value, tuple):
        value, den = value
    for x in (value, den):
        if isinstance(x, (bool, float)):
            raise ValueError(f"{x!r} is not an exact rational")
    try:
        return Fraction(value) if den is None else Fraction(value, den)
    except ZeroDivisionError:
        shown = repr(value) if den is None else f"{value!r}/{den!r}"
        raise ValueError(f"{shown} has a zero denominator") from None


def mod1(x: FracLike) -> Fraction:
    """Canonical representative of a rational residue mod 1, in [0, 1)."""
    return frac(x) % 1


def _pair(value: FracLike, residue: bool = False) -> tuple:
    """(num, den) of a FracLike in lowest terms, den > 0; with ``residue``,
    of its residue mod 1 (still lowest: gcd(n mod d, d) = gcd(n, d)).  An
    int, and an int pair (n, d) with d > 0 (lowered by one gcd), need no
    ``Fraction``."""
    if type(value) is int:
        return (0 if residue else value), 1
    if type(value) is tuple and len(value) == 2:
        n, d = value
        if type(n) is int and type(d) is int and d > 0:
            g = gcd(n, d)
            n, d = n // g, d // g
            return (n % d if residue else n), d
    x = value if isinstance(value, Fraction) else frac(value)
    n, d = x.numerator, x.denominator
    return (n % d if residue else n), d


def _ratio(n: int, den: int) -> str:
    """The text of n / den in lowest terms, `/1` omitted."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


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
    coefficients (integers, or classes for the series types), the rationals
    of every key held as int numerators over the slot ``den`` (see the
    module docstring); equality and hashing read both.

    The constructor is the only place keys are normalised: it merges
    ``_key(raw)`` with ``_coef(value)`` over the input terms.  A subclass
    supplies ``_key`` (a raw key to (the key over d, d), d the least
    denominator of that key alone, 1 for a key that holds no rational;
    ValueError on anything else), optionally ``_coef`` (the default takes a
    strict-int multiplicity), ``_mul_terms`` (the product kernel: the term
    maps xs and ys of two factors and their scale factors sx and sy to the
    product's term map over den, each key formed in the pair loop from the
    scaled keys, residues reduced mod den, zero coefficients left for the
    caller to drop; ys is the smaller map, the outer loop), ``_add_scaled``
    (adds a term map into ``out``, every numerator scaled by s > 1),
    ``_rekeyed`` (a term map with every numerator n sent to f(n)) and
    ``_nums`` (a C callable from a term map to the tuple of numerators of
    each key), which a ring whose keys hold no rational never calls,
    ``_key_view`` (a stored key in its public form, for ``terms()``, or a
    ``_viewer`` giving one such view per ``terms()`` call) and ``render``.
    ``_scalars`` lists the types ``*`` treats as coefficient scalars, the
    only ones ``scale`` accepts.  The lcm, the scale factors, the zero drop
    and the den-1 rule are written once, here: a product with a factor of
    den 1 keeps the other factor's den without ``_lowest``, as the den-1
    factor lies in a domain (see the module docstring).
    """

    __slots__ = ("_terms", "den")
    _scalars: tuple = (int,)
    _one = None  # the key of the one, for a ring equal to n (and hashing as n) at n times it

    def __init__(self, terms: Mapping | Iterable = ()):
        # Keys merge among those of their own least denominator; the lcm of
        # the denominators left is least, so one scaling of each group ends it.
        key, coef = self._key, self._coef
        groups: dict = {}
        for raw, value in _items(terms):
            k, d = key(raw)
            _merge(groups.setdefault(d, {}), k, coef(value))
        den = self.den = lcm(*filter(groups.get, groups))  # the d of nonempty groups
        out: dict = {}
        for d, group in groups.items():
            out.update(group if d == den else self._rekeyed(group, (den // d).__mul__))
        self._terms = out

    @staticmethod
    def _coef(value) -> int:
        return value if type(value) is int else _strict_int(value, "multiplicity")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def _trusted(cls, terms: dict, den: int = 1):
        """Wrap numerators over their least common denominator as is."""
        out = object.__new__(cls)
        out._terms = terms
        out.den = den
        return out

    def _like(self, terms: dict, den: int | None = None):
        # Negation and scaling keep every key, and den, or drop them all.
        return self._trusted(terms, (den or self.den) if terms else 1)

    def _check(self, other) -> None:
        pass

    @staticmethod
    def _key_view(key):
        return key

    def _sorted(self) -> list:
        """Stored (key, coef) items in ascending key order."""
        return sorted(self._terms.items(), key=itemgetter(0))

    def _viewer(self):
        """The key view of one ``terms()`` call: ``_key_view``, unless a
        ring whose keys share parts converts each shared part once a call."""
        return self._key_view

    def terms(self):
        """Term list with keys in their public form, sorted by ascending key."""
        view = self._viewer()
        return tuple([(view(key), coef) for key, coef in self._sorted()])

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.den == other.den and self._terms == other._terms
        if type(other) is int and self._one is not None:
            return self.den == 1 and self._terms == ({self._one: other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self._one is not None and self._terms.keys() <= {self._one}:
            return hash(self._terms.get(self._one, 0))
        return hash((self.den, frozenset(self._terms.items())))

    @classmethod
    def _lowest(cls, terms: dict, den: int) -> tuple:
        """(terms, den) of numerators over den, divided by their one gcd
        with den: den is then least (1 when every numerator is 0, as they
        stay, or terms is empty).  The gcd stops at the first numerator
        that makes it 1."""
        if den == 1:
            return terms, 1
        g, n = den, 0
        for n in filter(None, chain.from_iterable(cls._nums(terms))):
            g = gcd(g, n)
            if g == 1:
                return terms, den
        # n is still 0 only when every numerator is.
        return (cls._rekeyed(terms, g.__rfloordiv__), den // g) if n else (terms, 1)

    def _over(self, den: int) -> dict:
        """The term map over den, a multiple of self.den (as is when equal)."""
        return self._terms if den == self.den else self._rekeyed(self._terms, (den // self.den).__mul__)

    def _get(self, raw) -> int:
        """The multiplicity of a raw key, parsed by ``_key``."""
        key, d = self._key(raw)
        (key,) = self._rekeyed({key: 0}, (self.den // d).__mul__)
        return 0 if self.den % d else self._terms.get(key, 0)

    def __add__(self, other):
        """The sum over lcm(den, other.den): a copy of self's terms put over
        it is returned, other's terms added into it as they are or, over a
        smaller den, by ``_add_scaled``.  Only a cancelled term can leave a
        smaller least denominator, and only then is ``_lowest`` called."""
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        out = dict(self._terms) if den == self.den else self._over(den)
        if den == other.den:
            get = out.get
            for k, c in other._terms.items():
                out[k] = get(k, 0) + c
        else:
            self._add_scaled(out, other._terms, den // other.den)
        if not all(out.values()):
            return self._like(*self._lowest({k: c for k, c in out.items() if c}, den))
        return self._like(out, den)

    def __radd__(self, other):  # 0 + x is x, so sums may start from 0
        return self if type(other) is int and other == 0 else NotImplemented

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
        """The product over lcm(den, other.den) by ``_mul_terms``, the
        smaller operand in its outer loop; then ``_lowest`` unless a factor
        has den 1 (see the module docstring).  A scalar goes to ``scale``."""
        if type(other) is not type(self):
            return self.scale(other) if isinstance(other, self._scalars) else NotImplemented
        self._check(other)
        if len(self._terms) < len(other._terms):
            self, other = other, self
        den = lcm(self.den, other.den)
        out = self._mul_terms(self._terms, den // self.den, other._terms, den // other.den, den)
        if not all(out.values()):
            out = {k: c for k, c in out.items() if c}
        if 1 in (self.den, other.den):
            return self._like(out, den)
        return self._like(*self._lowest(out, den))

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
        super().__init__(terms)

    @classmethod
    def zero(cls, arity: int):
        return cls(arity)

    @classmethod
    def _trusted(cls, arity: int, terms: dict, den: int = 1):
        out = object.__new__(cls)
        out.arity, out._terms, out.den = arity, terms, den
        return out

    def _like(self, terms: dict, den: int | None = None):
        return self._trusted(self.arity, terms, (den or self.den) if terms else 1)

    def _check(self, other) -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.arity == other.arity and self.den == other.den and self._terms == other._terms

    # Defining __eq__ clears the inherited hash.
    __hash__ = _SparseMap.__hash__


class Spectrum(_SparseMap):
    """Finitely supported Z-combination of monomials t^a, a rational.

    Multiplication follows t^a * t^b = t^(a+b); zero multiplicities are
    never stored, so equality is equality of term maps.  A spectrum also
    compares equal to the integer n when it is n * t^0.  ``_terms`` maps
    the int numerator of each exponent over ``den`` to its multiplicity.
    """

    __slots__ = ()
    _one = 0
    _key = staticmethod(_pair)

    @staticmethod
    def _mul_terms(xs, sx, ys, sy, _den):
        out: dict = {}
        get = out.get
        xs = xs.items()
        for n2, c2 in ys.items():
            n2 *= sy
            for n1, c1 in xs:
                n = n1 * sx + n2
                out[n] = get(n, 0) + c1 * c2
        return out

    @staticmethod
    def _add_scaled(out, terms, s):
        get = out.get
        for n, c in terms.items():
            n *= s
            out[n] = get(n, 0) + c

    @staticmethod
    def _rekeyed(terms, f):
        return {f(n): c for n, c in terms.items()}

    _nums = zip  # the 1-tuple of each key

    def _key_view(self, n):
        return Fraction(n, self.den)

    @classmethod
    def one(cls) -> "Spectrum":
        return cls.monomial(0)

    @classmethod
    def monomial(cls, exponent: FracLike, mult: int = 1) -> "Spectrum":
        return cls([(exponent, mult)])

    def coefficient(self, exponent: FracLike) -> int:
        return self._get(exponent)

    def mass(self) -> int:
        """Sum of multiplicities (the virtual rank)."""
        return sum(self._terms.values())

    def render(self) -> str:
        """Canonical text form: ascending exponents, `mult*t^(num/den)` terms,
        `1*` and `/1` omitted, joined with ` + ` / ` - `: ``_render_terms``
        with the exponent text of ``_ratio`` inlined, since the largest
        printed outputs (``ts``) are spectra."""
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
    ``_terms`` maps (a, b, c), a and b numerators over ``den`` in
    [0, den), to the multiplicity.
    """

    __slots__ = ()

    @staticmethod
    def _key(raw):
        a, b, c = raw
        (an, ad), (bn, bd) = _pair(a, residue=True), _pair(b, residue=True)
        d = lcm(ad, bd)
        return (an * (d // ad), bn * (d // bd), _strict_int(c, "v-degree")), d

    @staticmethod
    def _mul_terms(xs, sx, ys, sy, den):
        out: dict = {}
        get = out.get
        xs = xs.items()
        for (a2, b2, c2), m2 in ys.items():
            a2, b2 = a2 * sy, b2 * sy
            for (a1, b1, c1), m1 in xs:
                k = (a1 * sx + a2) % den, (b1 * sx + b2) % den, c1 + c2
                out[k] = get(k, 0) + m1 * m2
        return out

    @staticmethod
    def _add_scaled(out, terms, s):
        get = out.get
        for (a, b, c), m in terms.items():
            k = a * s, b * s, c
            out[k] = get(k, 0) + m

    @staticmethod
    def _rekeyed(terms, f):
        return {(f(a), f(b), c): m for (a, b, c), m in terms.items()}

    _nums = partial(map, itemgetter(0, 1))

    def _key_view(self, key):
        a, b, c = key
        return Fraction(a, self.den), Fraction(b, self.den), c

    @classmethod
    def one(cls) -> "BiSpectrum":
        return cls.monomial(0, 0, 0)

    @classmethod
    def monomial(cls, a: FracLike, b: FracLike, c: int, mult: int = 1) -> "BiSpectrum":
        return cls([((a, b, c), mult)])

    def coefficient(self, a: FracLike, b: FracLike, c: int) -> int:
        return self._get((a, b, c))

    def render(self) -> str:
        den = self.den

        def mono(key):
            a, b, c = key
            return f"t^({_ratio(a, den)})*u^({_ratio(b, den)})*v^({c})"

        return _render_terms(self._sorted(), mono)


def fold_bispectrum(x: BiSpectrum, N: int = 1) -> Spectrum:
    """Collapse t^a u^b v^c to t^{s(a) + s(b)/N + c}.

    Additive group morphism; with N = 1 both residues are folded with full
    weight.  Multiplicativity on monomials holds only when neither residue
    sum wraps past 1, which is why the map is defined termwise.  Every image
    is the numerator a N + b + c den N over den N.
    """
    N = _strict_int(N, "N", 1)
    big = x.den * N
    out: dict[int, int] = {}
    for (a, b, c), mult in x._terms.items():
        _merge(out, a * N + b + c * big, mult)
    return Spectrum._trusted(*Spectrum._lowest(out, big))


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
