"""Rational power series built from the generators L^e T^j / (1 - L^e T^j).

A series is a finite sum of terms ``coefficient * product of generators``,
with coefficients in a monodromic class ring of fixed arity.  The empty
product is the constant term.  Two operations matter downstream:

* ``expand(n)`` -- the exact truncated power-series expansion, using the
  geometric expansion of each generator (sum over m >= 1 of L^(e m) T^(j m)).
  A generator product only ever yields integer counts of monomials L^k T^d,
  so classes are never multiplied or added: each count scales a shifted
  copy of the term's coefficient.  As a rule each term keeps a plain-int
  table keyed by (T-degree, L-power).  A series that may merge at least
  ``INT_KEYS_FROM`` class terms, with at most two generator factors per
  term and two of different slopes e / j in some term (the shape of a
  curve's zeta function), is accumulated on single integer keys instead,
  one digit each for the T-degree, the L-power and the L-orbit
  (evs, p - q) of the class monomial: a generator moves every key by one
  fixed step, the last factor walks the keys of the merged coefficient
  with a running sum along each chain of steps, and each output class key
  is built once at the end.  ``TruncatedPoly.mul_truncated`` stays as the
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
from .monclass import MonodromicClass, _class_renderer, _evs_table, _term_texts
from .spectra import _ArityMap, _lead, _merge


# expand refuses a truncation that may merge more class terms than this
# (each term's _points_bound times the number of terms of its coefficient,
# summed over the series) before it builds any table.  The shipped fixtures
# reach 16,790 at n = 160 (d_curve_N4), the largest truncation the tests and
# the benchmark ask for; d_curve_N5 at n = 1,250 (941,662; 314,498 terms
# out) takes 1.05-1.25 s and 88 MB peak RSS as a whole `hodgespec zeta
# --truncate` process on a 2-core Xeon (CPython 3.11), about half the time
# of one table per term; CI runs it within 10 s and checks its output.
MAX_EXPAND_TERMS = 1_000_000

# expand accumulates on integer keys only from this many class terms (the
# count MAX_EXPAND_TERMS is checked on), and only for a series whose terms
# have at most two generator factors, some term two of different slopes
# e / j (see _spreads).  Measured on a 2-core Xeon (CPython 3.11), integer
# keys against one table per term took: 0.16 to 0.50 times the time on the
# shipped 2-factor fixtures at their benchmark truncations; 1.2 to 5 times
# on the 2- and 3-variable monomials of the benchmark (up to 264 class
# terms); 1.1 to 4 times on x^a y^a monomials (one slope) at n = 24 to 192;
# and about 2 times on the seeded 3- and 4-factor products of the
# identities workload (n = 12).
INT_KEYS_FROM = 512


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


def _expand_tables(terms: dict, n: int) -> dict:
    """``RationalSeries.expand`` on one (T-degree, L-power) table per term:
    {d: {class key: multiplicity}}, a degree possibly empty."""
    out: dict[int, dict] = {}
    for factors, coef in terms.items():
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
            terms_d = out.setdefault(d, {})
            for (evs, p, q), mult in monomials:
                key = (evs, p + k, q + k)
                new = terms_d.get(key, 0) + count * mult
                if new:
                    terms_d[key] = new
                else:
                    del terms_d[key]
    return out


def _spreads(terms: dict) -> bool:
    """Whether no term has more than two generator factors and some term
    has two, (e1, j1) and (e2, j2), of different slopes (e1 j2 != e2 j1).

    Only then does a T-degree hold counts at several L-powers, which a
    coefficient such as (L - 1) c cancels along the walks of the last
    factor: the gain of ``_expand_ints``.  With one slope k is a function of
    d; with more factors one table per term merges equal (d, k) entries of
    the whole product before it meets the coefficient, where
    ``_expand_ints`` merges them for all factors but the last.
    """
    spread = False
    for factors in terms:
        if len(factors) > 2:
            return False
        if len(factors) == 2:
            (e1, j1), (e2, j2) = factors
            spread = spread or e1 * j2 != e2 * j1
    return spread


def _chain_sums(table: dict, step: int, j: int, n: int, width: int, into: dict) -> dict:
    """Add each count table[b] to into[b + m * step] for every m >= 1 whose
    key keeps T-degree (key // width) <= n, for a factor of T-weight j.

    Keys b with equal b % step lie on one chain; walking a chain in
    ascending order with the running sum of the counts passed so far visits
    each of its keys once, however many bases share it.
    """
    get = into.get
    # Ascending keys, then stably grouped by chain.
    order = sorted(sorted(table), key=step.__rmod__)
    run = 0
    for b, nb in zip(order, order[1:] + [None]):
        run += table[b]
        last = nb is None or (nb - b) % step
        end = b + step * ((n - b // width) // j + 1) if last else nb + step
        if run:
            for x in range(b + step, end, step):
                into[x] = get(x, 0) + run
        if last:
            run = 0
    return into


def _expand_ints(terms: dict, n: int) -> dict:
    """``RationalSeries.expand`` on integer keys, for n >= 1:
    {d: {class key: multiplicity}}, no degree empty.

    The class monomial (evs, p + k, q + k) at T-degree d is the key
    d * width + l * r + o: o indexes its L-orbit (evs, p - q) among the r
    orbits of the series, l = p + k + shift lies in [0, W), and width = W r.
    With E the largest |e|, every reachable k lies in [-E n, E n], so
    shift = E n - (the least p) and W = shift + E n + (the largest p) + 1
    (0 counts among the p's, so the count tables, at l = E n + k, fit too);
    then the factor (e, j) moves every key by the step j width + e r, which
    is positive as W > E.  Each term starts from its count table {E n r: 1}
    (no factor yet), runs every factor but the last on it, merges the
    coefficient at each entry, and runs the last factor on the merged keys
    into the one accumulator of the series, where a running sum that
    cancels to 0 skips its stretch of a chain.
    """
    orbits: dict = {}
    ps = [0]
    big_e = 0
    for factors, coef in terms.items():
        for e, _j in factors:
            big_e = max(big_e, abs(e))
        for evs, p, q in coef._terms:
            orbits.setdefault((evs, p - q), len(orbits))
            ps.append(p)
    r = len(orbits)
    reach = big_e * n
    shift = reach - min(ps)
    width = (shift + reach + max(ps) + 1) * r
    acc: dict[int, int] = {}
    for factors, coef in terms.items():
        table = {reach * r: 1}
        for e, j in factors[:-1]:
            table = _chain_sums(table, j * width + e * r, j, n, width, {})
        # A constant term merges straight into the accumulator.
        merged = {} if factors else acc
        mget = merged.get
        for (evs, p, q), mult in coef._terms.items():
            offset = (p + shift - reach) * r + orbits[evs, p - q]
            for b, count in table.items():
                x = b + offset
                merged[x] = mget(x, 0) + count * mult
        if factors:
            e, j = factors[-1]
            _chain_sums(merged, j * width + e * r, j, n, width, acc)
    rev = list(orbits)
    keys: dict[int, tuple] = {}
    out: dict[int, dict] = {}
    for x, c in acc.items():
        if c:
            d, low = divmod(x, width)
            key = keys.get(low)
            if key is None:
                l, o = divmod(low, r)
                evs, delta = rev[o]
                p = l - shift
                key = keys[low] = (evs, p, p - delta)
            terms_d = out.get(d)
            if terms_d is None:
                terms_d = out[d] = {}
            terms_d[key] = c
    return out


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
        """`(class)*T^d` groups in ascending degree, each class as its own
        ``render`` gives it: one ``_evs_table`` for every degree, and all
        terms sorted once, on (degree, rank, p, q)."""
        if not self._terms:
            return "0"
        ranks, evs_text = _evs_table(self._terms.values())
        terms = _term_texts(sorted([
            (d, ranks[evs], p, q, mult, evs)
            for d, c in self._terms.items() for (evs, p, q), mult in c._terms.items()
        ]), evs_text)
        parts = []
        start = 0
        for d in sorted(self._terms):
            stop = start + len(self._terms[d]._terms)
            parts.append(f"({_lead(''.join(terms[start:stop]))})*T^{d}")
            start = stop
        return " + ".join(parts)


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
        integer counts of monomials L^k T^d, and the coefficient class is
        merged into degree d with its bidegrees raised by k and its
        multiplicities scaled by the count; no class arithmetic is needed.
        A truncation that may merge more than ``MAX_EXPAND_TERMS`` class
        terms raises ``ValueError`` before any table is built.

        The path is chosen from the input.  A series that may merge at least
        ``INT_KEYS_FROM`` class terms, and whose counts spread over several
        L-powers per T-degree (``_spreads``), goes to ``_expand_ints`` (see
        there).  Any other keeps one plain table {(d, k): count} with d <= n
        per term: start from {(0, 0): 1} and, for each factor (e, j), shift
        every entry by (j m, e m) for each m >= 1 that keeps d <= n, then
        merge the coefficient at each entry.
        """
        n = _strict_int(n, "n", 0)
        size = sum(_points_bound(f, n) * len(c._terms) for f, c in self._terms.items())
        if size > MAX_EXPAND_TERMS:
            raise ValueError(
                f"expansion through degree {n} may merge {size} class terms, "
                f"more than MAX_EXPAND_TERMS = {MAX_EXPAND_TERMS}"
            )
        if size >= INT_KEYS_FROM and _spreads(self._terms):
            out = _expand_ints(self._terms, n)
        else:
            out = _expand_tables(self._terms, n)
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
