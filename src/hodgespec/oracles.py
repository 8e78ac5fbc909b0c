"""Brute-force derivation oracles.

Everything in this module recomputes, by elementary enumeration, data that
the production code either hard-codes (the convolution collapse table) or
takes as fixture input (stratum cover classes).  The test suite and
``workbench.rederive`` (behind ``fixtures --rederive``) run these against
the shipped values: ``stratum_cover_class`` against every curve stratum,
``root_of_unity_class`` against every point stratum.

The ingredients:

* the eigenspace tables of the two Fermat curves x^n + y^n = 1 and
  x^n + y^n = 0 inside the torus, under the product of the two rotation
  actions -- classical curve cohomology, rank one in each character with
  Hodge type read off from the residue sum;
* the class of a rank-one eigensystem on P^1 minus k punctures, which
  packages the same computation for the abelian covers of P^1 in
  ``p1_cover_class`` (``stratum_cover_class``, the cyclic cover of a
  rational stratum, is its one-deck case); a nontrivial unitary rank-one
  system with residues a_s on k' >= 2 essential punctures has middle
  compact-support cohomology of rank k' - 2 split as (sum a_s - 1) classes
  of type (1,0) and (k' - 1 - sum a_s) of type (0,1), plus one type-(0,0)
  class for every puncture where the local monodromy is trivial.  The torus
  fibre's odometer walks the characters on integer numerators over
  L = lcm(n_i), so each class is read off two integers, k' and sum a_s,
  and the eigenvalues are already keys over L (the key format of
  ``hodgespec.spectra``);
* the equivariant-quotient bookkeeping that turns those tables into the
  collapse of a two-monodromy class;
* a root-of-unity enumeration of torus fibers of monomial maps, an
  independent route to ``torus_fiber_class``.  One Smith normal form
  U M V = D gives its rank and divisors (D) and the integer kernel (the
  last m - r columns of V); its eigenvalues come from solving
  M theta = e_i with ``rational_solve``, which ``torus_fiber_class`` does
  not call (that reads them off U).  Every root tuple is visited once, as
  a pair of halves whose kernel residues and pairings with those solutions,
  integer numerators mod the root order, are packed as the digits of one
  int each, so the enumeration, the kernel test and the count run in
  ``itertools.product``, ``starmap`` and ``Counter``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm, prod
from operator import add, eq

from .lattice import _int_matrix, _int_row, _strict_int, rational_solve, smith_normal_form, snf_divisors
from .monclass import MAX_TORUS_CHARACTERS, MonodromicClass, _character_columns, _exponent_matrix
from .spectra import _merge, mod1


# ---------------------------------------------------------------------------
# Fermat curve eigenspace tables.
# ---------------------------------------------------------------------------


def fermat_one_at(a, b):
    """Signed (p, q, mult) eigenspace data of the affine Fermat curve
    x^n + y^n = 1 in the torus at character (a, b), for any common
    denominator n of a and b (the data does not depend on n)."""
    a, b = mod1(a), mod1(b)
    if a == 0 and b == 0:
        return ((0, 0, -2), (1, 1, 1))
    if a == 0 or b == 0 or mod1(a + b) == 0:
        return ((0, 0, -1),)
    if a + b < 1:
        return ((0, 1, -1),)
    return ((1, 0, -1),)


def fermat_zero_at(a, b):
    """Same for the antidiagonal curve x^n + y^n = 0 in the torus: only the
    characters (a, -a) appear, each with one (0,0) and one (1,1) class."""
    if mod1(a + b) == 0:
        return ((0, 0, -1), (1, 1, 1))
    return ()


def fermat_one_eigendata(n: int):
    """Full character table of the affine Fermat curve at denominator n."""
    return {
        (Fraction(i, n), Fraction(k, n)): fermat_one_at(Fraction(i, n), Fraction(k, n))
        for i in range(n)
        for k in range(n)
    }


def fermat_zero_eigendata(n: int):
    """Full character table of the antidiagonal curve at denominator n."""
    return {
        (Fraction(i, n), Fraction(k, n)): fermat_zero_at(Fraction(i, n), Fraction(k, n))
        for i in range(n)
        for k in range(n)
    }


def collapse_pair_bruteforce(x: MonodromicClass, pair=(1, 2)) -> MonodromicClass:
    """Collapse two monodromy gradings via the Fermat-curve quotients.

    For each monomial, minus the affine-curve table plus the antidiagonal
    table is evaluated at exactly the monomial's residue pair; bidegrees
    add and the collapsed grading carries the residue sum.  Independent of
    the production collapse table.
    """
    i, j = _int_row(pair, "pair", length=2)
    if not 1 <= i < j <= x.arity:
        raise ValueError(f"slot pair {pair} out of range for arity {x.arity}")
    out: dict = {}
    for (evs, p, q), mult in x.terms():
        a, b = evs[i - 1], evs[j - 1]
        fused = evs[: i - 1] + (mod1(a + b),) + evs[i: j - 1] + evs[j:]
        for pieces, sign in ((fermat_one_at(a, b), -1), (fermat_zero_at(a, b), 1)):
            for pf, qf, mf in pieces:
                _merge(out, (fused, p + pf, q + qf), sign * mf * mult)
    return MonodromicClass(x.arity - 1, out)


# ---------------------------------------------------------------------------
# Rank-one eigensystems on a rational curve.
# ---------------------------------------------------------------------------


def _eigensystem_rows(residues, big):
    """Signed (p, q, mult) rows of a rank-one eigensystem on P^1 minus
    len(residues) punctures, read off two numbers: how many residues
    (numerators over ``big``) are nonzero, and their sum over ``big``."""
    npunct, kp = len(residues), len(residues) - residues.count(0)
    if not kp:  # the trivial system: the class of P^1 minus the punctures
        rows = ((1, 1, 1), (0, 0, 1 - npunct))
    else:
        total = sum(residues) // big
        rows = ((0, 0, kp - npunct), (1, 0, 1 - total), (0, 1, total + 1 - kp))
    return [row for row in rows if row[2]]


def p1_cover_class(deck_orders, phi_orders) -> MonodromicClass:
    """Class, with deck monodromies, of the abelian cover of P^1 minus
    punctures defined by w_i^(n_i) = phi_i(y).

    ``deck_orders`` lists the n_i; ``phi_orders[i][s]`` is the order of
    phi_i at puncture s (every zero or pole of every phi_i must be among
    the punctures).  The (j_1..j_r) character has local residue
    sum_i j_i * phi_orders[i][s] / n_i at puncture s, so the cover depends
    only on the orders mod n_i, and each row must sum to 0 mod n_i.  The
    characters are walked by ``monclass._character_columns`` on integer
    numerators over L = lcm(n_i), eigenvalues and residues alike.  A deck
    group of more than ``MAX_TORUS_CHARACTERS`` characters raises
    ``ValueError`` before any is enumerated.
    """
    deck_orders = _int_row(deck_orders, "deck orders", 1)
    phi_orders = _int_matrix(phi_orders, "phi_{} orders")
    r = len(deck_orders)
    if len(phi_orders) != r:
        raise ValueError(f"{len(phi_orders)} phi rows for {r} deck orders")
    if prod(deck_orders) > MAX_TORUS_CHARACTERS:
        raise ValueError(
            f"a deck group of {prod(deck_orders)} characters is more than "
            f"MAX_TORUS_CHARACTERS = {MAX_TORUS_CHARACTERS}"
        )
    for i, (n, row) in enumerate(zip(deck_orders, phi_orders)):
        if sum(row) % n:
            raise ValueError(f"phi_{i} orders must sum to 0 mod n_{i} over the punctures")
    # Deck generator i gives its own eigenvalue L / n_i and puncture s the
    # residue phi_orders[i][s] * L / n_i, so each residue sum is 0 mod L.
    big = lcm(*deck_orders)
    gens = [
        [big // n if k == i else 0 for k in range(r)] + [o * (big // n) % big for o in row]
        for i, (n, row) in enumerate(zip(deck_orders, phi_orders))
    ]
    cols = _character_columns(deck_orders, gens, big)
    # Characters have distinct eigenvalue tuples; the trivial group has one.
    # A character of class 0 drops out, so L may not be least.
    eigs = zip(*cols[:r]) if r else [()]
    out = {}
    for evs, *residues in zip(eigs, *cols[r:]):
        for p, q, mult in _eigensystem_rows(residues, big):
            out[evs, p, q] = mult
    return MonodromicClass._trusted(r, *MonodromicClass._lowest(out, big))


def stratum_cover_class(multiplicity: int, crossing_multiplicities) -> MonodromicClass:
    """Cover class of a rational one-dimensional stratum.

    A component of multiplicity n whose open stratum is P^1 minus the
    crossings with adjacent divisors of multiplicities m_s carries the
    degree-n cyclic cover cut out by the leading form; its character-j
    eigensystem has residue -j * m_s / n at the crossing with the
    m_s-divisor.  The crossing multiplicities must sum to 0 mod n (the
    degree of the leading form on the compact stratum).

    The derivation oracle behind every explicit stratum class shipped with
    the fixtures; the one-deck case of ``p1_cover_class`` (phi of order
    -m_s at the crossing with the m_s-divisor).
    """
    n = _strict_int(multiplicity, "multiplicity", 1)
    ms = _int_row(crossing_multiplicities, "crossing multiplicities")
    if sum(ms) % n:
        raise ValueError("crossing multiplicities must sum to 0 mod the multiplicity")
    return p1_cover_class((n,), ([-m for m in ms],))


# ---------------------------------------------------------------------------
# Torus fibers by root-of-unity enumeration.
# ---------------------------------------------------------------------------


def torus_fiber_bruteforce(rows, q_cap: int = 24):
    """Eigenvalue-tuple multiset of a monomial-map torus fiber, enumerated
    over roots of unity; None when the needed root order exceeds q_cap.

    Solutions y = exp(2 pi i v / Q) of the monomial equations correspond to
    v in (Z/Q)^m with M v = 0 mod Q; characters of the component group are
    the characters of that solution group trivial on the image of the
    integer kernel, and each carries the translation eigenvalues
    (w . theta_i mod 1).  Returns (component count, sorted eigentuples).
    Entries must be integers; the rank, the divisors and the kernel come
    from one Smith normal form.

    Every root tuple w in (Z/Q)^m is visited once, as a pair of its two
    halves w' (the first m // 2 coordinates) and w'' (the rest), by
    ``itertools.product`` over one table per half.  For each root tuple of
    a half, the table holds the residues mod Q of its kernel pairings, or
    of its theta pairings, as the base-mQ digits of one int.  So w passes
    when the kernel residues of w'' equal those of -w', and its eigenvalue
    sum is counted as is (its digits are below 2Q <= mQ, or below Q when
    m = 1 leaves w' empty); each distinct sum is decoded once, digit by
    digit mod Q, and the counts of sums with equal digits mod Q are merged.
    """
    M = _exponent_matrix(rows)
    r, m = len(M), len(M[0])
    D, _U, V, _Vinv = smith_normal_form(M)
    divisors = snf_divisors(D)
    if len(divisors) != r:
        raise ValueError("rank deficient")
    thetas = [rational_solve(M, [1 if k == i else 0 for k in range(r)]) for i in range(r)]
    Q = lcm(*divisors, *(entry.denominator for theta in thetas for entry in theta))
    if Q > q_cap:
        return None
    # Theta i scaled by Q is integral, so each eigenvalue is an integer
    # numerator mod Q.  The last m - r columns of V span the integer kernel.
    scaled = [[int(t * Q) for t in theta] for theta in thetas]
    kernel = [[V[i][j] for i in range(m)] for j in range(r, m)]
    base = m * Q
    places = [base**i for i in range(max(r, m - r))]

    def packed(vecs, coords):  # per root tuple over coords, its pairings with vecs mod Q
        table = [0]
        for j in coords:  # at most m digits below Q add up, so none carries
            col = [sum(v * vec[j] % Q * b for vec, b in zip(vecs, places)) for v in range(Q)]
            table = [a + c for a in table for c in col]
        return [sum(a // b % base % Q * b for b in places[: len(vecs)]) for a in table]

    first, rest = range(m // 2), range(m // 2, m)
    negated = [[-k for k in vec] for vec in kernel]
    passing = itertools.starmap(eq, itertools.product(packed(negated, first), packed(kernel, rest)))
    sums = itertools.starmap(add, itertools.product(packed(scaled, first), packed(scaled, rest)))
    counts = Counter()
    for key, count in Counter(itertools.compress(sums, passing)).items():
        counts[tuple(key // b % base % Q for b in places[:r])] += count
    eigen = {tuple(Fraction(n, Q) for n in key): count for key, count in counts.items()}
    ncomp = prod(divisors)
    overcount = Q ** r // ncomp  # every d_k divides Q
    multiset = []
    for key, count in sorted(eigen.items()):
        if count % overcount:
            raise AssertionError("character overcount mismatch")
        multiset.extend([key] * (count // overcount))
    return ncomp, sorted(multiset)


def root_of_unity_class(rows) -> MonodromicClass:
    """The torus fiber class of a monomial map, rebuilt from
    ``torus_fiber_bruteforce``: one eigenvalue monomial per component times
    (L - 1) to the fiber's torus dimension m - r.  An enumeration of more
    than ``MAX_TORUS_CHARACTERS`` root tuples (Q^m for root order Q and m
    columns) raises ``ValueError`` before it starts.  Shares no step with
    ``torus_fiber_class`` but the input rule ``_exponent_matrix``."""
    M = _exponent_matrix(rows)
    r, m = len(M), len(M[0])
    # The largest root order Q with Q^m within the budget.
    cap = round(MAX_TORUS_CHARACTERS ** (1 / m))
    cap -= cap ** m > MAX_TORUS_CHARACTERS
    bf = torus_fiber_bruteforce(M, q_cap=cap)
    if bf is None:
        raise ValueError(
            f"the root-of-unity enumeration of {rows} visits more than "
            f"MAX_TORUS_CHARACTERS = {MAX_TORUS_CHARACTERS} root tuples"
        )
    ncomp, eigen = bf
    if ncomp != len(eigen):
        raise AssertionError("component count mismatch")
    torus = MonodromicClass.lefschetz(r) - MonodromicClass.unit(r)
    return MonodromicClass(r, [((key, 0, 0), 1) for key in eigen]) * torus ** (m - r)
