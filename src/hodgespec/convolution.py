"""Convolution of monodromic classes.

``collapse_pair`` fuses two chosen monodromy gradings of a class into one.
It works on the class's own numerators: with L its ``den`` (the key format
of ``hodgespec.spectra``), every residue is an integer in [0, L).  On a
basis monomial whose chosen pair of residues is (a, b) over L and whose
bidegree is (p, q) it acts by the closed-form table ``_collapse_int``

    b = 0                    -> eigenvalue a,       (p, q)
    a = 0, b != 0            -> b,                  (p, q)
    a, b != 0, a + b > L     -> a + b - L,          (p + 1, q)
    a, b != 0, a + b < L     -> a + b,              (p, q + 1)
    a, b != 0, a + b = L     -> 0,                  (p + 1, q + 1)

(exactly one row applies to every key; the new eigenvalue is again an
integer over L in [0, L)).
The table is the equivariant-quotient computation against the affine and
antidiagonal Fermat curves x^n + y^n = 1 and x^n + y^n = 0 in the torus:
the quotient pairs each (a, b) eigenspace of the curve with the matching
eigenspace of the class, bidegrees add, and the residual diagonal
monodromy acts with eigenvalue a + b.  The brute-force version of that
computation lives in ``hodgespec.oracles`` and the test suite re-derives
every row from it.

``convolve`` is the induced product, convolve(x, y) =
collapse_pair(box(x, y)), and it is computed that way, so the table is
applied to classes in ``collapse_pair`` alone.  The product is
commutative, associative, and unital, and the one-monodromy Hodge spectrum
is a ring morphism for it; ``convolve`` of several classes is the left
fold of the binary product.  ``collapse_triple`` collapses three gradings
at once; the result does not depend on which pair goes first.
``power_pushforward`` realizes the pushforward along the N-th
power map on one monodromy slot: an eigenvalue residue b fans out to the
N residues (b + j)/N, numerators over L N.
"""

from __future__ import annotations

from functools import reduce
from .lattice import _int_row, _strict_int
from .monclass import MAX_TS_TERMS, MonodromicClass, box
from .spectra import _merge


def _collapse_int(a: int, b: int, L: int):
    """Table row for residues a / L and b / L: (new numerator over L, dp, dq)."""
    if not b:  # also the (0, 0) row
        return a, 0, 0
    if not a:
        return b, 0, 0
    s = a + b
    if s > L:
        return s - L, 1, 0
    if s < L:
        return s, 0, 1
    return 0, 1, 1


def collapse_pair(x: MonodromicClass, pair=(1, 2)) -> MonodromicClass:
    """Collapse monodromy slots i < j into a single slot at position i."""
    i, j = _int_row(pair, "pair", length=2)
    if not 1 <= i < j <= x.arity:
        raise ValueError(f"slot pair {pair} out of range for arity {x.arity}")
    L = x.den
    out: dict = {}
    for (evs, p, q), mult in x._terms.items():
        s, dp, dq = _collapse_int(evs[i - 1], evs[j - 1], L)
        rest = evs[: i - 1] + (s,) + evs[i: j - 1] + evs[j:]
        _merge(out, (rest, p + dp, q + dq), mult)
    return MonodromicClass._trusted(x.arity - 1, *MonodromicClass._lowest(out, L))


def convolve(*classes: MonodromicClass) -> MonodromicClass:
    """Convolution product of one or more one-monodromy classes: the left
    fold of collapse_pair(box(x, y)).

    The unit is the class with trivial eigenvalue and bidegree (0, 0).
    ``box`` refuses a product of more than ``MAX_TS_TERMS`` term pairs.
    """
    if not classes:
        raise ValueError("convolve needs at least one class")
    if any(x.arity != 1 for x in classes):
        raise ValueError("convolve is defined for arity-1 classes")
    return reduce(lambda x, y: collapse_pair(box(x, y)), classes)


def collapse_triple(x: MonodromicClass) -> MonodromicClass:
    """Collapse all three gradings of an arity-3 class into one.

    Equal to collapsing any pair first and then the remaining two; pair
    order independence is part of the contract (and of the test suite).
    """
    if x.arity != 3:
        raise ValueError("collapse_triple needs an arity-3 class")
    return collapse_pair(collapse_pair(x, (1, 2)), (1, 2))


def power_pushforward(x: MonodromicClass, slot: int, N: int) -> MonodromicClass:
    """Pushforward along the N-th power map on one monodromy slot.

    Each monomial with residue b in that slot becomes the sum of the N
    monomials with residues (b + j)/N, j = 0..N-1; other data unchanged.
    N = 1 is the identity.  A result of more than ``MAX_TS_TERMS`` terms
    raises ``ValueError`` before any is formed.
    """
    slot, N = _strict_int(slot, "slot"), _strict_int(N, "N", 1)
    if not 1 <= slot <= x.arity:
        raise ValueError(f"slot {slot} out of range for arity {x.arity}")
    size = len(x._terms) * N
    if size > MAX_TS_TERMS:
        raise ValueError(
            f"pushforward of a {len(x._terms)}-term class along N = {N} makes "
            f"{size} terms, more than MAX_TS_TERMS = {MAX_TS_TERMS}"
        )
    # Over L N, b = n / L is n N and (b + j) / N is n + j L; b < 1, so that
    # is a residue in [0, 1), and distinct (key, j) give distinct keys.
    L = x.den
    out: dict = {}
    for (evs, p, q), mult in x._over(L * N).items():
        n = evs[slot - 1] // N
        for j in range(N):
            out[evs[: slot - 1] + (n + j * L,) + evs[slot:], p, q] = mult
    return MonodromicClass._trusted(x.arity, *MonodromicClass._lowest(out, L * N))
