"""Convolution of monodromic classes.

``collapse_pair`` fuses two chosen monodromy gradings of a class into one.
On a basis monomial with eigenvalue residues (a, b) in the chosen pair and
bidegree (p, q) it acts by the closed-form table

    (0, 0)                         -> eigenvalue 0,        (p, q)
    (a, 0), a != 0                 -> a,                   (p, q)
    (0, b), b != 0                 -> b,                   (p, q)
    (a, b), a, b != 0, a + b = 0   -> 0,                   (p + 1, q + 1)
    (a, b), a, b != 0, a + b < 1   -> a + b,               (p, q + 1)
    (a, b), a, b != 0, a + b > 1   -> a + b mod 1,         (p + 1, q)

(representatives in [0, 1); exactly one row applies to every key).  The
table is the equivariant-quotient computation against the affine and
antidiagonal Fermat curves x^n + y^n = 1 and x^n + y^n = 0 in the torus:
the quotient pairs each (a, b) eigenspace of the curve with the matching
eigenspace of the class, bidegrees add, and the residual diagonal
monodromy acts with eigenvalue a + b.  The brute-force version of that
computation lives in ``hodgespec.oracles`` and the test suite re-derives
every row from it.

``convolve`` is the induced product x * y = collapse_pair(box(x, y)); it is
commutative, associative, and unital, and the one-monodromy Hodge spectrum
is a ring morphism for it.  ``collapse_triple`` collapses three gradings at
once; the result does not depend on which pair goes first.
``power_pushforward`` realizes the pushforward along the N-th power map on
one monodromy slot: an eigenvalue residue b fans out to the N residues
(b + j)/N.
"""

from __future__ import annotations

from fractions import Fraction

from .monclass import MonodromicClass, box
from .spectra import _merge


def _collapse_key(a: Fraction, b: Fraction):
    """Table row for one residue pair: (new eigenvalue, dp, dq)."""
    if a == 0 and b == 0:
        return Fraction(0), 0, 0
    if b == 0:
        return a, 0, 0
    if a == 0:
        return b, 0, 0
    s = a + b
    if s == 1:
        return Fraction(0), 1, 1
    if s < 1:
        return s, 0, 1
    return s - 1, 1, 0


def collapse_pair(x: MonodromicClass, pair=(1, 2)) -> MonodromicClass:
    """Collapse monodromy slots i < j into a single slot at position i."""
    i, j = pair
    if not 1 <= i < j <= x.arity:
        raise ValueError(f"slot pair {pair} out of range for arity {x.arity}")
    out: dict = {}
    for (evs, p, q), mult in x._terms.items():
        new_ev, dp, dq = _collapse_key(evs[i - 1], evs[j - 1])
        rest = evs[: i - 1] + (new_ev,) + evs[i: j - 1] + evs[j:]
        _merge(out, (rest, p + dp, q + dq), mult)
    return MonodromicClass._trusted(x.arity - 1, out)


def convolve(x: MonodromicClass, y: MonodromicClass) -> MonodromicClass:
    """Convolution product of two one-monodromy classes.

    The unit is the class with trivial eigenvalue and bidegree (0, 0).
    """
    if x.arity != 1 or y.arity != 1:
        raise ValueError("convolve is defined for arity-1 classes")
    return collapse_pair(box(x, y), (1, 2))


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
    N = 1 is the identity.
    """
    if not 1 <= slot <= x.arity:
        raise ValueError(f"slot {slot} out of range for arity {x.arity}")
    if N < 1:
        raise ValueError("N must be a positive integer")
    out: dict = {}
    for (evs, p, q), mult in x._terms.items():
        b = evs[slot - 1]
        for j in range(N):
            # b < 1, so (b + j) / N is already a residue in [0, 1).
            new = evs[: slot - 1] + ((b + j) / N,) + evs[slot:]
            _merge(out, (new, p, q), mult)
    return MonodromicClass._trusted(x.arity, out)
