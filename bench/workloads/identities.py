"""identities: many small seeded objects through the paper's exact identities.

Objects are spectra, bispectra, classes of arity 1-3 with eigenvalue
denominators up to 12, rational series, and exponent matrices up to 2x4.
Per-operation overhead dominates (construction, normalisation, hashing,
equality): the traffic of ``check --suite``, without depending on what
``checks.py`` contains.

Here the library's own oracles are the verified work, so an item runs the
identity inside the timed region and passes when it holds.  The exception
is the ROADMAP reference item ``torus_fiber_class([[30,42],[0,70]])``,
checked against the eigenvalue multiset of refs.square_fiber_eigen.

The seed draws every object's values; the number of items of each kind and
the size of every object (term counts, arities, N, truncation degree,
matrix shape and root order) are fixed by its slot.
"""

from __future__ import annotations

import random

from refs import minor_gcd, pivot_minor, root_order, square_fiber_eigen

from .common import Item, class_plain, poly_plain, spectrum_plain

NAME = "identities"
REFERENCE_MATRIX = [[30, 42], [0, 70]]
MAX_DEN = 12
# Items of each kind per pass.  The 90th percentile item lies about ten
# ranks inside the run of class_ring items (about 4.8 ms each on the
# reference VM); with more series_laws or torus_oracle items above it, it
# would sit where that run meets the dearer items, and jump between the two
# from seed to seed.
COUNTS = {
    "spectrum_ring": 60,
    "class_ring": 60,
    "collapse_oracle": 40,
    "convolution": 40,
    "fold_pushforward": 40,
    "bispectrum_fold": 20,
    "torus_oracle": 30,
    "theta_shift": 30,
    "series_laws": 15,
}
# (rows, columns, root order Q) of the exponent matrices, cycled over the
# torus slots.  The root-of-unity oracle visits Q^columns points, so Q is
# fixed per slot and the seed draws matrices that need exactly that Q.
MATRIX_SHAPES = ((1, 3, 4), (2, 3, 6), (2, 4, 4), (1, 4, 4), (2, 2, 12), (1, 2, 4))
SERIES_DEGREE = 12


# ---------------------------------------------------------------------------
# Raw object generators (plain JSON data).  Every size is fixed by the slot;
# the seed draws the values.
# ---------------------------------------------------------------------------


def _spectrum(rng, nterms=4):
    out = []
    for _ in range(nterms):
        den = rng.randint(1, MAX_DEN)
        out.append([rng.randint(-2 * den, 2 * den), den, rng.choice((-2, -1, 1, 2, 3))])
    return out


def _bispectrum(rng, nterms=4):
    out = []
    for _ in range(nterms):
        d1, d2 = rng.randint(1, MAX_DEN), rng.randint(1, MAX_DEN)
        out.append([rng.randrange(d1), d1, rng.randrange(d2), d2, rng.randint(-3, 3), rng.choice((-1, 1, 2))])
    return out


def _cls(rng, arity, nterms=3, pq=5):
    terms = []
    for _ in range(nterms):
        evs = []
        for _ in range(arity):
            den = rng.randint(1, MAX_DEN)
            evs.append([rng.randrange(den), den])
        terms.append([evs, rng.randint(-pq, pq), rng.randint(-pq, pq), rng.choice((-2, -1, 1, 2))])
    return {"arity": arity, "terms": terms}


def _matrix(rng, r, m, q):
    while True:
        M = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
        if any(all(M[i][j] == 0 for i in range(r)) for j in range(m)):
            continue
        if pivot_minor(M) and root_order(M) == q:
            return M


def _series(rng, k):
    # Two terms with one and two generators; the T-weights cycle with the
    # slot, the L-exponents and coefficients are drawn.
    weights = (1 + k % 3, 1 + (k + 1) % 3, 1 + (k + 2) % 3)
    factors = ([weights[0]], [weights[1], weights[2]])
    return [[[[rng.randint(-2, 2), j] for j in js], _cls(rng, 0, nterms=2, pq=2)] for js in factors]


def generate(seed: int) -> dict:
    rng = random.Random(f"{NAME}/{seed}")
    items = []
    for kind, n in COUNTS.items():
        for k in range(n):
            if kind == "spectrum_ring":
                raw = {"xyz": [_spectrum(rng) for _ in range(3)]}
            elif kind == "class_ring":
                arity = 1 + k % 3
                raw = {"xyz": [_cls(rng, arity) for _ in range(3)]}
            elif kind == "collapse_oracle":
                arity = 2 + k % 2
                pair = [1, 2] if arity == 2 else [[1, 2], [1, 3], [2, 3]][k // 2 % 3]
                raw = {"x": _cls(rng, arity, nterms=4), "pair": pair}
            elif kind == "convolution":
                raw = {"xyz": [_cls(rng, 1) for _ in range(3)]}
            elif kind == "fold_pushforward":
                raw = {"x": _cls(rng, 2, nterms=4), "N": 1 + k % 6}
            elif kind == "bispectrum_fold":
                raw = {"xy": [_bispectrum(rng), _bispectrum(rng)], "N": 1 + k % 6}
            elif kind in ("torus_oracle", "theta_shift"):
                r, m, q = MATRIX_SHAPES[k % len(MATRIX_SHAPES)]
                raw = {"M": _matrix(rng, r, m, q), "q": q}
                if kind == "theta_shift":
                    raw["shift"] = [[[rng.randint(-3, 3), rng.randint(1, 3)] for _ in range(m - r)] for _ in range(r)]
            else:
                raw = {"ab": [_series(rng, k), _series(rng, k + 1)], "n": SERIES_DEGREE}
            items.append([kind, raw])
    items.append(["torus_reference", {"M": REFERENCE_MATRIX}])
    return {"items": items}


# ---------------------------------------------------------------------------
# Library objects and identities.
# ---------------------------------------------------------------------------


def _mk_spectrum(H, raw):
    return H.Spectrum([(H.frac(n, d), m) for n, d, m in raw])


def _mk_bispectrum(H, raw):
    return H.BiSpectrum([((H.frac(an, ad), H.frac(bn, bd), c), m) for an, ad, bn, bd, c, m in raw])


def _mk_class(H, raw):
    terms = [((tuple(H.frac(n, d) for n, d in evs), p, q), m) for evs, p, q, m in raw["terms"]]
    return H.MonodromicClass(raw["arity"], terms)


def _mk_series(H, raw):
    return H.RationalSeries(0, [(tuple(map(tuple, f)), _mk_class(H, c)) for f, c in raw])


def _spectrum_ring(H, x, y, z):
    one = H.Spectrum.one()
    ok = x + y == y + x and x * y == y * x
    ok &= (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    ok &= x * (y + z) == x * y + x * z and x * one == x
    return ok, x * y


def _class_ring(H, x, y, z):
    MC = H.MonodromicClass
    unit = MC.unit(x.arity)
    ok = x * y == y * x and (x * y) * z == x * (y * z)
    ok &= x * (y + z) == x * y + x * z and x * unit == x
    ok &= MC.lefschetz(x.arity) * MC.lefschetz(x.arity, -1) == unit
    return ok, x * y


def _collapse_oracle(H, x, pair):
    got = H.collapse_pair(x, pair)
    return got == H.oracles.collapse_pair_bruteforce(x, pair), got


def _convolution(H, x, y, z):
    conv, sp = H.convolve, H.hodge_spectrum
    ok = conv(x, H.MonodromicClass.unit(1)) == x and conv(x, y) == conv(y, x)
    ok &= conv(conv(x, y), z) == conv(x, conv(y, z))
    ok &= sp(conv(x, y)) == sp(x) * sp(y)
    return ok, conv(x, y)


def _fold_pushforward(H, x, N):
    ok = H.hodge_spectrum(H.collapse_pair(x)) == H.fold_bispectrum(H.hodge_spectrum2(x))
    pushed = H.power_pushforward(x, 2, N)
    rhs = H.geometric_factor(N) * H.fold_bispectrum(H.hodge_spectrum2(x), N)
    ok &= H.hodge_spectrum(H.collapse_pair(pushed)) == rhs
    # Pushforward twists the u-grading by (1 - u)/(1 - u^(1/N)).
    geo_u = H.BiSpectrum([((0, H.frac(j, N), 0), 1) for j in range(N)])
    sub_u = H.BiSpectrum([((a, b / N, c), m) for (a, b, c), m in H.hodge_spectrum2(x).terms()])
    ok &= H.hodge_spectrum2(pushed) == geo_u * sub_u
    return ok, pushed


def _bispectrum_fold(H, x, y, N):
    fold = H.fold_bispectrum
    ok = fold(x + y) == fold(x) + fold(y)
    ok &= fold(x + y, N) == fold(x, N) + fold(y, N) and fold(x, 1) == fold(x)
    return ok, fold(x + y, N)


def _torus_oracle(H, M, q):
    r, m = len(M), len(M[0])
    bf = H.oracles.torus_fiber_bruteforce(M, q_cap=q)
    got = H.torus_fiber_class(M)
    if bf is None:
        return False, got
    ncomp, eigen = bf
    MC = H.MonodromicClass
    recon = MC(r, [((key, 0, 0), 1) for key in eigen])
    torus = MC.lefschetz(r) - MC.unit(r)
    return ncomp == len(eigen) and recon * torus ** (m - r) == got, got


def _theta_shift(H, M, shift):
    r, m = len(M), len(M[0])
    kernel = H.lattice.integer_kernel_basis(M)
    thetas = []
    for i in range(r):
        theta = H.lattice.rational_solve(M, [1 if k == i else 0 for k in range(r)])
        for (num, den), vec in zip(shift[i], kernel):
            theta = [t + H.frac(num, den) * v for t, v in zip(theta, vec)]
        thetas.append(theta)
    got = H.torus_fiber_class(M)
    return got == H.torus_fiber_class(M, thetas=thetas), got


def _series_laws(H, a, b, n):
    ok = (a + b).limit() == a.limit() + b.limit()
    ok &= (a * b).limit() == a.limit() * b.limit()
    ok &= (a + b).expand(n) == a.expand(n) + b.expand(n)
    product = (a * b).expand(n)
    ok &= product == a.expand(n).mul_truncated(b.expand(n), n)
    return ok, product


def _holds(result):
    return result[0] is True


def _witness(result):
    """One object each identity computed, for the output digest."""
    ok, obj = result
    if hasattr(obj, "degrees"):
        return ok, poly_plain(obj)
    if hasattr(obj, "arity"):
        return ok, class_plain(obj)
    return ok, spectrum_plain(obj)


def build(inputs: dict, H, root: str) -> list:
    items = []
    for idx, (kind, raw) in enumerate(inputs["items"]):
        iid = f"{idx}:{kind}"
        if kind == "spectrum_ring":
            args = [_mk_spectrum(H, s) for s in raw["xyz"]]
            run = lambda a=args: _spectrum_ring(H, *a)
        elif kind in ("class_ring", "convolution"):
            args = [_mk_class(H, c) for c in raw["xyz"]]
            fn = _class_ring if kind == "class_ring" else _convolution
            run = lambda a=args, f=fn: f(H, *a)
        elif kind == "collapse_oracle":
            x, pair = _mk_class(H, raw["x"]), tuple(raw["pair"])
            run = lambda x=x, p=pair: _collapse_oracle(H, x, p)
        elif kind == "fold_pushforward":
            x = _mk_class(H, raw["x"])
            run = lambda x=x, N=raw["N"]: _fold_pushforward(H, x, N)
        elif kind == "bispectrum_fold":
            x, y = (_mk_bispectrum(H, b) for b in raw["xy"])
            run = lambda x=x, y=y, N=raw["N"]: _bispectrum_fold(H, x, y, N)
        elif kind == "torus_oracle":
            run = lambda M=raw["M"], q=raw["q"]: _torus_oracle(H, M, q)
        elif kind == "theta_shift":
            run = lambda M=raw["M"], s=raw["shift"]: _theta_shift(H, M, s)
        elif kind == "series_laws":
            a, b = (_mk_series(H, s) for s in raw["ab"])
            run = lambda a=a, b=b, n=raw["n"]: _series_laws(H, a, b, n)
        elif kind == "torus_reference":
            run = lambda M=raw["M"]: H.torus_fiber_class(M)
            items.append(Item(iid, run, class_plain))
            continue
        else:
            raise ValueError(f"unknown item kind {kind!r}")
        items.append(Item(iid, run, _holds, _witness))
    return items


def references(inputs: dict, H, root: str) -> dict:
    refs = {}
    for idx, (kind, raw) in enumerate(inputs["items"]):
        if kind == "torus_reference":
            ref = square_fiber_eigen(raw["M"])
            if sum(ref.values()) != abs(minor_gcd(raw["M"])):
                raise AssertionError("reference fiber has the wrong number of components")
            refs[f"{idx}:{kind}"] = ref
        else:
            refs[f"{idx}:{kind}"] = True
    return refs
