"""cones: seeded rational cones of dimension 2-4.

Three kinds of item:
* ``euler_char`` of a cone with 2-9 mixed ``>=``/``>``/``=`` constraints,
  checked by additivity under a seeded hyperplane split (the three pieces
  are computed outside the timed region);
* ``lattice_series`` of an open unimodular cone, checked against the
  lattice points of the generator product enumerated in plain integers;
* ``stays_bounded``, checked against the Euler-characteristic route: the
  kernel cone cut by num <= 997 * den keeps its full nonzero
  characteristic exactly when the ratio stays bounded.

Fourier-Motzkin elimination and the 2^k sign-cell enumeration dominate;
no other workload does more than trivial cone work.  The ROADMAP reference
item, a 4-dimensional cone with 8 ``>=`` constraints, is the same in every
run: its coefficients come from a fixed seed, because its cost, a large
share of a pass, depends on them.

Cost depends on the sign pattern of the constraints far more than on
their sizes: Fourier-Motzkin pairs every lower bound on a variable with
every upper one.  So the structure of every slot (dimension, relations, and
which coefficients are positive, negative or zero) comes from a fixed
per-slot seed, and the run's seed draws only the magnitudes, 1 to 3.  Every
slot then costs about the same under every seed, and so do the quantiles.
"""

from __future__ import annotations

import random

from refs import unimodular_series

from .common import Item, poly_plain

NAME = "cones"
EULER_SLOTS = 100
UNIMODULAR_DEGREE = {1: 25, 2: 25, 3: 14, 4: 9}
UNIMODULAR_SLOTS = 20
BOUNDED_SLOTS = 30
GAMMA = 997  # beyond every ratio the small integer data can produce
REFERENCE_SEED = 20031203


def _signs(srng, dim):
    """A nonzero sign pattern."""
    while True:
        f = [srng.choice((-1, 0, 1)) for _ in range(dim)]
        if any(f):
            return f


def _scale(rng, signs, top=3):
    return [s * rng.randint(1, top) for s in signs]


def _euler_shape(k: int):
    """(dim, #>=, #>, #=) of euler slot k: 2-9 constraints in total."""
    dim = 2 + k % 3
    n_ge = k % 6
    n_gt = 1 + (k // 6) % 3
    n_eq = (k // 18) % 2
    return dim, n_ge, max(n_gt, 2 - n_ge - n_eq), n_eq


def _euler_item(rng, srng, dim, n_ge, n_gt, n_eq):
    rels = [">="] * n_ge + [">"] * n_gt + ["="] * n_eq
    srng.shuffle(rels)
    cons = [[_scale(rng, _signs(srng, dim)), rel] for rel in rels]
    return {"n": dim, "cons": cons, "h": _scale(rng, _signs(srng, dim), 2)}


def generate(seed: int) -> dict:
    rng = random.Random(f"{NAME}/{seed}")

    def structure(kind, k):
        return random.Random(f"{NAME}/structure/{kind}/{k}")

    euler = [_euler_item(rng, structure("euler", k), *_euler_shape(k)) for k in range(EULER_SLOTS)]
    ref_rng = random.Random(REFERENCE_SEED)
    euler.append(_euler_item(ref_rng, ref_rng, 4, 8, 0, 0))
    unimodular = []
    for k in range(UNIMODULAR_SLOTS):
        dim = 1 + k % 4
        srng = structure("unimodular", k)
        G = [[1 if i == j else (srng.randint(0, 1) if j > i else 0) for j in range(dim)] for i in range(dim)]
        G = [[g * rng.randint(1, 2) if j > i else g for j, g in enumerate(row)] for i, row in enumerate(G)]
        unimodular.append({
            "G": G,
            "ell": [srng.randint(1, 2) for _ in range(dim)],
            "nu": [rng.randint(1, 2) for _ in range(dim)],
            "deg": UNIMODULAR_DEGREE[dim],
        })
    bounded = []
    for k in range(BOUNDED_SLOTS):
        dim = 2 + k % 3
        srng = structure("bounded", k)
        rows = [_scale(rng, [srng.choice((-1, 0, 1)) for _ in range(dim)], 2) for _ in range(srng.randint(0, 2))]
        num, den = [], []
        for _ in range(dim):
            # Every coordinate carries a numerator or a denominator weight.
            which = srng.randint(0, 2)
            num.append(rng.randint(1, 3) if which != 1 else 0)
            den.append(rng.randint(1, 2) if which != 0 else 0)
        bounded.append({"n": dim, "rows": rows, "num": num, "den": den})
    return {"euler": euler, "unimodular": unimodular, "bounded": bounded}


def _unimodular_cone(H, G):
    """Open cone on the rows of a unitriangular G: its defining forms are
    the columns of G^(-1)."""
    n = len(G)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if G[i][j]:
                inv[i] = [a - G[i][j] * b for a, b in zip(inv[i], inv[j])]
    forms = [tuple(inv[i][k] for i in range(n)) for k in range(n)]
    return H.cones.Cone(n, tuple((f, ">") for f in forms))


def _mk_cone(H, n, cons):
    return H.cones.Cone(n, tuple((tuple(c), rel) for c, rel in cons))


def build(inputs: dict, H, root: str) -> list:
    C = H.cones
    items = []
    for i, e in enumerate(inputs["euler"]):
        cone = _mk_cone(H, e["n"], e["cons"])
        items.append(Item(f"euler{i}", lambda c=cone: C.euler_char(c), int))
    for i, u in enumerate(inputs["unimodular"]):
        cone = _unimodular_cone(H, u["G"])
        args = (cone, tuple(u["ell"]), tuple(u["nu"]), u["deg"])
        items.append(Item(f"lattice{i}", lambda a=args: C.lattice_series(*a), poly_plain))
    for i, b in enumerate(inputs["bounded"]):
        args = (b["n"], [tuple(r) for r in b["rows"]], tuple(b["num"]), tuple(b["den"]))
        items.append(Item(f"bounded{i}", lambda a=args: C.stays_bounded(*a), bool))
    return items


def references(inputs: dict, H, root: str) -> dict:
    C = H.cones
    refs = {}
    for i, e in enumerate(inputs["euler"]):
        cons = [(tuple(c), rel) for c, rel in e["cons"]]
        h = tuple(e["h"])
        pieces = (((tuple(-x for x in h), ">"),), ((h, "="),), ((h, ">"),))
        refs[f"euler{i}"] = sum(C.euler_char(C.Cone(e["n"], tuple(cons) + p)) for p in pieces)
    for i, u in enumerate(inputs["unimodular"]):
        refs[f"lattice{i}"] = unimodular_series(u["G"], u["ell"], u["nu"], u["deg"])
    for i, b in enumerate(inputs["bounded"]):
        eq = tuple((tuple(r), "=") for r in b["rows"])
        cut = tuple(GAMMA * d - n for n, d in zip(b["num"], b["den"]))
        chi_cut = C.euler_char(C.Cone(b["n"], eq + ((cut, ">="),)))
        chi_full = C.euler_char(C.Cone(b["n"], eq))
        # The route gives 0 or the full characteristic; anything else leaves
        # no valid reference, and the item counts as failed.
        refs[f"bounded{i}"] = chi_cut != 0 if chi_cut in (0, chi_full) else None
    return refs
