"""joins: Thom-Sebastiani spectra of seeded exponent tuples.

Each item is one tuple's spectrum, through ``quasihomogeneous_spectrum`` or
the CLI ``ts``.  A few large group-ring products dominate (box, collapse,
hodge_spectrum, render); series, cones, lattice and resolution are not
touched.  Every result is checked against the closed-form multiset
{sum k_i/a_i : 1 <= k_i < a_i} computed in plain integers.

The seed picks the exponents; the size mix is fixed.  An item's time
roughly follows its work W, the number of terms that go into and come out
of its collapses plus the terms of its spectrum, whatever the exponents;
the number of variables accounts for most of the rest.  Every slot
has a fixed number of variables and a fixed target W, and the seed draws
tuples with a_i in 2..16 until one's W lies within 4% of the target (the
band doubles every 200 draws).  The targets form ladders and two plateaus
of like items: the median item falls in the middle of the W = 700 plateau
and the 90th percentile in the middle of the W = 1600 one, so that neither
quantile sits on a steep part of the cost distribution.  At one W, tuples
whose exponents have a small lcm took up to half as long again in
measurements, so plateau tuples also have an lcm of at least
PLATEAU_MIN_LCM; the quantiles then move little from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from math import lcm, prod

from refs import join_spectrum, render_spectrum

from .common import Item, cli_call, ladder, same, spectrum_plain

NAME = "joins"
# ROADMAP reference item: 11,520 terms.
REFERENCE_ITEM = (7, 11, 13, 17)
# (variables, lowest W, highest W, slots) per block of library items, in
# increasing cost: 20 CLI items and the first block fill the lowest 45
# ranks of the 121 items, the plateaus ranks 46-75 and 97-120, the
# reference item the top rank.
LIB_BLOCKS = ((2, 30, 400, 25), (3, 700, 700, 30), (3, 800, 1400, 21), (4, 1600, 1600, 24))
CLI_BLOCKS = ((2, 30, 300, 7), (3, 60, 300, 7), (4, 100, 300, 6))
MAX_EXPONENT = 16
PLATEAU_MIN_LCM = 200


def join_work(exps) -> int:
    """W of an exponent tuple: replays the collapse table on residues
    k * lcm / a_i in plain integers, counting terms in and out of each
    collapse, plus the terms of the final spectrum."""
    L = lcm(*exps)
    keys = {(k * (L // exps[0]), 0, 0) for k in range(1, exps[0])}
    work = 0
    for a in exps[1:]:
        step = L // a
        new = set()
        for r1, p, q in keys:
            for k in range(1, a):
                r2 = k * step
                s = r1 + r2
                if r1 == 0:
                    new.add((r2, p, q))
                elif s == L:
                    new.add((0, p + 1, q + 1))
                elif s < L:
                    new.add((s, p, q + 1))
                else:
                    new.add((s - L, p + 1, q))
        work += len(keys) * (a - 1) + len(new)
        keys = new
    return work + len(keys)


def _slots(rng, blocks, pools, cache):
    out = []
    for d, lo, hi, n in blocks:
        for k in range(n):
            target = ladder(lo, hi, k, n)
            # W lies between mu / 6 and about 5 mu.
            pool = [t for t, mu in pools[d] if target / 6 <= mu <= target and (lo < hi or lcm(*t) >= PLATEAU_MIN_LCM)]
            tol, tries = 0.04, 0
            while True:
                tup = rng.choice(pool)
                if tup not in cache:
                    cache[tup] = join_work(tup)
                if abs(cache[tup] - target) <= tol * target:
                    break
                tries += 1
                if tries % 200 == 0:
                    tol *= 2
            out.append(list(tup))
    return out


def generate(seed: int) -> dict:
    rng = random.Random(f"{NAME}/{seed}")
    pools = {
        d: [(t, prod(a - 1 for a in t)) for t in itertools.product(range(2, MAX_EXPONENT + 1), repeat=d)]
        for d in (2, 3, 4)
    }
    cache: dict = {}
    return {
        "lib": [list(REFERENCE_ITEM)] + _slots(rng, LIB_BLOCKS, pools, cache),
        "cli": _slots(rng, CLI_BLOCKS, pools, cache),
    }


def build(inputs: dict, H, root: str) -> list:
    items = []
    for i, exps in enumerate(inputs["lib"]):
        exps = tuple(exps)
        items.append(
            Item(f"lib{i}:{exps}", lambda e=exps: H.quasihomogeneous_spectrum(e), spectrum_plain)
        )
    for i, exps in enumerate(inputs["cli"]):
        argv = ["ts", "--exponents", ",".join(map(str, exps))]
        items.append(Item(f"cli{i}:{tuple(exps)}", lambda a=argv: cli_call(H, a), same))
    return items


def references(inputs: dict, H, root: str) -> dict:
    refs = {}
    for i, exps in enumerate(inputs["lib"]):
        refs[f"lib{i}:{tuple(exps)}"] = join_spectrum(exps)
    for i, exps in enumerate(inputs["cli"]):
        refs[f"cli{i}:{tuple(exps)}"] = (0, render_spectrum(join_spectrum(exps)) + "\n")
    return refs
