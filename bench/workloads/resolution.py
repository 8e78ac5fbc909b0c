"""resolution: shipped fixtures through the CLI, plus seeded monomial data.

Every one-function fixture goes through ``spectrum``, ``spectrum --phi``,
``zeta`` and ``zeta --truncate n``; the joint fixture through ``iterated``;
the class files through ``convolve`` (both orders); and the x^2 y family
through ``steenbrink --N 3..5``.  Seeded monomial functions in 1-3
variables go through ``zeta_series(...).expand(n)`` and ``jet_count_zeta``.
This exercises loading and schema checks, stratum classes (torus fibers and
Smith normal form), series expansion (heavy on class addition) and the CLI;
cones and convolution are barely touched.  The high-degree truncations are
the tail.

References, all built without hodgespec (see refs.py):
* spectra of isolated germs in closed form (x^a, the cusp as the join
  (2, 3), x^2 y + y^N from its Milnor algebra), checked for symmetry about
  d/2, support in (0, d) and total multiplicity = Milnor number; x^2 y is
  t^1, which the README's steenbrink example gives with the D-curve form;
* zeta functions from the datum JSON by direct enumeration of generator
  exponents; the monomial items use the same enumeration;
* iterated and convolve outputs as printed in the README.

The seed draws the truncation degrees, within a narrow band per fixture,
and the monomial data.  A monomial item's cost follows the number of
lattice points {m >= 1 : sum a_i m_i <= n} times the number of terms of its
torus fiber class, v * gcd(a) for v variables.  Each monomial slot has a
fixed variable count and a fixed target for that product; the seed draws
exponents in 1..5 and n is the least degree reaching the target.  The
targets are small, so the monomial items stay below the fixture
truncations: those make the tail, and the 90th percentile falls among the
seven x^a truncations, whose cost does not depend on a.
"""

from __future__ import annotations

import json
import os
import random
from math import gcd

from refs import (
    check_local_invariants,
    d_curve_spectrum,
    join_spectrum,
    lattice_points,
    render_spectrum,
    render_truncated,
    spectrum_add,
    zeta_closed_render,
    zeta_truncated,
)

from .common import Item, cli_call, ladder, poly_plain, same

NAME = "resolution"
# One-function fixtures: (name, truncation band for ``zeta --truncate``).
FIXTURES = (
    ("x2", (150, 160)), ("x3", (150, 160)), ("x4", (150, 160)), ("x5", (150, 160)),
    ("x6", (150, 160)), ("x7", (150, 160)), ("x8", (150, 160)),
    ("x2y", (60, 64)), ("cusp", (60, 64)), ("d_curve_N2", (50, 54)),
    ("d_curve_N3", (70, 74)), ("d_curve_N4", (44, 48)),
    # Measured on the seed: expand(160) on this one takes about 0.5 s.
    ("d_curve_N5", (158, 160)),
)
JOINT = "x2y_y_joint"
STEENBRINK_N = (3, 4, 5)
# (variables, lowest and highest work target, slots).
MONOMIAL_BLOCKS = ((1, 20, 100, 9), (2, 20, 80, 8), (3, 10, 40, 8))
MAX_DEGREE = 160

# README "Command line" outputs.
README_ITERATED = (
    "class:    (0,0;0,0) + (1/2,1/2;0,0)\n"
    "spectrum: t^(0)*u^(0)*v^(0) + t^(1/2)*u^(1/2)*v^(0)\n"
)
README_CONVOLVE = "class:    (1/6;1,0) + (5/6;0,1)\nspectrum: t^(5/6) + t^(7/6)\n"


def fixture_path(root: str, name: str) -> str:
    return os.path.join(root, "fixtures", f"{name}.json")


def _monomial_dict(exponents) -> dict:
    comps = [{"id": f"x{i + 1}", "Ng": a, "nu": 1} for i, a in enumerate(exponents)]
    return {
        "dimension": len(exponents),
        "local": True,
        "functions": ["g"],
        "components": comps,
        "strata": [{"components": [c["id"] for c in comps], "base_class": [[0, 0, 1]], "cover": "split"}],
    }


def generate(seed: int) -> dict:
    rng = random.Random(f"{NAME}/{seed}")
    truncate = {name: rng.randint(*band) for name, band in FIXTURES}
    monomials = []
    for v, lo, hi, n in MONOMIAL_BLOCKS:
        for k in range(n):
            target = ladder(lo, hi, k, n)
            exps = [rng.randint(1, 5) for _ in range(v)]
            terms = v * gcd(*exps)
            deg = sum(exps)
            while deg < MAX_DEGREE and lattice_points(exps, deg) * terms < target:
                deg += 1
            monomials.append({"exponents": exps, "n": deg})
    return {"truncate": truncate, "monomials": monomials}


def _cli_argvs(root: str, truncate: dict):
    out = []
    for name, _band in FIXTURES:
        path = fixture_path(root, name)
        out.append((f"spectrum:{name}", ["spectrum", "--datum", path]))
        out.append((f"phi:{name}", ["spectrum", "--datum", path, "--phi"]))
        out.append((f"zeta:{name}", ["zeta", "--datum", path]))
        n = str(truncate[name])
        out.append((f"zeta{n}:{name}", ["zeta", "--datum", path, "--truncate", n]))
    out.append(("iterated", ["iterated", "--joint", fixture_path(root, JOINT)]))
    x2, x3 = fixture_path(root, "class_x2"), fixture_path(root, "class_x3")
    out.append(("convolve:x2,x3", ["convolve", "--left", x2, "--right", x3]))
    out.append(("convolve:x3,x2", ["convolve", "--left", x3, "--right", x2]))
    for N in STEENBRINK_N:
        argv = [
            "steenbrink", "--f", fixture_path(root, "x2y"), "--fg", fixture_path(root, f"d_curve_N{N}"),
            "--joint", fixture_path(root, JOINT), "--N", str(N),
        ]
        out.append((f"steenbrink:{N}", argv))
    return out


def build(inputs: dict, H, root: str) -> list:
    # Set-up: every fixture loaded through load_datum, monomial data
    # through datum_from_dict.
    loaded = {name: H.load_datum(fixture_path(root, name)) for name, _ in FIXTURES}
    loaded[JOINT] = H.load_datum(fixture_path(root, JOINT))
    items = [Item(iid, lambda a=argv: cli_call(H, a), same) for iid, argv in _cli_argvs(root, inputs["truncate"])]
    for i, mono in enumerate(inputs["monomials"]):
        exps, n = tuple(mono["exponents"]), mono["n"]
        datum = H.datum_from_dict(_monomial_dict(exps))
        items.append(Item(f"expand{i}:{exps}@{n}", lambda d=datum, n=n: H.zeta_series(d).expand(n), poly_plain))
        items.append(Item(f"jets{i}:{exps}@{n}", lambda e=exps, n=n: H.jet_count_zeta(e, n), poly_plain))
    return items


def _phi_spectrum(name: str):
    """(vanishing-cycle spectrum, dimension, Milnor number or None)."""
    if name.startswith("x") and name[1:].isdigit():
        a = int(name[1:])
        return join_spectrum([a]), 1, a - 1
    if name == "cusp":
        return join_spectrum([2, 3]), 2, 2
    if name.startswith("d_curve_N"):
        N = int(name[len("d_curve_N"):])
        return d_curve_spectrum(N), 2, N + 1
    if name == "x2y":
        # Non-isolated, so no Milnor-number check.
        return {(1, 1): 1}, 2, None
    raise ValueError(name)


def references(inputs: dict, H, root: str) -> dict:
    refs = {}
    for name, _band in FIXTURES:
        with open(fixture_path(root, name), encoding="utf-8") as handle:
            data = json.load(handle)
        phi, dim, mu = _phi_spectrum(name)
        if mu is not None:
            check_local_invariants(phi, dim, mu)
        # nearby = 1 + (-1)^(d-1) phi for local data.
        nearby = spectrum_add({(0, 1): 1}, phi, (-1) ** (dim - 1))
        refs[f"spectrum:{name}"] = (0, render_spectrum(nearby) + "\n")
        refs[f"phi:{name}"] = (0, render_spectrum(phi) + "\n")
        refs[f"zeta:{name}"] = (0, zeta_closed_render(data) + "\n")
        n = inputs["truncate"][name]
        refs[f"zeta{n}:{name}"] = (0, render_truncated(zeta_truncated(data, n)) + "\n")
    refs["iterated"] = (0, README_ITERATED)
    refs["convolve:x2,x3"] = refs["convolve:x3,x2"] = (0, README_CONVOLVE)
    sp_f = _phi_spectrum("x2y")[0]
    for N in STEENBRINK_N:
        lhs = render_spectrum(spectrum_add(sp_f, d_curve_spectrum(N), -1))
        refs[f"steenbrink:{N}"] = (
            0,
            f"N = {N}, validity threshold = 1\n"
            f"  lhs (Sp(f) - Sp(f+g^N)) = {lhs}\n"
            f"  rhs (folded iterated)   = {lhs}\n"
            "  verdict: EQUAL\n",
        )
    for i, mono in enumerate(inputs["monomials"]):
        exps, n = tuple(mono["exponents"]), mono["n"]
        expected = zeta_truncated(_monomial_dict(exps), n)
        refs[f"expand{i}:{exps}@{n}"] = expected
        refs[f"jets{i}:{exps}@{n}"] = expected
    return refs
