"""Combinatorial log-resolution data and the classes computed from it.

A datum records, for one function (arity 1) or an ordered pair of functions
(arity 2), the components of a normal-crossing divisor with their
multiplicities and discrepancies plus the classes of the open strata.  The
package never computes resolutions; data are inputs, typically derived by
hand from blowups and shipped with provenance notes.

Stratum classes come in two flavours.  A ``split`` stratum gives the
Hodge-Deligne class of the open stratum itself; the finite covers carrying
the monodromies are then computed by ``torus_fiber_class`` from the
multiplicity rows, which is correct exactly when the relevant unit is a
power (trivial cover twist).  Strata over non-simply-connected bases may
need an ``explicit`` class: the total class of the stratum's cover with its
monodromies, supplied directly.

The datum alone decides what each operation reads: its ``functions`` fix
the arity and the multiplicity rows (Ng, preceded by Nf on joint data),
and the zero locus C = {Ng > 0}, computed once on construction, picks the
strata of the nearby, open and iterated sums.

Operations (local flag means stratum classes are already restricted over
the base point):

* ``zeta_series``    -- the motivic zeta function, as a rational series
                        whose term for a stratum I has generator factors
                        (-nu_i, N_i) for i in I;
* ``nearby_cycles``  -- minus its limit, computed by the alternating sum;
* ``nearby_cycles_open`` -- the open-subset variant, summing only strata
                        inside C = {N > 0};
* ``vanishing_cycles``   -- (-1)^(d-1) (nearby - 1); local data only;
* ``iterated_nearby``    -- the two-monodromy class of a joint datum,
                        summing (-1)^|I| [cover of U_I] over strata meeting
                        both C and its complement;
* ``multiplicity_ratio`` -- sup of Nf/Ng over components with Ng > 0, the
                        validity bound for power-perturbation identities;
* ``jet_count_zeta``     -- independent zeta oracle for monomial functions
                        by direct jet counting.

JSON schema (UTF-8, exact field names)::

    {"dimension": int, "local": bool, "functions": ["f","g"] or ["g"],
     "components": [{"id": str, "Nf": int, "Ng": int, "nu": int}, ...],
     "strata": [{"components": [str, ...],
                 "base_class": [[p, q, mult], ...],
                 "cover": "split" | {"explicit": [[[num,den], ..., p, q, mult], ...]}},
                ...],
     "zero_locus_nearby": [[[num,den], p, q, mult], ...]}   # optional

Every number is a JSON integer (true/false, 1.5 and "1" are rejected) and
every ``den`` is positive.  ``Nf`` defaults to 0.  For arity-1 data the
``Nf`` field carries the boundary multiplicities used by
``multiplicity_ratio`` and the open variant.  Explicit cover entries list the eigenvalue fractions (one
[num, den] pair per function) followed by p, q, mult.  The optional
``zero_locus_nearby`` (joint data only) is the arity-1 class, in the second
monodromy slot, of the nearby cycles of g on the zero locus of f over the
base point; it feeds the vanishing-cycle correction in the workbench.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import _int_row
from .monclass import MonodromicClass, embed, torus_fiber_class
from .series import RationalSeries, TruncatedPoly
from .spectra import _merge


class SchemaError(ValueError):
    """Datum validation failure, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Component:
    id: str
    nf: int
    ng: int
    nu: int


@dataclass(frozen=True)
class Stratum:
    components: tuple  # component ids, order irrelevant
    base: Optional[MonodromicClass] = None      # arity 0, split covers
    explicit: Optional[MonodromicClass] = None  # full cover class, given arity

    def key(self):
        return frozenset(self.components)


@dataclass(frozen=True)
class ResolutionDatum:
    dimension: int
    local: bool
    functions: tuple
    components: tuple
    strata: tuple
    zero_locus_nearby: Optional[MonodromicClass] = None

    @property
    def arity(self) -> int:
        return len(self.functions)

    def component(self, cid: str) -> Component:
        return self._index[cid]

    def __post_init__(self):
        if self.dimension < 1:
            raise SchemaError("dimension", "must be a positive integer")
        if tuple(self.functions) not in (("g",), ("f", "g")):
            raise SchemaError("functions", 'must be ["g"] or ["f","g"]')
        index = {}
        for i, comp in enumerate(self.components):
            path = f"components[{i}]"
            if comp.id in index:
                raise SchemaError(path + ".id", f"duplicate id {comp.id!r}")
            if comp.nu < 1:
                raise SchemaError(path + ".nu", "must be >= 1")
            if comp.nf < 0 or comp.ng < 0:
                raise SchemaError(path, "multiplicities must be nonnegative")
            if comp.nf == 0 and comp.ng == 0:
                raise SchemaError(path, "component carries no multiplicity at all")
            index[comp.id] = comp
        if not index:
            raise SchemaError("components", "at least one component is required")
        seen = set()
        for i, st in enumerate(self.strata):
            path = f"strata[{i}]"
            if not st.components:
                raise SchemaError(path + ".components", "must be nonempty")
            if len(set(st.components)) != len(st.components):
                raise SchemaError(path + ".components", "duplicate component id")
            for cid in st.components:
                if cid not in index:
                    raise SchemaError(path + ".components", f"unknown id {cid!r}")
            if st.key() in seen:
                raise SchemaError(path, "duplicate stratum")
            seen.add(st.key())
            if (st.base is None) == (st.explicit is None):
                raise SchemaError(path, "exactly one of base_class / explicit cover")
            if st.base is not None and st.base.arity != 0:
                raise SchemaError(path + ".base_class", "must have arity 0")
            if st.explicit is not None and st.explicit.arity != self.arity:
                raise SchemaError(path + ".cover", f"explicit class must have arity {self.arity}")
        if self.zero_locus_nearby is not None:
            if self.arity != 2:
                raise SchemaError("zero_locus_nearby", "only meaningful on joint data")
            if self.zero_locus_nearby.arity != 1:
                raise SchemaError("zero_locus_nearby", "must have arity 1")
        object.__setattr__(self, "_index", index)
        # C = {Ng > 0}: the zero locus, which picks the strata of every sum.
        object.__setattr__(self, "_zero_locus", frozenset(i for i, c in index.items() if c.ng > 0))

    # -- realized stratum classes ------------------------------------------

    def stratum_class(self, st: Stratum) -> MonodromicClass:
        """Realized class of the monodromy cover over one stratum.

        Split strata multiply the base class by the torus fiber class of the
        datum's multiplicity rows (Ng, preceded by Nf on joint data)
        restricted to the stratum.
        """
        if st.explicit is not None:
            return st.explicit
        comps = [self._index[cid] for cid in st.components]
        rows = [[c.ng for c in comps]]
        if self.arity == 2:
            rows.insert(0, [c.nf for c in comps])
        return embed(st.base, self.arity, ()) * torus_fiber_class(rows)


# ---------------------------------------------------------------------------
# Engine operations.
# ---------------------------------------------------------------------------


def _require_arity(datum: ResolutionDatum, arity: int, op: str):
    if datum.arity != arity:
        raise ValueError(f"{op} needs a datum with {arity} function(s), got {datum.arity}")


def zeta_series(datum: ResolutionDatum) -> RationalSeries:
    """Motivic zeta function from the resolution formula.

    Term for a nonempty stratum I: realized cover class of I times the
    product over i in I of the generator L^(-nu_i) T^(N_i) / (1 - ...).
    Returns the zero series when no component carries a g-multiplicity (the
    zeta function of the zero function).
    """
    _require_arity(datum, 1, "zeta_series")
    if not datum._zero_locus:
        return RationalSeries.zero(1)
    if len(datum._zero_locus) != len(datum.components):
        raise ValueError(
            "datum mixes zero and positive multiplicities; this formula needs a "
            "resolution of the zero locus alone (see nearby_cycles_open)"
        )
    terms = []
    for st in datum.strata:
        cls = datum.stratum_class(st)
        factors = tuple(
            (-datum.component(cid).nu, datum.component(cid).ng) for cid in st.components
        )
        terms.append((factors, cls))
    return RationalSeries(1, terms)


def _signed_stratum_sum(datum: ResolutionDatum, offset: int, keep) -> MonodromicClass:
    """Sum of (-1)^(|I| + offset) [cover of U_I] over the strata I whose
    component set passes ``keep``, merged into one term dict."""
    out: dict = {}
    for st in datum.strata:
        ids = set(st.components)
        if not keep(ids):
            continue
        sign = -1 if (len(ids) + offset) % 2 else 1
        for key, mult in datum.stratum_class(st)._terms.items():
            _merge(out, key, sign * mult)
    return MonodromicClass._trusted(datum.arity, out)


def nearby_cycles(datum: ResolutionDatum) -> MonodromicClass:
    """Nearby-cycle class: the alternating stratum sum, equal to minus the
    limit of the zeta series."""
    _require_arity(datum, 1, "nearby_cycles")
    if datum._zero_locus and len(datum._zero_locus) != len(datum.components):
        raise ValueError(
            "datum mixes zero and positive multiplicities; use nearby_cycles_open"
        )
    return nearby_cycles_open(datum)


def nearby_cycles_open(datum: ResolutionDatum) -> MonodromicClass:
    """Open-subset nearby cycles: only strata inside C = {N > 0} contribute."""
    _require_arity(datum, 1, "nearby_cycles_open")
    return _signed_stratum_sum(datum, 1, datum._zero_locus.issuperset)


def vanishing_cycles(datum: ResolutionDatum) -> MonodromicClass:
    """Vanishing-cycle class (-1)^(d-1) (nearby - 1) of a local datum.

    Locality makes the subtracted trivial-monodromy class the unit.  The
    package never computes that class over a positive-dimensional zero
    locus, so a non-local datum is refused.
    """
    _require_arity(datum, 1, "vanishing_cycles")
    if not datum.local:
        raise ValueError(
            "non-local datum: the trivial-monodromy part of its zero locus is not computed"
        )
    sign = (-1) ** (datum.dimension - 1)
    return (nearby_cycles(datum) - MonodromicClass.unit(1)) * sign


def multiplicity_ratio(datum: ResolutionDatum) -> Fraction:
    """Sup over components with Ng > 0 of Nf/Ng.

    For arity-1 data the numerator is the boundary multiplicity carried in
    the Nf field; for joint data it is the first function's multiplicity.
    The identities relating a function to its power perturbations hold for
    powers strictly above this ratio.
    """
    ratios = [Fraction(c.nf, c.ng) for c in datum.components if c.ng > 0]
    if not ratios:
        raise ValueError("no component with positive g-multiplicity: ratio undefined")
    return max(ratios)


def iterated_nearby(datum: ResolutionDatum) -> MonodromicClass:
    """Two-monodromy class of a joint datum.

    Sums (-1)^|I| times the realized cover class over the strata I meeting
    both C = {Ng > 0} and its complement.  For split strata the restricted
    exponent matrix always has rank 2 (the f-row is nonzero on I \\ C where
    the g-row vanishes, and the g-row is nonzero on I cap C); this is
    asserted structurally by the fiber-class computation.
    """
    _require_arity(datum, 2, "iterated_nearby")
    C = datum._zero_locus
    return _signed_stratum_sum(datum, 0, lambda ids: bool(ids & C) and not ids <= C)


def jet_count_zeta(exponents: Sequence[int], n_max: int) -> TruncatedPoly:
    """Zeta oracle for the monomial function prod x_i^(a_i), local at 0.

    Jets of exact coordinate orders k (all k_i >= 1) with sum a_i k_i = n
    contribute the fiber class of [a] times L^(-sum k_i) to the T^n
    coefficient; this is a direct count, independent of the resolution
    formula.
    """
    a = _int_row(exponents, "exponents")
    if not a or any(x < 1 for x in a):
        raise ValueError("exponents must be positive integers")
    fiber = torus_fiber_class([a])
    coeffs: dict[int, MonodromicClass] = {}

    def walk(idx: int, degree_left: int, depth: int):
        # Enumerate k_idx.. with remaining degree budget; collect sum k_i.
        if idx == len(a) - 1:
            if degree_left % a[idx] == 0 and degree_left >= a[idx]:
                k = degree_left // a[idx]
                yield depth + k
            return
        k = 1
        while a[idx] * k <= degree_left - sum(a[idx + 1:]):
            yield from walk(idx + 1, degree_left - a[idx] * k, depth + k)
            k += 1

    for n in range(1, n_max + 1):
        # Jets of degree n counted per value of sum k_i, then one product.
        counts = Counter(walk(0, n, 0))
        if counts:
            powers = MonodromicClass(1, [(((0,), -s, -s), c) for s, c in counts.items()])
            coeffs[n] = powers * fiber
    return TruncatedPoly(1, coeffs)


# ---------------------------------------------------------------------------
# JSON I/O.
# ---------------------------------------------------------------------------


def _json_int(value, path: str, positive: bool = False) -> int:
    """A JSON integer field, strictly: bool, float and str are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "expected integer")
    if positive and value <= 0:
        raise SchemaError(path, "must be a positive integer")
    return value


def _json_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list")
    return value


def _class_from_json(entries, arity: int, path: str) -> MonodromicClass:
    """A class of the given arity from its JSON list of monomials: ``arity``
    [num, den] eigenvalue pairs, then p, q, mult (``[p, q, mult]`` at arity
    0).  The validated int pairs go to the constructor as they are."""
    shape = f"{arity} [num,den] pairs then p, q, mult" if arity else "[p, q, mult]"
    terms = []
    for i, entry in enumerate(_json_list(entries, path)):
        at = f"{path}[{i}]"
        if not (isinstance(entry, list) and len(entry) == arity + 3):
            raise SchemaError(at, f"expected {shape}")
        evs = []
        for j, pair in enumerate(entry[:arity]):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"{at}[{j}]", "expected [num, den]")
            num = _json_int(pair[0], f"{at}[{j}][0]")
            evs.append((num, _json_int(pair[1], f"{at}[{j}][1]", positive=True)))
        p, q, mult = (_json_int(entry[k], f"{at}[{k}]") for k in range(arity, arity + 3))
        terms.append(((tuple(evs), p, q), mult))
    return MonodromicClass(arity, terms)


def datum_from_dict(data: dict) -> ResolutionDatum:
    if not isinstance(data, dict):
        raise SchemaError("$", "datum must be a JSON object")

    def need(key, typ, path="$"):
        if key not in data:
            raise SchemaError(f"{path}.{key}", "missing required field")
        value = data[key]
        if typ is int and isinstance(value, bool) or not isinstance(value, typ):
            raise SchemaError(f"{path}.{key}", f"expected {typ.__name__}")
        return value

    dimension = need("dimension", int)
    local = need("local", bool)
    functions = tuple(need("functions", list))
    arity = len(functions)
    comps = []
    for i, raw in enumerate(need("components", list)):
        path = f"components[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(path, "expected object")
        if "id" not in raw or not isinstance(raw["id"], str):
            raise SchemaError(path + ".id", "expected string")
        for fieldname in ("Nf", "Ng", "nu"):
            if fieldname in raw:
                _json_int(raw[fieldname], f"{path}.{fieldname}")
        if "nu" not in raw:
            raise SchemaError(path + ".nu", "missing required field")
        if "Ng" not in raw:
            raise SchemaError(path + ".Ng", "missing required field")
        comps.append(
            Component(raw["id"], raw.get("Nf", 0), raw["Ng"], raw["nu"])
        )
    strata = []
    for i, raw in enumerate(need("strata", list)):
        path = f"strata[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(path, "expected object")
        if "components" not in raw or not isinstance(raw["components"], list):
            raise SchemaError(path + ".components", "expected list of component ids")
        for j, cid in enumerate(raw["components"]):
            if not isinstance(cid, str):
                raise SchemaError(f"{path}.components[{j}]", "expected string")
        cover = raw.get("cover", "split")
        base = None
        explicit = None
        if cover == "split":
            if "base_class" not in raw:
                raise SchemaError(path + ".base_class", "required for split covers")
            base = _class_from_json(raw["base_class"], 0, path + ".base_class")
        elif isinstance(cover, dict) and set(cover) == {"explicit"}:
            if "base_class" in raw:
                raise SchemaError(
                    path + ".base_class",
                    "explicit covers carry the total class; base_class must be omitted",
                )
            explicit = _class_from_json(cover["explicit"], arity, path + ".cover.explicit")
        else:
            raise SchemaError(path + ".cover", 'expected "split" or {"explicit": [...]}')
        strata.append(Stratum(tuple(raw["components"]), base=base, explicit=explicit))
    zl = None
    if "zero_locus_nearby" in data:
        zl = _class_from_json(data["zero_locus_nearby"], 1, "zero_locus_nearby")
    return ResolutionDatum(dimension, local, functions, tuple(comps), tuple(strata), zl)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(path, f"malformed JSON: {exc}") from exc


def load_datum(path: str) -> ResolutionDatum:
    return datum_from_dict(_read_json(path))


def load_class(path: str) -> MonodromicClass:
    """An arity-1 class file: a JSON list of ``[[num, den], p, q, mult]``
    monomials; errors name the file and the field path inside it."""
    return _class_from_json(_read_json(path), 1, path)


def _class_to_json(cls: MonodromicClass) -> list:
    """Inverse of ``_class_from_json``, written from the stored key pairs."""
    return [[*map(list, evs), p, q, mult] for (evs, p, q), mult in cls._sorted()]


def datum_to_dict(datum: ResolutionDatum) -> dict:
    data = {
        "dimension": datum.dimension,
        "local": datum.local,
        "functions": list(datum.functions),
        "components": [
            {"id": c.id, **({"Nf": c.nf} if c.nf else {}), "Ng": c.ng, "nu": c.nu}
            for c in datum.components
        ],
        "strata": [],
    }
    for st in datum.strata:
        entry = {"components": list(st.components)}
        if st.explicit is not None:
            entry["cover"] = {"explicit": _class_to_json(st.explicit)}
        else:
            entry["base_class"] = _class_to_json(st.base)
            entry["cover"] = "split"
        data["strata"].append(entry)
    if datum.zero_locus_nearby is not None:
        data["zero_locus_nearby"] = _class_to_json(datum.zero_locus_nearby)
    return data
