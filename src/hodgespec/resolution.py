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
                        by direct jet counting: the jets are the lattice
                        points that ``cones.lattice_series`` scans.

JSON schema (UTF-8, exact field names)::

    {"dimension": int, "local": bool, "functions": ["f","g"] or ["g"],
     "components": [{"id": str, "Nf": int, "Ng": int, "nu": int}, ...],
     "strata": [{"components": [str, ...],
                 "base_class": [[p, q, mult], ...],
                 "cover": "split" | {"explicit": [[[num,den], ..., p, q, mult], ...]}},
                ...],
     "zero_locus_nearby": [[[num,den], p, q, mult], ...]}   # optional

Every number is an integer under the package's one integer rule
(``lattice._strict_int``): true/false, 1.5 and "1" are rejected, an integral
Fraction in data built in Python becomes its int, and a bound is checked
with it (``dimension``, ``nu`` and every ``den`` at least 1, ``Nf`` and
``Ng`` at least 0), so an error reads ``<path>: <value> is not an integer``
or ``<path>: <value> is less than <minimum>``.  The value rules are the
``ResolutionDatum`` constructor's (``datum_from_dict`` reads only the JSON
shape and names top-level fields as the constructor does), so data built in
Python obeys them too, under the same field paths; the loaders put the file
in front (``<file>: components[0].Ng: -1 is less than 0``).  ``Nf``
defaults to 0.
For arity-1 data the ``Nf`` field carries the boundary multiplicities read
by ``multiplicity_ratio`` alone: ``nearby_cycles_open`` picks its strata
from the zero locus {Ng > 0} and never reads ``Nf``.  Explicit cover
entries list the eigenvalue fractions (one [num, den] pair per function)
followed by p, q, mult.  The optional ``zero_locus_nearby`` (joint data
only) is the arity-1 class, in the second monodromy slot, of the nearby
cycles of g on the zero locus of f over the base point; it feeds the
vanishing-cycle correction in the workbench.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .cones import Cone, lattice_series
from .lattice import SchemaError, _int_row, _named, _strict_int
from .monclass import MonodromicClass, _times_base, torus_fiber_class
from .series import MAX_EXPAND_TERMS, RationalSeries, TruncatedPoly, _points_bound
from .spectra import _merge


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


def _members(value, path: str, kind) -> tuple:
    """value as a tuple of kind instances; a SchemaError names path when it
    is a string or not iterable, and path[i] for a member of another type."""
    if isinstance(value, str):
        raise SchemaError(path, "expected a sequence, not a string")
    try:
        items = tuple(value)
    except TypeError:
        raise SchemaError(path, f"expected a sequence, got {type(value).__name__}") from None
    for i, item in enumerate(items):
        if not isinstance(item, kind):
            raise SchemaError(f"{path}[{i}]", f"expected {kind.__name__}, got {type(item).__name__}")
    return items


def _check_class(value, path: str, arity: int) -> None:
    """A SchemaError names path unless value is a MonodromicClass of the
    given arity."""
    if not isinstance(value, MonodromicClass):
        raise SchemaError(path, f"expected MonodromicClass, got {type(value).__name__}")
    if value.arity != arity:
        raise SchemaError(path, f"must have arity {arity}")


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
        object.__setattr__(self, "dimension", _strict_int(self.dimension, "dimension", 1))
        if not isinstance(self.local, bool):
            raise SchemaError("local", "expected bool")
        functions = _members(self.functions, "functions", str)
        if functions not in (("g",), ("f", "g")):
            raise SchemaError("functions", 'must be ["g"] or ["f","g"]')
        object.__setattr__(self, "functions", functions)
        index = {}
        for i, comp in enumerate(_members(self.components, "components", Component)):
            path = f"components[{i}]"
            if not isinstance(comp.id, str):
                raise SchemaError(path + ".id", f"expected str, got {type(comp.id).__name__}")
            if comp.id in index:
                raise SchemaError(path + ".id", f"duplicate id {comp.id!r}")
            comp = Component(
                comp.id,
                _strict_int(comp.nf, path + ".Nf", 0),
                _strict_int(comp.ng, path + ".Ng", 0),
                _strict_int(comp.nu, path + ".nu", 1),
            )
            if comp.nf == 0 and comp.ng == 0:
                raise SchemaError(path, "component carries no multiplicity at all")
            index[comp.id] = comp
        object.__setattr__(self, "components", tuple(index.values()))
        if not index:
            raise SchemaError("components", "at least one component is required")
        strata = []
        seen = set()
        for i, st in enumerate(_members(self.strata, "strata", Stratum)):
            path = f"strata[{i}]"
            components = _members(st.components, f"{path}.components", str)
            if components is not st.components:  # not a tuple: store the tuple
                st = Stratum(components, st.base, st.explicit)
            if not components:
                raise SchemaError(path + ".components", "must be nonempty")
            if len(set(components)) != len(components):
                raise SchemaError(path + ".components", "duplicate component id")
            for cid in components:
                if cid not in index:
                    raise SchemaError(path + ".components", f"unknown id {cid!r}")
            if st.key() in seen:
                raise SchemaError(path, "duplicate stratum")
            seen.add(st.key())
            if (st.base is None) == (st.explicit is None):
                raise SchemaError(path, "exactly one of base_class / explicit cover")
            if st.base is not None:
                _check_class(st.base, path + ".base_class", 0)
            if st.explicit is not None:
                _check_class(st.explicit, path + ".cover", self.arity)
            strata.append(st)
        object.__setattr__(self, "strata", tuple(strata))
        if self.zero_locus_nearby is not None:
            if self.arity != 2:
                raise SchemaError("zero_locus_nearby", "only meaningful on joint data")
            _check_class(self.zero_locus_nearby, "zero_locus_nearby", 1)
        object.__setattr__(self, "_index", index)
        # C = {Ng > 0}: the zero locus, which picks the strata of every sum.
        object.__setattr__(self, "_zero_locus", frozenset(i for i, c in index.items() if c.ng > 0))

    # -- realized stratum classes ------------------------------------------

    def multiplicity_rows(self, st: Stratum) -> list:
        """The multiplicity rows restricted to one stratum: Ng, preceded by
        Nf on joint data."""
        comps = [self._index[cid] for cid in st.components]
        rows = [[c.ng for c in comps]]
        if self.arity == 2:
            rows.insert(0, [c.nf for c in comps])
        return rows

    def stratum_class(self, st: Stratum) -> MonodromicClass:
        """Realized class of the monodromy cover over one stratum.

        Split strata multiply the base class by the torus fiber class of the
        stratum's ``multiplicity_rows`` (``_times_base``).
        """
        if st.explicit is not None:
            return st.explicit
        return _times_base(torus_fiber_class(self.multiplicity_rows(st)), st.base)


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
    component set passes ``keep``, merged into one term dict over the lcm
    of their denominators."""
    signed = [
        (-1 if (len(st.components) + offset) % 2 else 1, datum.stratum_class(st))
        for st in datum.strata if keep(set(st.components))
    ]
    den = lcm(*[x.den for _sign, x in signed])
    out: dict = {}
    for sign, x in signed:
        for key, mult in x._over(den).items():
            _merge(out, key, sign * mult)
    return MonodromicClass._trusted(datum.arity, *MonodromicClass._lowest(out, den))


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
    coefficient.  Those k are the lattice points of the open orthant that
    ``cones.lattice_series`` counts, so the oracle shares no code with the
    resolution formula or with ``RationalSeries.expand``.  Each degree is
    the fiber's terms with their bidegrees shifted by each L-power of the
    count class, times its count (``_times_base``).  A degree whose
    ``_points_bound`` exceeds ``MAX_EXPAND_TERMS`` raises ``ValueError``
    before any jet is counted, and so do more than 6 exponents (the
    dimension bound of ``Cone``).
    """
    a = _int_row(exponents, "exponents", 1)
    if not a:
        raise ValueError("need at least one exponent")
    n_max = _strict_int(n_max, "n_max", 0)
    size = _points_bound([(-1, x) for x in a], n_max)
    if size > MAX_EXPAND_TERMS:
        raise ValueError(
            f"jet count through degree {n_max} may visit {size} jets, "
            f"more than MAX_EXPAND_TERMS = {MAX_EXPAND_TERMS}"
        )
    fiber = torus_fiber_class([a])
    counts = lattice_series(Cone(len(a)), a, (1,) * len(a), n_max)
    return TruncatedPoly._trusted(1, {n: _times_base(fiber, c) for n, c in counts._terms.items()})


# ---------------------------------------------------------------------------
# JSON I/O.
# ---------------------------------------------------------------------------


def _json_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list")
    return value


def _class_from_json(entries, arity: int, path: str) -> MonodromicClass:
    """A class of the given arity from its JSON list of monomials: ``arity``
    [num, den] eigenvalue pairs, then p, q, mult (``[p, q, mult]`` at arity
    0).  An entry of plain ints with every den at least 1 is taken as it
    is; only any other entry is checked field by field (``_checked_entry``),
    which builds the field paths its errors name.  Every eigenvalue then
    goes over the lcm L of all the class's dens as the residue
    n * (L // d) mod L, like keys merge, and one ``_lowest`` makes L least:
    the canonical keys the constructor would build, with no ``_key`` call
    per term."""
    rows = []
    for i, entry in enumerate(_json_list(entries, path)):
        if not (
            type(entry) is list and len(entry) == arity + 3
            and all([type(x) is int for x in entry[arity:]])
            and all([type(pair) is list and len(pair) == 2 and type(pair[0]) is int
                     and type(pair[1]) is int and pair[1] >= 1 for pair in entry[:arity]])
        ):
            entry = _checked_entry(entry, arity, f"{path}[{i}]")
        rows.append(entry)
    den = lcm(*[d for entry in rows for _n, d in entry[:arity]])
    terms: dict = {}
    for entry in rows:
        p, q, mult = entry[arity:]
        _merge(terms, (tuple([n * (den // d) % den for n, d in entry[:arity]]), p, q), mult)
    return MonodromicClass._trusted(arity, *MonodromicClass._lowest(terms, den))


def _checked_entry(entry, arity: int, at: str) -> list:
    """One class entry, every field checked under the integer rule: its
    ints, or a SchemaError naming the field at ``at``."""
    if not (isinstance(entry, list) and len(entry) == arity + 3):
        shape = f"{arity} [num,den] pairs then p, q, mult" if arity else "[p, q, mult]"
        raise SchemaError(at, f"expected {shape}")
    evs = []
    for j, pair in enumerate(entry[:arity]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{at}[{j}]", "expected [num, den]")
        num = _strict_int(pair[0], f"{at}[{j}][0]")
        evs.append((num, _strict_int(pair[1], f"{at}[{j}][1]", 1)))
    return [*evs, *(_strict_int(entry[k], f"{at}[{k}]") for k in range(arity, arity + 3))]


def _require_fields(obj: dict, keys, prefix: str):
    for key in keys:
        if key not in obj:
            raise SchemaError(prefix + key, "missing required field")


def datum_from_dict(data: dict) -> ResolutionDatum:
    """A datum from its JSON object; only the JSON shape is read here."""
    if not isinstance(data, dict):
        raise SchemaError("$", "datum must be a JSON object")
    _require_fields(data, ("dimension", "local", "functions", "components", "strata"), "")
    for key in ("functions", "components", "strata"):
        _json_list(data[key], key)
    functions = tuple(data["functions"])
    comps = []
    for i, raw in enumerate(data["components"]):
        path = f"components[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(path, "expected object")
        _require_fields(raw, ("id", "Ng", "nu"), path + ".")
        comps.append(Component(raw["id"], raw.get("Nf", 0), raw["Ng"], raw["nu"]))
    strata = []
    for i, raw in enumerate(data["strata"]):
        path = f"strata[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(path, "expected object")
        if not isinstance(raw.get("components"), list):
            raise SchemaError(path + ".components", "expected list of component ids")
        cover = raw.get("cover", "split")
        base = explicit = None
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
            explicit = _class_from_json(cover["explicit"], len(functions), path + ".cover.explicit")
        else:
            raise SchemaError(path + ".cover", 'expected "split" or {"explicit": [...]}')
        strata.append(Stratum(tuple(raw["components"]), base=base, explicit=explicit))
    zl = None
    if "zero_locus_nearby" in data:
        zl = _class_from_json(data["zero_locus_nearby"], 1, "zero_locus_nearby")
    return ResolutionDatum(
        data["dimension"], data["local"], functions, tuple(comps), tuple(strata), zl
    )


def _read_json(path: str):
    """The JSON value in a file; text that is not JSON, bytes that are not
    UTF-8, an integer past the interpreter's digit limit and nesting too
    deep to decode all raise a ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"malformed JSON: {exc}") from exc


def load_datum(path: str) -> ResolutionDatum:
    """A datum file; an error names the file, then any field path inside it
    (``<file>: components[0].Ng: -1 is less than 0``)."""
    return _named(path, lambda: datum_from_dict(_read_json(path)))


def load_class(path: str) -> MonodromicClass:
    """An arity-1 class file: a JSON list of ``[[num, den], p, q, mult]``
    monomials; errors read ``<file>: [0][0][1]: 0 is less than 1``."""
    return _named(path, lambda: _class_from_json(_read_json(path), 1, ""))


def _class_to_json(cls: MonodromicClass) -> list:
    """Inverse of ``_class_from_json``, from ``terms()``."""
    return [[*([e.numerator, e.denominator] for e in evs), p, q, mult]
            for (evs, p, q), mult in cls.terms()]


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
