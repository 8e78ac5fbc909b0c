import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hodgespec.cli import main
from hodgespec.monclass import MonodromicClass as MC, box, embed, torus_fiber_class
from hodgespec.resolution import (
    Component,
    ResolutionDatum,
    SchemaError,
    Stratum,
    datum_from_dict,
    datum_to_dict,
    iterated_nearby,
    jet_count_zeta,
    load_datum,
    multiplicity_ratio,
    nearby_cycles,
    nearby_cycles_open,
    vanishing_cycles,
    zeta_series,
)
from hodgespec.series import RationalSeries as RS
from hodgespec.workbench import (
    FIXTURE_DIR,
    fixture_datum,
    monomial_datum,
    product_joint_datum,
)

mono = MC.monomial
unit0 = MC(0, [(((), 0, 0), 1)])


def test_zeta_power_structure():
    datum = monomial_datum((3,))
    expect = RS(1, [(((-1, 3),), torus_fiber_class([[3]]))])
    assert zeta_series(datum) == expect


def test_zeta_zero_function():
    comps = (Component("f_only", 1, 0, 1),)
    datum = ResolutionDatum(1, True, ("g",), comps, (Stratum(("f_only",), base=unit0),))
    assert zeta_series(datum) == RS.zero(1)
    assert nearby_cycles(datum) == MC.zero(1)


def test_zeta_rejects_mixed_multiplicities():
    comps = (Component("a", 0, 1, 1), Component("b", 1, 0, 1))
    datum = ResolutionDatum(
        1, True, ("g",), comps, (Stratum(("a",), base=unit0),)
    )
    with pytest.raises(ValueError):
        zeta_series(datum)
    with pytest.raises(ValueError):
        nearby_cycles(datum)


def test_zeta_expansion_matches_jet_count():
    # Exhaustive over every monomial datum with d <= 3 and exponents <= 4.
    import itertools

    for d in (1, 2, 3):
        for exps in itertools.product(range(1, 5), repeat=d):
            datum = monomial_datum(exps)
            assert zeta_series(datum).expand(20) == jet_count_zeta(exps, 20)


def test_jet_count_examples():
    poly = jet_count_zeta((2,), 6)
    fiber = torus_fiber_class([[2]])
    assert poly.coefficient(2) == fiber * MC.lefschetz(1, -1)
    assert poly.coefficient(3) == MC.zero(1)
    assert poly.coefficient(4) == fiber * MC.lefschetz(1, -2)
    both = jet_count_zeta((1, 1), 4)
    lm1 = MC.lefschetz(1) - MC.unit(1)
    assert both.coefficient(2) == lm1 * MC.lefschetz(1, -2)


def test_jet_count_refuses_oversized_degrees_up_front():
    # Jets in four variables grow like n^4; 160 is refused before the scan starts.
    with pytest.raises(ValueError, match="MAX_EXPAND_TERMS"):
        jet_count_zeta((1, 1, 1, 1), 160)
    # Seven exponents exceed the dimension bound of the cone the jets are counted in.
    with pytest.raises(ValueError, match="dimension"):
        jet_count_zeta((1,) * 7, 5)
    assert jet_count_zeta((1, 1, 1, 1), 40) == zeta_series(monomial_datum((1, 1, 1, 1))).expand(40)


def test_split_stratum_class_is_base_times_fiber():
    # The fiber's bidegrees shifted by each base term equal the product with
    # the base embedded at trivial eigenvalues, for bases with p != q too.
    bases = [
        MC(0, [(((), 1, 0), 1)]),
        MC(0, [(((), 0, 2), -3), (((), 1, 1), 2)]),
        MC(0, [(((), 2, 1), 1), (((), 1, 2), 1), (((), 0, 0), -1)]),
    ]
    comps = (Component("a", 2, 4, 1), Component("b", 0, 6, 2))
    for base in bases:
        for functions in (("g",), ("f", "g")):
            datum = ResolutionDatum(2, True, functions, comps, (Stratum(("a", "b"), base=base),))
            (st,) = datum.strata
            fiber = torus_fiber_class(datum.multiplicity_rows(st))
            got = datum.stratum_class(st)
            assert got == embed(base, len(functions), ()) * fiber, (base, functions)
            assert got.den == fiber.den


def test_nearby_is_minus_zeta_limit():
    for exps in ((2,), (4,), (2, 3)):
        datum = monomial_datum(exps)
        assert nearby_cycles(datum) == zeta_series(datum).limit() * (-1)


def test_nearby_examples():
    assert nearby_cycles(monomial_datum((3,))) == torus_fiber_class([[3]])
    assert nearby_cycles(monomial_datum((1,))) == MC.unit(1)


def test_nearby_open_restricts_to_zero_locus():
    # Boundary component (Ng = 0) present: only strata inside C count.
    comps = (Component("c", 0, 2, 1), Component("f", 3, 0, 1))
    strata = (
        Stratum(("c",), base=unit0),
        Stratum(("c", "f"), base=unit0),
    )
    datum = ResolutionDatum(2, True, ("g",), comps, strata)
    assert nearby_cycles_open(datum) == torus_fiber_class([[2]])
    # With no boundary components the open variant equals the plain one.
    plain = monomial_datum((2, 3))
    assert nearby_cycles_open(plain) == nearby_cycles(plain)
    # The plain variant refuses the mixed datum instead of dropping strata.
    with pytest.raises(ValueError, match="mixes zero and positive multiplicities; use nearby_cycles_open"):
        nearby_cycles(datum)


def test_vanishing_examples():
    for a in (2, 5):
        got = vanishing_cycles(monomial_datum((a,)))
        assert got == MC(1, [(((F(k, a),), 0, 0), 1) for k in range(1, a)])
    assert vanishing_cycles(monomial_datum((1,))) == MC.zero(1)


def test_vanishing_requires_local():
    datum = monomial_datum((2,))
    nonlocal_datum = ResolutionDatum(
        datum.dimension, False, datum.functions, datum.components, datum.strata
    )
    with pytest.raises(ValueError):
        vanishing_cycles(nonlocal_datum)


def test_multiplicity_ratio():
    comps = (Component("a", 3, 1, 1), Component("b", 1, 1, 1))
    datum = ResolutionDatum(2, True, ("f", "g"), comps, (Stratum(("a", "b"), base=unit0),))
    assert multiplicity_ratio(datum) == 3
    assert multiplicity_ratio(product_joint_datum(2, 3)) == 0
    only_f = ResolutionDatum(
        1, True, ("g",), (Component("a", 2, 0, 1),), (Stratum(("a",), base=unit0),)
    )
    with pytest.raises(ValueError):
        multiplicity_ratio(only_f)


def test_iterated_transverse_pair():
    comps = (Component("cx", 1, 0, 1), Component("cy", 0, 1, 1))
    datum = ResolutionDatum(2, True, ("f", "g"), comps, (Stratum(("cx", "cy"), base=unit0),))
    assert iterated_nearby(datum) == MC.unit(2)


def test_iterated_x2y_y():
    got = iterated_nearby(fixture_datum("x2y_y_joint"))
    assert got == mono(2, (0, 0), 0, 0) + mono(2, (F(1, 2), F(1, 2)), 0, 0)


def test_iterated_no_qualifying_stratum():
    # C empty: nothing qualifies.  Components must still carry some
    # multiplicity, so give them f-multiplicities only.
    comps = (Component("a", 2, 0, 1), Component("b", 1, 0, 1))
    datum = ResolutionDatum(2, True, ("f", "g"), comps, (Stratum(("a", "b"), base=unit0),))
    assert iterated_nearby(datum) == MC.zero(2)


def test_iterated_skips_strata_on_one_side():
    # Only strata meeting both C = {Ng > 0} and its complement count; the
    # curve strata inside and outside C carry classes that would show.
    comps = (Component("cx", 1, 0, 1), Component("cy", 0, 1, 1))
    strata = (
        Stratum(("cx",), explicit=mono(2, (0, 0), 1, 1)),
        Stratum(("cy",), explicit=mono(2, (0, F(1, 2)), 1, 1)),
        Stratum(("cx", "cy"), base=unit0),
    )
    datum = ResolutionDatum(2, True, ("f", "g"), comps, strata)
    assert iterated_nearby(datum) == MC.unit(2)


def test_iterated_product_type_is_box():
    for a, b in ((2, 3), (4, 2)):
        joint = product_joint_datum(a, b)
        expect = box(
            nearby_cycles(monomial_datum((a,))), nearby_cycles(monomial_datum((b,)))
        )
        assert iterated_nearby(joint) == expect


def test_schema_roundtrip():
    for datum in (
        monomial_datum((3,)),
        fixture_datum("x2y"),
        fixture_datum("x2y_y_joint"),
        product_joint_datum(2, 3),
    ):
        again = datum_from_dict(json.loads(json.dumps(datum_to_dict(datum))))
        assert again == datum


def test_schema_errors():
    good = datum_to_dict(monomial_datum((2,)))

    bad = json.loads(json.dumps(good))
    del bad["components"][0]["nu"]
    with pytest.raises(SchemaError, match=r"components\[0\].nu"):
        datum_from_dict(bad)

    bad = json.loads(json.dumps(good))
    bad["strata"][0]["components"] = ["missing"]
    with pytest.raises(SchemaError, match="unknown id"):
        datum_from_dict(bad)

    bad = json.loads(json.dumps(good))
    bad["functions"] = ["h"]
    with pytest.raises(SchemaError, match="functions"):
        datum_from_dict(bad)

    bad = json.loads(json.dumps(good))
    del bad["strata"][0]["base_class"]
    bad["strata"][0]["cover"] = {"explicit": [[[1, 2], 0, 0]]}  # missing mult
    with pytest.raises(SchemaError, match=r"cover.explicit"):
        datum_from_dict(bad)

    bad = json.loads(json.dumps(good))
    bad["strata"][0]["cover"] = {"explicit": [[[1, 2], 0, 0, 1]]}
    with pytest.raises(SchemaError, match="base_class"):
        datum_from_dict(bad)  # base_class together with explicit cover

    bad = json.loads(json.dumps(good))
    bad["components"][0]["nu"] = 0
    with pytest.raises(SchemaError, match="nu"):
        datum_from_dict(bad)


@pytest.mark.parametrize(
    "field, bad",
    [("dimension", "2"), ("local", 1), ("functions", "g"), ("components", {}), ("strata", 5)],
)
def test_top_level_fields_have_one_path(field, bad):
    # A missing field and a bad value name the same path, as the
    # constructor does; only a non-object datum is "$".
    good = datum_to_dict(monomial_datum((2,)))
    paths = []
    for mutate in (lambda d: d.pop(field), lambda d: d.__setitem__(field, bad)):
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(SchemaError) as info:
            datum_from_dict(data)
        paths.append(info.value.path)
    assert paths == [field, field]
    with pytest.raises(SchemaError) as info:
        datum_from_dict([good])
    assert info.value.path == "$"


def test_load_datum_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 1,', encoding="utf-8")
    with pytest.raises(SchemaError, match="malformed JSON"):
        load_datum(str(path))


def test_explicit_cover_arity_checked():
    comps = (Component("a", 0, 2, 1),)
    with pytest.raises(SchemaError, match="arity"):
        ResolutionDatum(
            1, True, ("g",), comps, (Stratum(("a",), explicit=MC.unit(2)),)
        )


_SHIPPED = {
    name: json.loads((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    for name in ("cusp", "d_curve_N4", "x2y_y_joint")
}
_DELETE = object()
_OTHER_VALUES = st.one_of(
    st.just(_DELETE),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=3),
    st.lists(st.integers(-2, 6), max_size=3),
    st.just({}),
    st.just("split"),
)


def _field_paths(node, prefix=()):
    """The key path of every field below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _cli(argv) -> tuple:
    """(exit code, stderr) of one ``hodgespec`` run in this process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _cli_runs(name, path) -> list:
    """The subcommands that read a datum like ``name`` from ``path``."""
    if name == "x2y_y_joint":
        f, fg = (str(FIXTURE_DIR / f"{n}.json") for n in ("x2y", "d_curve_N3"))
        return [["iterated", "--joint", path],
                ["steenbrink", "--f", f, "--fg", fg, "--joint", path, "--N", "3"]]
    return [["spectrum", "--datum", path], ["zeta", "--datum", path, "--truncate", "8"]]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(_SHIPPED)), st.data())
def test_one_mutated_field_loads_or_names_its_path(name, data):
    # One field of a shipped datum is replaced or deleted: loading either
    # succeeds or raises SchemaError with a field path, and the engine
    # raises nothing but ValueError on what loads.  Written to a file, the
    # mutated datum goes through the CLI too: every run exits 0, 1 or 2,
    # no exception escapes, and a datum that fails to load exits 2 with
    # the loader's `error: <file>: <field path>: ...` line.
    mutated = copy.deepcopy(_SHIPPED[name])
    path = data.draw(st.sampled_from(list(_field_paths(mutated))))
    # Half the draws are integers, which most fields hold, so that a fair
    # share of the mutated data loads and reaches the engine.
    value = data.draw(st.integers(-3, 40) if data.draw(st.booleans()) else _OTHER_VALUES)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    refusal = None
    try:
        datum = datum_from_dict(mutated)
    except SchemaError as exc:
        assert exc.path
        refusal = exc
    else:
        for op in (nearby_cycles, lambda d: zeta_series(d).expand(8), iterated_nearby):
            try:
                op(datum)
            except ValueError:
                pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(mutated), encoding="utf-8")
        for argv in _cli_runs(name, str(path)):
            code, err = _cli(argv)
            assert code in (0, 1, 2), argv
            if refusal is not None:
                assert (code, err) == (2, f"error: {path}: {refusal}\n"), argv
            elif code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


_SCALARS = st.one_of(
    st.integers(-3, 12),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.fractions(max_denominator=3),
    st.text(max_size=2),
    st.none(),
)
_GOOD = {
    "dimension": st.integers(1, 3),
    "local": st.booleans(),
    "id": st.sampled_from("ab"),
    "Nf": st.integers(0, 3),
    "Ng": st.integers(0, 8),
    "nu": st.integers(1, 3),
}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 2), st.data())
def test_python_built_datum_checks_its_own_values(ncomp, data):
    # A datum built in Python with up to two scalar fields drawn from ints,
    # bools, floats, Fractions, strings and None: the constructor builds or
    # raises SchemaError with a path, what it builds holds only strict
    # values, and the engine raises nothing but ValueError on it.
    fields = [("dimension", 0), ("local", 0)]
    fields += [(key, i) for i in range(ncomp) for key in ("id", "Nf", "Ng", "nu")]
    wild = data.draw(st.sets(st.sampled_from(fields), max_size=2))
    value = {field: data.draw(_SCALARS if field in wild else _GOOD[field[0]]) for field in fields}
    comps = tuple(
        Component(*(value[key, i] for key in ("id", "Nf", "Ng", "nu"))) for i in range(ncomp)
    )
    stratum = Stratum(tuple(c.id for c in comps), base=unit0)
    try:
        datum = ResolutionDatum(value["dimension", 0], value["local", 0], ("g",), comps, (stratum,))
    except SchemaError as exc:
        assert exc.path
        return
    assert type(datum.dimension) is int and type(datum.local) is bool
    assert all(type(x) is int for c in datum.components for x in (c.nf, c.ng, c.nu))
    for op in (nearby_cycles, lambda d: zeta_series(d).expand(6), vanishing_cycles):
        try:
            op(datum)
        except ValueError:
            pass


def test_python_built_datum_names_its_bad_field():
    # Each used to be accepted (True as dimension 1) or to fail later in
    # the engine with a TypeError (1.5 in a complex power, 2.0 in a torus
    # fiber).
    strata = (Stratum(("x",), base=unit0),)
    comps = (Component("x", 0, 2, 1),)
    for dimension in (1.5, True):
        with pytest.raises(SchemaError, match=rf"^dimension: {dimension!r} is not an integer$"):
            ResolutionDatum(dimension, True, ("g",), comps, strata)
    with pytest.raises(SchemaError, match=r"^components\[0\]\.Ng: 2\.0 is not an integer$"):
        ResolutionDatum(1, True, ("g",), (Component("x", 0, 2.0, 1),), strata)
    # A negative multiplicity names its own field, not the whole component.
    with pytest.raises(SchemaError, match=r"^components\[0\]\.Nf: -1 is less than 0$"):
        ResolutionDatum(1, True, ("g",), (Component("x", -1, 2, 1),), strata)
    # A non-string id is worded like a non-string stratum id.
    with pytest.raises(SchemaError, match=r"^components\[0\]\.id: expected str, got int$"):
        ResolutionDatum(1, True, ("g",), (Component(5, 0, 1, 1),), strata)


def test_python_built_datum_checks_its_containers():
    # Each used to fail with a TypeError or AttributeError from inside the
    # constructor ('int' object is not iterable, no attribute 'id').
    strata = (Stratum(("x",), base=unit0),)
    comps = (Component("x", 0, 2, 1),)
    cases = [
        ((5, comps, strata), "functions"),
        (("g", comps, strata), "functions"),
        (((1,), comps, strata), "functions[0]"),
        ((("g",), 3, strata), "components"),
        ((("g",), ("x",), strata), "components[0]"),
        ((("g",), comps + (None,), strata), "components[1]"),
        ((("g",), comps, None), "strata"),
        ((("g",), comps, strata + (comps[0],)), "strata[1]"),
        # The fields of each stratum and the zero-locus class are checked too.
        ((("g",), comps, (Stratum(5, base=unit0),)), "strata[0].components"),
        ((("g",), comps, (Stratum("x", base=unit0),)), "strata[0].components"),
        ((("g",), comps, (Stratum((5,), base=unit0),)), "strata[0].components[0]"),
        ((("g",), comps, (Stratum(("x",), base=5),)), "strata[0].base_class"),
        ((("g",), comps, (Stratum(("x",), explicit=5),)), "strata[0].cover"),
        ((("g",), comps, (Stratum(("x",), explicit=unit0),)), "strata[0].cover"),
        ((("f", "g"), comps, strata, 5), "zero_locus_nearby"),
        ((("f", "g"), comps, strata, unit0), "zero_locus_nearby"),
    ]
    for args, path in cases:
        with pytest.raises(SchemaError) as info:
            ResolutionDatum(1, True, *args)
        assert info.value.path == path
    # Any iterable of the right members is taken, and stored as a tuple.
    datum = ResolutionDatum(1, True, ["g"], list(comps), iter(strata))
    assert datum.functions == ("g",) and datum.strata == strata
    for ids in (["x"], iter(["x"])):
        datum = ResolutionDatum(1, True, ("g",), comps, (Stratum(ids, base=unit0),))
        assert datum.strata == strata
