"""Every malformed input named below is refused with a ValueError whose
text names the row, argument or field at fault; none returns an answer or
escapes as an IndexError, TypeError or AttributeError."""

import dataclasses
import json
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from hodgespec.cones import (
    Cone,
    extreme_rays,
    extremum,
    feasible,
    form_positive_on_closure,
    kernel_cone,
    lattice_series,
    series_limit,
    stays_bounded,
)
from hodgespec.cli import main
from hodgespec.convolution import collapse_pair, collapse_triple, power_pushforward
from hodgespec.lattice import (
    SchemaError,
    elementary_divisors,
    integer_kernel_basis,
    rational_rank,
    rational_solve,
)
from hodgespec.monclass import (
    MonodromicClass as MC,
    embed,
    hodge_spectrum,
    hodge_spectrum2,
    torus_fiber_class,
)
from hodgespec.oracles import (
    collapse_pair_bruteforce,
    p1_cover_class,
    root_of_unity_class,
    torus_fiber_bruteforce,
)
from hodgespec.resolution import (
    Component,
    ResolutionDatum,
    Stratum,
    datum_from_dict,
    jet_count_zeta,
    load_datum,
)
from hodgespec.series import TruncatedPoly
from hodgespec.spectra import Spectrum
from hodgespec.workbench import Fixture, fixture_datum, rederive, steenbrink_check

x = MC(2, [(((F(1, 2), F(1, 3)), 0, 0), 1)])  # arity 2
y = MC(1, [(((F(1, 2),), 0, 0), 1)])  # arity 1
unit0 = MC.unit(0)
comp = Component("a", 0, 2, 1)


def _datum(components=(comp,), strata=None, zero_locus_nearby=None):
    if strata is None:
        strata = (Stratum(("a",), base=unit0),)
    return ResolutionDatum(1, True, ("g",), components, strata, zero_locus_nearby)


# (call, message from its start): refusals of the row rule, each a SchemaError.
_ROW_RULE = [
    (lambda: elementary_divisors([[2], [3, 4]]), "row 1: has length 2, expected 1"),
    (lambda: rational_rank([[2], [3, 4]]), "row 1: has length 2, expected 1"),
    (lambda: integer_kernel_basis([[2], [3, 4]]), "row 1: has length 2, expected 1"),
    (lambda: torus_fiber_class([[1, 2], [3]]), "row 1: has length 1, expected 2"),
    (lambda: torus_fiber_class([[2, 1], [0, 1]], thetas=[[F(1, 2), 0]]), "thetas: has length 1, expected 2"),
    (lambda: torus_fiber_class([[2, 1], [0, 1]], thetas=[[F(1, 2)], [0, 1]]), "thetas, row 0: has length 1, expected 2"),
    (lambda: rational_solve([[2, 1]], [1, 1]), "right-hand side: has length 2, expected 1"),
    (lambda: rational_solve([[2, 1], [1, 1]], [1]), "right-hand side: has length 1, expected 2"),
    (lambda: rational_solve([[2, 1], [1]], [1, 1]), "row 1: has length 1, expected 2"),
    (lambda: form_positive_on_closure(Cone(2), (1, 1, -5)), "form: has length 3"),
    (lambda: series_limit(Cone(2), (1, 1, 7), (1, 1, -3)), "ell: has length 3"),
    (lambda: lattice_series(Cone(2), (1, 1, 1), (1, 1, 1), 4), "ell: has length 3"),
    (lambda: lattice_series(Cone(2), (1, 1), (1, 1), 4.0), "n: 4.0 is not an integer"),
    (lambda: stays_bounded(2, [], (1,), (1,)), "num_form: has length 1"),
    (lambda: stays_bounded(2, [(1, -1), (1,)], (1, 0), (0, 1)), "row 1: has length 1"),
    (lambda: kernel_cone(2, [(1, -1, 0)]), "constraint 0: has length 3, expected 2"),
    (lambda: p1_cover_class((2, 2), ([1, 1], [1])), "phi_1 orders: has length 1, expected 2"),
    (lambda: feasible([((F(1, 10),), 0, ">="), ((0.1,), 0, ">=")], 1), "constraint 1, coefficient 0: 0.1 "),
    (lambda: feasible([((True,), 0, ">=")], 1), "constraint 0, coefficient 0: True "),
    (lambda: feasible([(("1",), 0, ">=")], 1), "constraint 0, coefficient 0: '1' "),
    (lambda: feasible([((1,), 0.5, ">=")], 1), "constraint 0 constant, coefficient 0: 0.5 "),
    (lambda: feasible([((1, 1), 0, ">=")], 1), "constraint 0: has length 2, expected 1"),
    (lambda: feasible([((1,), 0, "<")], 1), "constraint 0: unknown relation '<'"),
    (lambda: extremum((0.5,), [((1,), 0, ">=")], 1), "objective, coefficient 0: 0.5 "),
    (lambda: collapse_pair(x, (True, 2)), "pair, coefficient 0: True is not an integer"),
    (lambda: collapse_pair(x, (1.0, 2.0)), "pair, coefficient 0: 1.0 is not an integer"),
    (lambda: collapse_pair(x, (1, 2, 3)), "pair: has length 3, expected 2"),
    (lambda: collapse_pair_bruteforce(x, (True, 2)), "pair, coefficient 0: True "),
    (lambda: embed(y, True, (1,)), "arity: True is not an integer"),
    (lambda: embed(y, 2, (1.0,)), "slots, coefficient 0: 1.0 is not an integer"),
    (lambda: embed(y, 2, (1, 2)), "slots: has length 2, expected 1"),
    (lambda: feasible([((1,), 0, ">=")], True), "nvars: True is not an integer"),
    (lambda: feasible([((1,), 0, ">=")], 1.0), "nvars: 1.0 is not an integer"),
    (lambda: extremum((1,), [((1,), 0, ">=")], True), "nvars: True is not an integer"),
    (lambda: extremum((1,), [((1,), 0, ">=")], 1.0), "nvars: 1.0 is not an integer"),
    (lambda: extreme_rays(True, [((1,), ">=")]), "nvars: True is not an integer"),
    (lambda: extreme_rays(1.0, [((1,), ">=")]), "nvars: 1.0 is not an integer"),
]

# Refusals with their own text that no other test reaches.
_OTHER = [
    (lambda: _datum(components=(), strata=()), "components: at least one component"),
    (lambda: _datum(strata=(Stratum((), base=unit0),)), r"strata\[0\]\.components: must be nonempty"),
    (lambda: _datum(strata=(Stratum(("a", "a"), base=unit0),)), r"strata\[0\]\.components: duplicate"),
    (lambda: _datum(strata=(Stratum(("a",), base=unit0, explicit=y),)), r"strata\[0\]: exactly one of"),
    (lambda: _datum(strata=(Stratum(("a",)),)), r"strata\[0\]: exactly one of"),
    (lambda: _datum(zero_locus_nearby=y), "zero_locus_nearby: only meaningful on joint data"),
    (lambda: datum_from_dict({
        "dimension": 1, "local": True, "functions": ["g"],
        "components": [{"id": "a", "Ng": 2, "nu": 1}],
        "strata": [{"components": ["a"], "cover": "split"}],
    }), r"strata\[0\]\.base_class: required for split covers"),
    (lambda: jet_count_zeta([], 4), "need at least one exponent"),
    (lambda: hodge_spectrum(x), "hodge_spectrum needs an arity-1 class"),
    (lambda: hodge_spectrum2(y), "hodge_spectrum2 needs an arity-2 class"),
    (lambda: torus_fiber_class([]), "exponent matrix must be nonempty"),
    (lambda: collapse_triple(x), "collapse_triple needs an arity-3 class"),
    (lambda: power_pushforward(x, 3, 2), "slot 3 out of range for arity 2"),
    (lambda: collapse_pair_bruteforce(x, (2, 1)), re.escape("slot pair (2, 1) out of range for arity 2")),
    (lambda: TruncatedPoly(0, {1: y}), "coefficient arity mismatch"),
    (lambda: root_of_unity_class([[501, 1]]), "the root-of-unity enumeration .* MAX_TORUS_CHARACTERS = 250000"),
    (lambda: torus_fiber_bruteforce([]), "exponent matrix must be nonempty"),
    (lambda: root_of_unity_class([]), "exponent matrix must be nonempty"),
    (lambda: Spectrum([((1, 0), 1)]), "1/0 has a zero denominator"),
    (lambda: Spectrum.monomial((1, 0)), "1/0 has a zero denominator"),
    (lambda: MC(1, [((((1, 0),), 0, 0), 1)]), "1/0 has a zero denominator"),
]


@pytest.mark.parametrize(
    "call, fragment, schema",
    [(c, re.escape(f), True) for c, f in _ROW_RULE] + [(c, f, False) for c, f in _OTHER],
    ids=[f"row-rule-{i}" for i in range(len(_ROW_RULE))] + [f"other-{i}" for i in range(len(_OTHER))],
)
def test_refusal_names_what_is_wrong(call, fragment, schema):
    with pytest.raises(SchemaError if schema else ValueError, match=f"^{fragment}") as info:
        call()
    if schema:
        assert str(info.value).startswith(info.value.path + ": ")


def test_rederive_fails_a_stratum_with_no_oracle():
    # A stratum of dimension 2 (one component in dimension 3) has no oracle.
    datum = ResolutionDatum(3, True, ("g",), (comp,), (Stratum(("a",), base=unit0),))
    lines = rederive(Fixture("m", datum, ""))
    assert ("m: stratum {a} has no oracle", False) in lines


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (command, flag, fixture, field path of one class entry in it, that entry).
_ENTRIES = {
    "explicit": ("spectrum", "--datum", "cusp", "strata[2].cover.explicit[2]",
                 lambda d: d["strata"][2]["cover"]["explicit"][2]),
    "zero-locus": ("iterated", "--joint", "x2y_y_joint", "zero_locus_nearby[0]",
                   lambda d: d["zero_locus_nearby"][0]),
    "base": ("spectrum", "--datum", "cusp", "strata[0].base_class[0]",
             lambda d: d["strata"][0]["base_class"][0]),
}
# (entry, index of the field in it, value put there, message): each value
# that is not an int, in an eigenvalue pair and in p, q and mult; a pair of
# one element; a den below 1.
_ENTRY_CASES = [
    (where, index, value, f"{value!r} is not an integer")
    for value in (True, 1.5, "1")
    for where, indices in (
        ("explicit", ((0, 0), (0, 1), (1,), (2,), (3,))),
        ("zero-locus", ((0, 0), (0, 1), (1,), (2,), (3,))),
        ("base", ((0,), (1,), (2,))),
    )
    for index in indices
] + [
    (where, index, value, message)
    for where in ("explicit", "zero-locus")
    for index, value, message in (
        ((0,), [1], "expected [num, den]"),
        ((0, 1), 0, "0 is less than 1"),
        ((0, 1), -2, "-2 is less than 1"),
    )
]


@pytest.mark.parametrize(
    "where, index, value, message", _ENTRY_CASES,
    ids=[f"{w}-{''.join(map(str, i))}-{v!r}" for w, i, v, _m in _ENTRY_CASES],
)
def test_bad_class_entries_in_datum_files_name_their_field(capsys, tmp_path, where, index, value, message):
    command, flag, name, path, entry_of = _ENTRIES[where]
    data = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    target = entry_of(data)
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    # A datum file's error names the file, then the field inside it.
    field = f"{bad}: " + path + "".join(f"[{i}]" for i in index)
    with pytest.raises(SchemaError) as info:
        load_datum(str(bad))
    assert (info.value.path, str(info.value)) == (field, f"{field}: {message}")
    assert main([command, flag, str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {field}: {message}\n"


def test_datum_schema_errors_name_the_file_among_several(capsys, tmp_path):
    # steenbrink reads three datum files; the bad one is named, and the same
    # data built from the dict alone keeps the bare field path.
    data = json.loads((FIXTURES / "x2y.json").read_text(encoding="utf-8"))
    data["components"][0]["Ng"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    argv = ["steenbrink", "--f", str(FIXTURES / "x2y.json"), "--fg", str(bad),
            "--joint", str(FIXTURES / "x2y_y_joint.json"), "--N", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: components[0].Ng: -1 is less than 0\n"
    with pytest.raises(SchemaError) as info:
        datum_from_dict(data)
    assert (info.value.path, str(info.value)) == ("components[0].Ng", "components[0].Ng: -1 is less than 0")


def test_steenbrink_check_names_the_parameter_it_refuses():
    # Each refusal is a SchemaError under the parameter behind it, the name
    # the CLI turns into its flag.
    f, fg, joint = (fixture_datum(n) for n in ("x2y", "d_curve_N3", "x2y_y_joint"))
    flat = ResolutionDatum(
        2, True, ("f", "g"), (Component("a", 2, 0, 1),), (Stratum(("a",), base=unit0),),
        zero_locus_nearby=torus_fiber_class([[2]]),
    )
    for args, path, message in (
        ((joint, fg, joint, 3), "f", "vanishing_cycles needs a datum with 1 function(s), got 2"),
        ((dataclasses.replace(f, local=False), fg, joint, 3), "f",
         "non-local datum: the trivial-monodromy part of its zero locus is not computed"),
        ((f, joint, joint, 3), "fg", "vanishing_cycles needs a datum with 1 function(s), got 2"),
        ((f, fg, f, 3), "joint", "iterated_vanishing needs a joint datum"),
        ((f, fg, dataclasses.replace(joint, zero_locus_nearby=None), 3), "joint",
         "joint datum lacks zero_locus_nearby, required for the vanishing-cycle correction"),
        ((f, fg, flat, 3), "joint", "no component with positive g-multiplicity: ratio undefined"),
        ((f, fg, joint, 0), "N", "0 is less than 1"),
    ):
        with pytest.raises(SchemaError) as info:
            steenbrink_check(*args)
        assert (info.value.path, info.value.message) == (path, message)


# File bytes json cannot decode into a value: nesting too deep for the
# decoder's recursion, an integer literal past the interpreter's digit limit
# (4,300 by default), and bytes that are not UTF-8.
_UNDECODABLE = {
    "deep": b"[" * 100_000,
    "digits": b"[" + b"7" * 5_000 + b"]",
    "not-utf8": b'{"dimension": \xff}',
}


@pytest.mark.parametrize("case", sorted(_UNDECODABLE))
@pytest.mark.parametrize(
    "argv",
    [("spectrum", "--datum"), ("convolve", "--right", str(FIXTURES / "class_x3.json"), "--left")],
    ids=["spectrum-datum", "convolve-left"],
)
def test_undecodable_json_exits_2_naming_the_file(capsys, tmp_path, case, argv):
    if case == "digits" and not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5_000:
        pytest.skip("no integer digit limit below 5,000 digits in this interpreter")
    bad = tmp_path / "bad.json"
    bad.write_bytes(_UNDECODABLE[case])
    with pytest.raises(SchemaError, match="^" + re.escape(f"{bad}: malformed JSON: ")) as info:
        load_datum(str(bad))
    assert info.value.path == str(bad)
    assert main([*argv, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed JSON: ") and err.count("\n") == 1, err


_DELETE = object()
# One mutation of a shipped datum per checked field: (fixture, key path, new
# value or _DELETE, the SchemaError text).
_FIELD_REFUSALS = [
    ("cusp", ("dimension",), True, "dimension: True is not an integer"),
    ("cusp", ("components", 0, "Ng"), True, "components[0].Ng: True is not an integer"),
    ("x2y_y_joint", ("components", 0, "Nf"), True, "components[0].Nf: True is not an integer"),
    ("cusp", ("components", 0, "nu"), True, "components[0].nu: True is not an integer"),
    ("cusp", ("components", 1, "Ng"), -1, "components[1].Ng: -1 is less than 0"),
    ("cusp", ("components", 1, "nu"), 0, "components[1].nu: 0 is less than 1"),
    ("cusp", ("components", 0, "id"), 5, "components[0].id: expected str, got int"),
    ("cusp", ("components", 0, "Ng"), _DELETE, "components[0].Ng: missing required field"),
    ("cusp", ("components", 0), 5, "components[0]: expected object"),
    ("x2y_y_joint", ("components", 0, "Nf"), 0, "components[0]: component carries no multiplicity at all"),
    ("cusp", ("components", 1, "id"), "e1", "components[1].id: duplicate id 'e1'"),
    ("cusp", ("strata", 0, "components"), ["e9"], "strata[0].components: unknown id 'e9'"),
    ("cusp", ("strata", 0, "components"), [], "strata[0].components: must be nonempty"),
    ("cusp", ("strata", 0, "components"), [5], "strata[0].components[0]: expected str, got int"),
    ("cusp", ("strata", 0, "components"), "e1", "strata[0].components: expected list of component ids"),
    ("cusp", ("strata", 3, "components"), ["e1", "e1"], "strata[3].components: duplicate component id"),
    ("cusp", ("strata", 1, "components"), ["e1"], "strata[1]: duplicate stratum"),
    # strata[3] is ["e1", "e3"]: the order of the ids does not tell strata apart.
    ("cusp", ("strata", 4, "components"), ["e3", "e1"], "strata[4]: duplicate stratum"),
    ("cusp", ("strata", 0), 5, "strata[0]: expected object"),
    ("cusp", ("strata", 2, "base_class"), [[0, 0, 1]],
     "strata[2].base_class: explicit covers carry the total class; base_class must be omitted"),
    ("cusp", ("strata", 0, "base_class"), _DELETE, "strata[0].base_class: required for split covers"),
    ("cusp", ("strata", 0, "cover"), "other", 'strata[0].cover: expected "split" or {"explicit": [...]}'),
    ("cusp", ("strata", 2, "cover", "explicit", 2, 0, 1), 0, "strata[2].cover.explicit[2][0][1]: 0 is less than 1"),
    ("cusp", ("strata", 0, "base_class", 0, 2), True, "strata[0].base_class[0][2]: True is not an integer"),
    ("x2y_y_joint", ("zero_locus_nearby", 0, 0, 1), 0, "zero_locus_nearby[0][0][1]: 0 is less than 1"),
]


def _mutated(name, path, value):
    data = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "name, path, value, message", _FIELD_REFUSALS,
    ids=[f"{n}-{'.'.join(map(str, p))}-{'del' if v is _DELETE else v!r}" for n, p, v, _m in _FIELD_REFUSALS],
)
def test_each_checked_datum_field_refuses_with_its_pinned_text(capsys, tmp_path, name, path, value, message):
    data = _mutated(name, path, value)
    with pytest.raises(SchemaError) as info:
        datum_from_dict(data)
    assert str(info.value) == message
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["spectrum", "--datum", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


def test_values_that_load_after_the_named_checks(capsys, tmp_path):
    # Arity-0 entries that cancel leave an empty base class (its stratum
    # then adds nothing); cancelling explicit entries drop out the same way.
    for path, value, spectrum in (
        (("strata", 0, "base_class"), [[1, 1, 1], [1, 1, -1]], "t^(0) - t^(5/6) - t^(1) - t^(7/6) - t^(3/2)\n"),
        (("strata", 2, "cover", "explicit"), [[[1, 6], 1, 0, -1], [[2, 12], 1, 0, 1]],
         "3*t^(0) + t^(1/3) + t^(1/2) + t^(2/3) - t^(1)\n"),
    ):
        data = _mutated("cusp", path, value)
        stratum = datum_from_dict(data).strata[path[1]]
        cls = stratum.base if stratum.explicit is None else stratum.explicit
        assert cls == MC.zero(cls.arity) and (cls._terms, cls.den) == ({}, 1)
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(data), encoding="utf-8")
        assert main(["spectrum", "--datum", str(ok)]) == 0
        assert capsys.readouterr() == (spectrum, "")
    # In data built in Python an integral Fraction becomes its int, in a
    # component, in the dimension and in a class entry; another is refused.
    data = _mutated("cusp", ("components", 0, "Ng"), F(2))
    data["dimension"] = F(2)
    data["strata"][0]["base_class"] = [[F(1), 1, 1]]
    datum = datum_from_dict(data)
    assert datum == fixture_datum("cusp")
    assert type(datum.dimension) is type(datum.components[0].ng) is int
    assert datum.strata[0].base.terms() == ((((), 1, 1), 1),)
    data["components"][0]["Ng"] = F(3, 2)
    with pytest.raises(SchemaError) as info:
        datum_from_dict(data)
    assert str(info.value) == "components[0].Ng: Fraction(3, 2) is not an integer"
