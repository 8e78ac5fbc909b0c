"""Command-line interface.

Subcommands::

    spectrum   --datum FILE [--phi]      spectrum of the nearby (default) or
                                         vanishing-cycle class of a datum
    zeta       --datum FILE [--truncate N]
                                         motivic zeta function: closed form,
                                         or its expansion through degree N
    iterated   --joint FILE              two-monodromy iterated class of a
                                         joint datum and its spectrum
    ts         --exponents a1,a2,...     spectrum of a sum of pure powers
    convolve   --left FILE --right FILE  convolution of two class files
    steenbrink --f FILE --fg FILE --joint FILE --N K
                                         verify the power-perturbation
                                         spectrum identity
    fixtures   [--rederive] [--write DIR]
                                         list shipped fixtures; re-run their
                                         derivation oracles; dump JSON data
    check      --suite NAME              property suites (rings, cones, psi,
                                         steenbrink, all)

Exit codes: 0 success, 1 check failure, 2 input error.  Subcommands raise
``ValueError`` (``SchemaError`` included) or ``OSError`` on bad input, and
``main`` alone prints every such error as ``error: ...`` and exits 2.  Each
names its input through ``lattice._named``: ``<file>: <field path>: ...``
for a file's content, ``--flag: ...`` for a refused option or loaded datum;
an unreachable file reads ``<file>: <strerror>``.

A class file is a JSON list of monomials ``[[num, den], p, q, mult]``, read
by ``resolution.load_class``; datum files follow the schema documented in
``hodgespec.resolution``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .checks import SUITES, run_suite
from .convolution import convolve
from .lattice import SchemaError, _named
from .monclass import hodge_spectrum, hodge_spectrum2
from .resolution import (
    datum_to_dict,
    iterated_nearby,
    load_class,
    load_datum,
    nearby_cycles,
    vanishing_cycles,
    zeta_series,
)
from .workbench import fixtures, quasihomogeneous_spectrum, rederive, steenbrink_check


def _cmd_spectrum(args):
    cls = _named("--datum", vanishing_cycles if args.phi else nearby_cycles, load_datum(args.datum))
    print(hodge_spectrum(cls).render())
    return 0


def _cmd_zeta(args):
    series = _named("--datum", zeta_series, load_datum(args.datum))
    if args.truncate is not None:
        series = _named("--truncate", series.expand, args.truncate)
    print(series.render())
    return 0


def _cmd_iterated(args):
    cls = _named("--joint", iterated_nearby, load_datum(args.joint))
    print("class:    " + cls.render())
    print("spectrum: " + hodge_spectrum2(cls).render())
    return 0


def _ts_spectrum(text: str):
    try:
        exponents = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse {text!r}") from None
    return quasihomogeneous_spectrum(exponents)


def _cmd_ts(args):
    print(_named("--exponents", _ts_spectrum, args.exponents).render())
    return 0


def _cmd_convolve(args):
    left = load_class(args.left)
    right = load_class(args.right)
    result = _named("--left, --right", convolve, left, right)
    print("class:    " + result.render())
    print("spectrum: " + hodge_spectrum(result).render())
    return 0


def _cmd_steenbrink(args):
    data = [load_datum(path) for path in (args.f, args.fg, args.joint)]
    try:
        report = steenbrink_check(*data, args.N)
    except SchemaError as exc:
        # Every refusal names the parameter, which is the flag less its --.
        raise ValueError(f"--{exc}") from exc
    print(report.render())
    if report.equal or not report.hypothesis_ok:
        return 0
    return 1


def _cmd_fixtures(args):
    if args.write:
        # Before any output, so that an unusable target prints nothing.
        os.makedirs(args.write, exist_ok=True)
    failures = 0
    for fx in fixtures():
        print(f"{fx.name}:")
        print(f"  provenance: {fx.provenance}")
        if fx.expected_spectrum is not None:
            print(f"  expected spectrum: {fx.expected_spectrum.render()}")
        if args.rederive:
            for name, ok in rederive(fx):
                print(f"  [{'ok' if ok else 'FAIL'}] {name}")
                failures += 0 if ok else 1
        if args.write:
            path = os.path.join(args.write, f"{fx.name.replace('^', '')}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(datum_to_dict(fx.datum), handle, indent=1)
                handle.write("\n")
            print(f"  wrote {path}")
    return 1 if failures else 0


def _cmd_check(args):
    results = run_suite(args.suite)
    failures = 0
    for res in results:
        print(f"[{'PASS' if res.ok else 'FAIL'}] {res.name}" + (f" :: {res.detail}" if res.detail else ""))
        failures += 0 if res.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process (parsing does not change it).  Its
    ``commands`` maps each subcommand to its own parser, the ``choices`` of
    the subparsers action, for ``main``'s one parse."""
    parser = argparse.ArgumentParser(
        prog="hodgespec",
        description="Exact Hodge spectra of hypersurface singularities from resolution data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spectrum of a datum's nearby or vanishing class")
    p.add_argument("--datum", required=True)
    p.add_argument("--phi", action="store_true", help="use the vanishing-cycle class")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("zeta", help="motivic zeta function of a datum")
    p.add_argument("--datum", required=True)
    p.add_argument("--truncate", type=int, default=None, metavar="N")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("iterated", help="iterated two-monodromy class of a joint datum")
    p.add_argument("--joint", required=True)
    p.set_defaults(func=_cmd_iterated)

    p = sub.add_parser("ts", help="spectrum of x1^a1 + ... + xd^ad")
    p.add_argument("--exponents", required=True, metavar="a1,a2,...")
    p.set_defaults(func=_cmd_ts)

    p = sub.add_parser("convolve", help="convolution of two arity-1 class files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("steenbrink", help="verify the power-perturbation spectrum identity")
    p.add_argument("--f", required=True, help="datum of the unperturbed function")
    p.add_argument("--fg", required=True, help="datum of the perturbed function f + g^N")
    p.add_argument("--joint", required=True, help="joint datum of (f, g) with zero_locus_nearby")
    p.add_argument("--N", required=True, type=int)
    p.set_defaults(func=_cmd_steenbrink)

    p = sub.add_parser("fixtures", help="list shipped fixtures and their provenance")
    p.add_argument("--rederive", action="store_true", help="re-run the derivation oracles")
    p.add_argument("--write", metavar="DIR", help="dump the fixture data as JSON files")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p.set_defaults(func=_cmd_check)

    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None).  An argv
    that opens with a subcommand is parsed once, by that subcommand's
    parser alone; arguments it leaves over are refused by the top-level
    parser in the words ``parse_args`` uses.  Any other argv (help, no
    subcommand, an unknown one) goes to ``parse_args``."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # An input file, a shipped fixture file or a --write target is
        # unreachable; the file is its source.
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
