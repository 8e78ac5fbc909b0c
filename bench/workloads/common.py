"""Shared pieces of the workloads: items, CLI calls, plain-data views.

A workload module provides

* ``generate(seed) -> dict``: JSON-able inputs, a pure function of the seed
  that never imports hodgespec;
* ``build(inputs, H) -> list[Item]``: turns the inputs into library objects
  (this is the set-up that ``setup_s`` times) and closes the timed calls
  over them;
* ``references(inputs, H) -> dict``: expected value per item id, computed
  outside the timed region.

``H`` is the imported ``hodgespec`` package.  Items look library names up
through it at call time, so the traced run sees every rebound name.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Item:
    id: str
    run: Callable[[], Any]
    # result -> plain value; the item passes when it equals the reference.
    # Runs outside the timed region.
    plain: Callable[[Any], Any]
    # result -> plain value for the output digest, when not the same.
    witness: Optional[Callable[[Any], Any]] = None


def cli_call(H, argv):
    """Run ``hodgespec.cli.main(argv)`` in-process; returns (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = H.cli.main(argv)
    return code, buf.getvalue()


def same(result):
    return result


def spectrum_plain(sp) -> dict:
    return {(e.numerator, e.denominator): m for e, m in sp.terms()}


def class_plain(cls) -> dict:
    return {
        (tuple((e.numerator, e.denominator) for e in evs), p, q): m
        for (evs, p, q), m in cls.terms()
    }


def poly_plain(poly) -> dict:
    return {d: class_plain(poly.coefficient(d)) for d in poly.degrees()}


def ladder(lo: float, hi: float, k: int, n: int) -> float:
    """k-th of n geometrically spaced targets from lo to hi."""
    return lo * (hi / lo) ** (k / max(n - 1, 1))
