"""Host-speed calibration for the timed metrics.

On a shared virtual machine the same pure-Python code can run at very
different speeds from one second to the next (a busy sibling hardware
thread, say), in phases lasting from under a second to about a minute.
Raw times of one run then say more about the phase the run fell in than
about the program.  So the benchmark runs a fixed chunk of exact
``Fraction`` arithmetic and dict traffic, the same kind of work hodgespec
does, right after every timed item, and scales each item's time by how
fast that chunk ran next to it:

    scaled = raw * NOMINAL_CHUNK_S / (mean of the chunk times before and after)

A scaled time is the time the item would take on a host where the chunk
takes ``NOMINAL_CHUNK_S``: it stays in seconds and moves with the program,
because the chunk uses only the standard library and never hodgespec.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# About one chunk on a 2-vCPU Intel Xeon VM running Python 3.11 in its fast
# phase; only a scale, so that scaled times read as plausible seconds.
NOMINAL_CHUNK_S = 3.0e-4


def chunk(n: int = 60) -> float:
    """Run the calibration chunk once; return its elapsed seconds."""
    start = perf_counter()
    acc = {}
    for i in range(1, n):
        key = Fraction(i % 7, 1 + i % 5)
        acc[key] = acc.get(key, 0) + Fraction(1, i % 7 + 1)
    return perf_counter() - start


def chunks(count: int) -> float:
    """Mean seconds of ``count`` consecutive chunks."""
    return sum(chunk() for _ in range(count)) / count


def scale(raw_s: float, chunk_s: float) -> float:
    return raw_s * NOMINAL_CHUNK_S / chunk_s
