"""One set-up measurement in a fresh interpreter.

Reads a workload's generated inputs as JSON on stdin, then times importing
hodgespec (with its CLI module) and turning the inputs into library
objects.  Prints the elapsed seconds, raw and scaled to the nominal host
speed by calibration chunks run just before and just after (see
hostspeed.py).  Input generation, JSON parsing and the benchmark's own
imports happen before the clock starts.

    python3 bench/setup_probe.py WORKLOAD ROOT < inputs.json
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CALIBRATION_CHUNKS = 40


def main():
    name, root = sys.argv[1], sys.argv[2]
    inputs = json.load(sys.stdin)
    workload = WORKLOADS[name]
    sys.path.insert(0, os.path.join(root, "src"))
    before = hostspeed.chunks(CALIBRATION_CHUNKS)
    start = time.perf_counter()
    import hodgespec
    import hodgespec.cli  # noqa: F401

    workload.build(inputs, hodgespec, root)
    raw = time.perf_counter() - start
    after = hostspeed.chunks(CALIBRATION_CHUNKS)
    print(repr(raw), repr(hostspeed.scale(raw, (before + after) / 2)))


if __name__ == "__main__":
    main()
