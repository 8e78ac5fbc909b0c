"""Repeatability checks of the benchmark itself.

    python3 -m pytest -q bench/repeat_check.py

For every workload, two traced runs with one seed must agree exactly on
the generated inputs, the digest of all outputs, and every count metric;
a run with another seed must generate other inputs with the same number of
items.  Timings are not compared: they spread from run to run, which is
why steadiness and count-based reviews rest on these counters.

The file name keeps the checks out of the package's default test run: each
one starts three benchmark processes.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

HEADER = re.compile(r"^workload \S+ seed \d+ trace \d: (\d+) items/pass, .*inputs (\w+) outputs (\w+)$", re.M)


def _traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    items, inputs, outputs = HEADER.search(proc.stdout).groups()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    return int(items), inputs, outputs, counts


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_for_one_seed(workload):
    first = _traced_run(workload, 11)
    second = _traced_run(workload, 11)
    assert first == second
    other = _traced_run(workload, 12)
    assert other[0] == first[0], "another seed changed the number of items"
    assert other[1] != first[1], "another seed generated the same inputs"
