"""hodgespec benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of identities, joins, resolution, cones; ``all`` runs each in
its own process and sums up.  Run from anywhere inside a source checkout:
the package is imported from ``src/`` next to this directory, never from an
installed copy.

One process, one thread.  The workload's inputs are generated from the
seed, turned into library objects, and run as a closed loop: one warm-up
pass, then whole passes over every item until ``--seconds`` have elapsed
(at least three).  Every result of every pass is compared with a reference
computed outside the timed region; the command prints the metrics, one per
line with unit and sample count, and as its last line a JSON object
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 if any item
mismatched or raised, 2 on a usage or checkout error.

``--trace 0`` reports the end-to-end metrics: setup_s (median over fresh
interpreters, see setup_probe.py), wall_s (median pass), item_p50_ms and
item_p90_ms (quantiles over the items of each item's median time across the
measured passes) and peak_rss_mb.  The times are scaled to a nominal host
speed: a calibration chunk runs after every item, and each item's time is
scaled by the chunks on either side of it (hostspeed.py), because on a
shared host the CPU switches between fast and slow phases that can last
a whole run.  The raw medians are printed beside the scaled ones.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracer.py, per traced pass (raw seconds), plus
trace.overhead_s; spans of the first traced pass are written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 9
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


class Raised:
    """Result of an item whose call raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.text})"


def canon(x):
    """Deterministic plain form of a result, for the output digest."""
    if isinstance(x, dict):
        return tuple(sorted((canon(k), canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    return x


def run_pass(items, tracer=None):
    """One pass over every item, a calibration chunk after each; returns
    (raw per-item s, scaled per-item s, results)."""
    gc.collect()
    raw, scaled, results = [], [], []
    clock = time.perf_counter
    before = hostspeed.chunk()
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        t0 = clock()
        try:
            result = item.run()
        except Exception as exc:  # a raising item is a failed item
            result = Raised(exc)
        elapsed = clock() - t0
        after = hostspeed.chunk()
        raw.append(elapsed)
        scaled.append(hostspeed.scale(elapsed, (before + after) / 2))
        results.append(result)
        before = after
    return raw, scaled, results


def check_pass(items, results, refs, digest=None):
    """Ids of the items whose result differs from the reference."""
    failed = []
    for item, result in zip(items, results):
        plain = result
        if not isinstance(result, Raised):
            try:
                plain = item.plain(result)
            except Exception as exc:  # a result of the wrong shape fails the item
                plain = Raised(exc)
        if isinstance(plain, Raised) or plain != refs[item.id]:
            failed.append((item.id, plain))
        if digest is not None:
            if item.witness is not None and not isinstance(result, Raised):
                plain = item.witness(result)
            digest.update(f"{item.id}\t{canon(plain)!r}\n".encode())
    return failed


def measure_setup(name: str, inputs: dict) -> list:
    """(raw, scaled) set-up seconds in fresh interpreters; the first run
    only warms the bytecode cache and is dropped."""
    payload = json.dumps(inputs).encode()
    cmd = [sys.executable, os.path.join(BENCH, "setup_probe.py"), name, ROOT]
    out = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, input=payload, capture_output=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
        out.append(tuple(float(x) for x in proc.stdout.decode().split()))
    return out[1:]


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def line(name, value, unit, note=""):
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed)
    setup = [] if args.trace else measure_setup(workload.NAME, inputs)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hodgespec
    import hodgespec.cli  # noqa: F401

    if not os.path.abspath(hodgespec.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: imported hodgespec from {hodgespec.__file__}, not from this checkout", file=sys.stderr)
        return 2
    items = workload.build(inputs, hodgespec, ROOT)
    refs = workload.references(inputs, hodgespec, ROOT)

    attempted = 0
    failures = []
    digest = hashlib.sha256()
    _raw, _scaled, results = run_pass(items)
    failures += check_pass(items, results, refs, digest)
    attempted += len(items)

    walls, raw_walls = [], []
    per_item = [[] for _ in items]
    per_item_raw = [[] for _ in items]
    traced_walls, traced_raw_walls = [], []
    tracer = tracing.Tracer() if args.trace else None
    missing = []
    start = time.perf_counter()
    while True:
        raw, scaled, results = run_pass(items)
        raw_walls.append(sum(raw))
        walls.append(sum(scaled))
        for samples, samples_raw, t, r in zip(per_item, per_item_raw, scaled, raw):
            samples.append(t)
            samples_raw.append(r)
        failures += check_pass(items, results, refs)
        attempted += len(items)
        if tracer is not None:
            tracer.keep_spans = not traced_walls
            missing = tracer.install()
            try:
                raw, scaled, results = run_pass(items, tracer)
            finally:
                tracer.uninstall()
            traced_raw_walls.append(sum(raw))
            traced_walls.append(sum(scaled))
            failures += check_pass(items, results, refs)
            attempted += len(items)
        if len(walls) >= (2 if tracer else MIN_PASSES) and time.perf_counter() - start >= args.seconds:
            break

    print(
        f"workload {workload.NAME} seed {args.seed} trace {args.trace}: {len(items)} items/pass, "
        f"{len(walls)} untraced + {len(traced_walls)} traced passes; "
        f"inputs {sha(json.dumps(inputs, sort_keys=True))} outputs {digest.hexdigest()[:16]}"
    )
    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        line(name, value, unit, note)

    if tracer is None:
        medians = sorted(statistics.median(samples) for samples in per_item)
        raw_medians = sorted(statistics.median(samples) for samples in per_item_raw)
        samples = f"{len(items)} item medians of {len(walls)} passes"
        beyond = len(medians) - math.ceil(0.9 * len(medians))
        raw_setup = statistics.median(raw for raw, _ in setup)
        put("setup_s", statistics.median(scaled for _, scaled in setup), "s",
            f"median of {len(setup)} fresh interpreters; raw {raw_setup:.6g} s")
        put("wall_s", statistics.median(walls), "s",
            f"median of {len(walls)} passes; raw {statistics.median(raw_walls):.6g} s")
        put("item_p50_ms", 1e3 * statistics.median(medians), "ms",
            f"{samples}; raw {1e3 * statistics.median(raw_medians):.6g} ms")
        put("item_p90_ms", 1e3 * nearest_rank(medians, 0.9), "ms",
            f"{samples}, {beyond} beyond; raw {1e3 * nearest_rank(raw_medians, 0.9):.6g} ms")
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        n = len(traced_walls)
        for name, unit, value in tracing.LAYER_METRICS:
            put(name, value(tracer) / n, unit, "per traced pass")
        cells = tracer.counts["cones.euler_char.cells"]
        put("cones.euler_char.cell_yield", tracer.counts["cones.euler_char.nonempty"] / cells if cells else 0.0,
            "ratio", "nonempty cells / cells tried")
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        put("trace.overhead_s", overhead, "s", "median traced pass - median untraced pass, scaled")
        if missing:
            print(f"  not traced, no longer in hodgespec: {', '.join(missing)}")
        traced_wall = sum(traced_raw_walls) / n
        self_total = tracing.all_self_s(tracer) / n
        print(f"  traced wall_s {traced_wall:.6g} s per pass; self time of all spans {self_total:.6g} s per pass")
        if self_total > traced_wall:
            print("error: span self times exceed the traced wall time", file=sys.stderr)
            failures.append(("trace", "self times exceed wall"))
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        path = os.path.join(BENCH, "out", f"spans-{workload.NAME}-seed{args.seed}.tsv")
        tracer.write_spans(path)
        print(f"  {len(tracer.spans)} spans of the first traced pass written to {os.path.relpath(path, ROOT)}")

    failed_items = len(failures)
    line("fail_frac", failed_items / attempted, "ratio", f"{failed_items} of {attempted} items failed")
    for item_id, got in failures[:5]:
        print(f"error: item {item_id} mismatched its reference: got {str(got)[:200]}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed_items, "metrics": metrics}))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays separate."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 2
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
        code = max(code, proc.returncode)
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hodgespec", "__init__.py")):
        print(f"error: no hodgespec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
