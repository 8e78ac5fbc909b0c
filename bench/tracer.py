"""Per-layer tracing from the benchmark's side, without editing hodgespec.

``Tracer.install()`` wraps the public functions of every hodgespec module
and the MonodromicClass / Spectrum / series dunders.  A module-level
function is rebound in every ``hodgespec`` module namespace that holds it
(``torus_fiber_class`` is imported by name into resolution, workbench and
checks, for instance); a method is replaced on its class.  ``uninstall()``
puts every original back.

Each call records a span (id, name, start, end, parent id, item id) in
memory and adds to the span name's call count and self time: the span's
duration minus the time its child spans cover.  Counter hooks run outside
every span, so their cost is charged to no layer and shows only in
``trace.overhead_s``.
"""

from __future__ import annotations

import io
import sys
from collections import Counter
from time import perf_counter_ns

from refs import minor_gcd

# (module, attribute, span name).  "Class.method" patches the class.
TARGETS = [
    ("spectra", "Spectrum.__init__", "spectra.new"),
    ("spectra", "BiSpectrum.__init__", "spectra.new"),
    ("spectra", "Spectrum.__mul__", "spectra.mul"),
    ("spectra", "BiSpectrum.__mul__", "spectra.mul"),
    ("spectra", "Spectrum.__add__", "spectra.add"),
    ("spectra", "Spectrum.__sub__", "spectra.add"),
    ("spectra", "Spectrum.__neg__", "spectra.add"),
    ("spectra", "BiSpectrum.__add__", "spectra.add"),
    ("spectra", "BiSpectrum.__sub__", "spectra.add"),
    ("spectra", "BiSpectrum.__neg__", "spectra.add"),
    ("spectra", "Spectrum.__eq__", "spectra.eq"),
    ("spectra", "BiSpectrum.__eq__", "spectra.eq"),
    ("spectra", "fold_bispectrum", "spectra.fold"),
    ("spectra", "geometric_factor", "spectra.fold"),
    ("spectra", "steenbrink_rhs", "spectra.fold"),
    ("spectra", "Spectrum.render", "spectra.render"),
    ("spectra", "BiSpectrum.render", "spectra.render"),
    ("spectra", "_render_terms", "spectra.render"),
    ("monclass", "MonodromicClass.__init__", "monclass.new"),
    ("monclass", "MonodromicClass.__mul__", "monclass.mul"),
    ("monclass", "MonodromicClass.__add__", "monclass.add"),
    ("monclass", "MonodromicClass.__sub__", "monclass.add"),
    ("monclass", "MonodromicClass.__neg__", "monclass.add"),
    ("monclass", "MonodromicClass.__eq__", "monclass.eq"),
    ("monclass", "MonodromicClass.render", "monclass.render"),
    ("monclass", "box", "monclass.box"),
    ("monclass", "embed", "monclass.embed"),
    ("monclass", "hodge_spectrum", "monclass.hodge"),
    ("monclass", "hodge_spectrum2", "monclass.hodge"),
    ("monclass", "torus_fiber_class", "monclass.torus_fiber"),
    ("lattice", "smith_normal_form", "lattice.snf"),
    ("lattice", "elementary_divisors", "lattice.divisors"),
    ("lattice", "rational_rank", "lattice.rank"),
    ("lattice", "rational_solve", "lattice.solve"),
    ("lattice", "integer_kernel_basis", "lattice.kernel"),
    ("convolution", "collapse_pair", "convolution.collapse"),
    ("convolution", "collapse_triple", "convolution.triple"),
    ("convolution", "convolve", "convolution.convolve"),
    ("convolution", "power_pushforward", "convolution.pushforward"),
    ("series", "RationalSeries.expand", "series.expand"),
    ("series", "TruncatedPoly.mul_truncated", "series.mul_truncated"),
    ("series", "RationalSeries.limit", "series.limit"),
    ("series", "RationalSeries.__init__", "series.new"),
    ("series", "TruncatedPoly.__init__", "series.new"),
    ("series", "RationalSeries.__add__", "series.arith"),
    ("series", "RationalSeries.__mul__", "series.arith"),
    ("series", "RationalSeries.scale", "series.arith"),
    ("series", "TruncatedPoly.__add__", "series.arith"),
    ("series", "TruncatedPoly.scale", "series.arith"),
    ("series", "RationalSeries.render", "series.render"),
    ("series", "TruncatedPoly.render", "series.render"),
    ("cones", "feasible", "cones.feasible"),
    ("cones", "euler_char", "cones.euler_char"),
    ("cones", "extremum", "cones.extremum"),
    ("cones", "lattice_series", "cones.lattice_series"),
    ("cones", "stays_bounded", "cones.other"),
    ("cones", "kernel_cone", "cones.other"),
    ("cones", "form_positive_on_closure", "cones.other"),
    ("cones", "series_limit", "cones.other"),
    ("cones", "Cone.is_empty", "cones.other"),
    ("resolution", "load_datum", "resolution.load"),
    ("resolution", "datum_from_dict", "resolution.load"),
    ("resolution", "ResolutionDatum.stratum_class", "resolution.stratum_class"),
    ("resolution", "zeta_series", "resolution.zeta"),
    ("resolution", "nearby_cycles", "resolution.cycles"),
    ("resolution", "nearby_cycles_open", "resolution.cycles"),
    ("resolution", "vanishing_cycles", "resolution.cycles"),
    ("resolution", "iterated_nearby", "resolution.cycles"),
    ("resolution", "jet_count_zeta", "resolution.jet_count"),
    ("resolution", "multiplicity_ratio", "resolution.other"),
    ("workbench", "quasihomogeneous_spectrum", "workbench.qh_spectrum"),
    ("workbench", "thom_sebastiani", "workbench.qh_spectrum"),
    ("workbench", "one_variable_vanishing", "workbench.qh_spectrum"),
    ("workbench", "steenbrink_check", "workbench.steenbrink"),
    ("workbench", "iterated_vanishing", "workbench.steenbrink"),
    ("workbench", "steenbrink_conjecture_rhs", "workbench.steenbrink"),
    ("workbench", "SteenbrinkReport.render", "workbench.steenbrink"),
    ("oracles", "collapse_pair_bruteforce", "oracles.collapse"),
    ("oracles", "torus_fiber_bruteforce", "oracles.torus_fiber"),
    ("oracles", "stratum_cover_class", "oracles.cover"),
    ("oracles", "p1_cover_class", "oracles.cover"),
    ("oracles", "fermat_one_eigendata", "oracles.fermat"),
    ("oracles", "fermat_zero_eigendata", "oracles.fermat"),
    ("cli", "main", "cli"),
]


def _nterms(x) -> int:
    return len(x.terms())


# Counter hooks: (tracer, args, result, parent span name) -> None.


def _count_mul(t, args, result, parent):
    a, b = args[0], args[1]
    if type(b) is type(a):
        t.counts["monclass.mul.term_pairs"] += _nterms(a) * _nterms(b)


def _count_torus(t, args, result, parent):
    t.counts["monclass.torus_fiber.characters"] += minor_gcd([list(map(int, row)) for row in args[0]])


def _count_collapse(t, args, result, parent):
    t.counts["convolution.collapse.terms_in"] += _nterms(args[0])
    t.counts["convolution.collapse.terms_out"] += _nterms(result)


def _count_expand(t, args, result, parent):
    t.counts["series.expand.terms_out"] += sum(_nterms(result.coefficient(d)) for d in result.degrees())


def _count_feasible(t, args, result, parent):
    if parent == "cones.euler_char":
        t.counts["cones.euler_char.cells"] += 1
        t.counts["cones.euler_char.nonempty"] += bool(result)


def _count_cli(t, args, result, parent):
    t.counts["cli.nonzero_exit"] += result != 0


HOOKS = {
    "MonodromicClass.__mul__": _count_mul,
    "torus_fiber_class": _count_torus,
    "collapse_pair": _count_collapse,
    "RationalSeries.expand": _count_expand,
    "feasible": _count_feasible,
    "main": _count_cli,
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.item = None
        self.keep_spans = False
        self.spans: list = []
        self._stack: list = []  # [span id, name, child ns]
        self._next_id = 0
        self._saved: list = []

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            h0 = perf_counter_ns()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.self_ns[name] += end - start - frame[2]
                tracer.calls[name] += 1
                if tracer.keep_spans:
                    tracer.spans.append((sid, name, start, end, parent[0] if parent else -1, tracer.item))
            if hook is not None:
                hook(tracer, args, result, parent[1] if parent else None)
            if parent is not None:
                # The parent's self time excludes this whole call, hooks and
                # bookkeeping included.
                parent[2] += perf_counter_ns() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_cli(self, fn):
        """cli.main also counts the bytes it prints into the captured stdout."""
        inner = self._wrap("cli", fn, HOOKS["main"])
        tracer = self

        def traced_main(*args, **kwargs):
            out = sys.stdout
            before = out.getvalue() if isinstance(out, io.StringIO) else None
            result = inner(*args, **kwargs)
            if before is not None:
                tracer.counts["cli.out_bytes"] += len(out.getvalue()[len(before):].encode("utf-8"))
            return result

        return traced_main

    def install(self):
        """Wrap every target that exists; returns the ones not found, so a
        refactor that moves or renames a function shows up in the output
        instead of stopping the run."""
        modules = [m for n, m in sys.modules.items() if n == "hodgespec" or n.startswith("hodgespec.")]
        missing = []
        for modname, attr, name in TARGETS:
            mod = sys.modules.get(f"hodgespec.{modname}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, meth, None) if owner is not None else None
            if orig is None:
                missing.append(f"{modname}.{attr}")
                continue
            if owner_name:
                # A method: patch the class, shadowing an inherited one.
                self._saved.append((owner, meth, owner.__dict__.get(meth)))
                setattr(owner, meth, self._wrap(name, orig, HOOKS.get(attr)))
                continue
            wrapped = self._wrap_cli(orig) if name == "cli" else self._wrap(name, orig, HOOKS.get(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapped)
        return missing

    def uninstall(self):
        while self._saved:
            target, key, orig = self._saved.pop()
            if orig is None:
                delattr(target, key)
            else:
                setattr(target, key, orig)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tparent\titem\n")
            for sid, name, start, end, parent, item in self.spans:
                handle.write(f"{sid}\t{name}\t{start}\t{end}\t{parent}\t{item}\n")


def _self(t, *names, prefix=None):
    total = sum(t.self_ns[n] for n in names)
    if prefix:
        total += sum(v for k, v in t.self_ns.items() if k.startswith(prefix))
    return total / 1e9


# Per-layer metrics: (name, unit, value from the tracer's totals).
LAYER_METRICS = [
    ("spectra.mul.calls", "count", lambda t: t.calls["spectra.mul"]),
    ("spectra.mul.self_s", "s", lambda t: _self(t, "spectra.mul")),
    ("spectra.new.self_s", "s", lambda t: _self(t, "spectra.new")),
    ("spectra.add.self_s", "s", lambda t: _self(t, "spectra.add")),
    ("spectra.eq.self_s", "s", lambda t: _self(t, "spectra.eq")),
    ("spectra.fold.self_s", "s", lambda t: _self(t, "spectra.fold")),
    ("spectra.render.self_s", "s", lambda t: _self(t, "spectra.render")),
    ("monclass.mul.calls", "count", lambda t: t.calls["monclass.mul"]),
    ("monclass.mul.self_s", "s", lambda t: _self(t, "monclass.mul")),
    ("monclass.mul.term_pairs", "count", lambda t: t.counts["monclass.mul.term_pairs"]),
    ("monclass.new.self_s", "s", lambda t: _self(t, "monclass.new")),
    ("monclass.add.self_s", "s", lambda t: _self(t, "monclass.add")),
    ("monclass.eq.self_s", "s", lambda t: _self(t, "monclass.eq")),
    ("monclass.box.self_s", "s", lambda t: _self(t, "monclass.box")),
    ("monclass.hodge.self_s", "s", lambda t: _self(t, "monclass.hodge")),
    ("monclass.torus_fiber.calls", "count", lambda t: t.calls["monclass.torus_fiber"]),
    ("monclass.torus_fiber.self_s", "s", lambda t: _self(t, "monclass.torus_fiber")),
    ("monclass.torus_fiber.characters", "count", lambda t: t.counts["monclass.torus_fiber.characters"]),
    ("lattice.snf.calls", "count", lambda t: t.calls["lattice.snf"]),
    ("lattice.self_s", "s", lambda t: _self(t, prefix="lattice.")),
    ("convolution.collapse.calls", "count", lambda t: t.calls["convolution.collapse"]),
    ("convolution.collapse.self_s", "s", lambda t: _self(t, "convolution.collapse")),
    ("convolution.collapse.terms_in", "count", lambda t: t.counts["convolution.collapse.terms_in"]),
    ("convolution.collapse.terms_out", "count", lambda t: t.counts["convolution.collapse.terms_out"]),
    ("convolution.pushforward.self_s", "s", lambda t: _self(t, "convolution.pushforward")),
    ("series.expand.calls", "count", lambda t: t.calls["series.expand"]),
    ("series.expand.self_s", "s", lambda t: _self(t, "series.expand")),
    ("series.mul_truncated.self_s", "s", lambda t: _self(t, "series.mul_truncated")),
    ("series.expand.terms_out", "count", lambda t: t.counts["series.expand.terms_out"]),
    ("cones.feasible.calls", "count", lambda t: t.calls["cones.feasible"]),
    ("cones.feasible.self_s", "s", lambda t: _self(t, "cones.feasible")),
    ("cones.euler_char.self_s", "s", lambda t: _self(t, "cones.euler_char")),
    ("cones.extremum.self_s", "s", lambda t: _self(t, "cones.extremum")),
    ("cones.lattice_series.self_s", "s", lambda t: _self(t, "cones.lattice_series")),
    ("cones.euler_char.cells", "count", lambda t: t.counts["cones.euler_char.cells"]),
    ("resolution.load.self_s", "s", lambda t: _self(t, "resolution.load")),
    ("resolution.stratum_class.self_s", "s", lambda t: _self(t, "resolution.stratum_class")),
    ("resolution.zeta.self_s", "s", lambda t: _self(t, "resolution.zeta")),
    ("resolution.cycles.self_s", "s", lambda t: _self(t, "resolution.cycles")),
    ("resolution.jet_count.self_s", "s", lambda t: _self(t, "resolution.jet_count")),
    ("workbench.qh_spectrum.self_s", "s", lambda t: _self(t, "workbench.qh_spectrum")),
    ("workbench.steenbrink.self_s", "s", lambda t: _self(t, "workbench.steenbrink")),
    ("oracles.calls", "count", lambda t: sum(v for k, v in t.calls.items() if k.startswith("oracles."))),
    ("oracles.self_s", "s", lambda t: _self(t, prefix="oracles.")),
    ("cli.calls", "count", lambda t: t.calls["cli"]),
    ("cli.self_s", "s", lambda t: _self(t, "cli")),
    ("cli.out_bytes", "count", lambda t: t.counts["cli.out_bytes"]),
    ("cli.nonzero_exit", "count", lambda t: t.counts["cli.nonzero_exit"]),
]


def all_self_s(t) -> float:
    """Self time of every span, traced layers and unreported ones alike."""
    return sum(t.self_ns.values()) / 1e9
