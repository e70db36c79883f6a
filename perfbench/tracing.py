"""Spans around the library's public functions, recorded from outside.

`Tracer.install` replaces every public function of the traced modules at
every module binding that refers to it (so `estimator.christoffel_term`,
copied from `flows` by `from .flows import ...`, is wrapped too), plus a
few methods on their classes. Each call records one span: name, start,
end, parent span and iteration id, with optional attributes. Spans stay in
memory until `write` dumps them at the end of the run; `uninstall` restores
the original bindings so untraced iterations run the unmodified library.

`PER_LAYER` turns one iteration's spans into the per-layer metrics. A
metric whose function no longer exists reads 0 and is listed by `absent`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
import tracemalloc
from dataclasses import dataclass, field

PACKAGE = "wgflows"
MODULES = ("mesh", "kernels", "rkhs", "flows", "estimator", "analysis", "cli")
METHODS = (("kernels", "SmoothKernel", "eval"),
           ("kernels", "SmoothKernel", "gram"),
           ("rkhs", "RkhsFunction", "value"))
SOLVE = "estimator.solve"


@dataclass
class Span:
    name: str
    start: float
    end: float
    index: int             # position in the tracer's span list
    parent: int            # index of the parent span, -1 for a root
    iteration: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _solve_attrs(args, kwargs, result) -> dict:
    problem = args[0] if args else kwargs["problem"]
    return {"N": problem.traj.mesh.N, "L": problem.traj.mesh.L,
            "nodes": problem.node_count, "method": result.method}


# attributes read from a call's arguments and result, by span name
ATTRS = {SOLVE: _solve_attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.iteration = -1
        self.names: set[str] = set()     # span names that have a wrapper
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + ".")
                        and not obj.__name__.startswith("_")):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.split('.', 1)[1]}.{obj.__qualname__}"
                    wrappers[obj] = self._wrap(obj, name)
                self._patch(mod, attr, wrappers[obj])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._patch(cls, meth, self._wrap(fn, f"{mod_name}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str):
        self.names.add(name)
        attrs_of = ATTRS.get(name)
        measure_memory = name == SOLVE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            own_tracemalloc = measure_memory and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            attrs = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                if own_tracemalloc:
                    attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self.spans[index] = Span(name, start, end, index, parent,
                                         self.iteration, attrs)
            if attrs_of is not None:
                attrs.update(attrs_of(args, kwargs, result))
            return result

        return traced

    # -- spans recorded by the benchmark itself -------------------------------

    def enter(self, name: str, **attrs) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, index,
                               self.stack[-1] if self.stack else -1,
                               self.iteration, attrs))
        self.stack.append(index)
        return index

    def leave(self, index: int) -> None:
        self.stack.pop()
        self.spans[index].end = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span around the benchmark's own code; yields its attributes.
        Records nothing while the wrappers are not installed."""
        if not self._patches:
            yield attrs
            return
        index = self.enter(name, **attrs)
        try:
            yield self.spans[index].attrs
        finally:
            self.leave(index)

    # -- output ---------------------------------------------------------------

    def iteration_spans(self, iteration: int) -> "IterationTrace":
        return IterationTrace([s for s in self.spans if s.iteration == iteration],
                              self.spans)

    def absent(self) -> list[str]:
        """Spans that per-layer metrics read but no wrapper produces."""
        wanted = {m.span for m in PER_LAYER if not m.span.startswith("bench.")}
        return sorted(w for w in wanted
                      if not any(n == w or n.startswith(w + ".") for n in self.names))

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s.index, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "iteration": s.iteration, "attrs": s.attrs},
                                    sort_keys=True) + "\n")


class IterationTrace:
    """The spans of one iteration, with parent lookups into the full list."""

    def __init__(self, spans: list[Span], all_spans: list[Span]):
        self.spans = spans
        self.all = all_spans
        self.child_seconds: dict[int, float] = {}
        for s in spans:
            if s.parent >= 0:
                self.child_seconds[s.parent] = self.child_seconds.get(s.parent, 0.0) + s.seconds

    def ancestors(self, span: Span):
        p = span.parent
        while p >= 0:
            yield self.all[p]
            p = self.all[p].parent

    def named(self, name: str, outermost: bool = True):
        for s in self.spans:
            if s.name == name and not (outermost and any(a.name == name for a in self.ancestors(s))):
                yield s

    def self_seconds(self, span: Span) -> float:
        return span.seconds - self.child_seconds.get(span.index, 0.0)


@dataclass
class LayerMetric:
    name: str
    unit: str
    span: str              # span name, or module prefix for `self_of`
    reduce: object         # (IterationTrace, span, **options) -> float
    options: dict = field(default_factory=dict)

    def value(self, tr: IterationTrace) -> float:
        return float(self.reduce(tr, self.span, **self.options))


def total(tr, span, case=None):
    """Seconds in the outermost spans of a name, optionally within a case."""
    return sum(s.seconds for s in tr.named(span)
               if case is None or any(a.attrs.get("case") == case for a in tr.ancestors(s)))


def self_of(tr, prefix):
    """Self seconds of the spans named `prefix` or inside module `prefix`."""
    return sum(tr.self_seconds(s) for s in tr.spans
               if s.name == prefix or s.name.startswith(prefix + "."))


def count(tr, span, **match):
    return sum(1 for s in tr.named(span, outermost=False)
               if all(s.attrs.get(k) == v for k, v in match.items()))


def attr_sum(tr, span, key):
    return sum(s.attrs.get(key, 0.0) for s in tr.named(span))


def attr_max(tr, span, key):
    return max((s.attrs.get(key, 0.0) for s in tr.named(span)), default=0.0)


def M(name, unit, span, reduce=total, **options):
    return LayerMetric(name, unit, span, reduce, options)


PER_LAYER = [
    M("estimator.build_factors_s", "s", "estimator.build_factors"),
    M("estimator.solve_self_s", "s", SOLVE, self_of),
    M("estimator.solve_peak_mb", "MB", SOLVE, attr_max, key="peak_mb"),
    M("estimator.solve_n128_s", "s", SOLVE, case="n128"),
    M("estimator.solve_n256_s", "s", SOLVE, case="n256"),
    M("estimator.solve_n512_s", "s", SOLVE, case="n512"),
    M("estimator.solve_short_s", "s", SOLVE, case="short"),
    M("estimator.solves", "count", SOLVE, count),
    M("estimator.dense_solves", "count", SOLVE, count, method="dense"),
    M("estimator.fit_nodes", "count", SOLVE, attr_sum, key="nodes"),
    M("flows.hamiltonian_simulate_s", "s", "flows.hamiltonian_flow_simulate"),
    M("kernels.eval_s", "s", "kernels.SmoothKernel.eval"),
    M("kernels.eval_calls", "count", "kernels.SmoothKernel.eval", count),
    M("rkhs.value_self_s", "s", "rkhs.RkhsFunction.value", self_of),
    M("analysis.stability_s", "s", "analysis.stability_experiment"),
    M("analysis.w2_s", "s", "analysis.wasserstein2_1d"),
    M("estimator.data_functional_s", "s", "estimator.assemble_data_functional"),
    M("flows.christoffel_s", "s", "flows.christoffel_term"),
    M("flows.pinv_s", "s", "flows.weighted_laplacian_pinv"),
    M("estimator.stationarity_s", "s", "estimator.stationarity_residual"),
    M("rkhs.inner_s", "s", "rkhs.rkhs_inner"),
    M("kernels.gram_s", "s", "kernels.SmoothKernel.gram"),
    M("mesh.write_trajectory_s", "s", "mesh.write_trajectory"),
    M("mesh.read_trajectory_s", "s", "mesh.read_trajectory"),
    M("cli.simulate_s", "s", "cli.cmd_simulate"),
    M("cli.estimate_s", "s", "cli.cmd_estimate"),
    M("cli.stability_s", "s", "cli.cmd_stability"),
    M("cli.self_s", "s", "cli", self_of),
    M("cli.artifact_bytes", "bytes", "bench.iteration", attr_sum, key="artifact_bytes"),
]
OVERHEAD = "trace.overhead_s"
