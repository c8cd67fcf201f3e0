"""Per-layer spans recorded from outside smfilter.

A Tracer wraps the public functions of the layer modules (scenarios,
ellipsoid, mvee, dsmf, baselines, harness), except the UNTRACED helpers.
Modules import each other's functions by name (harness calls `step`,
baselines calls `optimize_rho`), so the wrapper is installed under every
module attribute that is bound to the original function, and `restore`
puts each original back.  A span records the function, its parent span,
its start and end, and a few facts taken from the return value (solver
iterations, the chosen rho, the files written).  Spans stay in memory;
`layer_metrics` reduces them to per-layer figures.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

import numpy as np

# Helpers called once per solver iteration or per matrix operation.  They
# are not layer boundaries, no figure uses them, and wrapping them would
# add more time than the spans around them measure.
UNTRACED = {"mvee.line_search_step", "ellipsoid.symmetrize", "ellipsoid.spd_cholesky"}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float = 0.0
    end: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _facts(name: str, result) -> dict:
    if name == "mvee.fw_solve":
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "dsmf.optimize_rho":
        return {"rho": result.rho}
    if name == "harness.emit_outputs":
        return {"files": len(result), "bytes": sum(p.stat().st_size for p in result)}
    return {}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.facts = _facts(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        wrappers = {}
        for short, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and f"{short}.{attr}" not in UNTRACED):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return self

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def ancestors(self, span: Span):
        while span.parent >= 0:
            span = self.spans[span.parent]
            yield span.name


def _noop():
    return None


def wrapper_seconds(calls: int = 20000, batches: int = 5) -> float:
    """Seconds one traced call adds: a wrapped no-op timed against the bare
    no-op, as the median over batches.  Times the span count, this
    estimates what tracing adds to a round, which the difference of a
    traced and an untraced round cannot show on a machine that drifts by
    more than that between rounds."""
    traced = Tracer({})._wrap("noop", _noop)
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            _noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return float(np.median(costs))


def _timed(prefix: str, spans) -> dict:
    return {f"{prefix}.ms": 1e3 * sum(s.seconds for s in spans), f"{prefix}.calls": len(spans)}


def _solves(prefix: str, spans) -> dict:
    iters = [s.facts["iterations"] for s in spans]
    return {
        **_timed(prefix, spans),
        f"{prefix}.iters_p50": float(np.percentile(iters, 50)),
        f"{prefix}.iters_p95": float(np.percentile(iters, 95)),
        f"{prefix}.capped": sum(not s.facts["converged"] for s in spans),
    }


def solver_metrics(tracer: Tracer) -> dict:
    """Totals over the replayed solves: the fw_solve calls made by the
    benchmark itself rather than by a filter."""
    spans = [s for s in tracer.spans if s.name == "mvee.fw_solve" and s.parent < 0]
    iters = [s.facts["iterations"] for s in spans]
    ms = [1e3 * s.seconds for s in spans]
    return {
        "mvee.solves": len(spans),
        "mvee.iters_total": int(np.sum(iters)),
        "mvee.iters_p50": float(np.percentile(iters, 50)),
        "mvee.iters_p95": float(np.percentile(iters, 95)),
        "mvee.capped": sum(not s.facts["converged"] for s in spans),
        "mvee.ms_p50": float(np.percentile(ms, 50)),
        "mvee.ms_p95": float(np.percentile(ms, 95)),
        "mvee.us_per_iter": 1e3 * float(np.sum(ms)) / max(int(np.sum(iters)), 1),
    }


def layer_metrics(tracer: Tracer, rho_edge: float) -> dict:
    """Per-layer figures of a traced round.

    Rho counts as at the edge of its search interval when it lies within
    rho_edge of 0 or 1.
    """
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def parent(s: Span) -> str:
        return spans[s.parent].name if s.parent >= 0 else ""

    def rho_search(owner: str) -> tuple[list[Span], int]:
        searches = [s for s in by_name["dsmf.optimize_rho"] if parent(s) == owner]
        fuse_calls = 0
        for s in by_name["dsmf.fuse"]:
            callers = set(tracer.ancestors(s))
            fuse_calls += "dsmf.optimize_rho" in callers and owner in callers
        return searches, fuse_calls

    out = _timed("scenarios.simulate_truth", by_name["scenarios.simulate_truth"])
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_seconds[s.parent] += s.seconds
    out["dsmf.step.self_ms"] = 1e3 * sum(
        s.seconds - child_seconds[i] for i, s in enumerate(spans) if s.name == "dsmf.step")
    out["dsmf.step.calls"] = len(by_name["dsmf.step"])
    out.update(_timed("ellipsoid.sample", [
        s for s in spans
        if s.name in ("ellipsoid.sample_boundary", "ellipsoid.sample_interior")
        and parent(s) == "dsmf.predict"
    ]))
    solves = by_name["mvee.fw_solve"]
    out.update(_solves("mvee.pred", [s for s in solves if parent(s) == "dsmf.predict"]))
    out.update(_solves("mvee.meas", [
        s for s in solves if parent(s) == "dsmf.measurement_ellipsoid"]))
    searches, fuse_calls = rho_search("dsmf.step")
    out.update(_timed("dsmf.rho", searches))
    out["dsmf.rho.fuse_calls"] = fuse_calls
    out["dsmf.rho.at_edge"] = sum(
        min(s.facts["rho"], 1.0 - s.facts["rho"]) <= rho_edge for s in searches)
    out.update(_timed("baselines.esmf.remainder", [
        s for s in spans
        if s.name in ("baselines.remainder_bound_f", "baselines.remainder_bound_h")]))
    searches, fuse_calls = rho_search("baselines.esmf_update")
    out.update(_timed("baselines.esmf.rho", searches))
    out["baselines.esmf.rho.fuse_calls"] = fuse_calls
    out.update(_timed("baselines.ukf", by_name["baselines.ukf_step"]))
    out.update(_timed("harness.compute_metrics", by_name["harness.compute_metrics"]))
    emits = by_name["harness.emit_outputs"]
    out.update(_timed("harness.emit_outputs", emits))
    out["harness.files_written"] = sum(s.facts["files"] for s in emits)
    out["harness.bytes_written"] = sum(s.facts["bytes"] for s in emits)
    out.update(solver_metrics(tracer))
    return out
