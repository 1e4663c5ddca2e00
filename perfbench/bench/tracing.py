"""The traced run: spans around the program's public functions.

:func:`instrument` replaces each traced function *where the program
looks it up* (a module global or a class attribute) with a wrapper that
records one span — name, start, end, parent, attributes — and restores
the originals on exit. Spans stay in memory; :func:`layer_metrics`
turns them into per-layer self times and counts when the run ends. A
span's self time is its duration minus the time its child spans cover,
so every traced second is counted in exactly one layer.

Nothing inside the program is changed or instrumented: the spans sit
at layer boundaries the benchmark can see from outside.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, List, Optional

import repro.experiments.figures as figures_module
import repro.sim.engine as engine_module
import repro.sim.parallel as parallel_module
from repro.trace.cache import ResultCache
from repro.workloads.base import Workload

from .workloads import result_digest

#: First-level families the kernel metrics are split by.
FAMILIES = ("global", "pa_direct", "pa_assoc", "pa_assoc_cs", "hybrid", "static")

_STATIC = {"AlwaysTaken", "AlwaysNotTaken", "BTFN", "ProfileGuided"}
_HYBRID = {"TournamentPredictor", "GselectPredictor"}


def first_level_family(predictor, context_switches) -> str:
    """The first-level state a predictor keeps, as a metric family.

    Schemes with a per-address table (``bht``: PAg, PAp, PSg, BTB) split
    by the table's organisation, and set-associative ones also by
    context switches, which cut LRU epochs short. Everything else with
    history registers but no tagged table (GAg, GAp, gshare, GSg, SAg,
    SAs) is ``global``.
    """
    kind = type(predictor).__name__
    if kind in _STATIC:
        return "static"
    if kind in _HYBRID:
        return "hybrid"
    bht = getattr(predictor, "bht", None)
    if bht is None:
        return "global"
    if getattr(bht, "associativity", 1) <= 1:
        return "pa_direct"
    return "pa_assoc" if context_switches is None else "pa_assoc_cs"


class Tracer:
    """An in-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args, attrs=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``attrs(args, kwargs, result)`` may return attributes to attach.
        """
        index = len(self.spans)
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else -1,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span["attrs"] = attrs(args, kwargs, result)
        return result

    def wrap(self, name: str, fn: Callable, attrs=None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)

        return traced

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's, by span index."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] >= 0:
                own[span["parent"]] -= span["end"] - span["start"]
        return own


def calibrate_span_cost(samples: int = 20000) -> float:
    """Seconds one traced call costs beyond the call itself (best of 5)."""

    def noop():
        return None

    best = float("inf")
    for _ in range(5):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        started = time.perf_counter()
        for _ in range(samples):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(samples):
            traced()
        best = min(best, (time.perf_counter() - started - plain) / samples)
    return max(best, 0.0)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace the program's layer boundaries for the ``with`` block.

    Each ``engine.simulate`` span records the registry name its
    predictor was built from (looked up while the predictor is alive),
    so the path audit can rebuild the cell.
    """
    built: Dict[int, str] = {}

    def build_attrs(args, kwargs, predictor):
        spec_, training = args[0], (args[1] if len(args) > 1 else kwargs.get("training_trace"))
        built[id(predictor)] = spec_.name
        return {"training": bool(spec_.requires_training and training is not None)}

    def simulate_attrs(args, kwargs, outcome):
        predictor = args[0]
        switches = kwargs.get("context_switches")
        result, used = outcome
        return {
            "family": first_level_family(predictor, switches),
            "requested": kwargs.get("backend", "python"),
            "used": used,
            "branches": result.conditional_branches,
            "scheme": built.get(id(predictor)),
            "trace": args[1].meta.name,
            "switches": switches,
            "digest": result_digest(result),
        }

    targets = [
        (Workload, "generate", "workloads.generate",
         lambda a, k, trace: {"records": len(trace)}),
        (parallel_module, "trace_digest", "trace.digest", None),
        (figures_module, "compute_stats", "trace.stats", None),
        (figures_module, "run_matrix", "parallel.run_matrix", None),
        (ResultCache, "load", "cache.load", lambda a, k, out: {"hit": bool(out[0])}),
        (ResultCache, "store", "cache.store", None),
        (parallel_module.PredictorSpec, "__call__", "predictors.build", build_attrs),
        (parallel_module, "simulate_with_backend", "engine.simulate", simulate_attrs),
        (engine_module, "simulate_with_backend", "engine.simulate", simulate_attrs),
    ]
    saved = []
    try:
        for owner, attribute, name, attrs in targets:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, attrs))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _quantile_ms(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, matrices, setup: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Per-layer self times and counts of one traced pass.

    ``matrices`` are the pass's result matrices, whose ``RunTelemetry``
    gives the ``parallel.*`` cell accounting; ``setup`` carries numbers
    measured outside this process (the ``stream-long`` writer child).
    """
    own = tracer.self_times()
    metrics: Dict[str, float] = {
        "workloads.generate_s": 0.0,
        "workloads.records": 0,
        "trace.digest_calls": 0,
        "trace.digest_s": 0.0,
        "trace.stats_s": 0.0,
        "trace.stream_write_s": 0.0,
        "trace.stream_read_s": 0.0,
        "cache.lookups": 0,
        "cache.hits": 0,
        "cache.load_s": 0.0,
        "cache.store_s": 0.0,
        "predictors.build_s": 0.0,
        "predictors.build.training_s": 0.0,
        "engine.python_s": 0.0,
        "engine.python_cells": 0,
        "kernels.fallback_cells": 0,
        "experiments.driver_overhead_s": 0.0,
    }
    for family in FAMILIES:
        metrics[f"kernels.{family}_s"] = 0.0
        metrics[f"kernels.{family}_branches"] = 0

    def add(key, value):
        metrics[key] += value

    for span, seconds in zip(tracer.spans, own):
        name, attrs = span["name"], span["attrs"]
        if not attrs and name in ("workloads.generate", "cache.load", "engine.simulate"):
            continue  # the call raised; its failure is counted by the reference check
        if name == "workloads.generate":
            add("workloads.generate_s", seconds)
            add("workloads.records", attrs["records"])
        elif name == "trace.digest":
            add("trace.digest_calls", 1)
            add("trace.digest_s", seconds)
        elif name == "trace.stats":
            add("trace.stats_s", seconds)
        elif name == "trace.stream_read":
            add("trace.stream_read_s", seconds)
        elif name == "cache.load":
            add("cache.lookups", 1)
            add("cache.hits", int(attrs["hit"]))
            add("cache.load_s", seconds)
        elif name == "cache.store":
            add("cache.store_s", seconds)
        elif name == "predictors.build":
            add("predictors.build_s", seconds)
            if attrs.get("training"):
                add("predictors.build.training_s", seconds)
        elif name == "engine.simulate":
            if attrs["used"] == "python":
                add("engine.python_s", seconds)
                add("engine.python_cells", 1)
                if attrs["requested"] == "auto":
                    add("kernels.fallback_cells", 1)
            else:
                add(f"kernels.{attrs['family']}_s", seconds)
                add(f"kernels.{attrs['family']}_branches", attrs["branches"])
        elif name == "experiments.run":
            add("experiments.driver_overhead_s", seconds)
    if setup:
        metrics["workloads.generate_s"] += setup["generate_s"]
        metrics["workloads.records"] += setup["records"]
        metrics["trace.stream_write_s"] += setup["write_s"]
    metrics["cache.hit_ratio"] = (
        metrics["cache.hits"] / metrics["cache.lookups"] if metrics["cache.lookups"] else 0.0
    )
    del metrics["cache.hits"]

    cells = [cell for matrix in matrices for cell in matrix.telemetry.cells]
    simulated = [cell.wall_time for cell in cells if cell.source == "simulated"]
    matrix_wall = sum(matrix.telemetry.wall_time for matrix in matrices)
    cell_wall = sum(cell.wall_time for cell in cells)
    workers = max((matrix.telemetry.n_workers for matrix in matrices), default=1)
    metrics.update({
        "parallel.simulated_cells": len(simulated),
        "parallel.cache_hits": sum(cell.source == "cache" for cell in cells),
        "parallel.unavailable_cells": sum(cell.source == "unavailable" for cell in cells),
        "parallel.overhead_s": matrix_wall - cell_wall,
        "parallel.worker_busy_frac": cell_wall / (workers * matrix_wall) if matrix_wall else 0.0,
        "parallel.longest_cell_s": max(simulated, default=0.0),
        "parallel.cell_p50_ms": _quantile_ms(simulated, 0.50),
        "parallel.cell_p95_ms": _quantile_ms(simulated, 0.95),
    })
    return metrics
