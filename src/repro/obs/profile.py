"""Profiling layer: per-call predictor timing and cProfile capture.

Phase timing (``trace_load``, ``build``, ``simulate``) is recorded as
spans (:mod:`repro.obs.spans`); this module covers the two finer
granularities a span cannot:

* :class:`TimingPredictor` — per-call ``predict`` / ``update`` totals.
  These stay plain counters rather than spans: a span per branch
  record would cost far more than the call it measures.
* :func:`run_cprofile` — wraps any callable and returns the top of the
  cumulative-time profile as text, for when span totals show *where*
  time goes but not *why*.

``perf_counter`` here is telemetry, never an input to a result — the
same allowance the determinism lint grants the run-telemetry layer
(see :mod:`repro.check.determinism`).

:class:`TimingPredictor` deliberately does **not** derive from
``BranchPredictor``: it is a duck-typed proxy (the engine only calls
``predict`` / ``update`` / ``on_context_switch`` / ``name``), and its
``predict`` necessarily mutates timer state — something the purity lint
rightly forbids for real predictors. Per-call timing costs real
overhead (two clock reads per branch); it is an opt-in diagnostic, not
a default.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from typing import Any, Callable, Dict, Tuple, TypeVar

__all__ = ["TimingPredictor", "run_cprofile"]

T = TypeVar("T")


class TimingPredictor:
    """Duck-typed predictor proxy timing every predict/update call.

    Transparent for simulation semantics: all four engine-facing calls
    delegate to the wrapped predictor unchanged, so results are
    bit-identical; only wall time is observed. :attr:`totals` maps
    ``"predict"`` / ``"update"`` to ``{"seconds", "calls"}`` — the
    :attr:`~repro.obs.report.RunReport.timing` entry shape — from the
    first call on.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.totals: Dict[str, Dict[str, float]] = {}

    def _add(self, call: str, started: float) -> None:
        total = self.totals.setdefault(call, {"seconds": 0.0, "calls": 0})
        total["seconds"] += time.perf_counter() - started
        total["calls"] += 1

    def predict(self, pc: int, target: int = 0) -> bool:
        started = time.perf_counter()
        prediction = self.inner.predict(pc, target)
        self._add("predict", started)
        return prediction

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        started = time.perf_counter()
        self.inner.update(pc, taken, target)
        self._add("update", started)

    def on_context_switch(self) -> None:
        self.inner.on_context_switch()

    def reset(self) -> None:
        self.inner.reset()

    def __getattr__(self, attr: str) -> Any:
        # Transparent to attribute probes: table lookups such as
        # TableStatsProbe's ``predictor.pht`` must reach the real
        # predictor through the proxy.
        return getattr(self.inner, attr)


def run_cprofile(
    fn: Callable[[], T], top: int = 25, sort: str = "cumulative"
) -> Tuple[T, str]:
    """Run ``fn`` under :mod:`cProfile`; return (value, profile text).

    Args:
        fn: zero-argument callable to profile.
        top: number of rows of the stats table to keep.
        sort: pstats sort key (``"cumulative"``, ``"tottime"``, ...).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    return value, buffer.getvalue()
