"""Path audit of the traced run: time the next-best path for each cell.

For ``paper-cold`` the next-best path is the interpreted engine, run in
worker processes over spooled copies of the traces; for ``stream-long``
it is the whole-trace in-memory kernel. Neither counts toward the
traced run time.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.sim import simulate, spec
from repro.trace import load_trace

from .workloads import result_digest

#: Per-worker memo of spooled traces (worker processes only).
_TRACES: Dict[str, object] = {}


def _load(path: Optional[str]):
    if path is None:
        return None
    if path not in _TRACES:
        _TRACES[path] = load_trace(path)
    return _TRACES[path]


def interpret_cell(task) -> Tuple[str, float, str]:
    """``(cell, seconds, digest)`` of one cell on the interpreted engine."""
    cell, name, test_path, training_path, switches = task
    predictor = spec(name)(_load(training_path))
    test = _load(test_path)
    started = time.perf_counter()
    result = simulate(predictor, test, context_switches=switches, backend="python")
    return cell, time.perf_counter() - started, result_digest(result)


def interpret_all(tasks: List[tuple], workers: int) -> List[Tuple[str, float, str]]:
    """Run :func:`interpret_cell` over ``tasks`` in ``workers`` processes.

    Forked, not spawned: a spawn context starts multiprocessing's
    resource-tracker process, which nothing waits for and which outlives
    the benchmark. Forked workers need no tracker, and the executor joins
    each of them on exit. The traced run has removed its instrumentation
    before the audit, so workers inherit the program as it ships.
    """
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(interpret_cell, tasks))
