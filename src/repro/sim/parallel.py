"""Parallel, cached execution of (scheme x benchmark) sweeps.

The paper's evaluation is a large cross product — Figures 5-11 replay
nine traces through dozens of predictor configurations — and every cell
is independent of every other. This module is the execution layer that
exploits that:

* **Fan-out** — cells are distributed over worker processes
  (:class:`concurrent.futures.ProcessPoolExecutor`). ``n_workers=1``
  takes a deterministic in-process path with no executor involved.
* **Picklable work units** — workers receive a :class:`PredictorSpec`
  (a registry name, e.g. ``"pag-12"``) rather than a closure, plus the
  path of a spooled trace file. Plain-callable builders (lambdas) still
  work: they are detected as unpicklable and executed in the parent
  process, so ``run_matrix`` never rejects a builder.
* **Result caching** — with a :class:`~repro.trace.cache.ResultCache`,
  each cell is keyed by a content-hash of the trace bytes, the scheme's
  cache key and the context-switch configuration
  (:func:`result_cache_key`); warm reruns execute zero simulations.
* **Telemetry** — every cell runs through one cell function that
  records it as spans (:mod:`repro.obs.spans`); the per-cell
  :class:`~repro.sim.results.CellTelemetry` and live heartbeats are
  views over those spans, and the run's
  :class:`~repro.sim.results.RunTelemetry` (per-cell wall time, cache
  hit/miss counts) is attached to the returned matrix.

Determinism guarantee: for fixed builders, cases and configuration, the
returned :class:`~repro.sim.results.ResultMatrix` is bit-identical for
every ``n_workers`` value and for cold or warm caches — cells are
independent simulations, results are reassembled in the same
scheme-major order the serial loop uses, and cached cells store the
exact integer counts the simulation produced.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..predictors.base import BranchPredictor, TrainingUnavailable
from ..trace.cache import ResultCache
from ..trace.events import Trace
from ..trace.io import dumps as trace_dumps
from ..trace.io import load_trace, save_trace
from .engine import ContextSwitchConfig, simulate_with_backend
from .results import CellTelemetry, ResultMatrix, RunTelemetry, SimulationResult

__all__ = [
    "PredictorSpec",
    "execute_matrix",
    "result_cache_key",
    "spec",
    "trace_digest",
]

#: Bumped whenever the cached payload layout or key recipe changes, so
#: stale caches from older revisions can never satisfy a new lookup.
_KEY_VERSION = "v1"


@dataclass(frozen=True)
class PredictorSpec:
    """A picklable, cacheable predictor builder.

    Wraps a name understood by
    :func:`repro.predictors.registry.make_predictor` (friendly grammar
    like ``"pag-12-a2-512x4"`` or a full Table 3 configuration string)
    and behaves as a ``PredictorBuilder``: calling it with the
    benchmark's training trace (or ``None``) returns a fresh predictor.

    Unlike a lambda, a spec survives pickling (so it can cross a
    process boundary) and carries a stable :attr:`cache_key` (so its
    results can live in the on-disk result cache).
    """

    name: str

    def __call__(self, training_trace: Optional[Trace]) -> BranchPredictor:
        """Build a fresh predictor; raises ``TrainingUnavailable`` when
        the scheme needs a training trace the benchmark lacks."""
        from ..predictors.registry import make_predictor

        if self.requires_training and training_trace is None:
            raise TrainingUnavailable(f"{self.name} needs a training trace")
        return make_predictor(self.name, training_trace)

    @property
    def requires_training(self) -> bool:
        """True for the statically-trained schemes (GSg/PSg/Profile).

        Determines whether the training trace participates in the
        cell's cache key: schemes that ignore the training trace must
        not be invalidated when it changes.
        """
        text = self.name.strip().lower()
        return text == "profile" or text.startswith(("gsg", "psg"))

    @property
    def cache_key(self) -> str:
        """Stable identity of the scheme configuration for result keys."""
        return f"spec:{self.name.strip().lower()}"


def spec(name: str) -> PredictorSpec:
    """Shorthand constructor: ``spec("pag-12")``."""
    return PredictorSpec(name)


def _serialized_digest(trace: Trace) -> str:
    return hashlib.sha256(trace_dumps(trace)).hexdigest()


def trace_digest(trace) -> str:
    """Content-hash of a trace (sha256 over its binary serialization).

    Two traces with identical records and metadata always digest
    equally, regardless of how they were produced. Accepts any bounded
    :class:`repro.trace.stream.TraceSource`; a non-``Trace`` source is
    hashed block-wise via :func:`repro.trace.stream.content_digest`
    (the same digest, computed in bounded memory). A ``Trace`` caches
    its digest (see :meth:`repro.trace.events.Trace.cached_digest`), so
    a sweep serializes each in-memory trace once.
    """
    if isinstance(trace, Trace):
        return trace.cached_digest(_serialized_digest)
    from ..trace.stream import content_digest

    return content_digest(trace)


def result_cache_key(
    test_digest: str,
    builder_key: str,
    context_switches: Optional[ContextSwitchConfig],
    training_digest: Optional[str] = None,
) -> str:
    """The result-cache key for one (scheme, benchmark) cell.

    Args:
        test_digest: :func:`trace_digest` of the scored trace.
        builder_key: the builder's ``cache_key`` (scheme configuration).
        context_switches: the run's context-switch model (``None`` for
            an undisturbed run); both fields participate in the key.
        training_digest: digest of the training trace, for schemes whose
            predictor depends on it (``None`` otherwise).
    """
    if context_switches is None:
        cs_part = "cs:none"
    else:
        cs_part = f"cs:{context_switches.interval}:{int(context_switches.switch_on_traps)}"
    parts = [
        _KEY_VERSION,
        f"trace:{test_digest}",
        f"builder:{builder_key}",
        cs_part,
        f"training:{training_digest or 'none'}",
    ]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------

#: Per-worker-process memo of spooled traces, so a worker deserializes
#: each benchmark trace once no matter how many of its cells it draws.
_TRACE_MEMO: Dict[str, Trace] = {}


def _load_trace(trace):
    """A cell's trace: in-process cells pass the trace itself (or
    ``None``), pool cells the path of its spooled file."""
    if not isinstance(trace, str):
        return trace
    loaded = _TRACE_MEMO.get(trace)
    if loaded is None:
        loaded = load_trace(trace)
        # Deliberate per-worker-process memo: never read by the parent.
        _TRACE_MEMO[trace] = loaded  # check: allow(conc/global-write-in-worker)
    return loaded


def _pulse(heartbeats, label: str, case_name: str) -> None:
    """Best-effort ``start`` pulse; telemetry must never fail a cell.

    A plain tuple (the :class:`repro.obs.live.Heartbeat` field order),
    so the worker side stays import-free; the parent rewraps it.
    """
    if heartbeats is None:
        return
    try:
        heartbeats.put((os.getpid(), "start", label, case_name))
    except Exception:
        pass


def _run_cell(
    label: str,
    case_name: str,
    builder,
    test_trace,
    training_trace,
    context_switches: Optional[ContextSwitchConfig],
    backend: str = "auto",
    heartbeats=None,
) -> Tuple[Optional[SimulationResult], List[Any]]:
    """Execute one cell, in the parent process or in a pool worker.

    ``test_trace`` / ``training_trace`` are the traces themselves for
    in-process cells and paths of spooled trace files for pool cells.
    Returns ``(result, spans)``; a ``None`` result means the builder
    raised ``TrainingUnavailable``. The spans are the cell's subtree: a
    ``"cell"`` span with ``trace_load`` / ``build`` / ``simulate``
    children and the engine's spans under ``simulate``, recorded on a
    recorder enabled only while the cell runs. The ``cell`` span's args
    carry the backend that ran (``""`` when none did), the branches
    simulated and the process's resource reading at cell end;
    :func:`_cell_views` derives the cell's telemetry and heartbeat from
    them. When ``heartbeats`` (a multiprocessing queue) is given, the
    cell announces its start on it.
    """
    from ..obs import spans
    from ..obs.resources import read_resources

    result: Optional[SimulationResult] = None
    used_backend = ""
    with spans.recording() as recorder, spans.span(
        "cell", cat="sweep", scheme=label, benchmark=case_name
    ) as cell:
        _pulse(heartbeats, label, case_name)
        with spans.span("trace_load", cat="phase"):
            test_trace = _load_trace(test_trace)
            training_trace = _load_trace(training_trace)
        with spans.span("build", cat="phase"):
            try:
                predictor = builder(training_trace)
            except TrainingUnavailable:
                predictor = None
        if predictor is not None:
            with spans.span("simulate", cat="phase"):
                result, used_backend = simulate_with_backend(
                    predictor,
                    test_trace,
                    context_switches=context_switches,
                    backend=backend,
                )
        cell.update(
            backend=used_backend,
            branches=result.conditional_branches if result is not None else 0,
            **read_resources().as_args(),
        )
    return result, recorder.spans


def _lookup_cell(
    result_cache: ResultCache, key: str, label: str, case_name: str
) -> Tuple[bool, Optional[SimulationResult], List[Any]]:
    """Look one cell up in the result cache: ``(hit, result, spans)``.

    The spans are a hit's subtree: a ``"cell"`` span (``cached=True``,
    ``backend="cache"``) with one ``cache_lookup`` child. Backends are
    excluded from cache keys, so a hit reports no engine backend: one
    would attribute the *cached* run's engine to a near-zero lookup and
    pollute ``regress()``'s per-backend throughput medians.
    """
    from ..obs import spans

    result: Optional[SimulationResult] = None
    with spans.recording() as recorder, spans.span(
        "cell", cat="sweep", scheme=label, benchmark=case_name, cached=True
    ) as cell:
        with spans.span("cache_lookup", cat="phase"):
            hit, payload = result_cache.load(key)
            if payload is not None:
                result = SimulationResult.from_dict(payload)
        cell["backend"] = "cache" if result is not None else ""
    return hit, result, recorder.spans


def _cell_views(
    cell_spans: Sequence[Any], result: Optional[SimulationResult]
) -> Tuple[CellTelemetry, Any]:
    """A cell's :class:`CellTelemetry` and heartbeat, read off its spans.

    ``wall_time`` is the ``cell`` span's seconds, ``phases`` the
    per-name totals of its children, ``backend`` and ``rss_peak`` its
    args; the heartbeat (``done``, or ``cached`` for a cache hit)
    carries the same wall time and RSS plus the branch count.
    """
    from ..obs.live import Heartbeat
    from ..obs.spans import cell_phase_totals

    (cell,) = [span for span in cell_spans if span.name == "cell"]
    scheme, benchmark = cell.args["scheme"], cell.args["benchmark"]
    cached = cell.args.get("cached", False)
    telemetry = CellTelemetry(
        scheme,
        benchmark,
        cell.seconds,
        "unavailable" if result is None else "cache" if cached else "simulated",
        phases=cell_phase_totals(cell_spans)[(scheme, benchmark)],
        backend=cell.args.get("backend", ""),
        rss_peak=cell.args.get("peak_rss_bytes", 0),
    )
    beat = Heartbeat(
        worker=0 if cached else cell.pid,
        kind="cached" if cached else "done",
        scheme=scheme,
        benchmark=benchmark,
        branches=cell.args.get("branches", 0),
        wall=telemetry.wall_time,
        rss_bytes=telemetry.rss_peak,
    )
    return telemetry, beat


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


def _is_picklable(builder) -> bool:
    try:
        pickle.dumps(builder)
        return True
    except Exception:
        return False


def execute_matrix(
    builders: Mapping[str, "PredictorBuilder"],  # noqa: F821 - doc alias
    cases: Sequence["BenchmarkCase"],  # noqa: F821
    context_switches: Optional[ContextSwitchConfig] = None,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[Any], None]] = None,
    tick: Optional[Callable[[], None]] = None,
    progress_interval: float = 0.5,
    backend: str = "auto",
    tracer: Optional[Any] = None,
) -> ResultMatrix:
    """Evaluate every scheme on every benchmark, in parallel and cached.

    This is the engine behind :func:`repro.sim.runner.run_matrix`; call
    that instead unless you are building new sweep machinery.

    Args:
        builders: scheme label -> builder. :class:`PredictorSpec`
            builders parallelize and cache; plain callables run in the
            parent process and bypass the cache.
        cases: the benchmark suite, figure order.
        context_switches: applied to every simulation when given.
        backend: simulation backend passed through to
            :func:`repro.sim.engine.simulate_with_backend` for every
            cell — ``"auto"`` (default) uses the vectorized kernels
            where available and falls back per predictor, ``"python"``
            forces the interpreted loop, ``"vectorized"`` fails loudly
            on unsupported predictors. Backends are bit-identical, so
            the choice does not participate in result-cache keys: a
            cell cached under one backend satisfies lookups under any
            other (cache hits report ``backend="cache"``). The backend
            that actually ran each cell is recorded in the telemetry.
        n_workers: worker processes; ``1`` is a plain in-process loop
            (no executor, no trace spooling) whose results every other
            worker count reproduces bit-identically.
        result_cache: on-disk cell cache; ``None`` disables caching.
        progress: live-monitoring hook; receives one
            :class:`repro.obs.live.Heartbeat` per cell event (start /
            done / cached), always from the parent process, so the hook
            needs no locking. Workers' ``start`` pulses travel over a
            ``multiprocessing`` manager queue; ``done`` and ``cached``
            beats are views over each cell's spans. ``None`` (the
            default) adds zero overhead — no manager, no queue, no wait
            timeouts.
        tick: called roughly every ``progress_interval`` seconds while
            remote cells are in flight (and after every local cell), so
            a ``--follow`` renderer can refresh ETA/staleness even when
            no heartbeat arrived.
        progress_interval: polling period for ``tick`` draining.
        tracer: optional :class:`repro.obs.spans.SpanCollector` that
            receives the sweep's spans: a ``"sweep"`` root and each
            cell's subtree (``cell`` → phases → engine spans), which
            returns with the cell's result from whichever process ran
            it. ``None`` drops them once the cell's telemetry is read.

    Returns:
        A :class:`ResultMatrix` with telemetry attached.

    Every cell is recorded as spans, whether or not a ``tracer`` is
    given: the telemetry and heartbeats are views over them. The sweep
    records on recorders of its own, enabled only while it runs; on
    exit, normal or by exception, the caller's recorder (if any) is
    current again and untouched. Heartbeats and spans are telemetry
    only: results, ordering and cache contents are bit-identical with
    or without a ``progress`` hook or a ``tracer``.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    # Deferred imports: repro.obs imports repro.sim.results, so
    # module-level imports here would cycle during package init.
    from ..obs import spans
    from ..obs.live import Heartbeat
    from ..obs.log import get_logger

    logger = get_logger("sim.parallel")
    logger.event(
        "matrix_start",
        schemes=len(builders),
        benchmarks=len(cases),
        workers=n_workers,
        cached=result_cache is not None,
        backend=backend,
    )
    telemetry = RunTelemetry(n_workers=n_workers)
    matrix = ResultMatrix(
        benchmarks=[case.name for case in cases],
        categories={case.name: case.category for case in cases},
        telemetry=telemetry,
    )
    # (label, case.name) -> (result, the cell's telemetry view)
    outcomes: Dict[Tuple[str, str], Tuple[Optional[SimulationResult], CellTelemetry]] = {}

    def finish(key: Optional[str], result: Optional[SimulationResult], cell_spans) -> None:
        cell, beat = _cell_views(cell_spans, result)
        outcomes[(cell.scheme, cell.benchmark)] = (result, cell)
        if key is not None and result_cache is not None:
            result_cache.store(key, result.to_dict() if result is not None else None)
        if tracer is not None:
            tracer.ingest(cell_spans)
        if progress is not None:
            progress(beat)

    def run_here(label: str, case, key: Optional[str]) -> None:
        if progress is not None:
            progress(Heartbeat(worker=os.getpid(), kind="start", scheme=label,
                               benchmark=case.name))
        finish(key, *_run_cell(label, case.name, builders[label], case.test_trace,
                               case.training_trace, context_switches, backend))
        if tick is not None:
            tick()

    with spans.recording() as recorder, spans.span(
        "sweep", cat="sweep", schemes=len(builders), benchmarks=len(cases),
        workers=n_workers,
    ) as sweep:
        # Digest each case's traces once (only needed for cache keys).
        digests: Dict[str, Tuple[str, Optional[str]]] = {}
        if result_cache is not None:
            for case in cases:
                digests[case.name] = (
                    trace_digest(case.test_trace),
                    trace_digest(case.training_trace) if case.training_trace else None,
                )

        # Phase 1: resolve what we can from the cache, in cell order.
        pending: List[Tuple[str, "BenchmarkCase", Optional[str]]] = []
        for label, builder in builders.items():
            builder_key = getattr(builder, "cache_key", None)
            for case in cases:
                if result_cache is None or builder_key is None:
                    if result_cache is not None:
                        telemetry.uncacheable += 1
                    pending.append((label, case, None))
                    continue
                test_digest, training_digest = digests[case.name]
                key = result_cache_key(
                    test_digest,
                    builder_key,
                    context_switches,
                    training_digest if getattr(builder, "requires_training", True) else None,
                )
                hit, result, cell_spans = _lookup_cell(result_cache, key, label, case.name)
                if hit:
                    finish(None, result, cell_spans)
                else:
                    telemetry.cache_misses += 1
                    pending.append((label, case, key))

        # Phase 2: compute the remaining cells — in worker processes when
        # asked and possible, in-process otherwise.
        pooled = {
            label: n_workers > 1 and _is_picklable(builder)
            for label, builder in builders.items()
        }
        remote = [cell for cell in pending if pooled[cell[0]]]
        local = [cell for cell in pending if not pooled[cell[0]]]
        if not remote:
            for cell in local:
                run_here(*cell)
        else:
            spool = Path(tempfile.mkdtemp(prefix="repro-spool-"))
            manager = None
            heartbeats = None
            if progress is not None:
                # A manager queue (not a raw mp.Queue) because the executor
                # pickles task arguments; manager proxies survive that.
                import multiprocessing

                manager = multiprocessing.Manager()
                heartbeats = manager.Queue()

            def drain() -> None:
                if heartbeats is None:
                    return
                while True:
                    try:
                        message = heartbeats.get_nowait()
                    except Exception:  # queue.Empty, or the manager is gone
                        return
                    progress(Heartbeat(*message))

            try:
                trace_paths = _spool_traces({case.name: case for _, case, _ in remote}, spool)
                with ProcessPoolExecutor(max_workers=n_workers) as pool:
                    futures = {
                        pool.submit(
                            _run_cell,
                            label,
                            case.name,
                            builders[label],
                            *trace_paths[case.name],
                            context_switches,
                            backend,
                            heartbeats,
                        ): key
                        for label, case, key in remote
                    }
                    for cell in local:
                        run_here(*cell)
                    not_done = set(futures)
                    poll = progress_interval if progress is not None or tick is not None else None
                    while not_done:
                        done, not_done = wait(not_done, timeout=poll, return_when=FIRST_COMPLETED)
                        # Start pulses first: a cell's start is queued before
                        # its result can arrive, so its done beat follows it.
                        drain()
                        if tick is not None:
                            tick()
                        for future in done:
                            finish(futures[future], *future.result())
                drain()
                if tick is not None:
                    tick()
            finally:
                shutil.rmtree(spool, ignore_errors=True)
                if manager is not None:
                    manager.shutdown()

        # Phase 3: assemble in the canonical (scheme-major) order, so the
        # matrix layout is independent of completion order.
        for label in builders:
            for case in cases:
                result, cell = outcomes[(label, case.name)]
                telemetry.add(cell)
                if result is not None:
                    matrix.add(label, result)
        sweep["cells"] = telemetry.total_cells
    sweep_spans = recorder.spans
    telemetry.wall_time = sweep_spans[-1].seconds
    if tracer is not None:
        tracer.ingest(sweep_spans)
    logger.event(
        "matrix_done",
        cells=telemetry.total_cells,
        simulations=telemetry.simulations,
        cache_hits=telemetry.cache_hits,
        unavailable=telemetry.unavailable,
        wall_s=round(telemetry.wall_time, 3),
    )
    return matrix


def _spool_traces(
    cases_by_name: Mapping[str, "BenchmarkCase"],  # noqa: F821
    spool: Path,
) -> Dict[str, Tuple[str, Optional[str]]]:
    """Write each distinct trace to the spool directory once.

    Workers load traces from these files (memoized per process) instead
    of receiving multi-megabyte pickled columns with every task.
    """
    paths: Dict[str, Tuple[str, Optional[str]]] = {}
    for name, case in cases_by_name.items():
        test_path = spool / f"{name}-test.btb"
        save_trace(case.test_trace, test_path)
        training_path: Optional[str] = None
        if case.training_trace is not None:
            path = spool / f"{name}-training.btb"
            save_trace(case.training_trace, path)
            training_path = str(path)
        paths[name] = (str(test_path), training_path)
    return paths
