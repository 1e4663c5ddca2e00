"""The trace-driven branch prediction simulator (paper §4).

For every conditional branch in a trace the engine asks the predictor
for a direction, scores it against the recorded outcome, then informs
the predictor of the outcome. Non-conditional branches advance the
instruction clock but are not predicted (the paper studies conditional
branches only).

Context switches (paper §5.1.4) are simulated when enabled: whenever a
trap occurs in the trace, or every ``interval`` dynamic instructions if
no trap occurs, the engine calls ``predictor.on_context_switch()`` —
which flushes the branch history table but leaves pattern history
tables alone.

Observability (see :mod:`repro.obs`): ``simulate`` optionally accepts a
*probe* — any object with the :class:`repro.obs.Probe` callback surface
(``on_run_start``, ``on_branch``, ``on_interval``, ``on_context_switch``,
``on_run_end``). With no probe attached the engine takes a separate
fast path containing not a single extra per-record operation, so
results are bit-identical to — and as fast as — a probe-less build;
with a probe attached, results are still bit-identical because probes
only *observe* (the purity lint in :mod:`repro.check` enforces that
they cannot mutate predictor state).

Backends: the interpreted loop above is the reference semantics, and
``backend="vectorized"`` swaps in the batch kernels of
:mod:`repro.sim.kernels` — bit-identical by construction and pinned by
the equivalence suite. ``backend="auto"`` prefers a kernel and falls
back to the interpreted loop when the predictor (or trace) has none;
probed runs always take the interpreted twin loop, because probes
observe per-record state that batch evaluation never materialises.

Trace inputs: every entry point accepts any
:class:`repro.trace.stream.TraceSource` — an in-memory
:class:`~repro.trace.events.Trace`, an mmap-backed
:class:`~repro.trace.stream.StreamedTrace`, or a bounded synthetic
generator source. Passing ``block_size`` streams the replay in blocks
of at most that many records (peak memory tracks the block size, not
the trace length) with results bit-identical to the whole-trace run —
predictor state, warmup accounting and the absolute context-switch
epochs all carry across block boundaries.
"""

from __future__ import annotations

from itertools import chain
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..predictors.base import BranchPredictor
from ..trace.events import BranchClass, Trace
from .results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace.stream import TraceSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports sim)
    from ..obs.probes import Probe

__all__ = [
    "ContextSwitchConfig",
    "SIM_BACKENDS",
    "simulate",
    "simulate_named",
    "simulate_with_backend",
]

SIM_BACKENDS: Tuple[str, ...] = ("auto", "python", "vectorized")
"""Accepted ``backend`` arguments: ``"python"`` is the interpreted
reference loop, ``"vectorized"`` requires a batch kernel, ``"auto"``
uses a kernel when one exists and falls back otherwise."""


@dataclass(frozen=True)
class ContextSwitchConfig:
    """Context-switch model parameters.

    The paper derives 500 000 instructions from a 50 MHz, 1-IPC machine
    switching every 10 ms, and additionally switches at every trap.
    """

    interval: int = 500_000
    switch_on_traps: bool = True

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("context-switch interval must be >= 1 instruction")


def simulate(
    predictor: BranchPredictor,
    trace: "TraceSource",
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    warmup_branches: int = 0,
    probe: Optional["Probe"] = None,
    backend: str = "python",
    block_size: Optional[int] = None,
) -> SimulationResult:
    """Replay ``trace`` through ``predictor`` and score its predictions.

    Args:
        predictor: a fresh predictor instance. The interpreted backends
            mutate its state; the vectorized backend reads only its
            configuration and leaves the instance untouched (and
            therefore requires a *freshly built* predictor, which every
            runner path provides).
        trace: any bounded :class:`repro.trace.stream.TraceSource` — an
            in-memory :class:`~repro.trace.events.Trace`, an mmap-backed
            :class:`~repro.trace.stream.StreamedTrace`, or a
            ``.limit(n)``-bounded synthetic source.
        context_switches: enable the paper's context-switch model when
            given; ``None`` simulates an undisturbed run.
        track_per_site: also collect per-static-branch mispredictions
            (costs memory; used by the interference analyses).
        warmup_branches: number of initial conditional branches that are
            predicted and updated but *not scored* (the paper does not
            use warm-up — provided for sensitivity studies).
        probe: optional observability probe (see :mod:`repro.obs`).
            Attaching a probe never changes the returned result; with
            ``None`` the engine runs the original probe-free loop.
        backend: ``"python"`` (default — the interpreted reference
            loop), ``"vectorized"`` (require a batch kernel; raises
            :class:`repro.sim.kernels.KernelUnavailable` when the
            predictor has none), or ``"auto"`` (kernel when available,
            interpreted loop otherwise). A probe forces the interpreted
            twin loop under ``"auto"``/``"python"``; an *explicit*
            ``"vectorized"`` request with a probe raises
            :class:`~repro.sim.kernels.KernelUnavailable` instead of
            silently running the interpreted loop. Every backend
            returns bit-identical results.
        block_size: when given, consume the trace in blocks of at most
            this many records, bounding peak memory by the block size
            instead of the trace length. Results are bit-identical for
            every block size, on every backend. A non-``Trace`` source
            streams block-wise even when this is ``None`` (at the
            default block size).

    Returns:
        A :class:`SimulationResult` with accuracy and bookkeeping.
    """
    result, _used = simulate_with_backend(
        predictor,
        trace,
        context_switches=context_switches,
        track_per_site=track_per_site,
        warmup_branches=warmup_branches,
        probe=probe,
        backend=backend,
        block_size=block_size,
    )
    return result


def simulate_with_backend(
    predictor: BranchPredictor,
    trace: "TraceSource",
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    warmup_branches: int = 0,
    probe: Optional["Probe"] = None,
    backend: str = "python",
    block_size: Optional[int] = None,
) -> Tuple[SimulationResult, str]:
    """:func:`simulate`, additionally reporting the backend that ran.

    Returns:
        ``(result, used)`` where ``used`` is ``"python"`` or
        ``"vectorized"`` — what actually executed after ``"auto"``
        resolution, probe forcing, and kernel fallback. Telemetry consumers
        (:mod:`repro.sim.parallel`, the run ledger) record ``used`` so
        throughput numbers are attributable.
    """
    if backend not in SIM_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {SIM_BACKENDS}"
        )
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be >= 1")
    if getattr(trace, "num_records", 0) is None:
        raise ValueError(
            "cannot simulate an unbounded trace source; bound it with .limit(n)"
        )
    # Structured-log telemetry (a no-op unless repro.obs.log was
    # enabled; the deferred import keeps package init acyclic). Both
    # events fire outside the record loop, so the probe-off fast path
    # is untouched. Spans follow the same discipline: one per backend
    # run (plus one per block when streaming), none per record, and no
    # span work at all unless a sweep enabled a recorder.
    from ..obs.log import get_logger
    from ..obs.spans import span

    logger = get_logger("sim.engine")
    logger.event(
        "run_start",
        scheme=getattr(predictor, "name", type(predictor).__name__),
        trace=trace.meta.name,
        records=trace.num_records,
        probed=probe is not None,
        backend=backend,
    )
    if probe is not None:
        if backend == "vectorized":
            # An explicit kernel request cannot be honoured: probes
            # observe per-record predictor state that the batch kernels
            # never materialise. Failing loudly beats silently running
            # the interpreted loop under a "vectorized" label.
            from .kernels import KernelUnavailable

            raise KernelUnavailable(
                "probed runs take the interpreted twin loop; an explicit "
                "backend='vectorized' cannot honour a probe (use "
                "backend='auto' or 'python', or drop the probe)"
            )
        with span("interpret", cat="engine", probed=True):
            result = _simulate_probed(
                predictor,
                trace,
                probe,
                context_switches=context_switches,
                track_per_site=track_per_site,
                warmup_branches=warmup_branches,
                block_size=block_size,
            )
        _log_run_end(logger, result)
        return result, "python"
    if backend != "python":
        try:
            # Deferred and guarded: the kernels need numpy, which is an
            # optional dependency of the interpreted simulator.
            from .kernels import KernelUnavailable, simulate_vectorized
        except ImportError:
            if backend == "vectorized":
                raise
        else:
            with span("kernel", cat="engine") as kernel:
                try:
                    result = simulate_vectorized(
                        predictor,
                        trace,
                        context_switches=context_switches,
                        track_per_site=track_per_site,
                        warmup_branches=warmup_branches,
                        block_size=block_size,
                    )
                except KernelUnavailable as exc:
                    kernel["fallback"] = True
                    if backend == "vectorized":
                        raise
                    # The auto fallback is no longer silent: the
                    # structured log records why the kernel declined so
                    # a degraded sweep is diagnosable after the fact.
                    logger.event(
                        "kernel_fallback",
                        scheme=getattr(predictor, "name", type(predictor).__name__),
                        trace=trace.meta.name,
                        reason=str(exc),
                    )
                else:
                    kernel["branches"] = result.conditional_branches
                    _log_run_end(logger, result)
                    return result, "vectorized"
    conditional = 0
    correct = 0
    switches = 0
    per_site_seen: Dict[int, int] = {}
    per_site_wrong: Dict[int, int] = {}

    cs_enabled = context_switches is not None
    interval = context_switches.interval if cs_enabled else 0
    switch_on_traps = context_switches.switch_on_traps if cs_enabled else False
    next_switch = interval

    predict = predictor.predict
    update = predictor.update
    cond_class = int(BranchClass.CONDITIONAL)

    with span("interpret", cat="engine") as interpret:
        for pc, taken, cls, target, instret, trap in _record_tuples(trace, block_size):
            if cs_enabled and ((trap and switch_on_traps) or instret >= next_switch):
                predictor.on_context_switch()
                switches += 1
                if instret >= next_switch:
                    # Periodic switches stay on absolute multiples of the
                    # interval (the paper's fixed every-500k cadence); a
                    # trap never reschedules them, and a trap coinciding
                    # with a boundary counts as a single switch.
                    next_switch += interval * ((instret - next_switch) // interval + 1)
            if cls != cond_class:
                continue
            prediction = predict(pc, target)
            update(pc, taken, target)
            conditional += 1
            if conditional <= warmup_branches:
                continue
            if prediction == taken:
                correct += 1
            elif track_per_site:
                per_site_wrong[pc] = per_site_wrong.get(pc, 0) + 1
            if track_per_site:
                per_site_seen[pc] = per_site_seen.get(pc, 0) + 1
        interpret["branches"] = conditional

    scored = max(conditional - warmup_branches, 0)
    result = SimulationResult(
        predictor_name=predictor.name,
        trace_name=trace.meta.name,
        dataset=trace.meta.dataset,
        conditional_branches=scored,
        correct_predictions=correct,
        context_switches=switches,
        per_site_executions=per_site_seen if track_per_site else None,
        per_site_mispredictions=per_site_wrong if track_per_site else None,
        total_instructions=trace.meta.total_instructions,
    )
    _log_run_end(logger, result)
    return result, "python"


def _record_tuples(trace: "TraceSource", block_size: Optional[int]):
    """The interpreted loops' record iterator: plain tuples, optionally
    consumed block-wise so a streamed source never materializes.

    Block-wise, each block's consumption is a ``"block"`` span when a
    recorder is enabled (:func:`repro.obs.spans.traced_blocks`).
    """
    if block_size is None:
        return trace.iter_tuples()
    from ..obs.spans import traced_blocks

    return chain.from_iterable(
        block.iter_tuples() for block in traced_blocks(trace.iter_blocks(block_size))
    )


def _log_run_end(logger, result: SimulationResult) -> None:
    """Emit the engine's run-completed record (telemetry only)."""
    logger.event(
        "run_end",
        scheme=result.predictor_name,
        trace=result.trace_name,
        branches=result.conditional_branches,
        accuracy=round(result.accuracy, 6),
        context_switches=result.context_switches,
    )


def _simulate_probed(
    predictor: BranchPredictor,
    trace: "TraceSource",
    probe: "Probe",
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    warmup_branches: int = 0,
    block_size: Optional[int] = None,
) -> SimulationResult:
    """The probed twin of :func:`simulate`.

    Identical simulation semantics — every branch is predicted, updated
    and scored in exactly the same order with exactly the same state —
    plus the probe callbacks:

    * ``on_run_start(predictor, trace)`` before the first record;
    * ``on_branch(pc, predicted, taken, instret)`` after each
      conditional branch resolves (warm-up branches included);
    * ``on_context_switch(instret)`` after each history flush;
    * ``on_interval(index, instret)`` each time the instruction clock
      crosses a multiple of ``probe.interval_instructions`` (skipped
      entirely when that attribute is ``None``);
    * ``on_run_end(result)`` with the final result.
    """
    conditional = 0
    correct = 0
    switches = 0
    per_site_seen: Dict[int, int] = {}
    per_site_wrong: Dict[int, int] = {}

    cs_enabled = context_switches is not None
    interval = context_switches.interval if cs_enabled else 0
    switch_on_traps = context_switches.switch_on_traps if cs_enabled else False
    next_switch = interval

    predict = predictor.predict
    update = predictor.update
    cond_class = int(BranchClass.CONDITIONAL)

    probe.on_run_start(predictor, trace)
    on_branch = probe.on_branch
    on_context_switch = probe.on_context_switch
    on_interval = probe.on_interval
    window = getattr(probe, "interval_instructions", None)
    next_window = window if window else 0
    window_index = 0

    for pc, taken, cls, target, instret, trap in _record_tuples(trace, block_size):
        if cs_enabled and ((trap and switch_on_traps) or instret >= next_switch):
            predictor.on_context_switch()
            switches += 1
            if instret >= next_switch:
                # Absolute interval boundaries — see the plain loop.
                next_switch += interval * ((instret - next_switch) // interval + 1)
            on_context_switch(instret)
        if cls == cond_class:
            prediction = predict(pc, target)
            update(pc, taken, target)
            conditional += 1
            on_branch(pc, prediction, taken, instret)
            if conditional > warmup_branches:
                if prediction == taken:
                    correct += 1
                elif track_per_site:
                    per_site_wrong[pc] = per_site_wrong.get(pc, 0) + 1
                if track_per_site:
                    per_site_seen[pc] = per_site_seen.get(pc, 0) + 1
        if window and instret >= next_window:
            while instret >= next_window:
                next_window += window
                window_index += 1
            on_interval(window_index - 1, instret)

    scored = max(conditional - warmup_branches, 0)
    result = SimulationResult(
        predictor_name=predictor.name,
        trace_name=trace.meta.name,
        dataset=trace.meta.dataset,
        conditional_branches=scored,
        correct_predictions=correct,
        context_switches=switches,
        per_site_executions=per_site_seen if track_per_site else None,
        per_site_mispredictions=per_site_wrong if track_per_site else None,
        total_instructions=trace.meta.total_instructions,
    )
    probe.on_run_end(result)
    return result


def simulate_named(
    predictor: BranchPredictor,
    trace: Trace,
    with_context_switches: bool = False,
) -> SimulationResult:
    """Convenience wrapper mirroring the paper's ``[c]`` naming flag."""
    config = ContextSwitchConfig() if with_context_switches else None
    return simulate(predictor, trace, context_switches=config)
