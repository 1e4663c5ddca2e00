"""Hierarchical span tracing across processes (sweep -> cell -> phase).

Spans are the one timing primitive: named, nested intervals on the
shared monotonic timeline. Every sweep cell is recorded as a ``cell``
span with phase children, and its :class:`~repro.sim.results.CellTelemetry`
and ``done`` heartbeat are views over that subtree. Spans also say
*when* a phase ran, on *which worker*, and what it overlapped with, and
they export in the Chrome trace-event JSON format, so a whole parallel
sweep loads directly into Perfetto (https://ui.perfetto.dev) with one
track per worker process.

The pieces:

* :class:`Span` — one completed interval: name, category, start
  (``ts``) and duration (``dur``) in **microseconds on the
  ``time.perf_counter`` timeline**, producer ``pid``/``tid``, a
  ``span_id`` (unique within its process) and the ``parent_id``
  linking it into the tree, plus free-form JSON ``args``. Frozen and
  picklable, so a worker returns its cell's spans with the cell's
  result. ``perf_counter`` reads ``CLOCK_MONOTONIC``, which forked
  children share, so parent and worker spans are directly comparable
  on the platforms the parallel runner forks on (and merely mutually
  ordered elsewhere).
* :class:`SpanRecorder` — a recorder: a stack for nesting (``span``
  context manager or explicit ``push``/``pop``) plus
  :meth:`~SpanRecorder.record` for retroactive spans built from
  timestamps measured elsewhere.
* ``enable`` / ``disable`` / ``get_recorder`` / ``recording`` — the
  process-wide current recorder. Emission sites (the engine, the
  kernels' chunk loop, :func:`repro.trace.stream.open_trace_source`,
  the parallel runner) go through :func:`span` and
  :func:`traced_blocks`, which do no span work when no recorder is
  enabled — the same zero-overhead-when-off discipline as the probes
  (pinned in ``benchmarks/test_bench_spans.py``). Within the program
  only a sweep enables one, so outside a sweep nothing records.
* :class:`SpanCollector` — a sweep's ``tracer``: receives exactly that
  sweep's spans, one batch per cell plus the ``sweep`` root. A worker
  that crashes returns no result, so its cell's spans are lost whole
  and the collected trace stays valid.
* :func:`to_chrome_trace` / :func:`spans_from_chrome` /
  :func:`validate_chrome_trace` — conversion to and from the Chrome
  trace-event JSON object form (``{"traceEvents": [...]}``) with a
  structural validator (used by CI to gate the exported artifact).
  Because ``ts``/``dur`` are stored in microseconds natively, the
  conversion is exact: ``spans_from_chrome(to_chrome_trace(s)) == s``.
* :func:`build_span_tree` / :func:`validate_span_tree` /
  :func:`span_totals` / :func:`cell_phase_totals` — tree assembly and
  integrity checks (parent resolution, containment, monotone clocks)
  and the per-cell per-phase aggregation.

All clocks here are ``time.perf_counter`` — telemetry only, never an
input to a simulation result (the determinism lint's standing
allowance).
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ContextManager, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple, TypeVar,
)

__all__ = [
    "SPANS_SCHEMA",
    "Span",
    "SpanCollector",
    "SpanRecorder",
    "build_span_tree",
    "cell_phase_totals",
    "cell_span_summaries",
    "disable",
    "enable",
    "get_recorder",
    "recording",
    "span",
    "span_totals",
    "spans_from_chrome",
    "summarize_spans",
    "to_chrome_trace",
    "traced_blocks",
    "validate_chrome_trace",
    "validate_span_tree",
]

#: Schema identifier of the native span serialisation (JSONL lines and
#: the ``otherData`` stamp of exported Chrome traces).
SPANS_SCHEMA = "repro.obs.spans/1"

#: Args keys the Chrome exporter claims for tree linkage; user args may
#: not collide with them (enforced by :meth:`SpanRecorder._open`).
_RESERVED_ARGS = ("span_id", "parent_id")

#: Span ids come from one process-wide counter, so every recorder in a
#: process — a sweep's, each of its cells', a worker's across all the
#: cells it draws — hands out distinct ids and ``(pid, tid, span_id)``
#: identifies a span in any merged trace.
_SPAN_IDS = itertools.count(1)

T = TypeVar("T")


@dataclass(frozen=True)
class Span:
    """One completed interval on the shared monotonic timeline.

    Attributes:
        name: what ran (``"cell"``, ``"simulate"``, ``"kernel"``, ...).
        cat: grouping category (``"sweep"``, ``"phase"``, ``"engine"``).
        ts: start, in microseconds of the ``perf_counter`` timeline.
        dur: duration in microseconds (never negative).
        pid: producer process id (one Perfetto track group per pid).
        tid: producer thread id within the pid (1 for the runners here,
            which are single-threaded per process).
        span_id: id unique within ``(pid, tid)``.
        parent_id: enclosing span's ``span_id`` (same recorder), or
            ``None`` for a root.
        args: free-form JSON-compatible payload (scheme, benchmark,
            backend, record counts, resource readings, ...).
    """

    name: str
    cat: str
    ts: float
    dur: float
    pid: int
    tid: int
    span_id: int
    parent_id: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """End of the interval, microseconds (``ts + dur``)."""
        return self.ts + self.dur

    @property
    def seconds(self) -> float:
        """Duration in seconds (the ledger/telemetry unit)."""
        return self.dur / 1e6

    @property
    def key(self) -> Tuple[int, int, int]:
        """Globally-unique identity: ``(pid, tid, span_id)``."""
        return (self.pid, self.tid, self.span_id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict (native JSONL line payload)."""
        return {
            "schema": SPANS_SCHEMA,
            "name": self.name,
            "cat": self.cat,
            "ts": self.ts,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        """Reconstruct a span serialised by :meth:`to_dict` exactly."""
        schema = str(payload.get("schema", SPANS_SCHEMA))
        if not schema.startswith("repro.obs.spans/"):
            raise ValueError(f"not a span record (schema={schema!r})")
        parent = payload.get("parent_id")
        return cls(
            name=payload["name"],
            cat=payload.get("cat", ""),
            ts=float(payload["ts"]),
            dur=float(payload["dur"]),
            pid=int(payload["pid"]),
            tid=int(payload.get("tid", 1)),
            span_id=int(payload["span_id"]),
            parent_id=None if parent is None else int(parent),
            args=dict(payload.get("args", {})),
        )


class _OpenSpan:
    """Mutable in-flight span (internal to :class:`SpanRecorder`)."""

    __slots__ = ("name", "cat", "ts", "span_id", "parent_id", "args")

    def __init__(self, name: str, cat: str, ts: float, span_id: int,
                 parent_id: Optional[int], args: Dict[str, Any]) -> None:
        self.name = name
        self.cat = cat
        self.ts = ts
        self.span_id = span_id
        self.parent_id = parent_id
        self.args = args


class SpanRecorder:
    """A span recorder with a nesting stack.

    Single-threaded by contract, like every runner in this repo: a
    recorder is driven from one process's main thread. The
    clock is injectable (any zero-arg float-seconds callable) so tests
    are deterministic; the default is the monotonic
    ``time.perf_counter``, whose timeline forked workers share.

    Three recording styles compose freely:

    * ``with recorder.span("simulate", cat="phase"):`` — measure a
      block, nested under whatever is currently open;
    * ``recorder.push(...)`` / ``recorder.pop(...)`` — the same without
      re-indenting existing code;
    * ``recorder.record(name, start=a, end=b)`` — a retroactive span
      from clock readings taken elsewhere, so existing telemetry
      measurements can double as spans without a second clock read.

    ``push``/``record`` accept explicit ``start``/``end`` **seconds**
    on the ``perf_counter`` timeline (the unit the surrounding code
    already measures in); stored spans use microseconds (the Chrome
    unit).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        pid: Optional[int] = None,
        tid: int = 1,
    ) -> None:
        self._clock = clock
        self.pid = os.getpid() if pid is None else pid
        self.tid = tid
        self._stack: List[_OpenSpan] = []
        self._spans: List[Span] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, cat: str, ts: float, args: Dict[str, Any]) -> _OpenSpan:
        for reserved in _RESERVED_ARGS:
            if reserved in args:
                raise ValueError(f"span arg {reserved!r} is reserved for tree linkage")
        parent_id = self._stack[-1].span_id if self._stack else None
        return _OpenSpan(name, cat, ts, next(_SPAN_IDS), parent_id, args)

    def push(self, name: str, cat: str = "", start: Optional[float] = None,
             **args: Any) -> int:
        """Open a nested span; returns its ``span_id``.

        Args:
            start: explicit start in *seconds* on the recorder's clock
                timeline (``None`` reads the clock now).
        """
        ts = (self._clock() if start is None else start) * 1e6
        span = self._open(name, cat, ts, args)
        self._stack.append(span)
        return span.span_id

    def pop(self, end: Optional[float] = None, **extra_args: Any) -> Span:
        """Close the innermost open span (optionally at an explicit
        ``end`` in seconds), merging ``extra_args`` into its args."""
        if not self._stack:
            raise RuntimeError("pop() with no open span")
        open_span = self._stack.pop()
        end_ts = (self._clock() if end is None else end) * 1e6
        open_span.args.update(extra_args)
        span = Span(
            name=open_span.name,
            cat=open_span.cat,
            ts=open_span.ts,
            dur=max(end_ts - open_span.ts, 0.0),
            pid=self.pid,
            tid=self.tid,
            span_id=open_span.span_id,
            parent_id=open_span.parent_id,
            args=open_span.args,
        )
        self._spans.append(span)
        return span

    def pop_if_open(self, span_id: int, end: Optional[float] = None,
                    **extra_args: Any) -> Optional[Span]:
        """Close ``span_id`` iff it is the innermost open span.

        A no-op (returning ``None``) otherwise — this is the cleanup
        form for generator finalizers, which on exception paths may run
        long after the stack has moved on; a stale id must never pop
        someone else's span.
        """
        if self._stack and self._stack[-1].span_id == span_id:
            return self.pop(end=end, **extra_args)
        return None

    def pop_through(self, span_id: int, end: Optional[float] = None,
                    **extra_args: Any) -> Optional[Span]:
        """Close open spans up to and including ``span_id``.

        Children abandoned open by an exception path close with the
        same end time; ``extra_args`` land on the target span only.
        A no-op (returning ``None``) when ``span_id`` is not open —
        telemetry cleanup must never raise over a propagating error.
        """
        if all(open_span.span_id != span_id for open_span in self._stack):
            return None
        while True:
            is_target = self._stack[-1].span_id == span_id
            span = self.pop(end=end, **(extra_args if is_target else {}))
            if is_target:
                return span

    @contextmanager
    def span(self, name: str, cat: str = "", **args: Any) -> Iterator[Dict[str, Any]]:
        """Context-manager form of :meth:`push`/:meth:`pop`.

        Yields a dict whose entries are merged into the span's args when
        it closes, for values known only at the end. An exception
        closes the span, and any child left open under it, on its way
        out.
        """
        span_id = self.push(name, cat=cat, **args)
        closing: Dict[str, Any] = {}
        try:
            yield closing
        finally:
            self.pop_through(span_id, **closing)

    def record(self, name: str, cat: str = "", *, start: float, end: float,
               **args: Any) -> Span:
        """Record a completed span from clock readings taken elsewhere.

        ``start``/``end`` are *seconds* on the recorder's clock
        timeline; the span nests under the currently-open span (if
        any).
        """
        open_span = self._open(name, cat, start * 1e6, args)
        span = Span(
            name=open_span.name,
            cat=open_span.cat,
            ts=open_span.ts,
            dur=max(end * 1e6 - open_span.ts, 0.0),
            pid=self.pid,
            tid=self.tid,
            span_id=open_span.span_id,
            parent_id=open_span.parent_id,
            args=open_span.args,
        )
        self._spans.append(span)
        return span

    # -- reading -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of currently-open (unpopped) spans."""
        return len(self._stack)

    @property
    def spans(self) -> List[Span]:
        """Completed spans, completion order (children before parents)."""
        return list(self._spans)

    def drain(self) -> List[Span]:
        """Return completed spans and clear the buffer (open spans stay
        open — a worker drains between cells, never mid-cell)."""
        drained = self._spans
        self._spans = []
        return drained


# ----------------------------------------------------------------------
# The process-wide current recorder and its emission helpers
# ----------------------------------------------------------------------

_ACTIVE: Optional[SpanRecorder] = None


def enable(recorder: SpanRecorder) -> SpanRecorder:
    """Install ``recorder`` as the process's current recorder.

    Emission sites record through :func:`span` and
    :func:`traced_blocks`, which read the current recorder once per
    call; with no recorder enabled they do no span work at all. Prefer
    :func:`recording`, which puts the previous recorder back.
    """
    global _ACTIVE
    _ACTIVE = recorder
    return recorder


def disable() -> None:
    """Remove the current recorder (emission sites go back to no-ops)."""
    global _ACTIVE
    _ACTIVE = None


def get_recorder() -> Optional[SpanRecorder]:
    """The process's current recorder, or ``None`` when tracing is off."""
    return _ACTIVE


@contextmanager
def recording(recorder: Optional[SpanRecorder] = None) -> Iterator[SpanRecorder]:
    """Enable a recorder for a ``with`` block (fresh one by default).

    On exit — normal or by exception — whatever recorder was enabled
    before is enabled again, so recordings nest: a sweep run inside a
    caller's ``recording()`` leaves the caller's recorder current and
    untouched.
    """
    global _ACTIVE
    previous = _ACTIVE
    active = enable(recorder if recorder is not None else SpanRecorder())
    try:
        yield active
    finally:
        _ACTIVE = previous


def span(name: str, cat: str = "", **args: Any) -> ContextManager[Dict[str, Any]]:
    """:meth:`SpanRecorder.span` on the current recorder.

    Yields the dict of args to set when the span closes (``branches``,
    ``fallback``, resource readings). With no recorder enabled it does
    no span work and the dict is discarded.
    """
    recorder = _ACTIVE
    if recorder is None:
        return nullcontext({})
    return recorder.span(name, cat, **args)


def traced_blocks(blocks: Iterable[T]) -> Iterable[T]:
    """Record each block of a block iterator as a ``"block"`` span.

    A block's span opens when the block is handed to the consumer and
    closes when the consumer asks for the next one, so it covers the
    work done on that block — the per-block level of the sweep → cell
    → phase → block hierarchy. With no recorder enabled, ``blocks`` is
    returned as it is.
    """
    recorder = _ACTIVE
    return blocks if recorder is None else _block_spans(blocks, recorder)


def _block_spans(blocks: Iterable[T], recorder: SpanRecorder) -> Iterator[T]:
    for index, block in enumerate(blocks):
        span_id = recorder.push("block", cat="engine", index=index, records=len(block))
        try:
            yield block
        finally:
            # On an exception in the consumer this generator is
            # finalized after the enclosing span has closed; a stale id
            # must not pop another span.
            recorder.pop_if_open(span_id)


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------


class SpanCollector:
    """Receives one sweep's spans: the ``sweep`` root and each cell's batch.

    Pass one as ``tracer`` to :func:`repro.sim.runner.run_matrix`. Each
    cell's spans arrive whole with the cell's result, so a crashed
    worker contributes nothing rather than a torn batch, and the
    collected trace always validates.
    """

    def __init__(self) -> None:
        self._spans: List[Span] = []

    def ingest(self, spans: Sequence[Span]) -> None:
        """Add one batch of completed spans."""
        self._spans.extend(spans)

    @property
    def spans(self) -> List[Span]:
        """Everything collected so far, ingestion order."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)


# ----------------------------------------------------------------------
# Tree assembly, integrity checking, aggregation
# ----------------------------------------------------------------------


def build_span_tree(
    spans: Sequence[Span],
) -> Tuple[List[Span], Dict[Tuple[int, int, int], List[Span]]]:
    """Assemble ``(roots, children-by-parent-key)`` from a flat list.

    Parent links only ever point within one recorder (same pid/tid), so
    the child map is keyed by the parent's :attr:`Span.key`. A span
    whose parent is missing (its batch was lost with a crashed worker)
    is treated as a root rather than an error — loss tolerance again.
    """
    by_key = {span.key: span for span in spans}
    children: Dict[Tuple[int, int, int], List[Span]] = {}
    roots: List[Span] = []
    for span in spans:
        if span.parent_id is None:
            roots.append(span)
            continue
        parent_key = (span.pid, span.tid, span.parent_id)
        if parent_key in by_key:
            children.setdefault(parent_key, []).append(span)
        else:
            roots.append(span)
    return roots, children


def validate_span_tree(spans: Sequence[Span]) -> List[str]:
    """Structural integrity check; returns problems (empty = valid).

    Checks: unique ``(pid, tid, span_id)`` identities, non-negative
    durations, self-parenting, and containment — every child interval
    must lie within its parent's (small float tolerance: parents and
    children may close on the same clock reading).
    """
    problems: List[str] = []
    seen: Dict[Tuple[int, int, int], Span] = {}
    for span in spans:
        if span.key in seen:
            problems.append(f"duplicate span identity {span.key} ({span.name})")
        seen[span.key] = span
        if span.dur < 0:
            problems.append(f"negative duration on {span.name} {span.key}")
        if span.parent_id == span.span_id:
            problems.append(f"span {span.name} {span.key} is its own parent")
    tolerance = 0.5  # µs — adjacent clock reads, not real overlap
    for span in spans:
        if span.parent_id is None:
            continue
        parent = seen.get((span.pid, span.tid, span.parent_id))
        if parent is None:
            continue  # lost batch: treated as a root, not an error
        if span.ts < parent.ts - tolerance or span.end > parent.end + tolerance:
            problems.append(
                f"child {span.name} {span.key} [{span.ts:.1f}, {span.end:.1f}] "
                f"escapes parent {parent.name} [{parent.ts:.1f}, {parent.end:.1f}]"
            )
    return problems


def span_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Aggregate ``name -> {"seconds", "count"}`` over a span list."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        bucket = totals.setdefault(span.name, {"seconds": 0.0, "count": 0})
        bucket["seconds"] += span.seconds
        bucket["count"] += 1
    return totals


def summarize_spans(spans: Sequence[Span]) -> Dict[str, Any]:
    """The compact summary embedded in ledger entries (``extra["spans"]``).

    Per-name totals plus the overall span count — enough for
    :func:`repro.obs.ledger.regress` readers and ``repro-obs history``
    consumers without dragging the full trace into the ledger.
    """
    return {"count": len(spans), "by_name": span_totals(spans)}


def cell_span_summaries(
    spans: Sequence[Span],
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Per-cell span summaries: ``(scheme, benchmark) -> summary``.

    Each summary is :func:`summarize_spans` over the cell span's whole
    subtree (the cell itself, its phase children, and any engine spans
    nested below them) — the payload
    :func:`repro.obs.ledger.entries_from_matrix` embeds as
    ``extra["spans"]`` on matrix ledger entries.
    """
    _roots, children = build_span_tree(spans)
    summaries: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for span in spans:
        if span.name != "cell":
            continue
        scheme = span.args.get("scheme")
        benchmark = span.args.get("benchmark")
        if scheme is None or benchmark is None:
            continue
        subtree: List[Span] = []
        frontier = [span]
        while frontier:
            node = frontier.pop()
            subtree.append(node)
            frontier.extend(children.get(node.key, ()))
        summaries[(str(scheme), str(benchmark))] = summarize_spans(subtree)
    return summaries


def cell_phase_totals(
    spans: Sequence[Span],
) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Per-cell per-phase seconds: ``(scheme, benchmark) -> name -> s``.

    A *cell* span is any span named ``"cell"`` carrying ``scheme`` and
    ``benchmark`` args (the parallel runner emits exactly one per
    evaluated cell); its phase children (``trace_load`` / ``build`` /
    ``simulate`` / ``cache_lookup``) are summed per name. This is the
    aggregation the acceptance tests compare against
    :attr:`repro.sim.results.CellTelemetry.phases` — equality is exact
    because both views are computed from the same clock readings.
    """
    _roots, children = build_span_tree(spans)
    totals: Dict[Tuple[str, str], Dict[str, float]] = {}
    for span in spans:
        if span.name != "cell":
            continue
        scheme = span.args.get("scheme")
        benchmark = span.args.get("benchmark")
        if scheme is None or benchmark is None:
            continue
        bucket = totals.setdefault((str(scheme), str(benchmark)), {})
        for child in children.get(span.key, ()):
            bucket[child.name] = bucket.get(child.name, 0.0) + child.seconds
    return totals


# ----------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto) conversion
# ----------------------------------------------------------------------


def to_chrome_trace(
    spans: Sequence[Span],
    counters: Sequence[Mapping[str, Any]] = (),
    label: str = "repro sweep",
) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event JSON object.

    The output loads directly in Perfetto / ``chrome://tracing``: one
    complete (``"ph": "X"``) event per span with tree linkage kept in
    ``args`` (``span_id`` / ``parent_id``), one ``process_name``
    metadata event per producer pid, plus any pre-built counter events
    (``"ph": "C"`` — see
    :func:`repro.obs.resources.counters_from_spans`). Spans store
    microseconds natively, so the conversion is lossless and
    :func:`spans_from_chrome` inverts it exactly.
    """
    events: List[Dict[str, Any]] = []
    pids = sorted({span.pid for span in spans})
    for pid in pids:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"worker-{pid}"},
            }
        )
    for span in spans:
        args = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.cat,
                "ts": span.ts,
                "dur": span.dur,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    events.extend(dict(counter) for counter in counters)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": SPANS_SCHEMA, "label": label},
    }


def spans_from_chrome(payload: Mapping[str, Any]) -> List[Span]:
    """Exact inverse of :func:`to_chrome_trace` for the span events.

    Metadata (``M``) and counter (``C``) events are skipped; every
    complete (``X``) event becomes a :class:`Span` with ``span_id`` /
    ``parent_id`` lifted back out of ``args``. Round trip is exact:
    ``ts``/``dur`` travel as the same floats in both directions.
    """
    spans: List[Span] = []
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = int(args.pop("span_id"))
        parent = args.pop("parent_id", None)
        spans.append(
            Span(
                name=event["name"],
                cat=event.get("cat", ""),
                ts=float(event["ts"]),
                dur=float(event["dur"]),
                pid=int(event["pid"]),
                tid=int(event.get("tid", 1)),
                span_id=span_id,
                parent_id=None if parent is None else int(parent),
                args=args,
            )
        )
    return spans


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural validation of a Chrome trace-event JSON object.

    Returns a list of problems (empty = valid). This is the schema gate
    CI runs over the exported sweep trace: object form with a
    ``traceEvents`` list; every event a dict with a string ``ph``;
    ``X`` events additionally need a string ``name``, finite numeric
    ``ts`` and non-negative ``dur``, integer ``pid``/``tid`` and (when
    present) a dict ``args``; ``C`` counter events need ``name``,
    ``ts``, ``pid`` and numeric-valued ``args``; ``M`` metadata events
    need a ``name``.
    """
    problems: List[str] = []
    if not isinstance(payload, Mapping):
        return ["top level is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: missing phase 'ph'")
            continue
        if ph in ("X", "C", "M") and not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        if ph in ("X", "C"):
            for key in ("ts",) + (("dur",) if ph == "X" else ()):
                value = event.get(key)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"{where}: missing numeric {key!r}")
                elif value < 0:
                    problems.append(f"{where}: negative {key!r}")
            if not isinstance(event.get("pid"), int):
                problems.append(f"{where}: missing integer 'pid'")
        if ph == "X":
            if not isinstance(event.get("tid"), int):
                problems.append(f"{where}: missing integer 'tid'")
            if "args" in event and not isinstance(event["args"], Mapping):
                problems.append(f"{where}: 'args' is not an object")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, Mapping) or not args:
                problems.append(f"{where}: counter needs a non-empty 'args' object")
            elif any(
                not isinstance(v, (int, float)) or isinstance(v, bool)
                for v in args.values()
            ):
                problems.append(f"{where}: counter args must be numeric")
    return problems
