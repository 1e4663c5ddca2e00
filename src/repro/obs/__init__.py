"""Simulation observability: probes, metrics, profiling and reports.

The subsystem splits into four layers, each usable on its own:

* :mod:`repro.obs.probes` — the :class:`Probe` callback surface the
  engine invokes, and :class:`ProbeSet` for composing observers. The
  engine takes a separate zero-overhead path when no probe is attached,
  and probes can never change a result (they only observe; the
  ``repro.check`` lints enforce it statically, the equivalence tests
  dynamically).
* :mod:`repro.obs.metrics` — interval accuracy series, mispredict-streak
  histograms, top-K offender tables, post-flush warm-up curves, and
  PHT/BHT occupancy + interference counters.
* :mod:`repro.obs.profile` — per-call predict/update timing and
  optional cProfile capture (phase timing is spans, below).
* :mod:`repro.obs.report` / :mod:`repro.obs.export` /
  :mod:`repro.obs.runner` — the schema-stable :class:`RunReport`, JSONL
  event traces, and the :func:`observe` orchestration behind
  ``python -m repro.obs``.
* :mod:`repro.obs.ledger` — the persistent, append-only run ledger
  (``results/ledger/``, content-addressed by config hash) and the
  regression sentinel behind ``repro-obs history/compare/regress``.
* :mod:`repro.obs.live` — per-worker sweep heartbeats, the
  :class:`SweepMonitor` aggregator and the ``--follow`` status line.
* :mod:`repro.obs.spans` / :mod:`repro.obs.resources` — hierarchical
  span tracing across worker processes (sweep → cell → phase → block)
  with per-cell resource readings, exported as Perfetto-loadable
  Chrome trace-event JSON (``repro-obs sweep --trace-out`` /
  ``repro-obs trace``).
* :mod:`repro.obs.prom` — the run ledger rendered as Prometheus text
  exposition (``repro-obs metrics``).
* :mod:`repro.obs.log` — run-id-scoped structured logging
  (off by default; ``repro.obs.log.configure`` enables it).

Quick start::

    from repro.obs import observe
    report = observe("gag-12", workload="eqntott")
    print(report.result.accuracy, report.streaks, report.offenders[0])

Cross-run memory::

    from repro.obs import RunLedger, entry_from_report, regress
    ledger = RunLedger("results/ledger")
    ledger.append(entry_from_report(report))
    print(regress(ledger).format_text())
"""

from . import log
from .export import EventTraceProbe, write_report
from .ledger import (
    LEDGER_SCHEMA,
    LedgerEntry,
    RegressionFinding,
    RegressionReport,
    RunDelta,
    RunLedger,
    compare_entries,
    compute_config_hash,
    entries_from_matrix,
    entry_from_benchmark,
    entry_from_report,
    export_bench,
    format_history,
    git_revision,
    regress,
)
from .live import (
    FollowPrinter,
    Heartbeat,
    SweepMonitor,
    SweepStatus,
    WorkerState,
    format_status,
)
from .metrics import (
    DEFAULT_INTERVAL_INSTRUCTIONS,
    IntervalPoint,
    IntervalSeriesProbe,
    Offender,
    StreakHistogramProbe,
    TableStatsProbe,
    TopOffendersProbe,
    WarmupCurveProbe,
    WarmupWindow,
)
from .probes import Probe, ProbeSet
from .profile import TimingPredictor, run_cprofile
from .prom import render_metrics
from .report import SCHEMA, RunReport, format_report
from .resources import ResourceSample, read_resources
from .runner import normalize_scheme, observe
from .spans import Span, SpanCollector, SpanRecorder, recording, to_chrome_trace

__all__ = [
    "DEFAULT_INTERVAL_INSTRUCTIONS",
    "EventTraceProbe",
    "FollowPrinter",
    "Heartbeat",
    "IntervalPoint",
    "IntervalSeriesProbe",
    "LEDGER_SCHEMA",
    "LedgerEntry",
    "Offender",
    "Probe",
    "ProbeSet",
    "RegressionFinding",
    "RegressionReport",
    "ResourceSample",
    "RunDelta",
    "RunLedger",
    "RunReport",
    "SCHEMA",
    "Span",
    "SpanCollector",
    "SpanRecorder",
    "StreakHistogramProbe",
    "SweepMonitor",
    "SweepStatus",
    "TableStatsProbe",
    "TimingPredictor",
    "TopOffendersProbe",
    "WarmupCurveProbe",
    "WarmupWindow",
    "WorkerState",
    "compare_entries",
    "compute_config_hash",
    "entries_from_matrix",
    "entry_from_benchmark",
    "entry_from_report",
    "export_bench",
    "format_history",
    "format_report",
    "format_status",
    "git_revision",
    "log",
    "normalize_scheme",
    "observe",
    "read_resources",
    "recording",
    "regress",
    "render_metrics",
    "run_cprofile",
    "to_chrome_trace",
    "write_report",
]
