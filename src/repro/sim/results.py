"""Simulation results and the paper's aggregation conventions.

Every figure in the paper reports per-benchmark prediction accuracy
plus three geometric means: "Int GMean" over the integer benchmarks,
"FP GMean" over the floating-point benchmarks, and "Tot GMean" over all
nine. :class:`ResultMatrix` reproduces exactly that layout for a set of
schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "CellTelemetry",
    "ResultMatrix",
    "RunTelemetry",
    "SimulationResult",
    "geometric_mean",
]


@dataclass(frozen=True)
class SimulationResult:
    """The outcome of replaying one trace through one predictor."""

    predictor_name: str
    trace_name: str
    dataset: str
    conditional_branches: int
    correct_predictions: int
    context_switches: int = 0
    per_site_executions: Optional[Dict[int, int]] = None
    per_site_mispredictions: Optional[Dict[int, int]] = None
    total_instructions: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly."""
        if self.conditional_branches == 0:
            return 0.0
        return self.correct_predictions / self.conditional_branches

    @property
    def mispredictions(self) -> int:
        return self.conditional_branches - self.correct_predictions

    @property
    def misprediction_rate(self) -> float:
        return 1.0 - self.accuracy if self.conditional_branches else 0.0

    @property
    def mpki(self) -> float:
        """Mispredictions per 1000 dynamic instructions.

        The architectural-impact view of accuracy: a benchmark with few
        branches per instruction can afford a worse predictor. Requires
        the trace to carry instruction counts (all producers in this
        repo do); 0.0 when unavailable.
        """
        if self.total_instructions <= 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.total_instructions

    def worst_sites(self, count: int = 10) -> List[Tuple[int, int, int]]:
        """The ``count`` static branches with the most mispredictions.

        Returns:
            (pc, mispredictions, executions) tuples, most-missed first.
            Requires the simulation to have run with per-site tracking.
        """
        if self.per_site_mispredictions is None or self.per_site_executions is None:
            raise ValueError("simulation did not track per-site statistics")
        ranked = sorted(
            self.per_site_mispredictions.items(), key=lambda item: -item[1]
        )
        return [
            (pc, wrong, self.per_site_executions.get(pc, 0))
            for pc, wrong in ranked[:count]
        ]

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-compatible dict that round-trips exactly.

        All stored fields are integers, strings or integer-keyed count
        dicts, so :meth:`from_dict` reconstructs a result that compares
        equal (and whose derived floats — ``accuracy``, ``mpki`` — are
        bit-identical, since they are recomputed from the same ints).
        Per-site dict keys are stringified for JSON; ``from_dict``
        restores them to ints.
        """
        payload: Dict[str, Any] = {
            "predictor_name": self.predictor_name,
            "trace_name": self.trace_name,
            "dataset": self.dataset,
            "conditional_branches": self.conditional_branches,
            "correct_predictions": self.correct_predictions,
            "context_switches": self.context_switches,
            "total_instructions": self.total_instructions,
        }
        if self.per_site_executions is not None:
            payload["per_site_executions"] = {
                str(pc): count for pc, count in self.per_site_executions.items()
            }
        if self.per_site_mispredictions is not None:
            payload["per_site_mispredictions"] = {
                str(pc): count for pc, count in self.per_site_mispredictions.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationResult":
        """Reconstruct a result serialized by :meth:`to_dict`."""

        def _int_keys(mapping: Optional[Mapping[Any, int]]) -> Optional[Dict[int, int]]:
            if mapping is None:
                return None
            return {int(pc): int(count) for pc, count in mapping.items()}

        return cls(
            predictor_name=payload["predictor_name"],
            trace_name=payload["trace_name"],
            dataset=payload["dataset"],
            conditional_branches=int(payload["conditional_branches"]),
            correct_predictions=int(payload["correct_predictions"]),
            context_switches=int(payload.get("context_switches", 0)),
            per_site_executions=_int_keys(payload.get("per_site_executions")),
            per_site_mispredictions=_int_keys(payload.get("per_site_mispredictions")),
            total_instructions=int(payload.get("total_instructions", 0)),
        )

    def __str__(self) -> str:
        return (
            f"{self.predictor_name} on {self.trace_name}: "
            f"{self.accuracy * 100:.2f}% "
            f"({self.correct_predictions}/{self.conditional_branches})"
        )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; empty input yields 0.0 (matches 'no data' cells)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class CellTelemetry:
    """How one (scheme, benchmark) cell of a run was satisfied.

    Attributes:
        scheme: scheme label (row of the matrix).
        benchmark: benchmark name (column of the matrix).
        wall_time: seconds spent producing this cell (simulation time in
            the worker, or lookup time for a cache hit) — the duration
            of the cell's ``cell`` span.
        source: ``"simulated"`` (ran :func:`~repro.sim.engine.simulate`),
            ``"cache"`` (served from the on-disk result cache), or
            ``"unavailable"`` (builder raised ``TrainingUnavailable`` —
            the cell stays blank, as in the paper's Figure 11).
        phases: per-phase breakdown of ``wall_time`` in seconds, keyed
            by phase name (``"trace_load"``, ``"build"``, ``"simulate"``,
            ``"cache_lookup"``): the per-name totals of the ``cell``
            span's children. Empty for records produced before the
            phase spans existed (e.g. deserialised old telemetry). The
            ``"simulate"`` span always carries that name regardless of
            engine backend, so throughput comparisons across backends
            line up; :attr:`backend` says which one ran.
        backend: the engine backend that produced the ``"simulate"``
            span (``"python"`` or ``"vectorized"``); ``""`` when the
            cell ran no simulation (cache hits, unavailable cells) or
            predates backend tracking.
        rss_peak: peak resident set size, in bytes, of the process that
            produced this cell (the worker's high-water mark as of cell
            completion — see :func:`repro.obs.resources.read_resources`);
            0 for cache hits and records that predate RSS tracking.
    """

    scheme: str
    benchmark: str
    wall_time: float
    source: str
    phases: Dict[str, float] = field(default_factory=dict)
    backend: str = ""
    rss_peak: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible rendering (used by ``RunTelemetry.to_dict``)."""
        return {
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "wall_time": self.wall_time,
            "source": self.source,
            "phases": dict(self.phases),
            "backend": self.backend,
            "rss_peak": self.rss_peak,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellTelemetry":
        return cls(
            scheme=payload["scheme"],
            benchmark=payload["benchmark"],
            wall_time=float(payload["wall_time"]),
            source=payload["source"],
            phases={k: float(v) for k, v in payload.get("phases", {}).items()},
            backend=payload.get("backend", ""),
            rss_peak=int(payload.get("rss_peak", 0)),
        )


@dataclass
class RunTelemetry:
    """Lightweight accounting for one ``run_matrix`` execution.

    Recorded on :attr:`ResultMatrix.telemetry` and surfaced by the
    experiments CLI. Telemetry never participates in matrix equality —
    a cached and a fresh run of the same sweep compare equal even
    though their telemetry differs.

    Attributes:
        n_workers: worker processes the run was configured with.
        cache_hits: cells served from the on-disk result cache.
        cache_misses: cacheable cells that had to be computed.
        uncacheable: cells whose builder carries no cache key (plain
            callables) while a result cache was in use.
        simulations: cells that actually executed a simulation.
        unavailable: cells skipped because training data was missing.
        wall_time: end-to-end seconds for the whole matrix.
        phase_seconds: run-wide seconds per execution phase, aggregated
            over the cells' :attr:`CellTelemetry.phases` breakdowns.
        cells: per-cell records, deterministic (scheme-major) order.
    """

    n_workers: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    uncacheable: int = 0
    simulations: int = 0
    unavailable: int = 0
    wall_time: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    cells: List[CellTelemetry] = field(default_factory=list)

    @property
    def total_cells(self) -> int:
        return len(self.cells)

    def record(
        self,
        scheme: str,
        benchmark: str,
        wall_time: float,
        source: str,
        phases: Optional[Mapping[str, float]] = None,
        backend: str = "",
        rss_peak: int = 0,
    ) -> None:
        """Append one cell record and bump the matching counter."""
        self.add(
            CellTelemetry(
                scheme,
                benchmark,
                wall_time,
                source,
                phases=dict(phases) if phases else {},
                backend=backend,
                rss_peak=rss_peak,
            )
        )

    def add(self, cell: CellTelemetry) -> None:
        """Append a built cell record and bump the matching counter."""
        self.cells.append(cell)
        for phase, seconds in cell.phases.items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        if cell.source == "simulated":
            self.simulations += 1
        elif cell.source == "cache":
            self.cache_hits += 1
        elif cell.source == "unavailable":
            self.unavailable += 1

    def merged_with(self, other: Optional["RunTelemetry"]) -> "RunTelemetry":
        """Combine two runs' telemetry (used when drivers merge matrices).

        ``other=None`` (a matrix that carried no telemetry) merges as an
        empty record, so drivers can combine matrices without checking.
        """
        if other is None:
            other = RunTelemetry(n_workers=self.n_workers)
        phase_seconds = dict(self.phase_seconds)
        for phase, seconds in other.phase_seconds.items():
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
        return RunTelemetry(
            n_workers=max(self.n_workers, other.n_workers),
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            uncacheable=self.uncacheable + other.uncacheable,
            simulations=self.simulations + other.simulations,
            unavailable=self.unavailable + other.unavailable,
            wall_time=self.wall_time + other.wall_time,
            phase_seconds=phase_seconds,
            cells=self.cells + other.cells,
        )

    @staticmethod
    def merge(
        first: Optional["RunTelemetry"], second: Optional["RunTelemetry"]
    ) -> Optional["RunTelemetry"]:
        """None-safe combination of two optional telemetry records.

        Matrices built by hand (or deserialised from JSON) carry
        ``telemetry=None``; drivers that merge arbitrary matrices use
        this instead of :meth:`merged_with` so neither side needs a
        guard. Returns ``None`` only when both sides are ``None``.
        """
        if first is None:
            return second
        return first.merged_with(second)

    def as_dict(self) -> Dict[str, Any]:
        """Structured summary (counters only; JSON-compatible)."""
        return {
            "n_workers": self.n_workers,
            "total_cells": self.total_cells,
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "uncacheable": self.uncacheable,
            "unavailable": self.unavailable,
            "wall_time_s": round(self.wall_time, 4),
            "phase_seconds": {
                phase: round(seconds, 4)
                for phase, seconds in sorted(self.phase_seconds.items())
            },
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-compatible serialisation, including per-cell records.

        Unlike :meth:`as_dict` (a rounded summary for run reports), this
        round-trips exactly through :meth:`from_dict` — used when run
        telemetry travels with a persisted :class:`RunReport`.
        """
        return {
            "n_workers": self.n_workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "uncacheable": self.uncacheable,
            "simulations": self.simulations,
            "unavailable": self.unavailable,
            "wall_time": self.wall_time,
            "phase_seconds": dict(self.phase_seconds),
            "cells": [cell.as_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunTelemetry":
        """Reconstruct telemetry serialised by :meth:`to_dict`.

        Keys this version no longer writes (older payloads carry a
        retired trace-chunk count) are ignored.
        """
        return cls(
            n_workers=int(payload.get("n_workers", 1)),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_misses=int(payload.get("cache_misses", 0)),
            uncacheable=int(payload.get("uncacheable", 0)),
            simulations=int(payload.get("simulations", 0)),
            unavailable=int(payload.get("unavailable", 0)),
            wall_time=float(payload.get("wall_time", 0.0)),
            phase_seconds={
                k: float(v) for k, v in payload.get("phase_seconds", {}).items()
            },
            cells=[CellTelemetry.from_dict(cell) for cell in payload.get("cells", [])],
        )

    @property
    def peak_rss_bytes(self) -> int:
        """Largest per-cell worker RSS high-water mark (0 if untracked)."""
        return max((cell.rss_peak for cell in self.cells), default=0)

    @property
    def backend_counts(self) -> Dict[str, int]:
        """Simulated-cell count per engine backend, sorted by name."""
        counts: Dict[str, int] = {}
        for cell in self.cells:
            if cell.backend:
                counts[cell.backend] = counts.get(cell.backend, 0) + 1
        return {name: counts[name] for name in sorted(counts)}

    def summary_line(self) -> str:
        """One-line human rendering, e.g. for CLI stderr output."""
        line = (
            f"{self.total_cells} cells | {self.simulations} simulated, "
            f"{self.cache_hits} cache hits, {self.cache_misses} misses, "
            f"{self.unavailable} unavailable | workers={self.n_workers} "
            f"| {self.wall_time:.2f}s"
        )
        backends = self.backend_counts
        if backends:
            rendered = ", ".join(f"{name} x{count}" for name, count in backends.items())
            line += f" | backend: {rendered}"
        peak = self.peak_rss_bytes
        if peak > 0:
            line += f" | peak rss {peak / (1024 * 1024):.0f} MiB"
        return line


@dataclass
class ResultMatrix:
    """Accuracy of many schemes over many benchmarks (one figure's data).

    Attributes:
        benchmarks: benchmark names, figure order.
        categories: benchmark -> "int" or "fp" (drives the GMean split).
        cells: scheme -> benchmark -> :class:`SimulationResult`. Missing
            cells (e.g. GSg on benchmarks without a training set) are
            simply absent, as in the paper's Figure 11.
        telemetry: optional :class:`RunTelemetry` for the run that
            produced the matrix; excluded from equality comparisons so
            cached and fresh runs of the same sweep compare equal.
    """

    benchmarks: List[str]
    categories: Mapping[str, str]
    cells: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)
    telemetry: Optional[RunTelemetry] = field(default=None, compare=False, repr=False)

    def add(self, scheme: str, result: SimulationResult) -> None:
        self.cells.setdefault(scheme, {})[result.trace_name] = result

    @property
    def schemes(self) -> List[str]:
        return list(self.cells)

    def accuracy(self, scheme: str, benchmark: str) -> Optional[float]:
        result = self.cells.get(scheme, {}).get(benchmark)
        return result.accuracy if result is not None else None

    def row(self, scheme: str) -> Dict[str, float]:
        """benchmark -> accuracy for one scheme (missing cells omitted)."""
        return {
            benchmark: result.accuracy
            for benchmark, result in self.cells.get(scheme, {}).items()
        }

    def gmean(self, scheme: str, category: Optional[str] = None) -> float:
        """Geometric-mean accuracy for a scheme.

        Args:
            category: ``"int"``, ``"fp"`` or ``None`` for "Tot GMean".
        """
        values = [
            result.accuracy
            for benchmark, result in self.cells.get(scheme, {}).items()
            if category is None or self.categories.get(benchmark) == category
        ]
        return geometric_mean(values)

    def summary(self, scheme: str) -> Dict[str, float]:
        """The paper's three means for one scheme."""
        return {
            "Int GMean": self.gmean(scheme, "int"),
            "FP GMean": self.gmean(scheme, "fp"),
            "Tot GMean": self.gmean(scheme, None),
        }

    def best_scheme(self, category: Optional[str] = None) -> str:
        """The scheme with the highest (category) geometric mean."""
        if not self.cells:
            raise ValueError("empty result matrix")
        return max(self.schemes, key=lambda scheme: self.gmean(scheme, category))

    def as_rows(self) -> List[Dict[str, object]]:
        """Flatten to row dictionaries (for rendering / CSV export)."""
        rows: List[Dict[str, object]] = []
        for scheme in self.schemes:
            row: Dict[str, object] = {"scheme": scheme}
            for benchmark in self.benchmarks:
                accuracy = self.accuracy(scheme, benchmark)
                row[benchmark] = accuracy
            row["Int GMean"] = self.gmean(scheme, "int")
            row["FP GMean"] = self.gmean(scheme, "fp")
            row["Tot GMean"] = self.gmean(scheme, None)
            rows.append(row)
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-compatible dict that round-trips exactly.

        Cells are stored via :meth:`SimulationResult.to_dict` (integer
        counts, so no float precision is lost). Benchmarks a scheme
        could not be evaluated on (``TrainingUnavailable``) are written
        as explicit ``null`` cells, and :meth:`from_dict` restores them
        to *absent* cells — the in-memory representation of a blank
        figure point — so ``from_dict(m.to_dict()) == m`` always holds.
        """
        return {
            "benchmarks": list(self.benchmarks),
            "categories": dict(self.categories),
            "cells": {
                scheme: {
                    benchmark: (
                        row[benchmark].to_dict() if benchmark in row else None
                    )
                    for benchmark in list(self.benchmarks)
                    + [name for name in row if name not in self.benchmarks]
                }
                for scheme, row in self.cells.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ResultMatrix":
        """Reconstruct a matrix serialized by :meth:`to_dict`.

        ``null`` cells (blank figure points) are skipped, matching how a
        fresh run leaves unavailable cells absent.
        """
        matrix = cls(
            benchmarks=list(payload["benchmarks"]),
            categories=dict(payload["categories"]),
        )
        for scheme, row in payload.get("cells", {}).items():
            # Preserve scheme rows even when every cell is blank.
            matrix.cells.setdefault(scheme, {})
            for cell in row.values():
                if cell is not None:
                    matrix.add(scheme, SimulationResult.from_dict(cell))
        return matrix
