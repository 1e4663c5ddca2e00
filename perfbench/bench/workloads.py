"""Set-up and body of each benchmark workload, and the cells they produce.

Everything here calls the program only through its public functions:
``Workload.generate``, ``run_experiment``, ``ResultCache``,
``save_source`` / ``open_stream``, ``spec`` and ``simulate``.

A *cell* is one checked output, named by a string id:

* ``fig4/<benchmark>`` — the Figure 4 branch-class mix of one trace;
* ``<figure>/<scheme>/<benchmark>`` — one cell of a figure's matrix;
* ``stream/<scheme>/<cs|nocs>`` — one ``stream-long`` simulation.

Its value is a digest of the cell's counts, or ``"unavailable"`` for a
cell the program leaves blank because the benchmark has no training
trace (Figure 11's static schemes).
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import ALL_FIGURES, run_experiment
from repro.sim import BenchmarkCase, ContextSwitchConfig, simulate, spec
from repro.trace import ResultCache, open_stream
from repro.workloads import all_workloads

UNAVAILABLE = "unavailable"

#: Records per block on the streamed path (the program's default block).
STREAM_BLOCK = 1 << 16

#: The ``stream-long`` schemes: global, per-address ideal / direct /
#: 4-way first levels, PAp and a hybrid. Each runs with and without the
#: paper's context-switch model.
STREAM_SCHEMES = (
    "gag-12",
    "gshare-12",
    "pag-12-ideal",
    "pag-12-512x1",
    "pag-12-512x4",
    "pap-8-512x1",
    "gselect-6+6",
)

FIGURE_IDS = tuple(ALL_FIGURES)


@dataclass(frozen=True)
class Size:
    """How much input a run makes.

    Attributes:
        name: ``"full"`` for the benchmark proper, ``"tiny"`` for the
            self-test.
        benchmarks: suite members of the figure grid (paper order);
            ``None`` is the nine-benchmark suite.
        stream_benchmark / stream_scale: the workload and scale written
            to the ``stream-long`` container.
    """

    name: str
    benchmarks: Optional[Tuple[str, ...]]
    stream_benchmark: str
    stream_scale: int


FULL = Size("full", None, "gcc", 4)
TINY = Size("tiny", ("eqntott", "spice2g6"), "spice2g6", 1)
SIZES = {size.name: size for size in (FULL, TINY)}


def counts_digest(counts) -> str:
    return hashlib.sha256(repr(tuple(counts)).encode("utf-8")).hexdigest()[:16]


def result_digest(result) -> str:
    return counts_digest(
        (
            result.conditional_branches,
            result.correct_predictions,
            result.context_switches,
            result.total_instructions,
        )
    )


# ----------------------------------------------------------------------
# The figure grid (paper-cold)
# ----------------------------------------------------------------------

def make_cases(seed: int, size: Size) -> List[BenchmarkCase]:
    """The suite's test and training traces for ``seed``.

    Seed 0 is the canonical suite ``repro-experiments`` uses.
    """
    cases = []
    for name, workload in all_workloads().items():
        if size.benchmarks is not None and name not in size.benchmarks:
            continue
        test = workload.generate("testing", seed_offset=seed)
        training = (
            workload.generate("training", seed_offset=seed) if workload.has_training else None
        )
        cases.append(BenchmarkCase(name, workload.category, test, training))
    return cases


@dataclass
class GridPass:
    """What one pass over the figure grid produced."""

    figures: Dict[str, object]
    errors: Dict[str, str]

    def matrices(self):
        for result in self.figures.values():
            if getattr(result, "matrix", None) is not None:
                yield result.matrix

    def branches(self) -> int:
        """Conditional branches scored or served from the cache."""
        return sum(
            result.conditional_branches
            for matrix in self.matrices()
            for row in matrix.cells.values()
            for result in row.values()
        )

    def cells(self) -> Dict[str, str]:
        cells: Dict[str, str] = {}
        for figure_id, result in self.figures.items():
            if figure_id == "fig4":
                for bench, mix in result.extra["mixes"].items():
                    cells[f"fig4/{bench}"] = counts_digest(
                        float(x).hex()
                        for x in (mix.conditional, mix.unconditional, mix.call, mix.ret)
                    )
                continue
            matrix = result.matrix
            for scheme, row in matrix.cells.items():
                for bench, cell in row.items():
                    cells[f"{figure_id}/{scheme}/{bench}"] = result_digest(cell)
            for cell in matrix.telemetry.cells:
                if cell.source == "unavailable":
                    cells[f"{figure_id}/{cell.scheme}/{cell.benchmark}"] = UNAVAILABLE
        return cells


def run_grid(
    cases: List[BenchmarkCase],
    cache: Optional[ResultCache],
    backend: str = "auto",
    call: Callable = lambda name, fn, *a, **k: fn(*a, **k),
) -> GridPass:
    """``repro-experiments figures``: every figure, rendered, in order.

    ``call`` lets the traced run record each driver call as a span. A
    figure that raises is recorded in ``errors``; its cells then count
    as failed against the reference.
    """
    figures: Dict[str, object] = {}
    errors: Dict[str, str] = {}
    for figure_id in FIGURE_IDS:
        try:
            result = call(
                "experiments.run",
                run_experiment,
                figure_id,
                cases=cases,
                n_workers=1,
                result_cache=cache,
                backend=backend,
            )
            result.render()
        except Exception as exc:  # a failing figure is a counted error, not a crash
            errors[figure_id] = f"{type(exc).__name__}: {exc}"
            continue
        figures[figure_id] = result
    return GridPass(figures, errors)


# ----------------------------------------------------------------------
# The streamed long trace (stream-long)
# ----------------------------------------------------------------------

def write_stream(path: Path, seed: int, size: Size) -> Tuple[float, Dict[str, float]]:
    """Generate and write the ``stream-long`` container in a child process.

    Returns the child's wall time (interpreter start, import, trace
    generation, container write) and its own report of the last two.
    The child keeps the in-memory trace out of this process, so the
    body's memory is the streaming path's alone.
    """
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).with_name("write_stream.py")),
            str(path),
            size.stream_benchmark,
            str(size.stream_scale),
            str(seed),
        ],
        check=True,
        stdout=subprocess.PIPE,
        timeout=120,
    )
    wall = time.perf_counter() - started
    generate_s, write_s, records = completed.stdout.decode().split()
    return wall, {"generate_s": float(generate_s), "write_s": float(write_s),
                  "records": int(records)}


def stream_cells():
    for name in STREAM_SCHEMES:
        for switches in (None, ContextSwitchConfig()):
            yield f"stream/{name}/{'nocs' if switches is None else 'cs'}", name, switches


def run_stream(
    path: Path,
    call: Callable = lambda name, fn, *a, **k: fn(*a, **k),
) -> Tuple[Dict[str, object], Dict[str, str]]:
    """Every ``stream-long`` cell over the mmap-backed container."""
    results: Dict[str, object] = {}
    errors: Dict[str, str] = {}
    with open_stream(path) as source:
        for cell, name, switches in stream_cells():
            try:
                results[cell] = call(
                    "stream.cell",
                    _stream_cell,
                    name,
                    source,
                    switches,
                )
            except Exception as exc:
                errors[cell] = f"{type(exc).__name__}: {exc}"
    return results, errors


def _stream_cell(name, source, switches):
    return simulate(
        spec(name)(None),
        source,
        context_switches=switches,
        backend="auto",
        block_size=STREAM_BLOCK,
    )


# ----------------------------------------------------------------------
# Reference check
# ----------------------------------------------------------------------

def compare(expected: Dict[str, str], actual: Dict[str, str]) -> Tuple[int, List[str]]:
    """``(attempted, failed cell ids)`` of ``actual`` against ``expected``.

    A cell both sides leave blank is neither attempted nor failed. Any
    other cell is attempted, and failed unless its digests agree — a
    missing cell (its figure raised) or an unexpected one fails too.
    """
    attempted = 0
    failed = []
    for cell in sorted(set(expected) | set(actual)):
        want = expected.get(cell)
        got = actual.get(cell)
        if want == UNAVAILABLE and got in (None, UNAVAILABLE):
            continue
        attempted += 1
        if want != got:
            failed.append(cell)
    return attempted, failed
