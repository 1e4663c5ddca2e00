#!/usr/bin/env python3
"""The repository benchmark: the paper's figure grid and a streamed trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``paper-cold``  — ``repro-experiments figures`` from an empty result cache;
* ``stream-long`` — seven schemes, with and without context switches,
  streamed block-wise from an mmap-backed container of a long trace.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (cells checked against the interpreted-engine
reference, and those that differed or raised) and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` a traced run reports the per-layer ones.

``--size tiny`` and ``--reference PATH`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".perfbench"

WORKLOADS = ("paper-cold", "stream-long")

#: Seeds with a stored reference. ``--seed n`` runs workload seed
#: ``REFERENCE_SEEDS[n % 2]``: 0 reproduces the paper's figures, 1 is
#: held out for checking claims made on seed 0.
REFERENCE_SEEDS = (0, 1)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Path-audit worker processes.
AUDIT_WORKERS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", type=Path, default=None)
    return parser.parse_args(argv)


class Run:
    """One benchmark invocation: set-up, timed passes, checks, metrics."""

    def __init__(self, args, import_s: float, tmp: Path) -> None:
        from bench import workloads as wl

        self.wl = wl
        self.args = args
        self.size = wl.SIZES[args.size]
        self.seed = REFERENCE_SEEDS[args.seed % len(REFERENCE_SEEDS)]
        self.import_s = import_s
        self.tmp = tmp
        self.traced = bool(args.trace)
        self.setups = 1 if self.traced else SETUPS
        path = args.reference or HERE / "references" / f"seed-{self.seed}.json"
        reference = json.loads(path.read_text())
        if reference["seed"] != self.seed or reference["size"] != self.size.name:
            raise SystemExit(f"{path}: reference is for another seed or size")
        stream = args.workload == "stream-long"
        self.expected = {
            cell: digest
            for cell, digest in reference["cells"].items()
            if cell.startswith("stream/") == stream
        }
        self.attempted = 0
        self.failed = []
        self.setup_times = []
        self.pass_times = []
        self.branches = 0
        self.matrices = []
        self.tracer = None

    # -- checks ---------------------------------------------------------
    def check(self, cells, errors) -> None:
        attempted, failed = self.wl.compare(self.expected, cells)
        self.attempted += attempted
        self.failed += failed
        for where, error in errors.items():
            print(f"# {where} raised {error}", file=sys.stderr)

    def call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    # -- passes ---------------------------------------------------------
    def timed_passes(self, one_pass) -> None:
        """Run ``one_pass`` until ``--seconds`` have been measured.

        A traced run makes exactly one pass.
        """
        started = time.perf_counter()
        while True:
            spans_before = len(self.tracer.spans) if self.traced else 0
            one_pass()
            self.pass_spans = len(self.tracer.spans) - spans_before if self.traced else 0
            if self.traced or time.perf_counter() - started >= self.args.seconds:
                return

    def setup_cases(self):
        cases = None
        for _ in range(self.setups):
            cases = None
            gc.collect()
            started = time.perf_counter()
            cases = self.wl.make_cases(self.seed, self.size)
            self.setup_times.append(self.import_s + time.perf_counter() - started)
        return cases

    def grid_pass(self, cases, cache_dir: Path) -> None:
        from repro.trace import ResultCache

        started = time.perf_counter()
        grid = self.wl.run_grid(cases, ResultCache(cache_dir), call=self.call)
        self.pass_times.append(time.perf_counter() - started)
        self.branches = grid.branches()
        self.matrices = list(grid.matrices())
        self.check(grid.cells(), grid.errors)

    def paper_cold(self) -> None:
        cases = self.setup_cases()
        count = 0

        def one_pass():
            nonlocal count
            count += 1
            cache_dir = self.tmp / f"cold-{count}"
            self.grid_pass(cases, cache_dir)
            shutil.rmtree(cache_dir)

        self.timed_passes(one_pass)
        self.audit_step = lambda: self.audit_interpreted(cases)

    def stream_long(self) -> None:
        path = None
        for index in range(self.setups):
            candidate = self.tmp / f"stream-{index}.btrs"
            wall, self.stream_setup = self.wl.write_stream(candidate, self.seed, self.size)
            self.setup_times.append(wall)
            if path is not None:
                path.unlink()
            path = candidate

        def one_pass():
            started = time.perf_counter()
            results, errors = self.wl.run_stream(path, call=self.call)
            self.pass_times.append(time.perf_counter() - started)
            self.branches = sum(result.conditional_branches for result in results.values())
            self.stream_results = results
            self.check(
                {cell: self.wl.result_digest(result) for cell, result in results.items()},
                errors,
            )

        self.timed_passes(one_pass)
        if self.traced:
            self.call("trace.stream_read", _read_blocks, path, self.wl.STREAM_BLOCK)
        self.audit_step = lambda: self.audit_whole(path)

    # -- path audit (traced runs only) ----------------------------------
    def audit_interpreted(self, cases) -> None:
        """Time the interpreted engine on every cell the pass simulated."""
        from bench.audit import interpret_all
        from repro.trace import save_trace

        by_name = {case.name: case for case in cases}
        spool = self.tmp / "spool"
        spool.mkdir()
        paths = {}
        for name, case in by_name.items():
            test = spool / f"{name}-test.btb"
            save_trace(case.test_trace, test)
            training = None
            if case.training_trace is not None:
                training = spool / f"{name}-training.btb"
                save_trace(case.training_trace, training)
                training = str(training)
            paths[name] = (str(test), training)
        tasks, kernel = [], {}
        for span in self.tracer.spans:
            attrs = span["attrs"]
            if span["name"] != "engine.simulate":
                continue
            scheme = attrs["scheme"]
            switches = attrs["switches"]
            cell = f"{scheme}/{attrs['trace']}/{'nocs' if switches is None else switches}"
            kernel[cell] = (span["end"] - span["start"], attrs["digest"])
            tasks.append((cell, scheme, *paths[attrs["trace"]], switches))
        tasks.sort(key=lambda task: -kernel[task[0]][0])
        slower = 0
        for cell, seconds, digest in interpret_all(tasks, AUDIT_WORKERS):
            kernel_s, kernel_digest = kernel[cell]
            slower += kernel_s > seconds
            self.attempted += 1
            if digest != kernel_digest:
                self.failed.append(f"audit/{cell}")
        self.audit = {
            "kernels.audited_cells": len(tasks),
            "kernels.slower_than_python_cells": slower,
        }

    def audit_whole(self, path: Path) -> None:
        """Time the whole-trace in-memory kernel on every stream cell."""
        from repro.sim import simulate, spec
        from repro.trace import open_stream

        with open_stream(path) as source:
            trace = source.materialize()
        streamed = sum(
            span["end"] - span["start"] for span in self.tracer.spans
            if span["name"] == "stream.cell"
        )
        whole = 0.0
        for cell, name, switches in self.wl.stream_cells():
            started = time.perf_counter()
            result = simulate(spec(name)(None), trace, context_switches=switches, backend="auto")
            whole += time.perf_counter() - started
            self.attempted += 1
            if self.wl.result_digest(result) != self.wl.result_digest(self.stream_results[cell]):
                self.failed.append(f"audit/{cell}")
        self.audit = {"kernels.stream_over_whole_ratio": streamed / whole}

    # -- results --------------------------------------------------------
    def execute(self) -> dict:
        body = {
            "paper-cold": self.paper_cold,
            "stream-long": self.stream_long,
        }[self.args.workload]
        self.stream_setup = None
        self.audit_step = None
        self.audit = {}
        if not self.traced:
            body()
            run_s = statistics.median(self.pass_times)
            metrics = {
                "setup_s": (statistics.median(self.setup_times), "s"),
                "run_s": (run_s, "s"),
                "branches_per_s": (self.branches / run_s, "branch/s"),
                "peak_rss_mib": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
                ),
            }
            print(
                f"# {self.args.workload} seed {self.seed}: setup_s median of "
                f"{[round(t, 3) for t in self.setup_times]}, run_s median of "
                f"{[round(t, 3) for t in self.pass_times]}",
                file=sys.stderr,
            )
        else:
            from bench import tracing

            self.tracer = tracing.Tracer()
            with tracing.instrument(self.tracer):
                body()
            if self.audit_step is not None:
                self.audit_step()
            metrics = self.layer_metrics(tracing)
        for cell in self.failed[:20]:
            print(f"# reference mismatch: {cell}", file=sys.stderr)
        return {
            "correct": not self.failed and self.attempted > 0,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }

    def layer_metrics(self, tracing) -> dict:
        values = tracing.layer_metrics(self.tracer, self.matrices, self.stream_setup)
        values.update({
            "kernels.audited_cells": 0,
            "kernels.slower_than_python_cells": 0,
            "kernels.stream_over_whole_ratio": 0.0,
        })
        values.update(self.audit)
        traced_run_s = self.pass_times[0]
        values["obs.spans"] = self.pass_spans
        values["obs.traced_run_s"] = traced_run_s
        values["obs.trace_overhead_frac"] = (
            tracing.calibrate_span_cost() * self.pass_spans / traced_run_s
        )
        values["check.error_rate"] = len(self.failed) / self.attempted if self.attempted else 1.0
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        return {item["name"]: (values[item["name"]], item["unit"]) for item in units}


def _read_blocks(path, block_size) -> int:
    from repro.trace import open_stream

    records = 0
    with open_stream(path) as source:
        for block in source.iter_blocks(block_size):
            records += len(block)
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments  # noqa: F401  (timed: import is part of set-up)

    import_s = time.perf_counter() - started
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        result = Run(args, import_s, tmp).execute()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
