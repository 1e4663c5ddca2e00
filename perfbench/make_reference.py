#!/usr/bin/env python3
"""Write the reference the benchmark checks every run against.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py --seed 0
    python3 perfbench/make_reference.py --seed 1

Every cell of every workload is computed once with the interpreted
engine (``backend="python"``) and no result cache, and stored as a
digest of its counts in ``perfbench/references/seed-<seed>.json``.
The ``stream-long`` cells are simulated on the in-memory trace, so the
reference shares no code with the streamed path it checks. Takes about
three minutes per seed on two CPUs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bench import workloads as wl  # noqa: E402
from repro.sim import simulate, spec  # noqa: E402
from repro.workloads import get_workload  # noqa: E402


def build_reference(seed: int, size: wl.Size) -> dict:
    cases = wl.make_cases(seed, size)
    grid = wl.run_grid(cases, cache=None, backend="python")
    if grid.errors:
        raise RuntimeError(f"reference grid failed: {grid.errors}")
    cells = grid.cells()
    trace = get_workload(size.stream_benchmark).generate(
        "testing", scale=size.stream_scale, seed_offset=seed
    )
    for cell, name, switches in wl.stream_cells():
        result = simulate(spec(name)(None), trace, context_switches=switches, backend="python")
        cells[cell] = wl.result_digest(result)
    return {
        "schema": "perfbench.reference/1",
        "seed": seed,
        "size": size.name,
        "engine": "python",
        "cells": dict(sorted(cells.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    reference = build_reference(args.seed, wl.SIZES[args.size])
    out = args.out or HERE / "references" / f"seed-{args.seed}.json"
    out.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"{out}: {len(reference['cells'])} cells in {time.perf_counter() - started:.0f}s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
