"""Child process of the ``stream-long`` set-up: write one BTRS container.

Usage: ``write_stream.py PATH BENCHMARK SCALE SEED``. Prints
``<generate seconds> <write seconds> <records>`` on stdout.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.trace import save_source  # noqa: E402
from repro.workloads import get_workload  # noqa: E402


def main(path: str, benchmark: str, scale: str, seed: str) -> None:
    started = time.perf_counter()
    trace = get_workload(benchmark).generate("testing", scale=int(scale), seed_offset=int(seed))
    generated = time.perf_counter()
    save_source(trace, path)
    written = time.perf_counter()
    print(f"{generated - started!r} {written - generated!r} {len(trace)}")


if __name__ == "__main__":
    main(*sys.argv[1:])
