#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny size (about two minutes).

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Checks that:

1. every workload completes, untraced and traced, against a tiny
   reference built here with the interpreted engine, its last output
   line names every metric of ``BENCHMARK.json`` with its unit, and it
   leaves no process of its own behind;
2. a deliberately corrupted reference cell is reported as a failure
   (``failed > 0``, ``correct`` false) on each workload;
3. the benchmark exits non-zero, printing no result, in a directory
   holding only ``BENCHMARK.json`` and ``perfbench/``.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-cold", "stream-long")


def session_processes(session: int):
    """Processes (zombies too) whose session id is ``session``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[3]) == session:
            found.append(int(entry.name))
    return found


def run(reference: Path, workload: str, trace: int, cwd: Path = ROOT):
    """Run the benchmark in a session of its own.

    Returns ``(exit code, result line or None, stderr, leftover pids)``:
    the last are processes of that session still present once the
    benchmark has exited.
    """
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         "--reference", str(reference)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=600)
    leftover = session_processes(proc.pid)
    lines = stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, stderr, leftover


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    problems = []
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        reference = scratch / "tiny-seed-0.json"
        subprocess.run(
            [sys.executable, str(HERE / "make_reference.py"), "--seed", "0",
             "--size", "tiny", "--out", str(reference)],
            check=True, timeout=600,
        )
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, result, stderr, leftover = run(reference, workload, trace)
                where = f"{workload} --trace {trace}"
                if leftover:
                    problems.append(f"{where}: left processes {leftover} behind")
                if code != 0 or result is None:
                    problems.append(f"{where}: exit {code}\n{stderr.decode()[-2000:]}")
                    continue
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{where}: metrics {units} != {expected[trace]}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{where}: reference check failed: {result}")
                print(f"ok   {where}: {result['attempted']} cells checked")

        cells = json.loads(reference.read_text())
        for workload, prefix in (("paper-cold", "fig6/"), ("stream-long", "stream/")):
            corrupted = json.loads(json.dumps(cells))
            cell = next(c for c, v in sorted(corrupted["cells"].items())
                        if c.startswith(prefix) and v != "unavailable")
            corrupted["cells"][cell] = "0" * 16
            path = scratch / f"corrupted-{workload}.json"
            path.write_text(json.dumps(corrupted))
            code, result, _, _ = run(path, workload, 0)
            if code != 0 or result is None or result["correct"] or result["failed"] < 1:
                problems.append(f"corrupted {cell}: not reported as failed: {result}")
            else:
                print(f"ok   corrupted {cell}: failed={result['failed']}"
                      f" of {result['attempted']}")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _, _ = run(reference, "paper-cold", 0, cwd=bare)
        if code == 0 or result is not None:
            problems.append(f"bare directory: exit {code}, result {result}")
        else:
            print(f"ok   bare directory: exit {code}, no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
