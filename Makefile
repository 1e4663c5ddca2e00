# Convenience targets for the reproduction.

PYTHON ?= python

WORKERS ?= 4

.PHONY: install test check check-sarif lint bench bench-kernels bench-stream bench-spans bench-characterize characterize experiments sweep sweep-follow sweep-trace examples obs-demo clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Static analysis & invariant verification (see docs/static-analysis.md):
# automaton model check, kernel-encoding prover, predict() purity lint,
# determinism lint, spec picklability, fork/pickle-safety lint, resource
# discipline lint, registry consistency, docs accuracy. --strict
# promotes warnings to failures, matching the CI gate.
check:
	PYTHONPATH=src $(PYTHON) -m repro.check --strict

# Same gate, plus a SARIF 2.1.0 log at results/check.sarif — the file
# CI uploads as an artifact and code-scanning UIs ingest directly.
check-sarif:
	PYTHONPATH=src $(PYTHON) -m repro.check --strict --sarif results/check.sarif

# Style lint. ruff is optional locally (CI always has it); skip with a
# notice when it is not installed rather than failing the target.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping style lint (pip install ruff)"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Vectorized-kernel throughput pin: asserts the fast-path backend is
# bit-identical to the interpreted engine and >=5x faster on a
# million-branch trace, and appends the measured speedups to the run
# ledger (results/ledger) for repro-obs history / export-bench.
bench-kernels:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_kernels.py --benchmark-only

# Streaming-substrate throughput pin: asserts that simulating a
# million-branch mmap-backed .btrs container block-by-block (block
# 2^16) is bit-identical to the one-shot materialized pass and within
# 10% of its wall time, and appends the measured overheads to the run
# ledger (results/ledger) for repro-obs history / export-bench.
bench-stream:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_stream.py --benchmark-only

# Span-recorder overhead pins: asserts that simulate() with no recorder
# enabled stays within 5% of the plain pre-observability loop, and that
# a traced nine-scheme sweep exports a valid Chrome trace whose per-cell
# span totals agree with the CellTelemetry phases within 1%. Sweeps
# record every cell as spans, so these pins guard every sweep.
bench-spans:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_spans.py --benchmark-only

# Characterization-engine throughput pin: asserts the vectorized
# counting backend is bit-identical to the pure-python loop and >=5x
# faster on a million-branch trace, and appends the measured speedup to
# the run ledger (results/ledger) for repro-obs history / export-bench.
bench-characterize:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_characterize.py --benchmark-only

# Predictability characterization of the eqntott workload: verifies the
# python and vectorized backends agree bit-for-bit, prints the report,
# writes it to results/characterize-eqntott.json, and records it in the
# run ledger (kind "char") where repro-obs metrics exports it
# (see docs/characterization.md).
characterize:
	PYTHONPATH=src $(PYTHON) -m repro.obs characterize --workload eqntott \
		--verify --format json --out results/characterize-eqntott.json \
		--ledger results/ledger
	PYTHONPATH=src $(PYTHON) -m repro.obs metrics --ledger results/ledger \
		--kind char --out results/characterize-metrics.prom

experiments:
	$(PYTHON) -m repro.experiments.cli all --out results/

# Parallel, cached regeneration of the figure suite. Reruns are nearly
# free: results are cached under results/cache keyed by trace+scheme
# content, and the emitted run summary shows the hit/miss counts.
sweep:
	$(PYTHON) -m repro.experiments.cli figures --workers $(WORKERS) --out results/

# Live-monitored (schemes x benchmark-suite) sweep: per-worker
# heartbeats drive a --follow status line (done/total, active cells,
# aggregate branches/sec, ETA) and every cell is recorded in the
# persistent run ledger for repro-obs history/compare/regress.
sweep-follow:
	PYTHONPATH=src $(PYTHON) -m repro.obs sweep gag-8 pag-8 gshare-8 \
		--workers $(WORKERS) --follow --ledger results/ledger

# Span-traced sweep: records a cross-process span tree (sweep -> cell
# -> phase -> engine), validates it, and exports a Chrome trace-event
# JSON loadable at https://ui.perfetto.dev (see docs/observability.md).
sweep-trace:
	PYTHONPATH=src $(PYTHON) -m repro.obs sweep gag-8 pag-8 gshare-8 \
		--workers $(WORKERS) --spans results/sweep-spans.jsonl \
		--trace-out results/sweep-trace.json --ledger results/ledger
	PYTHONPATH=src $(PYTHON) -m repro.obs trace summary results/sweep-spans.jsonl

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

# Observability smoke check: run one fully-probed simulation through
# python -m repro.obs and verify the emitted RunReport is valid JSON
# with the expected schema (see docs/observability.md).
obs-demo:
	PYTHONPATH=src $(PYTHON) -m repro.obs --scheme GAg --workload eqntott \
		--format json \
	| $(PYTHON) -c "import json,sys; r=json.load(sys.stdin); \
		assert r['schema']=='repro.obs/1', r['schema']; \
		assert r['result']['conditional_branches']>0; \
		print('obs-demo ok:', r['scheme'], 'on', r['workload'], \
		      'accuracy', round(100*r['result']['correct_predictions']/r['result']['conditional_branches'],2), '%')"

clean:
	rm -rf results benchmarks/results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
