"""Tests for cross-process span tracing (repro.obs.spans).

The guarantees under test:

* recorder semantics: nesting, retroactive recording from external
  clock readings, lenient id-anchored popping, reserved args;
* tree integrity: parent/child nesting and containment, monotone
  timestamps across the fork boundary, duplicate detection;
* loss tolerance: a missing (crashed-worker) batch orphans spans into
  roots without corrupting the sweep trace;
* exactness: Chrome trace-event JSON round-trips spans bit-for-bit,
  and per-cell span totals equal the telemetry phase times;
* the sweep integration: serial and parallel traced sweeps produce
  valid trees whose spans agree with ``CellTelemetry`` — which, like
  the ``done`` heartbeats, is a view over each cell's spans;
* recorder ownership: a sweep records on recorders of its own, leaves
  the caller's recorder current and untouched, and leaks nothing when a
  cell raises.
"""

import json

import pytest

from repro.core.automata import A2
from repro.core.twolevel import GAgPredictor
from repro.obs.export import load_spans, write_chrome_trace, write_spans
from repro.obs.spans import (
    Span,
    SpanCollector,
    SpanRecorder,
    build_span_tree,
    cell_phase_totals,
    cell_span_summaries,
    disable,
    enable,
    get_recorder,
    recording,
    span_totals,
    spans_from_chrome,
    summarize_spans,
    to_chrome_trace,
    validate_chrome_trace,
    validate_span_tree,
)
from repro.sim.kernels import KernelUnavailable
from repro.sim.parallel import spec
from repro.sim.runner import BenchmarkCase, run_matrix
from repro.trace import synthetic
from repro.trace.cache import ResultCache


class FakeClock:
    """Deterministic injectable clock (seconds)."""

    def __init__(self, start=100.0, step=0.001):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def _recorder(**kwargs):
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault("pid", 1234)
    return SpanRecorder(**kwargs)


def _cases():
    return [
        BenchmarkCase("loopA", "int", synthetic.loop_trace(300, 7, name="loopA")),
        BenchmarkCase("loopB", "fp", synthetic.loop_trace(260, 5, name="loopB")),
    ]


def _sweep_fixture(n_workers=1, tracer=None, **kwargs):
    builders = {"GAg-6": spec("gag-6"), "GAg-8": spec("gag-8")}
    return run_matrix(builders, _cases(), n_workers=n_workers, tracer=tracer, **kwargs)


class _SubclassedGAg(GAgPredictor):
    """Kernel dispatch is on the exact type, so no kernel covers this."""


class TestSpanRecorder:
    def test_push_pop_nests(self):
        recorder = _recorder()
        outer = recorder.push("outer", cat="sweep")
        inner = recorder.push("inner", cat="phase")
        recorder.pop()  # inner
        recorder.pop()  # outer
        spans = recorder.spans
        assert [span.name for span in spans] == ["inner", "outer"]
        by_name = {span.name: span for span in spans}
        assert by_name["inner"].parent_id == outer
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].span_id == inner
        assert not validate_span_tree(spans)

    def test_explicit_start_end_seconds_are_exact(self):
        recorder = _recorder()
        span_id = recorder.push("cell", start=10.0)
        recorder.pop_through(span_id, end=10.5)
        (span,) = recorder.spans
        assert span.ts == 10.0 * 1e6
        assert span.dur == pytest.approx(0.5 * 1e6)
        assert span.seconds == pytest.approx(0.5)

    def test_record_retroactive_nests_under_open_span(self):
        recorder = _recorder()
        cell = recorder.push("cell", start=1.0)
        phase = recorder.record("trace_load", cat="phase", start=1.0, end=1.25)
        recorder.pop_through(cell, end=2.0)
        assert phase.parent_id == cell
        assert phase.seconds == pytest.approx(0.25)
        assert not validate_span_tree(recorder.spans)

    def test_pop_through_closes_abandoned_children(self):
        recorder = _recorder()
        outer = recorder.push("outer")
        recorder.push("abandoned")
        recorder.push("deeper")
        span = recorder.pop_through(outer, flagged=True)
        assert span.name == "outer"
        assert span.args == {"flagged": True}
        assert recorder.depth == 0
        # all three closed, args only on the target
        assert {s.name for s in recorder.spans} == {"outer", "abandoned", "deeper"}
        assert all(s.args == {} for s in recorder.spans if s.name != "outer")

    def test_pop_through_unknown_id_is_noop(self):
        recorder = _recorder()
        recorder.push("outer")
        assert recorder.pop_through(999) is None
        assert recorder.depth == 1

    def test_pop_if_open_only_pops_top_of_stack(self):
        recorder = _recorder()
        outer = recorder.push("outer")
        inner = recorder.push("inner")
        assert recorder.pop_if_open(outer) is None  # not innermost
        assert recorder.depth == 2
        assert recorder.pop_if_open(inner).name == "inner"
        assert recorder.pop_if_open(inner) is None  # already closed
        assert recorder.depth == 1

    def test_reserved_args_rejected(self):
        recorder = _recorder()
        with pytest.raises(ValueError, match="reserved"):
            recorder.push("bad", span_id=7)
        with pytest.raises(ValueError, match="reserved"):
            recorder.record("bad", start=0.0, end=1.0, parent_id=3)

    def test_pop_empty_stack_raises(self):
        with pytest.raises(RuntimeError):
            _recorder().pop()

    def test_span_context_manager_closes_on_exception(self):
        recorder = _recorder()
        with pytest.raises(RuntimeError, match="boom"):
            with recorder.span("guarded"):
                recorder.push("left-open")
                raise RuntimeError("boom")
        assert recorder.depth == 0
        assert {s.name for s in recorder.spans} == {"guarded", "left-open"}

    def test_drain_clears_completed_keeps_open(self):
        recorder = _recorder()
        recorder.push("open")
        recorder.record("done", start=0.0, end=1.0)
        drained = recorder.drain()
        assert [s.name for s in drained] == ["done"]
        assert recorder.spans == []
        assert recorder.depth == 1

    def test_ids_monotone_across_cells(self):
        recorder = _recorder()
        first = recorder.push("cell")
        recorder.pop()
        recorder.drain()
        second = recorder.push("cell")
        recorder.pop()
        assert second > first  # ids never reused after a drain


class TestActiveRecorder:
    def test_enable_disable_get(self):
        assert get_recorder() is None
        recorder = SpanRecorder()
        assert enable(recorder) is recorder
        assert get_recorder() is recorder
        disable()
        assert get_recorder() is None

    def test_recording_context_manager(self):
        with recording() as recorder:
            assert get_recorder() is recorder
        assert get_recorder() is None


class TestTreeIntegrity:
    def test_missing_parent_becomes_root(self):
        # A child whose parent batch was lost with a crashed worker.
        orphan = Span(name="simulate", cat="phase", ts=10.0, dur=5.0,
                      pid=99, tid=1, span_id=2, parent_id=1)
        roots, children = build_span_tree([orphan])
        assert roots == [orphan]
        assert children == {}
        assert not validate_span_tree([orphan])  # loss is not corruption

    def test_duplicate_identity_detected(self):
        span = Span(name="x", cat="", ts=0.0, dur=1.0, pid=1, tid=1, span_id=1)
        problems = validate_span_tree([span, span])
        assert any("duplicate" in problem for problem in problems)

    def test_negative_duration_detected(self):
        span = Span(name="x", cat="", ts=0.0, dur=-1.0, pid=1, tid=1, span_id=1)
        assert any("negative" in p for p in validate_span_tree([span]))

    def test_self_parent_detected(self):
        span = Span(name="x", cat="", ts=0.0, dur=1.0, pid=1, tid=1,
                    span_id=1, parent_id=1)
        assert any("own parent" in p for p in validate_span_tree([span]))

    def test_containment_violation_detected(self):
        parent = Span(name="p", cat="", ts=0.0, dur=10.0, pid=1, tid=1, span_id=1)
        escapee = Span(name="c", cat="", ts=5.0, dur=100.0, pid=1, tid=1,
                       span_id=2, parent_id=1)
        assert any("escapes" in p for p in validate_span_tree([parent, escapee]))

    def test_queue_loss_tolerance_partial_sweep(self):
        # Parent sweep span + one worker's cell batch; the other
        # worker "crashed" and never returned. The trace stays valid.
        parent = _recorder(pid=1)
        sweep = parent.push("sweep", start=0.0)
        parent.pop_through(sweep, end=10.0)
        worker = _recorder(pid=2, clock=FakeClock(start=1.0))
        with worker.span("cell", scheme="GAg", benchmark="a"):
            pass
        collector = SpanCollector()
        collector.ingest(parent.drain())
        collector.ingest(worker.drain())
        assert not validate_span_tree(collector.spans)
        assert len(collector.spans) == 2
        # A span whose parent was lost with its batch is a root.
        orphan = Span(name="simulate", cat="phase", ts=1.5e6, dur=10.0,
                      pid=3, tid=1, span_id=5, parent_id=4)
        collector.ingest([orphan])
        roots, _children = build_span_tree(collector.spans)
        assert orphan in roots
        assert not validate_span_tree(collector.spans)


class TestAggregation:
    def test_span_totals_and_summary(self):
        recorder = _recorder()
        recorder.record("block", start=0.0, end=0.5)
        recorder.record("block", start=1.0, end=1.25)
        totals = span_totals(recorder.spans)
        assert totals["block"]["count"] == 2
        assert totals["block"]["seconds"] == pytest.approx(0.75)
        summary = summarize_spans(recorder.spans)
        assert summary["count"] == 2
        assert summary["by_name"] == totals

    def test_cell_phase_totals_and_summaries(self):
        recorder = _recorder()
        cell = recorder.push("cell", start=0.0, scheme="GAg", benchmark="a")
        recorder.record("trace_load", cat="phase", start=0.0, end=0.2)
        sim = recorder.push("simulate", cat="phase", start=0.2)
        recorder.record("block", cat="engine", start=0.2, end=0.9)
        recorder.pop_through(sim, end=1.0)
        recorder.pop_through(cell, end=1.0)
        phases = cell_phase_totals(recorder.spans)
        assert phases[("GAg", "a")]["trace_load"] == pytest.approx(0.2)
        assert phases[("GAg", "a")]["simulate"] == pytest.approx(0.8)
        assert "block" not in phases[("GAg", "a")]  # grandchild, not a phase
        summaries = cell_span_summaries(recorder.spans)
        assert summaries[("GAg", "a")]["count"] == 4  # whole subtree


class TestChromeTrace:
    def _spans(self):
        recorder = _recorder()
        with recorder.span("cell", cat="sweep", scheme="GAg", benchmark="a"):
            recorder.record("build", cat="phase", start=100.0, end=100.25,
                            rss_bytes=1_000_000)
        return recorder.spans

    def test_round_trip_exact(self):
        spans = self._spans()
        payload = to_chrome_trace(spans)
        assert spans_from_chrome(payload) == spans

    def test_metadata_and_structure(self):
        payload = to_chrome_trace(self._spans(), label="test sweep")
        assert payload["otherData"]["label"] == "test sweep"
        phases = [event["ph"] for event in payload["traceEvents"]]
        assert phases.count("M") == 1  # one process_name per pid
        assert phases.count("X") == 2
        assert not validate_chrome_trace(payload)

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) == ["top level is not a JSON object"]
        assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
        bad = {"traceEvents": [{"ph": "X", "name": "x", "ts": -1.0, "dur": 1.0,
                                "pid": 1, "tid": 1}]}
        assert any("negative" in p for p in validate_chrome_trace(bad))
        torn = {"traceEvents": [{"name": "no-phase"}]}
        assert any("missing phase" in p for p in validate_chrome_trace(torn))

    def test_json_round_trip_through_disk(self, tmp_path):
        spans = self._spans()
        target = write_chrome_trace(spans, tmp_path / "trace.json")
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert not validate_chrome_trace(payload)
        assert spans_from_chrome(payload) == spans

    def test_spans_jsonl_round_trip(self, tmp_path):
        spans = self._spans()
        target = write_spans(spans, tmp_path / "spans.jsonl")
        assert load_spans(target) == spans


class TestSweepIntegration:
    def _check_phase_agreement(self, collector, matrix):
        totals = cell_phase_totals(collector.spans)
        cells = {(c.scheme, c.benchmark): c for c in matrix.telemetry.cells}
        assert set(totals) == set(cells)
        for key, phases in totals.items():
            for phase, seconds in phases.items():
                reference = cells[key].phases[phase]
                # the acceptance bound is 1%; equality is exact by
                # construction (same clock readings), modulo float µs
                assert seconds == pytest.approx(reference, rel=0.01, abs=1e-5)

    def test_serial_traced_sweep(self):
        collector = SpanCollector()
        matrix = _sweep_fixture(n_workers=1, tracer=collector)
        assert not validate_span_tree(collector.spans)
        assert len(collector.spans) > 0
        names = {span.name for span in collector.spans}
        assert {"sweep", "cell", "simulate", "build"} <= names
        self._check_phase_agreement(collector, matrix)
        # exact Chrome round-trip of a real sweep trace
        assert spans_from_chrome(to_chrome_trace(collector.spans)) == collector.spans

    def test_parallel_traced_sweep_across_fork(self):
        collector = SpanCollector()
        matrix = _sweep_fixture(n_workers=2, tracer=collector)
        assert not validate_span_tree(collector.spans)
        pids = {span.pid for span in collector.spans}
        assert len(pids) > 1, "expected spans from parent and workers"
        self._check_phase_agreement(collector, matrix)
        # fork boundary: perf_counter is CLOCK_MONOTONIC, shared across
        # fork, so every worker span lies inside the parent's sweep span
        (sweep,) = [s for s in collector.spans if s.name == "sweep"]
        for span in collector.spans:
            assert span.ts >= sweep.ts - 0.5
            assert span.end <= sweep.end + 0.5

    def test_untraced_sweep_records_no_spans(self):
        matrix = _sweep_fixture(n_workers=1, tracer=None)
        assert get_recorder() is None
        assert matrix.telemetry.total_cells == 4

    def test_traced_results_bit_identical_to_untraced(self):
        baseline = _sweep_fixture(n_workers=1, tracer=None)
        traced = _sweep_fixture(n_workers=2, tracer=SpanCollector())
        assert traced.cells == baseline.cells

    def test_telemetry_backend_and_rss(self):
        matrix = _sweep_fixture(n_workers=2, tracer=SpanCollector())
        telemetry = matrix.telemetry
        assert telemetry.peak_rss_bytes > 0
        assert sum(telemetry.backend_counts.values()) == 4
        line = telemetry.summary_line()
        assert "backend:" in line
        assert "peak rss" in line
        for cell in telemetry.cells:
            assert cell.rss_peak > 0
            restored = type(cell).from_dict(cell.as_dict())
            assert restored.rss_peak == cell.rss_peak


class TestTelemetryIsASpanView:
    """``CellTelemetry`` and the ``done`` heartbeats are read off each
    cell's spans, so they equal the span-derived values exactly."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_telemetry_and_heartbeats_equal_cell_spans(self, n_workers, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_matrix({"GAg-6": spec("gag-6")}, _cases(), result_cache=cache)  # warm half
        collector = SpanCollector()
        beats = []
        matrix = _sweep_fixture(
            n_workers=n_workers, tracer=collector, result_cache=cache,
            progress=beats.append,
        )
        _roots, children = build_span_tree(collector.spans)
        cell_spans = {
            (span.args["scheme"], span.args["benchmark"]): span
            for span in collector.spans
            if span.name == "cell"
        }
        records = {(c.scheme, c.benchmark): c for c in matrix.telemetry.cells}
        assert set(cell_spans) == set(records)
        assert {record.source for record in records.values()} == {"cache", "simulated"}
        for key, span in cell_spans.items():
            phases = {}
            for child in children.get(span.key, ()):
                phases[child.name] = phases.get(child.name, 0.0) + child.seconds
            record = records[key]
            assert record.wall_time == span.seconds
            assert record.phases == phases
            assert record.backend == span.args.get("backend", "")
            assert record.rss_peak == span.args.get("peak_rss_bytes", 0)
        done = [beat for beat in beats if beat.kind == "done"]
        assert len(done) == matrix.telemetry.simulations == 2
        for beat in done:
            span = cell_spans[(beat.scheme, beat.benchmark)]
            assert beat.worker == span.pid
            assert beat.wall == span.seconds
            assert beat.branches == span.args["branches"] > 0
            assert beat.rss_bytes == span.args["peak_rss_bytes"] > 0
        cached = [beat for beat in beats if beat.kind == "cached"]
        assert len(cached) == matrix.telemetry.cache_hits == 2
        for beat in cached:
            assert beat.wall == cell_spans[(beat.scheme, beat.benchmark)].seconds


class TestRecorderOwnership:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_raising_traced_sweep_leaves_no_recorder(self, n_workers):
        builders = {"sub": lambda training: _SubclassedGAg(6, A2)}
        with pytest.raises(KernelUnavailable):
            run_matrix(builders, _cases(), n_workers=n_workers, backend="vectorized",
                       tracer=SpanCollector())
        assert get_recorder() is None

    def test_sweeps_leave_the_callers_recorder_alone(self):
        with recording() as caller:
            with caller.span("earlier"):
                pass
            before = caller.spans
            collector = SpanCollector()
            _sweep_fixture(n_workers=1, tracer=collector)
            assert caller.spans == before
            assert get_recorder() is caller
            (sweep,) = [span for span in collector.spans if span.name == "sweep"]
            assert not {span.key for span in before} & {span.key for span in collector.spans}
            roots, _children = build_span_tree(collector.spans)
            assert sorted(root.name for root in roots) == ["cell"] * 4 + ["sweep"]
            for span in collector.spans:
                assert sweep.ts <= span.ts and span.end <= sweep.end
            _sweep_fixture(n_workers=1, tracer=None)
            assert caller.spans == before
            assert get_recorder() is caller
        assert get_recorder() is None
