"""RunReport schema stability, serialisation and profiling-layer tests."""

import json

import pytest

from repro.obs import (
    SCHEMA,
    RunReport,
    TimingPredictor,
    format_report,
    observe,
    run_cprofile,
    write_report,
)
from repro.trace.cache import ResultCache
from repro.trace.synthetic import loop_trace

#: Every top-level key a serialised report must carry, forever.
EXPECTED_KEYS = {
    "schema",
    "scheme",
    "workload",
    "dataset",
    "result",
    "interval_instructions",
    "intervals",
    "streaks",
    "offenders",
    "warmup",
    "tables",
    "timing",
    "cprofile",
    "events_path",
    "extra",
}


@pytest.fixture(scope="module")
def report():
    return observe(
        "gag-6",
        trace=loop_trace(iterations=400, trip_count=4),
        workload="loop",
        interval_instructions=500,
        top_k=3,
    )


class TestRunReport:
    def test_schema_keys(self, report):
        payload = report.to_dict()
        assert set(payload) == EXPECTED_KEYS
        assert payload["schema"] == SCHEMA == "repro.obs/1"

    def test_extra_round_trips(self):
        char_payload = {"schema": "repro.analysis.char/1", "static_sites": 3}
        report = RunReport(
            scheme="gag-8", workload="loop",
            extra={"characterization": char_payload},
        )
        wire = json.loads(json.dumps(report.to_dict()))
        rebuilt = RunReport.from_dict(wire)
        assert rebuilt.extra == {"characterization": char_payload}
        # Older payloads without the key read back as an empty dict.
        legacy = report.to_dict()
        del legacy["extra"]
        assert RunReport.from_dict(legacy).extra == {}

    def test_json_round_trip_is_exact(self, report):
        payload = report.to_dict()
        wire = json.loads(json.dumps(payload))
        rebuilt = RunReport.from_dict(wire)
        assert rebuilt.to_dict() == payload
        assert rebuilt.result == report.result
        assert rebuilt.intervals == report.intervals
        assert rebuilt.offenders == report.offenders
        assert rebuilt.streaks == report.streaks

    def test_streak_keys_survive_json(self, report):
        wire = json.loads(json.dumps(report.to_dict()))
        rebuilt = RunReport.from_dict(wire)
        assert all(isinstance(k, int) for k in rebuilt.streaks)
        assert rebuilt.max_streak == report.max_streak

    def test_result_cache_round_trip(self, report, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store("obs-report", report.to_dict())
        hit, payload = cache.load("obs-report")
        assert hit
        assert RunReport.from_dict(payload).to_dict() == report.to_dict()

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError, match="schema"):
            RunReport.from_dict({"schema": "something/else", "scheme": "x", "workload": "y"})

    def test_content_is_consistent(self, report):
        assert report.scheme == "gag-6"
        assert report.result.conditional_branches == 400 * 4
        assert sum(p.branches for p in report.intervals) == 400 * 4
        assert sum(l * c for l, c in report.streaks.items()) == report.result.mispredictions
        assert len(report.offenders) <= 3
        assert report.tables  # GAg exposes its pht
        assert {"build", "simulate"} <= set(report.timing)


class TestFormatReport:
    def test_sections_present(self, report):
        text = format_report(report)
        assert "accuracy" in text
        assert "interval series" in text
        assert "mispredict streaks" in text
        assert "hard-to-predict branches" in text
        assert "timing spans" in text

    def test_write_report_text_and_json(self, report, tmp_path):
        json_path = write_report(report, tmp_path / "r.json", fmt="json")
        text_path = write_report(report, tmp_path / "r.txt", fmt="text")
        assert json.loads(json_path.read_text())["schema"] == SCHEMA
        assert "mispredict streaks" in text_path.read_text()
        with pytest.raises(ValueError):
            write_report(report, tmp_path / "r.x", fmt="yaml")


class TestTimingPredictor:
    def test_delegates_and_times(self):
        from repro.core.twolevel import make_pag

        inner = make_pag(6)
        proxy = TimingPredictor(inner)
        assert proxy.name == inner.name
        assert proxy.totals == {}
        prediction = proxy.predict(0x40, 0)
        proxy.update(0x40, True, 0)
        assert prediction in (True, False)
        assert proxy.totals["predict"]["calls"] == 1
        assert proxy.totals["update"]["calls"] == 1
        assert proxy.totals["predict"]["seconds"] >= 0.0
        # Attribute probes see through the proxy to the real tables.
        assert proxy.pht is inner.pht
        assert proxy.bht is inner.bht

    def test_run_cprofile_returns_value_and_table(self):
        value, text = run_cprofile(lambda: sum(range(1000)))
        assert value == sum(range(1000))
        assert "function calls" in text
