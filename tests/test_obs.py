"""Tests for the telemetry layer (metrics, spans, events, exporters)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core import SchedulingError
from repro.core.errors import TelemetryError


@pytest.fixture(autouse=True)
def _inert_telemetry():
    """Every test starts and ends with the disabled default context."""
    obs.disable()
    yield
    obs.disable()


class TestMetricKey:
    def test_bare_name_without_labels(self):
        assert obs.metric_key("search.slots_scanned") == "search.slots_scanned"

    def test_labels_sorted(self):
        key = obs.metric_key("search.windows_found", {"b": "2", "a": "1"})
        assert key == "search.windows_found{a=1,b=2}"


class TestCounter:
    def test_increments(self):
        counter = obs.Counter("jobs")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            obs.Counter("jobs").increment(-1)

    def test_to_dict(self):
        counter = obs.Counter("jobs")
        counter.increment(3)
        assert counter.to_dict() == {"kind": "counter", "name": "jobs", "value": 3.0}


class TestGauge:
    def test_set_overwrites_in_both_directions(self):
        gauge = obs.Gauge("backlog")
        gauge.set(10)
        gauge.set(3)
        assert gauge.value == 3


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        histogram = obs.Histogram("depth", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 555.5
        assert histogram.minimum == 0.5
        assert histogram.maximum == 500.0
        assert histogram.mean == pytest.approx(138.875)

    def test_cumulative_counts_use_le_semantics(self):
        histogram = obs.Histogram("depth", bounds=(1.0, 10.0, 100.0))
        for value in (1.0, 2.0, 200.0):
            histogram.observe(value)
        # 1.0 lands in the first bucket (le), 2.0 in the second, 200.0
        # only in the implicit +Inf bucket (= total count).
        assert histogram.cumulative_counts() == [1, 2, 2]
        assert histogram.count == 3

    def test_quantile(self):
        histogram = obs.Histogram("depth", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 0.7, 50.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == 100.0
        assert obs.Histogram("empty").quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            obs.Histogram("bad", bounds=(10.0, 1.0))

    def test_to_dict_empty_has_null_extremes(self):
        snapshot = obs.Histogram("empty").to_dict()
        assert snapshot["min"] is None
        assert snapshot["max"] is None
        assert snapshot["buckets"] == []


class TestMetricRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = obs.MetricRegistry()
        first = registry.counter("search.passes", algo="alp")
        first.increment()
        second = registry.counter("search.passes", algo="alp")
        assert first is second
        assert second.value == 1

    def test_labels_partition_instruments(self):
        registry = obs.MetricRegistry()
        registry.counter("windows", algo="alp").increment(2)
        registry.counter("windows", algo="amp").increment(5)
        assert registry.get("windows", algo="alp").value == 2
        assert registry.get("windows", algo="amp").value == 5
        assert registry.get("windows") is None

    def test_kind_mismatch_raises(self):
        registry = obs.MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_iteration_sorted_by_key(self):
        registry = obs.MetricRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert [instrument.name for instrument in registry] == ["a", "b"]

    def test_clear(self):
        registry = obs.MetricRegistry()
        registry.counter("x")
        registry.clear()
        assert len(registry) == 0


class TestSpans:
    def test_nesting_builds_a_tree(self):
        telemetry = obs.Telemetry()
        with telemetry.span("outer", jobs=2):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        assert len(telemetry.traces) == 1
        root = telemetry.traces[0]
        assert root.name == "outer"
        assert root.attributes == {"jobs": 2}
        assert [child.name for child in root.children] == ["inner", "inner"]
        assert root.duration > 0.0

    def test_exception_marks_error_status_and_propagates(self):
        telemetry = obs.Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("breaks"):
                raise RuntimeError("boom")
        assert telemetry.traces[0].status == "error"

    def test_span_durations_feed_histogram(self):
        telemetry = obs.Telemetry()
        with telemetry.span("op"):
            pass
        histogram = telemetry.registry.get("span.seconds", span="op")
        assert histogram is not None
        assert histogram.count == 1

    def test_annotate_while_open(self):
        telemetry = obs.Telemetry()
        with telemetry.span("op") as handle:
            handle.annotate(found=7)
        assert telemetry.traces[0].attributes == {"found": 7}

    def test_total_by_name_aggregates_subtree(self):
        telemetry = obs.Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        totals = telemetry.traces[0].total_by_name()
        assert set(totals) == {"outer", "inner"}
        assert totals["inner"][0] == 1

    def test_round_trip_through_dict(self):
        telemetry = obs.Telemetry()
        with telemetry.span("outer", algo="amp"):
            with telemetry.span("inner"):
                pass
        payload = telemetry.traces[0].to_dict()
        rebuilt = obs.SpanRecord.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.name == "outer"
        assert rebuilt.attributes == {"algo": "amp"}
        assert rebuilt.children[0].name == "inner"

    def test_max_traces_bounds_retention(self):
        telemetry = obs.Telemetry(max_traces=3)
        for index in range(5):
            with telemetry.span(f"op{index}"):
                pass
        assert [root.name for root in telemetry.traces] == ["op2", "op3", "op4"]


class TestDisabledTelemetry:
    def test_span_returns_shared_noop_singleton(self):
        telemetry = obs.Telemetry(enabled=False)
        first = telemetry.span("anything", jobs=3)
        second = telemetry.span("other")
        assert first is obs.NOOP_SPAN
        assert second is obs.NOOP_SPAN
        with first:
            first.annotate(ignored=True)

    def test_recording_methods_touch_nothing(self):
        telemetry = obs.Telemetry(enabled=False)
        telemetry.count("c")
        telemetry.set_gauge("g", 1.0)
        telemetry.observe("h", 2.0)
        telemetry.event("e", detail="x")
        assert len(telemetry.registry) == 0
        assert len(telemetry.events) == 0
        assert telemetry.traces == []

    def test_default_context_is_disabled(self):
        assert not obs.telemetry_enabled()
        assert obs.span("x") is obs.NOOP_SPAN

    def test_configure_then_disable_swaps_the_active_context(self):
        configured = obs.configure(enabled=True)
        assert obs.get_telemetry() is configured
        assert obs.telemetry_enabled()
        obs.count("swapped")
        assert configured.registry.get("swapped").value == 1
        obs.disable()
        assert not obs.telemetry_enabled()
        assert obs.get_telemetry() is not configured


class TestTracedDecorator:
    def test_records_span_when_enabled(self):
        telemetry = obs.configure(enabled=True)

        @obs.traced("named.op")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert telemetry.traces[0].name == "named.op"

    def test_defaults_to_qualified_name(self):
        telemetry = obs.configure(enabled=True)

        @obs.traced()
        def helper():
            return "ok"

        assert helper() == "ok"
        assert "helper" in telemetry.traces[0].name

    def test_transparent_when_disabled(self):
        @obs.traced()
        def work():
            return 42

        assert work() == 42
        assert obs.get_telemetry().traces == []


class TestRingBuffer:
    def test_evicts_oldest_beyond_capacity(self):
        ring = obs.RingBuffer(capacity=3)
        for index in range(5):
            ring.append({"i": index})
        assert [event["i"] for event in ring] == [2, 3, 4]
        assert len(ring) == 3
        assert ring.capacity == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            obs.RingBuffer(capacity=0)


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.JsonlSink(str(path)) as sink:
            sink.emit({"a": 1})
            sink.emit_many([{"b": 2}, {"c": 3}])
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_emit_after_close_raises(self, tmp_path):
        sink = obs.JsonlSink(str(tmp_path / "e.jsonl"))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError):
            sink.emit({"late": True})

    def test_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = obs.JsonlSink(str(path))
        sink.close()
        assert not path.exists()


def _populated_telemetry() -> obs.Telemetry:
    telemetry = obs.Telemetry()
    telemetry.count("search.slots_scanned", 120, algo="amp")
    telemetry.set_gauge("meta.backlog", 4)
    telemetry.observe("search.alternatives_per_job", 7)
    telemetry.event("meta.iteration", index=0, scheduled=2)
    with telemetry.span("scheduler.schedule", jobs=2):
        with telemetry.span("phase1.find_alternatives"):
            pass
    return telemetry


class TestTraceExport:
    def test_jsonl_round_trip(self, tmp_path):
        telemetry = _populated_telemetry()
        path = tmp_path / "trace.jsonl"
        lines = obs.write_trace(str(path), telemetry)
        # meta + 4 metrics (incl. 2 span.seconds histograms) + 1 span tree
        # + 1 event
        assert lines == len(path.read_text().splitlines())
        data = obs.read_trace(str(path))
        assert data.meta["format"] == obs.TRACE_FORMAT
        assert data.metric_value("search.slots_scanned{algo=amp}") == 120
        assert data.metric_value("meta.backlog") == 4
        assert len(data.spans) == 1
        assert data.spans[0].children[0].name == "phase1.find_alternatives"
        assert data.events[0]["name"] == "meta.iteration"

    def test_span_aggregates(self, tmp_path):
        telemetry = _populated_telemetry()
        path = tmp_path / "trace.jsonl"
        obs.write_trace(str(path), telemetry)
        aggregates = obs.read_trace(str(path)).span_aggregates()
        assert aggregates["scheduler.schedule"][0] == 1
        assert aggregates["phase1.find_alternatives"][0] == 1

    def test_missing_file_raises_telemetry_error(self, tmp_path):
        with pytest.raises(TelemetryError):
            obs.read_trace(str(tmp_path / "absent.jsonl"))

    def test_unwritable_path_raises_telemetry_error(self, tmp_path):
        telemetry = _populated_telemetry()
        with pytest.raises(TelemetryError):
            obs.write_trace(str(tmp_path / "no" / "dir" / "t.jsonl"), telemetry)

    def test_telemetry_error_is_a_scheduling_error(self):
        assert issubclass(TelemetryError, SchedulingError)

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(TelemetryError):
            obs.read_trace(str(path))

    def test_unknown_format_raises(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"kind": "meta", "format": "v999"}) + "\n")
        with pytest.raises(TelemetryError):
            obs.read_trace(str(path))

    def test_unknown_record_kind_raises(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(TelemetryError):
            obs.read_trace(str(path))

    def test_truncated_tail_is_diagnosed_as_truncation(self, tmp_path):
        # A SIGKILL mid-append leaves half a JSON line at the end; the
        # diagnosis must say so (with the line number), not just
        # "not valid JSON".
        telemetry = _populated_telemetry()
        path = tmp_path / "cut.jsonl"
        obs.write_trace(str(path), telemetry)
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        lines = len(path.read_text().splitlines())
        with pytest.raises(TelemetryError, match=rf"cut\.jsonl:{lines}: truncated"):
            obs.read_trace(str(path))

    def test_mid_file_corruption_is_not_reported_as_truncation(self, tmp_path):
        path = tmp_path / "mid.jsonl"
        path.write_text("{broken\n" + json.dumps({"kind": "event"}) + "\n")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            obs.read_trace(str(path))

    def test_non_object_line_raises_not_tracebacks(self, tmp_path):
        # A bare array parses as JSON but is not a record; this used to
        # escape as AttributeError on .get().
        path = tmp_path / "arr.jsonl"
        path.write_text("[1, 2, 3]\n" + json.dumps({"kind": "event"}) + "\n")
        with pytest.raises(TelemetryError, match="expected a JSON object"):
            obs.read_trace(str(path))

    def test_malformed_span_record_raises_not_tracebacks(self, tmp_path):
        # A span record missing required keys used to escape as KeyError.
        path = tmp_path / "span.jsonl"
        path.write_text(json.dumps({"kind": "span", "duration": 1.0}) + "\n")
        with pytest.raises(TelemetryError, match="malformed span record"):
            obs.read_trace(str(path))


class TestSummaries:
    def test_render_summary_lists_metrics_and_spans(self):
        telemetry = _populated_telemetry()
        text = obs.render_summary(telemetry)
        assert "search.slots_scanned{algo=amp}" in text
        assert "scheduler.schedule" in text
        assert "events: 1 recorded" in text

    def test_empty_trace_summary(self):
        assert "no data" in obs.render_trace_summary(obs.TraceData())
