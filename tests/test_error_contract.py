"""Regression pins for the RPR102 typed-error sweep.

Every ``raise ValueError`` reachable from the public API became a typed
error from :mod:`repro.core.errors`.  These tests pin each migrated
site to its new type — and, separately, pin the compatibility contract:
the new types still *are* ``ValueError``, so pre-sweep callers catching
the builtin keep working (the existing ``pytest.raises(ValueError)``
pins across the suite double as proof).
"""

from __future__ import annotations

import pytest

from repro.core import ResourceRequest, Slot
from repro.core.alp import ForwardScan
from repro.core.amp import cheapest_subset
from repro.core.errors import (
    InvalidRequestError,
    SchedulingError,
    TelemetryError,
    TelemetryUsageError,
)
from repro.obs.decisions import DecisionLog
from repro.obs.events import JsonlSink, RingBuffer
from repro.obs.metrics import Counter, Histogram
from tests.conftest import make_resource


class TestHierarchy:
    def test_telemetry_usage_error_is_both_families(self):
        # Catchable as the library base class *and* as the builtin the
        # sites used to raise — the sweep must not break either caller.
        assert issubclass(TelemetryUsageError, TelemetryError)
        assert issubclass(TelemetryUsageError, SchedulingError)
        assert issubclass(TelemetryUsageError, ValueError)

    def test_invalid_request_error_is_both_families(self):
        assert issubclass(InvalidRequestError, SchedulingError)
        assert issubclass(InvalidRequestError, ValueError)


class TestObservabilitySites:
    def test_counter_decrease(self):
        with pytest.raises(TelemetryUsageError):
            Counter("jobs").increment(-1.0)

    def test_histogram_unsorted_bounds(self):
        with pytest.raises(TelemetryUsageError):
            Histogram("lat", bounds=(2.0, 1.0))

    def test_histogram_quantile_out_of_range(self):
        with pytest.raises(TelemetryUsageError):
            Histogram("lat").quantile(1.5)

    def test_decision_log_capacity(self):
        with pytest.raises(TelemetryUsageError):
            DecisionLog(max_records=0)

    def test_ring_buffer_capacity(self):
        with pytest.raises(TelemetryUsageError):
            RingBuffer(capacity=0)

    def test_closed_sink_emit(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "events.jsonl"))
        sink.close()
        with pytest.raises(TelemetryUsageError):
            sink.emit({"kind": "late"})


class TestCoreSites:
    def test_forward_scan_backwards(self):
        scan = ForwardScan(ResourceRequest(node_count=1, volume=10.0))
        scan.advance_to(50.0)
        with pytest.raises(InvalidRequestError):
            scan.advance_to(40.0)

    def test_cheapest_subset_short(self):
        request = ResourceRequest(node_count=3, volume=10.0)
        with pytest.raises(InvalidRequestError):
            cheapest_subset([Slot(make_resource(), 0.0, 100.0)], request)
