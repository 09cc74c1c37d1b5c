"""Observability for the two-phase scheduler: metrics, spans, events.

The pipeline (phase-1 ALP/AMP alternative search → phase-2 backward-run
DP → VO metascheduler) is instrumented with three primitives:

* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  histograms in a process-local registry, e.g.
  ``search.slots_scanned``, ``search.windows_collected{algo=amp}``,
  ``dp.table_cells``, ``meta.postponements``;
* **spans** (:mod:`repro.obs.spans`) — nested wall-clock timings forming
  a trace tree per scheduling operation
  (``with span("phase1.find_alternatives", jobs=4): ...``);
* **events** (:mod:`repro.obs.events`) — a structured log with an
  in-memory ring buffer and an optional JSONL file sink.

Everything hangs off one switchable :class:`~repro.obs.telemetry.Telemetry`
context (:func:`configure` / :func:`disable` / :func:`get_telemetry`);
telemetry is **off by default** and the disabled paths are engineered to
cost nothing in the hot scan loops (see ``docs/observability.md`` for
the full metric catalog, trace schema, and overhead notes).  Exporters
(:mod:`repro.obs.export`) cover JSONL traces (replayed by
``repro.cli stats``) and human-readable summary tables.

Wall-clock timestamps flow through the injectable
:mod:`repro.obs.clock` — the single module the ``repro-lint`` RPR001
entropy rule allowlists — so tests can freeze time and every other
wall-clock read in the library is a lint error.

Import-order note: the submodules up to and including ``telemetry`` are
standard-library-only and are imported by the core algorithm modules;
``export`` (which touches :mod:`repro.core.errors`) must stay *last*
here so that partially initialized packages always resolve.
"""

from repro.obs.clock import freeze, now, reset_clock, set_clock
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    metric_key,
)
from repro.obs.events import JsonlSink, RingBuffer
from repro.obs.spans import NOOP_SPAN, NoopSpan, SpanHandle, SpanRecord
from repro.obs.context import TraceContext
from repro.obs.decisions import (
    NOOP_DECISIONS,
    DecisionLog,
    decision_sort_key,
    decisions_for_job,
    render_explain,
)
from repro.obs.telemetry import (
    Telemetry,
    configure,
    count,
    disable,
    event,
    get_telemetry,
    install,
    observe,
    set_gauge,
    span,
    telemetry_enabled,
    traced,
)
from repro.obs.export import (
    TRACE_FORMAT,
    TraceData,
    read_trace,
    render_summary,
    render_trace_summary,
    trace_records,
    write_trace,
)
from repro.obs.merge import canonical_trace, merge_trace_files, merge_traces
from repro.obs.profile import PhaseCost, phase_costs, render_profile

__all__ = [
    # clock
    "now",
    "set_clock",
    "reset_clock",
    "freeze",
    # instruments
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "metric_key",
    "DEFAULT_BUCKETS",
    # spans
    "SpanRecord",
    "SpanHandle",
    "NoopSpan",
    "NOOP_SPAN",
    # events
    "RingBuffer",
    "JsonlSink",
    # decisions and trace context
    "DecisionLog",
    "NOOP_DECISIONS",
    "decision_sort_key",
    "decisions_for_job",
    "render_explain",
    "TraceContext",
    # façade
    "Telemetry",
    "get_telemetry",
    "configure",
    "install",
    "disable",
    "telemetry_enabled",
    "span",
    "count",
    "observe",
    "set_gauge",
    "event",
    "traced",
    # exporters
    "TRACE_FORMAT",
    "TraceData",
    "trace_records",
    "write_trace",
    "read_trace",
    "render_summary",
    "render_trace_summary",
    # merge and profile
    "merge_traces",
    "merge_trace_files",
    "canonical_trace",
    "PhaseCost",
    "phase_costs",
    "render_profile",
]
