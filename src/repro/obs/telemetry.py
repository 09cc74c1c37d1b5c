"""The telemetry façade: one switchable object behind every instrument.

Design constraints (see ``docs/observability.md``):

* **Disabled by default, free when disabled.**  Every recording method
  starts with a single ``self.enabled`` check; ``span`` returns the
  shared :data:`~repro.obs.spans.NOOP_SPAN` singleton, so disabled call
  sites allocate nothing.  The phase-1 search loop in
  :mod:`repro.core.search` records one row per find behind one ``None``
  check and turns the rows into metrics once per batch; it never
  touches the per-slot scans, so telemetry is an observer: enabling it
  does not change which code runs.
* **Stdlib only.**  This module is imported by the core algorithm
  modules, so it must never import back into :mod:`repro.core` or
  :mod:`repro.sim`.
* **Process-local, swappable.**  A module-level active instance serves
  the whole process; :func:`configure` installs a fresh one and
  :func:`disable` restores the inert default.  Hot paths fetch it via
  :func:`get_telemetry` at call time, so reconfiguration takes effect
  immediately.

Environment: setting ``REPRO_TELEMETRY=1`` enables telemetry at import
time — that is how the CI benchmark smoke run measures the telemetry-on
overhead without code changes.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Any, Callable

from repro.obs import clock
from repro.obs.context import TraceContext
from repro.obs.decisions import NOOP_DECISIONS, DecisionLog
from repro.obs.events import JsonlSink, RingBuffer
from repro.obs.metrics import MetricRegistry
from repro.obs.spans import NOOP_SPAN, NoopSpan, SpanHandle, SpanRecord

__all__ = [
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
]


class Telemetry:
    """Registry + span stack + event log behind one enable switch.

    Attributes:
        enabled: Master switch; when ``False`` every recording method is
            a near-free no-op (one attribute check).
        registry: The :class:`~repro.obs.metrics.MetricRegistry`.
        events: The bounded in-memory event buffer.
        traces: Completed *root* span trees, in completion order.
        sink: Optional streaming :class:`~repro.obs.events.JsonlSink`
            receiving events and completed root spans as they happen.
        decisions: The :class:`~repro.obs.decisions.DecisionLog`; the
            shared :data:`~repro.obs.decisions.NOOP_DECISIONS` instance
            when telemetry is disabled.
        context: Optional :class:`~repro.obs.context.TraceContext`
            identifying this participant's logical run (stamped into
            trace ``meta`` lines, threaded through workers/restores).
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        ring_size: int = 2048,
        sink: JsonlSink | None = None,
        max_traces: int = 4096,
        decisions: DecisionLog | None = None,
        context: TraceContext | None = None,
    ) -> None:
        """Build a telemetry context.

        Args:
            enabled: Master switch.
            ring_size: Capacity of the in-memory event buffer.
            sink: Optional JSONL stream for events and root spans.
            max_traces: Cap on retained root span trees; beyond it the
                oldest trees are dropped (long VO runs stay bounded).
            decisions: Decision log to attach; defaults to a fresh
                enabled log when telemetry is enabled, the shared no-op
                otherwise.
            context: Trace context of this participant, if it belongs to
                a multi-process or resumable run.
        """
        self.enabled = enabled
        self.registry = MetricRegistry()
        self.events = RingBuffer(ring_size)
        self.traces: list[SpanRecord] = []
        self.sink = sink
        if decisions is None:
            decisions = DecisionLog() if enabled else NOOP_DECISIONS
        self.decisions = decisions
        self.context = context
        self._max_traces = max_traces
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Metric instruments                                                 #
    # ------------------------------------------------------------------ #

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment counter ``name`` by ``amount`` (no-op when disabled)."""
        if not self.enabled:
            return
        self.registry.counter(name, **labels).increment(amount)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set gauge ``name`` to ``value`` (no-op when disabled)."""
        if not self.enabled:
            return
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record ``value`` into histogram ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        self.registry.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------ #
    # Spans                                                              #
    # ------------------------------------------------------------------ #

    def span(self, name: str, **attributes: object) -> SpanHandle | NoopSpan:
        """A context manager timing ``name``; nests under the active span.

        Disabled telemetry returns the shared no-op singleton.  Each
        completed span also feeds the ``span.seconds{span=...}``
        histogram, so summaries can rank operations by time without
        walking the trees.
        """
        if not self.enabled:
            return NOOP_SPAN
        record = SpanRecord(name=name, started_at=clock.now(), attributes=attributes)
        return SpanHandle(self, record)

    def _push_span(self, record: SpanRecord) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        if stack:
            stack[-1].children.append(record)
        stack.append(record)

    def _pop_span(self, record: SpanRecord) -> None:
        stack = self._local.stack
        popped = stack.pop()
        if popped is not record:
            # Deferred import: this module must stay stdlib-only at import
            # time (core's hot loops import it), and this branch only runs
            # on a corrupted span stack.
            from repro.core.errors import TelemetryError

            raise TelemetryError(
                f"span stack corrupted: popped {popped.name!r}, "
                f"expected {record.name!r}"
            )
        self.observe("span.seconds", record.duration, span=record.name)
        if not stack:
            self.traces.append(record)
            if len(self.traces) > self._max_traces:
                del self.traces[: -self._max_traces]
            if self.sink is not None:
                self.sink.emit(record.to_dict())

    # ------------------------------------------------------------------ #
    # Events                                                             #
    # ------------------------------------------------------------------ #

    def event(self, name: str, **fields: object) -> None:
        """Log one structured event (no-op when disabled).

        ``fields`` must be JSON-serializable; the event is stamped with
        wall-clock time, buffered in the ring, and streamed to the sink
        when one is attached.
        """
        if not self.enabled:
            return
        payload = {"kind": "event", "name": name, "ts": clock.now(), **fields}
        self.events.append(payload)
        if self.sink is not None:
            self.sink.emit(payload)

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Clear metrics, events, traces, and decisions (sink stays attached)."""
        self.registry.clear()
        self.events.clear()
        self.traces.clear()
        if self.decisions is not NOOP_DECISIONS:
            self.decisions.clear()

    def close(self) -> None:
        """Close the attached sink, if any."""
        if self.sink is not None:
            self.sink.close()


def _from_environment() -> Telemetry:
    """The import-time default: enabled only when ``REPRO_TELEMETRY`` asks."""
    flag = os.environ.get("REPRO_TELEMETRY", "").strip().lower()
    return Telemetry(enabled=flag not in ("", "0", "false", "no"))


_ACTIVE: Telemetry = _from_environment()


def get_telemetry() -> Telemetry:
    """The process-wide active telemetry context."""
    return _ACTIVE


def configure(
    *,
    enabled: bool = True,
    ring_size: int = 2048,
    sink: JsonlSink | None = None,
    trace_path: str | None = None,
    decisions: DecisionLog | None = None,
    context: TraceContext | None = None,
) -> Telemetry:
    """Install (and return) a fresh active telemetry context.

    Args:
        enabled: Master switch of the new context.
        ring_size: In-memory event buffer capacity.
        sink: Pre-built JSONL sink, if the caller manages the file.
        trace_path: Convenience: build a :class:`JsonlSink` at this path
            (ignored when ``sink`` is given).
        decisions: Decision log to attach (default: fresh when enabled).
        context: Trace context identifying this participant's run.
    """
    global _ACTIVE
    if sink is None and trace_path is not None:
        sink = JsonlSink(trace_path)
    _ACTIVE = Telemetry(
        enabled=enabled,
        ring_size=ring_size,
        sink=sink,
        decisions=decisions,
        context=context,
    )
    return _ACTIVE


def install(telemetry: Telemetry) -> Telemetry:
    """Install an *existing* context as the active one.

    The save/restore counterpart of :func:`configure`: a scope that must
    temporarily swap in its own context (a traced worker shard running
    in-process) captures :func:`get_telemetry` first and reinstalls it
    here when done.  The previous context is not closed.
    """
    global _ACTIVE
    _ACTIVE = telemetry
    return telemetry


def disable() -> None:
    """Restore the inert default context (previous data is discarded)."""
    global _ACTIVE
    _ACTIVE.close()
    _ACTIVE = Telemetry(enabled=False)


def telemetry_enabled() -> bool:
    """Whether the active context is recording."""
    return _ACTIVE.enabled


# ---------------------------------------------------------------------- #
# Module-level conveniences (delegate to the active context)             #
# ---------------------------------------------------------------------- #


def span(name: str, **attributes: object) -> SpanHandle | NoopSpan:
    """``with span("phase1.find_alternatives", job=...):`` on the active context."""
    return _ACTIVE.span(name, **attributes)


def count(name: str, amount: float = 1.0, **labels: str) -> None:
    """Increment a counter on the active context."""
    _ACTIVE.count(name, amount, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Record a histogram observation on the active context."""
    _ACTIVE.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge on the active context."""
    _ACTIVE.set_gauge(name, value, **labels)


def event(name: str, **fields: object) -> None:
    """Log a structured event on the active context."""
    _ACTIVE.event(name, **fields)


def traced(name: str | None = None) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator wrapping a function in a span named after it.

    ``@traced()`` uses the function's qualified name; ``@traced("x")``
    overrides it.  The active context is consulted per call, so the
    decorated function stays no-op-cheap while telemetry is off.
    """

    def decorate(function: Callable[..., Any]) -> Callable[..., Any]:
        span_name = name or function.__qualname__

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            telemetry = _ACTIVE
            if not telemetry.enabled:
                return function(*args, **kwargs)
            with telemetry.span(span_name):
                return function(*args, **kwargs)

        return wrapper

    return decorate
