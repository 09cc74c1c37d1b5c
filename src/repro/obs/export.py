"""Exporters: JSONL traces and summary tables.

Two audiences, two formats:

* **machines, offline** — :func:`write_trace` / :func:`read_trace` dump
  and replay the whole telemetry state as JSON Lines (one object per
  line: a ``meta`` header, then ``metric``, ``span``, and ``event``
  records).  ``repro.cli stats`` is a thin wrapper over this pair.
* **humans** — :func:`render_summary` / :func:`render_trace_summary`
  produce the fixed-width tables the CLI prints after ``--metrics``,
  reusing the same :func:`repro.sim.ascii_plot.table` renderer as the
  rest of the reporting stack (imported lazily to keep this package
  import-light on the hot path).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.errors import TelemetryError
from repro.obs import clock
from repro.obs.context import TraceContext
from repro.obs.spans import SpanRecord
from repro.obs.telemetry import Telemetry, get_telemetry

__all__ = [
    "TRACE_FORMAT",
    "TraceData",
    "trace_records",
    "write_trace",
    "read_trace",
    "render_summary",
    "render_trace_summary",
]

#: Identifier stamped into every trace's ``meta`` line; bump on breaking
#: schema changes so ``stats`` can refuse traces it cannot interpret.
TRACE_FORMAT = "repro-telemetry-v1"


@dataclass
class TraceData:
    """Parsed contents of one telemetry trace (live or from a file).

    Attributes:
        meta: The header record (format id, creation time, context).
        metrics: Instrument snapshots (``to_dict`` form, sorted by key).
        spans: Root span trees.
        events: Structured events, oldest first.
        decisions: Decision records, in emission order.
    """

    meta: dict = field(default_factory=dict)
    metrics: list[dict] = field(default_factory=list)
    spans: list[SpanRecord] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    decisions: list[dict] = field(default_factory=list)

    @property
    def has_data(self) -> bool:
        """Whether any record beyond the ``meta`` header was captured.

        A header-only trace means the run executed but telemetry stayed
        off (or nothing was instrumented) — the ``stats``/``explain``
        commands treat that the same as an empty file.
        """
        return bool(self.metrics or self.spans or self.events or self.decisions)

    def trace_context(self) -> TraceContext | None:
        """The context embedded in the ``meta`` header, if any."""
        context = self.meta.get("context")
        if not isinstance(context, dict) or "trace_id" not in context:
            return None
        return TraceContext.from_dict(context)

    def metric_value(self, name: str) -> float | None:
        """Value of a counter/gauge by exact key, ``None`` when absent."""
        for metric in self.metrics:
            if metric.get("name") == name and "value" in metric:
                return metric["value"]
        return None

    def span_aggregates(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, total seconds)`` over every recorded tree."""
        totals: dict[str, tuple[int, float]] = {}
        for root in self.spans:
            root.total_by_name(totals)
        return totals


def trace_records(telemetry: Telemetry | None = None) -> list[dict]:
    """The active telemetry state as a list of JSON-serializable records.

    The first record is always the ``meta`` header; metric, span, and
    event records follow in that order.
    """
    telemetry = telemetry or get_telemetry()
    meta: dict = {
        "kind": "meta",
        "format": TRACE_FORMAT,
        "created_at": clock.now(),
        "metrics": len(telemetry.registry),
        "spans": len(telemetry.traces),
        "events": len(telemetry.events),
        "decisions": len(telemetry.decisions),
    }
    if telemetry.context is not None:
        meta["context"] = telemetry.context.to_dict()
    records: list[dict] = [meta]
    records.extend(telemetry.registry.snapshot())
    records.extend(root.to_dict() for root in telemetry.traces)
    records.extend(telemetry.events)
    records.extend(telemetry.decisions.records)
    return records


def write_trace(path: str, telemetry: Telemetry | None = None) -> int:
    """Dump the telemetry state to ``path`` as JSONL; returns line count.

    Raises:
        TelemetryError: When ``path`` cannot be written.
    """
    records = trace_records(telemetry)
    try:
        with open(path, "w", encoding="utf-8") as stream:
            for record in records:
                stream.write(json.dumps(record, separators=(",", ":"), sort_keys=True))
                stream.write("\n")
    except OSError as error:
        raise TelemetryError(f"cannot write trace {path!r}: {error}") from error
    return len(records)


def read_trace(path: str) -> TraceData:
    """Parse a JSONL telemetry trace back into a :class:`TraceData`.

    Tolerates missing ``meta`` (sink-streamed traces start with whatever
    was emitted first) but rejects unreadable files and malformed lines.
    Every failure mode maps to one diagnostic line naming the file and
    line number — a truncated trailing record (the writer was killed
    mid-append) is called out as such rather than as generic bad JSON,
    and no parse problem ever escapes as a raw traceback.

    Raises:
        TelemetryError: When the file is missing, malformed, truncated,
            or declares an unknown trace format.
    """
    data = TraceData()
    try:
        with open(path, "r", encoding="utf-8") as stream:
            lines = stream.readlines()
    except OSError as error:
        raise TelemetryError(f"cannot read trace {path!r}: {error}") from error
    last_content = 0
    for line_number, line in enumerate(lines, start=1):
        if line.strip():
            last_content = line_number
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if line_number == last_content:
                raise TelemetryError(
                    f"{path}:{line_number}: truncated trailing record — the "
                    "file ends mid-JSON, most likely the writing process was "
                    "killed during an append; re-run or trim the last line"
                ) from error
            raise TelemetryError(
                f"{path}:{line_number}: not valid JSON ({error.msg})"
            ) from error
        if not isinstance(record, dict):
            raise TelemetryError(
                f"{path}:{line_number}: expected a JSON object per line, "
                f"got {type(record).__name__}"
            )
        kind = record.get("kind")
        if kind == "meta":
            declared = record.get("format")
            if declared != TRACE_FORMAT:
                raise TelemetryError(
                    f"{path}: unsupported trace format {declared!r} "
                    f"(expected {TRACE_FORMAT!r})"
                )
            data.meta = record
        elif kind in ("counter", "gauge", "histogram"):
            data.metrics.append(record)
        elif kind == "span":
            try:
                data.spans.append(SpanRecord.from_dict(record))
            except (KeyError, TypeError, AttributeError) as error:
                raise TelemetryError(
                    f"{path}:{line_number}: malformed span record "
                    f"({error.__class__.__name__}: {error})"
                ) from error
        elif kind == "event":
            data.events.append(record)
        elif kind == "decision":
            data.decisions.append(record)
        else:
            raise TelemetryError(
                f"{path}:{line_number}: unknown record kind {kind!r}"
            )
    return data


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def render_trace_summary(data: TraceData) -> str:
    """Human-readable summary of a parsed trace (metrics, spans, events)."""
    from repro.sim.ascii_plot import table

    sections: list[str] = []

    simple = [m for m in data.metrics if m["kind"] in ("counter", "gauge")]
    if simple:
        rows = [
            [metric["name"], metric["kind"], _format_value(metric["value"])]
            for metric in simple
        ]
        sections.append("counters and gauges:")
        sections.append(table(rows, header=["metric", "kind", "value"]))

    histograms = [m for m in data.metrics if m["kind"] == "histogram"]
    if histograms:
        rows = []
        for metric in histograms:
            count = metric["count"]
            mean = metric["sum"] / count if count else 0.0
            rows.append(
                [
                    metric["name"],
                    str(count),
                    _format_value(mean),
                    _format_value(metric["min"]) if metric["min"] is not None else "-",
                    _format_value(metric["max"]) if metric["max"] is not None else "-",
                ]
            )
        sections.append("")
        sections.append("histograms:")
        sections.append(table(rows, header=["metric", "count", "mean", "min", "max"]))

    aggregates = data.span_aggregates()
    if aggregates:
        ranked = sorted(aggregates.items(), key=lambda item: item[1][1], reverse=True)
        rows = [
            [name, str(calls), f"{total * 1e3:.2f}", f"{total / calls * 1e3:.3f}"]
            for name, (calls, total) in ranked
        ]
        sections.append("")
        sections.append("spans (by cumulative time):")
        sections.append(
            table(rows, header=["span", "calls", "total ms", "mean ms"])
        )

    if data.events:
        sections.append("")
        sections.append(f"events: {len(data.events)} recorded (newest last)")

    if data.decisions:
        sections.append("")
        jobs = sorted(
            {
                str(record["job"])
                for record in data.decisions
                if record.get("job") is not None
            }
        )
        note = f"decisions: {len(data.decisions)} recorded"
        if jobs:
            note += f" across {len(jobs)} job(s) — replay with: repro explain --job <id>"
        sections.append(note)

    if not sections:
        return "(telemetry recorded no data)"
    return "\n".join(sections)


def render_summary(telemetry: Telemetry | None = None) -> str:
    """Human-readable summary of the live telemetry state."""
    telemetry = telemetry or get_telemetry()
    data = TraceData(
        meta={"kind": "meta", "format": TRACE_FORMAT},
        metrics=telemetry.registry.snapshot(),
        spans=list(telemetry.traces),
        events=telemetry.events.to_list(),
        decisions=list(telemetry.decisions.records),
    )
    return render_trace_summary(data)
