"""Durable metascheduler state: atomic snapshots + command journal.

A 25 000-iteration run that dies at iteration 24 999 should not start
over.  This module makes a :class:`~repro.grid.metascheduler.Metascheduler`
run *crash-safe* with the classical write-ahead recipe:

* **Snapshots** capture the full scheduler state — the VO environment
  (every node's occupancy schedule), the workload trace, the pending
  queue, future submissions, iteration reports, and the fault-recovery
  store (retained alternatives, revocation budgets) — as one JSON
  document in the ``repro/1`` family (format tag
  :data:`CHECKPOINT_FORMAT`).  Writes are atomic: tmp file + ``fsync``
  + ``rename``, so a crash mid-snapshot leaves the previous snapshot
  intact and never a half-written file.

* **The journal** (:mod:`repro.core.journal`) logs every *command*
  applied after the snapshot — ``submit``, ``iteration``, ``outage``,
  ``completions`` — as checksummed JSONL.  Because the metascheduler is
  deterministic given its state, :func:`DurableMetascheduler.restore`
  replays commands by re-executing them on the restored snapshot,
  arriving at exactly the pre-crash state.  A torn trailing journal
  record (the residue of a kill mid-append) is skipped with a warning;
  the run resumes from the last fully journaled command.

Commands are journaled *after* they execute successfully, so the
journal is a redo log of committed operations: a crash mid-command
restores the consistent state just before it.

Snapshots are rewritten in full, yet little changes between two of
them: committed windows, busy intervals, iteration reports and jobs are
immutable, and only a few nodes and trace records move per tick.  Each
durable run keeps a text cache (:class:`_SnapshotText`) with one entry
per node, trace record, window and report the last snapshot wrote,
keyed by identity.  A node whose intervals are the stored ones and a
record whose job, window and fields are the stored ones reuse their
text whole, so the next snapshot encodes only what changed and its cost
follows the change, not the size of the state.  A new window's text is
written directly, without building its dict.  The file bytes are
exactly those of ``json.dumps(snapshot_metascheduler(meta) |
{"journal_seq": ...}, separators=(",", ":"), sort_keys=True)``.

Typical use::

    meta = Metascheduler(environment, period=60.0)
    durable = DurableMetascheduler(meta, "state/")   # initial snapshot
    durable.submit(job)                               # journaled
    durable.run(until=2000.0)                         # journaled per tick
    ...
    # after a crash:
    durable = DurableMetascheduler.restore("state/")
    durable.run(until=4000.0)                         # picks up where it died
"""

from __future__ import annotations

import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.core import job as job_module
from repro.core import resource as resource_module
from repro.core.criteria import Criterion
from repro.core.errors import CheckpointMismatchError, InvalidRequestError, PersistenceError
from repro.core.fsio import REAL_FS, FileSystem
from repro.core.journal import JournalWriter, read_journal
from repro.core.pricing import DemandAdjustedPricing, ExponentialPricing
from repro.core.resource import Resource
from repro.core.scheduler import BatchScheduler, InfeasiblePolicy, SchedulerConfig
from repro.core.search import SlotSearchAlgorithm
from repro.core.slot import Slot
from repro.core.window import TaskAllocation, Window
from repro.core.job import Job, ResourceRequest
from repro.grid.cluster import Cluster
from repro.grid.environment import VOEnvironment
from repro.grid.metascheduler import IterationReport, Metascheduler
from repro.grid.node import ComputeNode
from repro.grid.occupancy import BusyInterval
from repro.grid.resilience import RecoveryManager, RetryPolicy
from repro.grid.trace import JobRecord, JobState
from repro.obs.context import TraceContext
from repro.obs.telemetry import get_telemetry

__all__ = [
    "CHECKPOINT_FORMAT",
    "DurableMetascheduler",
    "load_snapshot",
    "restore_metascheduler",
    "save_snapshot",
    "snapshot_metascheduler",
]

#: Snapshot document format tag (the ``repro/1`` data model extended to
#: full VO environment + metascheduler queue state).
CHECKPOINT_FORMAT = "repro/1-checkpoint"

#: File names used inside a durable-state directory.
SNAPSHOT_NAME = "snapshot.json"
JOURNAL_NAME = "journal.jsonl"


# --------------------------------------------------------------------- #
# Snapshot encoding                                                     #
# --------------------------------------------------------------------- #


#: ``_canonical(value)`` is ``json.dumps(value, separators=(",", ":"),
#: sort_keys=True)``; one encoder serves every call.
_canonical = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _finite(value: float, what: str) -> float:
    """Validate that a numeric field is finite; returns it as ``float``.

    ``json.dumps`` happily emits ``NaN`` and ``Infinity`` (non-standard
    JSON that many parsers reject), and a NaN slot time or price would
    silently corrupt every downstream comparison.  Both encoding and
    decoding funnel numeric fields through this guard so a bad value is
    rejected loudly at the serialization boundary, not discovered as a
    nonsense schedule later.

    Raises:
        InvalidRequestError: When the value is NaN or infinite (or not a
            number at all).
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InvalidRequestError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise InvalidRequestError(f"{what} must be finite, got {value!r}")
    return value


class _Encoder:
    """Encodes core value objects, interning each resource once by uid.

    Slots and windows refer to their resource by uid; :attr:`resources`
    collects the table a document writes once, so decoding can hand every
    reference to the same node the same ``Resource``.
    """

    def __init__(self) -> None:
        self.resources: dict[int, dict[str, Any]] = {}

    def resource(self, resource: Resource) -> int:
        if resource.uid not in self.resources:
            self.resources[resource.uid] = {
                "uid": resource.uid,
                "name": resource.name,
                "performance": _finite(resource.performance, f"resource {resource.name!r} performance"),
                "price": _finite(resource.price, f"resource {resource.name!r} price"),
            }
        return resource.uid

    def slot(self, slot: Slot) -> dict[str, Any]:
        return {
            "resource": self.resource(slot.resource),
            "start": _finite(slot.start, "slot start"),
            "end": _finite(slot.end, "slot end"),
            "price": _finite(slot.price, "slot price"),
        }

    def request(self, request: ResourceRequest) -> dict[str, Any]:
        if math.isnan(request.max_price):
            raise InvalidRequestError("request max_price must not be NaN")
        return {
            "node_count": request.node_count,
            "volume": _finite(request.volume, "request volume"),
            "min_performance": _finite(request.min_performance, "request min_performance"),
            "max_price": None if math.isinf(request.max_price) else request.max_price,
        }

    def job(self, job: Job) -> dict[str, Any]:
        return {
            "uid": job.uid,
            "name": job.name,
            "priority": job.priority,
            "request": self.request(job.request),
        }

    def window(self, window: Window) -> dict[str, Any]:
        return {
            "request": self.request(window.request),
            "allocations": [
                {
                    "source": self.slot(allocation.source),
                    "start": _finite(allocation.start, "allocation start"),
                    "end": _finite(allocation.end, "allocation end"),
                }
                for allocation in window.allocations
            ],
        }


def _object(values: dict[str, Any], texts: dict[str, str]) -> str:
    """The canonical JSON object of ``values`` and of ``texts``, whose
    values are canonical JSON text already."""
    items = {key: _canonical(value) for key, value in values.items()}
    items.update(texts)
    # One join, so a long text is copied once.
    parts = []
    for key in sorted(items):
        parts += (",", encode_basestring_ascii(key), ":", items[key])
    parts[:1] = ["{"]
    parts.append("}")
    return "".join(parts)


def _encode_interval(interval: BusyInterval) -> list[Any]:
    return [
        _finite(interval.start, "interval start"),
        _finite(interval.end, "interval end"),
        interval.label,
    ]


def _encode_report(report: IterationReport) -> dict[str, Any]:
    # Always-false "degraded" keeps snapshots byte-identical to older ones.
    return report.__dict__ | {"degraded": False}


def _encode_record(record: JobRecord) -> dict[str, Any]:
    """A trace record's own fields: all but its job and window."""
    return {
        "submit_time": record.submit_time,
        "state": record.state.value,
        "scheduled_iteration": record.scheduled_iteration,
        "postponements": record.postponements,
        "resubmissions": record.resubmissions,
        "recoveries": record.recoveries,
    }


def _encode_scheduler(config: SchedulerConfig) -> dict[str, Any]:
    return {
        "algorithm": config.algorithm.value,
        "objective": config.objective.value,
        "rho": config.rho,
        "resolution": config.resolution,
        "max_alternatives_per_job": config.max_alternatives_per_job,
        "infeasible_policy": config.infeasible_policy.value,
    }


def _encode_pricing(pricing: DemandAdjustedPricing | None) -> dict[str, Any] | None:
    if pricing is None:
        return None
    return {
        "sensitivity": pricing.sensitivity,
        "base": {
            "base": pricing.base.base,
            "low_factor": pricing.base.low_factor,
            "high_factor": pricing.base.high_factor,
        },
    }


def _encode_recovery(recovery: RecoveryManager) -> dict[str, Any]:
    """The fault-recovery store, all but its retained windows."""
    policy = recovery.policy
    return {
        "policy": {
            "max_revocations": policy.max_revocations,
            "backoff_base": policy.backoff_base,
            "backoff_factor": policy.backoff_factor,
            "backoff_cap": policy.backoff_cap,
        },
        "revocations": {str(uid): count for uid, count in recovery._revocations.items()},
    }


def _encode_state(meta: Metascheduler) -> dict[str, Any]:
    """The metascheduler's own fields, all but its fault-recovery store."""
    return {
        "period": meta.period,
        "horizon": meta.horizon,
        "min_slot_length": meta.min_slot_length,
        "max_batch_size": meta.max_batch_size,
        "max_postponements": meta.max_postponements,
        "max_pending": meta.max_pending,
        "admission_rejections": meta.admission_rejections,
        "iteration": meta._iteration,
        "pending": [job.uid for job in meta._pending],
        "submissions": [[time, job.uid] for time, job in meta._submissions],
        "outage_counts": dict(meta._outage_counts),
        "revoked_at": {str(uid): tick for uid, tick in meta._revoked_at.items()},
        "demand_pricing": _encode_pricing(meta.demand_pricing),
    }


def snapshot_metascheduler(meta: Metascheduler) -> dict[str, Any]:
    """Encode the full state of a metascheduler run as one JSON document.

    Everything the scheduling cycle depends on is captured: the
    environment's per-node occupancy (reservations, local jobs, outage
    intervals), the workload trace, pending/future submissions,
    iteration reports, resilience counters, and — when fault recovery is
    configured — the retained phase-1 alternatives and per-job
    revocation budgets, so a restored run recovers exactly like the
    original would have.

    The recovery *audit log* (``RecoveryManager.events``) is
    observability, not scheduling state, and is not persisted.

    This is the logical document: a :class:`DurableMetascheduler` writes
    the same bytes from its text cache without building it.
    """
    encoder = _Encoder()
    clusters = [
        {
            "name": cluster.name,
            "nodes": [
                {
                    "resource": encoder.resource(node.resource),
                    "intervals": [_encode_interval(interval) for interval in node.schedule],
                }
                for node in cluster
            ],
        }
        for cluster in meta.environment.clusters
    ]
    trace = [
        {
            "job": encoder.job(record.job),
            "window": None if record.window is None else encoder.window(record.window),
            **_encode_record(record),
        }
        for record in meta.trace
    ]
    recovery = None
    if meta.recovery is not None:
        recovery = _encode_recovery(meta.recovery)
        recovery["retained"] = {
            str(uid): [encoder.window(window) for window in windows]
            for uid, windows in meta.recovery._retained.items()
        }
    return {
        "format": CHECKPOINT_FORMAT,
        "environment": {"clusters": clusters},
        "scheduler": _encode_scheduler(meta.scheduler.config),
        "metascheduler": {**_encode_state(meta), "recovery": recovery},
        "trace": trace,
        "reports": [_encode_report(report) for report in meta.reports],
        # The interned resource table last: encoding the environment and
        # every window above fills it.
        "resources": list(encoder.resources.values()),
    }


#: A window's canonical text has this form for each allocation.  Its
#: fields are the allocation's end, its source slot's end, price,
#: resource uid and start, and the allocation's start.
_ALLOCATION_TEXT = (
    '{"end":%s,"source":{"end":%s,"price":%s,"resource":%s,"start":%s},"start":%s}'
)

#: The canonical text of a window's request: its max price, min
#: performance, node count and volume.
_REQUEST_TEXT = '{"max_price":%s,"min_performance":%s,"node_count":%s,"volume":%s}'


def _window_text(encoder: _Encoder, window: Window) -> str:
    """``_canonical(encoder.window(window))``, written directly.

    Fields are validated, and resources interned, in the order
    :meth:`_Encoder.window` does it, so a bad field raises the same
    error and the resource table fills in the same order.  The values
    are then written by one :data:`_canonical` call and laid into the
    fixed key order of :data:`_ALLOCATION_TEXT` and :data:`_REQUEST_TEXT`.
    """
    request = window.request
    max_price = request.max_price
    if math.isnan(max_price):
        raise InvalidRequestError("request max_price must not be NaN")
    volume = _finite(request.volume, "request volume")
    min_performance = _finite(request.min_performance, "request min_performance")
    values: list[Any] = []
    for allocation in window.allocations:
        source = allocation.source
        uid = encoder.resource(source.resource)
        source_start = _finite(source.start, "slot start")
        source_end = _finite(source.end, "slot end")
        source_price = _finite(source.price, "slot price")
        start = _finite(allocation.start, "allocation start")
        end = _finite(allocation.end, "allocation end")
        values += (end, source_end, source_price, uid, source_start, start)
    values += (
        None if math.isinf(max_price) else max_price,
        min_performance,
        request.node_count,
        volume,
    )
    texts = _canonical(values)[1:-1].split(",")
    if len(texts) != len(values):
        # Some value's text holds a comma (a string uid, say).
        texts = [_canonical(value) for value in values]
    allocations = ",".join([_ALLOCATION_TEXT] * len(window.allocations))
    return f'{{"allocations":[{allocations}],"request":{_REQUEST_TEXT}}}' % tuple(texts)


#: A cached node: (node, resource, busy intervals, their texts, node text).
_NodeEntry = tuple[ComputeNode, Resource, tuple[BusyInterval, ...], tuple[str, ...], str]

#: A cached trace record: (record, job, job text, window, own fields, text).
_RecordEntry = tuple[JobRecord, Job, str, "Window | None", tuple[Any, ...], str]


def _node_entry(
    node: ComputeNode,
    resource: Resource,
    intervals: tuple[BusyInterval, ...],
    previous: _NodeEntry | None,
) -> _NodeEntry:
    """A node's cache entry, encoding only the intervals ``previous`` lacks."""
    known = {} if previous is None else dict(zip(map(id, previous[2]), previous[3]))
    texts = tuple(
        [
            known.get(id(interval)) or _canonical(_encode_interval(interval))
            for interval in intervals
        ]
    )
    text = f'{{"intervals":[{",".join(texts)}],"resource":{_canonical(resource.uid)}}}'
    return (node, resource, intervals, texts, text)


class _SnapshotText:
    """A durable run's snapshot text, cached per owner of the state that changes.

    :meth:`render` returns ``_canonical(snapshot_metascheduler(meta) |
    extra)`` in one pass, reusing the text of the previous render.  Each
    entry is keyed by the identity of the object it describes and holds
    that object, so the id cannot be reused while the entry lives:

    * a node's entry holds its resource, the tuple of its busy intervals,
      their texts and the node's text.  The node is rewritten only when
      its resource or its intervals differ from the stored ones, and then
      only the intervals it did not have are encoded;
    * a trace record's entry holds its job and the job's text, its window,
      the tuple of its own fields and the record's text.  It is rewritten
      only when one of them changed, the job and the window compared by
      identity;
    * a window's entry holds the uids of its resources and its text.  A
      hit interns those resources only if one is missing from the
      table, so the table comes out in the order encoding would give it;
    * an iteration report's entry holds its text.

    Each render keeps exactly the entries it used, so the cache holds the
    current state and nothing older.
    """

    __slots__ = ("_nodes", "_records", "_windows", "_reports")

    def __init__(self) -> None:
        #: ``id(node)`` -> (node, resource, intervals, interval texts, text).
        self._nodes: dict[int, _NodeEntry] = {}
        #: ``id(record)`` -> (record, job, job text, window, fields, text).
        self._records: dict[int, _RecordEntry] = {}
        #: ``id(window)`` -> (window, resource uids, text).
        self._windows: dict[int, tuple[Window, frozenset[int], str]] = {}
        #: ``id(report)`` -> (report, text).
        self._reports: dict[int, tuple[IterationReport, str]] = {}

    def _held(self) -> dict[int, object]:
        """Every immutable object the cache holds text for, by id."""
        held: dict[int, object] = {}
        for node in self._nodes.values():
            held.update((id(interval), interval) for interval in node[2])
        for record in self._records.values():
            held[id(record[1])] = record[1]
        for cache in (self._windows, self._reports):
            held.update((key, entry[0]) for key, entry in cache.items())
        return held

    def __len__(self) -> int:
        return len(self._held())

    def __contains__(self, obj: object) -> bool:
        return self._held().get(id(obj)) is obj

    def render(self, meta: Metascheduler, extra: dict[str, Any]) -> str:
        """The snapshot text of ``meta`` with the ``extra`` top-level keys."""
        old_nodes, old_records = self._nodes, self._records
        old_windows, old_reports = self._windows, self._reports
        nodes: dict[int, _NodeEntry] = {}
        records: dict[int, _RecordEntry] = {}
        windows: dict[int, tuple[Window, frozenset[int], str]] = {}
        reports: dict[int, tuple[IterationReport, str]] = {}
        self._nodes, self._records, self._windows, self._reports = (
            nodes,
            records,
            windows,
            reports,
        )
        encoder = _Encoder()
        interned = encoder.resources.keys()

        def window_text(window: Window) -> str:
            key = id(window)
            entry = windows.get(key)
            if entry is None:
                entry = old_windows.get(key)
                if entry is None:
                    uids = frozenset(
                        [allocation.source.resource.uid for allocation in window.allocations]
                    )
                    entry = (window, uids, _window_text(encoder, window))
                elif not entry[1] <= interned:
                    # Intern the resources as encoding the window would,
                    # so the resource table comes out in the same order.
                    for allocation in window.allocations:
                        encoder.resource(allocation.source.resource)
                windows[key] = entry
            return entry[2]

        clusters = []
        for cluster in meta.environment.clusters:
            node_texts = []
            for node in cluster:
                resource = node.resource
                encoder.resource(resource)
                intervals = node.schedule.intervals()
                node_entry = old_nodes.get(id(node))
                if (
                    node_entry is None
                    or node_entry[1] is not resource
                    or node_entry[2] != intervals
                ):
                    node_entry = _node_entry(node, resource, intervals, node_entry)
                else:
                    # Value-equal intervals share their text; the entry
                    # holds the live ones.
                    node_entry = (node, resource, intervals, node_entry[3], node_entry[4])
                nodes[id(node)] = node_entry
                node_texts.append(node_entry[4])
            nodes_text = ",".join(node_texts)
            clusters.append(_object({"name": cluster.name}, {"nodes": f"[{nodes_text}]"}))

        trace = []
        for record in meta.trace:
            job, window = record.job, record.window
            record_entry = old_records.get(id(record))
            if record_entry is not None and record_entry[1] is job:
                job_text = record_entry[2]
            else:
                job_text = _canonical(encoder.job(job))
            window_json = "null" if window is None else window_text(window)
            fields = (
                record.state,
                record.scheduled_iteration,
                record.postponements,
                record.resubmissions,
                record.recoveries,
                record.submit_time,
            )
            if (
                record_entry is None
                or record_entry[1] is not job
                or record_entry[3] is not window
                or record_entry[4] != fields
            ):
                # "job" sorts before the record's own keys, "window" after.
                own = _canonical(_encode_record(record))[1:-1]
                record_text = f'{{"job":{job_text},{own},"window":{window_json}}}'
                record_entry = (record, job, job_text, window, fields, record_text)
            records[id(record)] = record_entry
            trace.append(record_entry[5])

        report_texts = []
        for report in meta.reports:
            key = id(report)
            report_entry = reports.get(key) or old_reports.get(key)
            if report_entry is None:
                report_entry = (report, _canonical(_encode_report(report)))
            reports[key] = report_entry
            report_texts.append(report_entry[1])

        recovery = "null"
        if meta.recovery is not None:
            retained = {
                str(uid): f"[{','.join([window_text(window) for window in kept])}]"
                for uid, kept in meta.recovery._retained.items()
            }
            recovery = _object(
                _encode_recovery(meta.recovery), {"retained": _object({}, retained)}
            )
        return _object(
            {"format": CHECKPOINT_FORMAT, "scheduler": _encode_scheduler(meta.scheduler.config)}
            | extra,
            {
                "environment": _object({}, {"clusters": f"[{','.join(clusters)}]"}),
                "metascheduler": _object(_encode_state(meta), {"recovery": recovery}),
                "trace": f"[{','.join(trace)}]",
                "reports": f"[{','.join(report_texts)}]",
                # Last: the environment and every window above fill it.
                "resources": _canonical(list(encoder.resources.values())),
            },
        )


# --------------------------------------------------------------------- #
# Snapshot decoding                                                     #
# --------------------------------------------------------------------- #


def _decode_request(payload: dict[str, Any]) -> ResourceRequest:
    max_price = payload.get("max_price")
    return ResourceRequest(
        node_count=int(payload["node_count"]),
        volume=_finite(payload["volume"], "request volume"),
        min_performance=_finite(payload["min_performance"], "request min_performance"),
        max_price=math.inf if max_price is None else _finite(max_price, "request max_price"),
    )


def _decode_resources(data: dict[str, Any]) -> dict[int, Resource]:
    resources: dict[int, Resource] = {}
    for payload in data.get("resources", []):
        resource = Resource(
            name=str(payload["name"]),
            performance=_finite(payload["performance"], "resource performance"),
            price=_finite(payload["price"], "resource price"),
            uid=int(payload["uid"]),
        )
        resources[resource.uid] = resource
    return resources


def _resource_of(resources: dict[int, Resource], uid: int) -> Resource:
    try:
        return resources[uid]
    except KeyError:
        raise CheckpointMismatchError(
            f"snapshot references undeclared resource uid {uid}"
        ) from None


def _decode_slot(payload: dict[str, Any], resources: dict[int, Resource]) -> Slot:
    return Slot(
        _resource_of(resources, int(payload["resource"])),
        _finite(payload["start"], "slot start"),
        _finite(payload["end"], "slot end"),
        price=_finite(payload["price"], "slot price"),
    )


def _decode_window(payload: dict[str, Any], resources: dict[int, Resource]) -> Window:
    request = _decode_request(payload["request"])
    allocations = [
        TaskAllocation(
            _decode_slot(item["source"], resources),
            _finite(item["start"], "allocation start"),
            _finite(item["end"], "allocation end"),
        )
        for item in payload["allocations"]
    ]
    return Window(request, allocations)


def _decode_job(payload: dict[str, Any]) -> Job:
    return Job(
        _decode_request(payload["request"]),
        name=str(payload["name"]),
        priority=int(payload["priority"]),
        uid=int(payload["uid"]),
    )


def _decode_environment(
    data: dict[str, Any], resources: dict[int, Resource]
) -> VOEnvironment:
    clusters = []
    for cluster_payload in data["clusters"]:
        nodes = []
        for node_payload in cluster_payload["nodes"]:
            resource = _resource_of(resources, int(node_payload["resource"]))
            node = ComputeNode(
                resource.name, performance=resource.performance, price=resource.price
            )
            # Re-intern the snapshot's resource so uids (and therefore
            # window → node references) survive the round trip.
            node.resource = resource
            for start, end, label in node_payload["intervals"]:
                node.schedule.reserve(
                    _finite(start, "interval start"),
                    _finite(end, "interval end"),
                    str(label),
                )
            nodes.append(node)
        clusters.append(Cluster(str(cluster_payload["name"]), nodes))
    return VOEnvironment(clusters)


def _decode_scheduler(data: dict[str, Any]) -> BatchScheduler:
    if "budget" in data:
        raise CheckpointMismatchError(
            "snapshot carries a phase-2 optimization budget, which this version "
            "no longer supports; restoring it would run phase 2 differently"
        )
    config = SchedulerConfig(
        algorithm=SlotSearchAlgorithm(data["algorithm"]),
        objective=Criterion(data["objective"]),
        rho=float(data["rho"]),
        resolution=int(data["resolution"]),
        max_alternatives_per_job=data.get("max_alternatives_per_job"),
        infeasible_policy=InfeasiblePolicy(data["infeasible_policy"]),
    )
    return BatchScheduler(config)


def _decode_pricing(data: dict[str, Any] | None) -> DemandAdjustedPricing | None:
    if data is None:
        return None
    base = data["base"]
    return DemandAdjustedPricing(
        base=ExponentialPricing(
            base=float(base["base"]),
            low_factor=float(base["low_factor"]),
            high_factor=float(base["high_factor"]),
        ),
        sensitivity=float(data["sensitivity"]),
    )


def _decode_recovery(
    data: dict[str, Any] | None, resources: dict[int, Resource]
) -> RecoveryManager | None:
    if data is None:
        return None
    policy_payload = data["policy"]
    manager = RecoveryManager(
        RetryPolicy(
            max_revocations=policy_payload["max_revocations"],
            backoff_base=float(policy_payload["backoff_base"]),
            backoff_factor=float(policy_payload["backoff_factor"]),
            backoff_cap=float(policy_payload["backoff_cap"]),
        )
    )
    manager._revocations = {
        int(uid): int(count) for uid, count in data.get("revocations", {}).items()
    }
    manager._retained = {
        int(uid): [_decode_window(window, resources) for window in windows]
        for uid, windows in data.get("retained", {}).items()
    }
    return manager


def _advance_uid_counters(resources: dict[int, Resource], jobs: list[Job]) -> None:
    """Keep auto-assigned uids ahead of everything the snapshot restored.

    New jobs and resources created after a restore must never collide
    with restored uids — a collision would alias two distinct jobs in
    the trace (keyed by uid) and corrupt the run silently.
    """
    if resources:
        floor = max(resources) + 1
        current = next(resource_module._resource_counter)
        resource_module._resource_counter = itertools.count(max(current, floor))
    if jobs:
        floor = max(job.uid for job in jobs) + 1
        current = next(job_module._job_counter)
        job_module._job_counter = itertools.count(max(current, floor))


def restore_metascheduler(data: dict[str, Any]) -> Metascheduler:
    """Rebuild a metascheduler from :func:`snapshot_metascheduler` output.

    Raises:
        CheckpointMismatchError: On an unknown format tag or dangling
            internal references.
    """
    if data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointMismatchError(
            f"unsupported checkpoint format {data.get('format')!r}; "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    resources = _decode_resources(data)
    environment = _decode_environment(data["environment"], resources)
    state = data["metascheduler"]
    meta = Metascheduler(
        environment,
        scheduler=_decode_scheduler(data["scheduler"]),
        period=float(state["period"]),
        horizon=float(state["horizon"]),
        min_slot_length=float(state["min_slot_length"]),
        max_batch_size=state["max_batch_size"],
        max_postponements=state["max_postponements"],
        max_pending=state.get("max_pending"),
        demand_pricing=_decode_pricing(state.get("demand_pricing")),
        recovery=_decode_recovery(state.get("recovery"), resources),
    )
    jobs_by_uid: dict[int, Job] = {}
    for entry in data.get("trace", []):
        job = _decode_job(entry["job"])
        jobs_by_uid[job.uid] = job
        record = meta.trace.add(job, float(entry["submit_time"]))
        record.state = JobState(entry["state"])
        record.window = (
            None
            if entry["window"] is None
            else _decode_window(entry["window"], resources)
        )
        record.scheduled_iteration = entry["scheduled_iteration"]
        record.postponements = int(entry["postponements"])
        record.resubmissions = int(entry["resubmissions"])
        record.recoveries = int(entry["recoveries"])

    def job_of(uid: int) -> Job:
        try:
            return jobs_by_uid[uid]
        except KeyError:
            raise CheckpointMismatchError(
                f"snapshot references undeclared job uid {uid}"
            ) from None

    meta._pending = [job_of(int(uid)) for uid in state.get("pending", [])]
    meta._submissions = [
        (float(time), job_of(int(uid))) for time, uid in state.get("submissions", [])
    ]
    meta._iteration = int(state["iteration"])
    meta._outage_counts.update(
        {key: int(value) for key, value in state.get("outage_counts", {}).items()}
    )
    meta._revoked_at = {
        int(uid): int(tick) for uid, tick in state.get("revoked_at", {}).items()
    }
    meta.admission_rejections = int(state.get("admission_rejections", 0))
    meta.reports = [
        IterationReport(**{key: value for key, value in report.items() if key != "degraded"})
        for report in data.get("reports", [])
    ]
    _advance_uid_counters(resources, list(jobs_by_uid.values()))
    return meta


# --------------------------------------------------------------------- #
# Snapshot files                                                        #
# --------------------------------------------------------------------- #


def save_snapshot(
    data: dict[str, Any] | Callable[[], str],
    path: str | Path,
    *,
    fs: FileSystem | None = None,
) -> Path:
    """Write a snapshot document atomically: tmp + fsync + rename.

    A crash at any point leaves either the previous snapshot or the new
    one — never a torn file.  The temporary file lives next to the
    target so the rename stays within one filesystem.  All I/O goes
    through ``fs`` (the real filesystem by default) so the chaos engine
    can fail the write, the fsync, or the publishing rename.

    The file holds ``json.dumps(data, separators=(",", ":"),
    sort_keys=True)`` and a newline.  ``data`` may instead be a function
    returning that text; it is called here, so the
    ``checkpoint.snapshot`` phase times the encoding as well as the I/O.

    Raises:
        PersistenceError: When the snapshot cannot be written.
    """
    path = Path(path)
    fs = fs if fs is not None else REAL_FS
    tmp = path.with_name(path.name + ".tmp")
    telemetry = get_telemetry()
    began = perf_counter() if telemetry.enabled else 0.0
    text = data() if callable(data) else _canonical(data)
    try:
        with fs.open(tmp, "w") as stream:
            fs.write(stream, text + "\n")
            fs.fsync(stream)
        fs.replace(tmp, path)
        fs.fsync_directory(path.parent)
    except OSError as error:
        raise PersistenceError(
            f"cannot write snapshot {str(path)!r}: {error}"
        ) from error
    if telemetry.enabled:
        telemetry.count("checkpoint.snapshots")
        telemetry.observe(
            "phase.seconds", perf_counter() - began, phase="checkpoint.snapshot"
        )
    return path


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """Read a snapshot document written by :func:`save_snapshot`.

    Raises:
        PersistenceError: When the file is missing or unreadable.
        CheckpointMismatchError: When it parses but is not a snapshot.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise PersistenceError(
            f"cannot read snapshot {str(path)!r}: {error}"
        ) from error
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise CheckpointMismatchError(
            f"snapshot {str(path)!r} is not valid JSON ({error.msg})"
        ) from None
    if not isinstance(data, dict):
        raise CheckpointMismatchError(
            f"snapshot {str(path)!r} must be a JSON object"
        )
    return data


# --------------------------------------------------------------------- #
# The durable wrapper                                                   #
# --------------------------------------------------------------------- #


class DurableMetascheduler:
    """Crash-safe façade over a :class:`Metascheduler`.

    Wraps the scheduling cycle's mutating entry points — :meth:`submit`,
    :meth:`run_iteration`, :meth:`run`, :meth:`inject_outage` — and
    journals each as a command after it executes.  Every
    ``snapshot_every`` iterations the full state is snapshotted
    atomically and stamped with the journal's next sequence number as
    its watermark, bounding replay work.  The journal itself is never
    compacted: it only grows, and :meth:`restore` CRC-checks every
    record but replays only those at or past the watermark.

    Args:
        meta: The metascheduler to make durable.
        directory: Where ``snapshot.json`` and ``journal.jsonl`` live
            (created if missing).
        snapshot_every: Iterations between automatic snapshots.
        fsync: Force journal appends to stable storage per record.
        fs: Filesystem seam for all durable writes (journal appends and
            snapshot publishing).  Defaults to the real filesystem; the
            chaos engine injects a fault-raising one.
    """

    def __init__(
        self,
        meta: Metascheduler,
        directory: str | Path,
        *,
        snapshot_every: int = 25,
        fsync: bool = True,
        fs: FileSystem | None = None,
        _restored: bool = False,
    ) -> None:
        if snapshot_every < 1:
            raise PersistenceError(
                f"snapshot_every must be >= 1, got {snapshot_every!r}"
            )
        self.meta = meta
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self._since_snapshot = 0
        self._fs = fs if fs is not None else REAL_FS
        self._snapshot_text = _SnapshotText()
        self._journal = JournalWriter(
            self.directory / JOURNAL_NAME,
            fsync=fsync,
            header={"checkpoint": CHECKPOINT_FORMAT},
            fs=self._fs,
        )
        if not _restored:
            # A snapshot must always exist: restore() without one would
            # have no base state to replay the journal onto.
            self.snapshot()

    # -------------------------------------------------------------- #
    # Journaled commands                                              #
    # -------------------------------------------------------------- #

    def submit(self, job: Job, at_time: float = 0.0) -> None:
        """Queue a global job and journal the submission.

        Raises:
            AdmissionRejectedError: Propagated from the metascheduler;
                shed submissions are *not* journaled (they changed no
                state).
        """
        self.meta.submit(job, at_time)
        encoder = _Encoder()
        self._journal.append(
            "submit", {"time": at_time, "job": encoder.job(job)}
        )

    def run_iteration(self, now: float) -> IterationReport:
        """Execute one scheduling iteration durably."""
        report = self.meta.run_iteration(now)
        self._journal.append("iteration", {"now": now})
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_every:
            self.snapshot()
        return report

    def run(self, until: float, *, start: float = 0.0) -> list[IterationReport]:
        """Run iterations every ``period`` from ``start`` until ``until``.

        Mirrors :meth:`Metascheduler.run`, journaling every tick plus
        the final completion sweep.
        """
        first = len(self.meta.reports)
        now = start
        while now <= until:
            self.run_iteration(now)
            now += self.meta.period
        self.mark_completions(until)
        return self.meta.reports[first:]

    def mark_completions(self, now: float) -> int:
        """Sweep finished windows into COMPLETED, durably."""
        completed = self.meta.trace.mark_completions(now)
        self._journal.append("completions", {"now": now})
        return completed

    def inject_outage(self, node: ComputeNode, start: float, end: float) -> list[Job]:
        """Fail a node durably; see :meth:`Metascheduler.inject_outage`."""
        resubmitted = self.meta.inject_outage(node, start, end)
        self._journal.append(
            "outage", {"node": node.name, "start": start, "end": end}
        )
        return resubmitted

    # -------------------------------------------------------------- #
    # Snapshots and restore                                           #
    # -------------------------------------------------------------- #

    @property
    def snapshot_path(self) -> Path:
        """Location of the current snapshot document."""
        return self.directory / SNAPSHOT_NAME

    @property
    def journal_path(self) -> Path:
        """Location of the command journal."""
        return self.directory / JOURNAL_NAME

    def snapshot(self) -> Path:
        """Write an atomic snapshot now; resets the journal watermark."""
        extra: dict[str, Any] = {"journal_seq": self._journal.next_seq}
        telemetry = get_telemetry()
        if telemetry.enabled and telemetry.context is not None:
            # A restored run re-attaches this context, so trace shards
            # recorded before and after the crash carry the same trace id
            # and merge into one tree.
            extra["trace_context"] = telemetry.context.to_dict()
        path = save_snapshot(
            lambda: self._snapshot_text.render(self.meta, extra),
            self.snapshot_path,
            fs=self._fs,
        )
        self._since_snapshot = 0
        return path

    def close(self) -> None:
        """Snapshot once more and close the journal, even if that snapshot fails."""
        try:
            self.snapshot()
        finally:
            self._journal.close()

    def __enter__(self) -> "DurableMetascheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        *,
        snapshot_every: int = 25,
        fsync: bool = True,
        fs: FileSystem | None = None,
    ) -> "DurableMetascheduler":
        """Rebuild the durable run from its snapshot + journal.

        Loads the latest snapshot and re-executes every journaled
        command at or past the snapshot's watermark.  A torn trailing
        journal record is skipped with a warning (the crash artefact);
        corruption elsewhere raises
        :class:`~repro.core.errors.JournalCorruptError`.

        Raises:
            PersistenceError: When no snapshot exists in ``directory``.
        """
        directory = Path(directory)
        snapshot = load_snapshot(directory / SNAPSHOT_NAME)
        meta = restore_metascheduler(snapshot)
        watermark = int(snapshot.get("journal_seq", 0))
        records = read_journal(directory / JOURNAL_NAME)
        replayed = 0
        nodes_by_name = {node.name: node for node in meta.environment.nodes()}
        for record in records:
            if record.seq < watermark:
                continue
            if record.kind == "submit":
                meta.submit(_decode_job(record.data["job"]), record.data["time"])
            elif record.kind == "iteration":
                meta.run_iteration(float(record.data["now"]))
            elif record.kind == "completions":
                meta.trace.mark_completions(float(record.data["now"]))
            elif record.kind == "outage":
                node = nodes_by_name.get(str(record.data["node"]))
                if node is None:
                    raise CheckpointMismatchError(
                        f"journal outage references unknown node "
                        f"{record.data['node']!r}"
                    )
                meta.inject_outage(
                    node, float(record.data["start"]), float(record.data["end"])
                )
            elif record.kind == "journal":
                continue
            else:
                raise CheckpointMismatchError(
                    f"unknown journal command {record.kind!r} (seq {record.seq})"
                )
            replayed += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.count("checkpoint.restores")
            telemetry.count("checkpoint.replayed_commands", replayed)
            context_data = snapshot.get("trace_context")
            if context_data is not None and telemetry.context is None:
                telemetry.context = TraceContext.from_dict(context_data)
        durable = cls(
            meta,
            directory,
            snapshot_every=snapshot_every,
            fsync=fsync,
            fs=fs,
            _restored=True,
        )
        return durable
