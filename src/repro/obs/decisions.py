"""Decision records: why the scheduler accepted, pruned, or fell back.

The metric registry answers *how much* (slots scanned, windows found);
decision records answer *why*: which candidate windows a job's search
considered, why each was pruned (price cap, budget, occupancy,
start-hint skip), which alternative the phase-2 DP chose, and when the
DP found no feasible combination.  ``repro explain --job J`` replays the decision path for one
job from a recorded trace.

Design rules, mirroring the rest of :mod:`repro.obs`:

* **Zero-cost when off.**  Call sites fetch the log once per operation
  (``decisions = telemetry.decisions``) and guard every emit with
  ``if decisions.enabled:`` — the ``repro-lint`` rule RPR006 enforces
  the guard inside ``core/`` and ``grid/``.  The shared
  :data:`NOOP_DECISIONS` instance backs every disabled context.
* **Deterministic.**  Records carry *no* wall-clock stamps — only
  logical fields (iteration, sequence number, operation, job, payload).
  The sequence counter resets at every iteration scope, so the records
  produced for iteration *i* are byte-identical regardless of which
  worker ran it; cross-worker merges sort by ``(iteration, seq)``.
* **Bounded.**  A ``max_records`` cap drops the newest records beyond
  the limit (counted in :attr:`DecisionLog.dropped`) so a pathological
  run cannot exhaust memory.

Stdlib-only on purpose: the core algorithm modules import this through
:mod:`repro.obs.telemetry`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.errors import TelemetryUsageError

__all__ = [
    "DecisionLog",
    "NOOP_DECISIONS",
    "decision_sort_key",
    "decisions_for_job",
    "render_explain",
]


class DecisionLog:
    """Append-only structured log of scheduling decisions.

    Attributes:
        enabled: Master switch; when ``False`` :meth:`emit` must not be
            called (call sites guard, RPR006 checks them).
        records: Emitted decision records, in emission order.
        max_records: Retention cap; emits beyond it are dropped.
        dropped: Number of records dropped by the cap.
    """

    __slots__ = ("enabled", "records", "max_records", "dropped", "_scope", "_seq")

    def __init__(self, *, enabled: bool = True, max_records: int = 200_000) -> None:
        """Create a log retaining at most ``max_records`` records."""
        if max_records < 1:
            raise TelemetryUsageError(
                f"max_records must be >= 1, got {max_records!r}"
            )
        self.enabled = enabled
        self.records: list[dict] = []
        self.max_records = max_records
        self.dropped = 0
        self._scope: dict = {}
        self._seq = 0

    @contextmanager
    def scope(self, **fields: object) -> Iterator[None]:
        """Stamp ``fields`` onto every record emitted inside the block.

        A scope that (re)binds ``iteration`` resets the sequence counter,
        which is what makes decision streams worker-count-invariant: the
        records of one iteration are numbered the same no matter which
        worker — or how many — produced them.
        """
        saved_scope = self._scope
        saved_seq = self._seq
        self._scope = {**saved_scope, **fields}
        if "iteration" in fields:
            self._seq = 0
        try:
            yield
        finally:
            self._scope = saved_scope
            self._seq = saved_seq

    def emit(self, op: str, **fields: object) -> None:
        """Record one decision (``op`` plus scope and caller fields).

        Callers must check :attr:`enabled` first; the emit itself does
        not re-check so the guard stays visible at the call site.
        """
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(
            {"kind": "decision", "op": op, "seq": self._seq, **self._scope, **fields}
        )
        self._seq += 1

    def clear(self) -> None:
        """Drop all records and reset the counters."""
        self.records.clear()
        self.dropped = 0
        self._scope = {}
        self._seq = 0

    def __len__(self) -> int:
        """Number of retained records."""
        return len(self.records)


#: Shared disabled log backing every telemetry context that is off.
NOOP_DECISIONS = DecisionLog(enabled=False)


def decision_sort_key(record: dict) -> tuple[float, int]:
    """Canonical ordering key: ``(iteration, seq)``.

    Records without an iteration sort first (scope-less emits from
    one-shot pipelines), preserving their emission order via ``seq``.
    """
    iteration = record.get("iteration")
    if not isinstance(iteration, (int, float)):
        iteration = float("-inf")
    seq = record.get("seq")
    if not isinstance(seq, int):
        seq = 0
    return (float(iteration), seq)


def decisions_for_job(records: list[dict], job: str) -> list[dict]:
    """The decision path of ``job``: its records in canonical order."""
    matched = [record for record in records if record.get("job") == job]
    matched.sort(key=decision_sort_key)
    return matched


def _describe(record: dict) -> str:
    """One human line for a decision record's payload."""
    skip = {"kind", "op", "seq", "iteration", "job"}
    parts = []
    for key in sorted(record):
        if key in skip:
            continue
        value = record[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_explain(records: list[dict], job: str) -> str:
    """Render the decision path for ``job`` as a fixed-width table.

    Returns a one-line "(no decisions ...)" note when the trace holds no
    records for the job — the CLI treats that as a normal (exit 0) answer
    because an uninstrumented run legitimately records nothing.
    """
    from repro.sim.ascii_plot import table

    path = decisions_for_job(records, job)
    if not path:
        return f"(no decisions recorded for job {job!r})"
    rows = []
    for record in path:
        iteration = record.get("iteration")
        rows.append(
            [
                "-" if iteration is None else str(iteration),
                str(record.get("seq", "-")),
                str(record.get("op", "?")),
                _describe(record),
            ]
        )
    header = f"decision path for job {job!r} ({len(path)} records):"
    return header + "\n" + table(rows, header=["iter", "seq", "decision", "detail"])
