"""Per-layer tracing for the benchmark, kept outside the program.

Each layer is timed from outside: the public functions named in
:data:`FUNCTIONS` and :data:`METHODS` are replaced, for the traced run
only, by wrappers that record one span per call.  A module-level function
is replaced in every loaded ``repro`` module that holds it, because that
is where its callers look it up (``repro.sim.experiment.find_alternatives``
and ``repro.core.scheduler.find_alternatives`` are both the same function
bound under the callers' names).  A method is replaced on its class.

Spans stay in memory with their parent links and are written once, when
the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: Wrapped module-level functions: (span name, module, attribute).
FUNCTIONS = [
    ("sim.generate_iteration", "repro.sim.experiment", "generate_iteration"),
    ("search.find_alternatives", "repro.core.search", "find_alternatives"),
    ("alp.find_window", "repro.core.alp", "find_window"),
    ("amp.find_window", "repro.core.amp", "find_window"),
    ("optimize.vo_budget", "repro.core.optimize", "vo_budget"),
    ("optimize.minimize_time", "repro.core.optimize", "minimize_time"),
    ("checkpoint.encode", "repro.grid.checkpoint", "snapshot_metascheduler"),
    ("checkpoint.save_snapshot", "repro.grid.checkpoint", "save_snapshot"),
]

#: Wrapped methods: (span name, module, class, method).
METHODS = [
    ("index.build", "repro.core.index", "SlotIndex", "__init__"),
    ("index.find_alp_window", "repro.core.index", "SlotIndex", "find_alp_window"),
    ("index.find_amp_window_at", "repro.core.index", "SlotIndex", "find_amp_window_at"),
    ("index.commit", "repro.core.index", "SlotIndex", "commit"),
    ("index.insert", "repro.core.index", "SlotIndex", "insert"),
    ("index.slot_list", "repro.core.index", "SlotIndex", "slot_list"),
    ("scheduler.schedule", "repro.core.scheduler", "BatchScheduler", "schedule"),
    ("grid.vacant_slot_list", "repro.grid.environment", "VOEnvironment", "vacant_slot_list"),
    ("grid.commit_window", "repro.grid.environment", "VOEnvironment", "commit_window"),
    ("grid.inject_outage", "repro.grid.environment", "VOEnvironment", "inject_outage"),
    ("resilience.find_hot_swap", "repro.grid.resilience", "RecoveryManager", "find_hot_swap"),
    ("resilience.research", "repro.grid.resilience", "RecoveryManager", "research"),
    ("journal.append", "repro.core.journal", "JournalWriter", "append"),
    ("obs.count", "repro.obs.telemetry", "Telemetry", "count"),
    ("obs.observe", "repro.obs.telemetry", "Telemetry", "observe"),
    ("obs.span", "repro.obs.telemetry", "Telemetry", "span"),
]

SPAN_NAMES = [entry[0] for entry in FUNCTIONS + METHODS]


class Tracer:
    """Spans of one traced run, aggregated per name as they close."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        #: name -> [calls, busy seconds, self seconds]
        self.totals: dict[str, list[float]] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        #: Counts taken at the same boundaries (windows found, bytes, ...).
        self.counts: dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self, name: str) -> int:
        span = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._child.append(0.0)
        self.ends.append(0.0)
        self._stack.append(span)
        self._open[name] = self._open.get(name, 0) + 1
        self.starts.append(perf_counter())
        return span

    def _exit(self, span: int, name: str) -> None:
        end = perf_counter()
        self.ends[span] = end
        duration = end - self.starts[span]
        self._stack.pop()
        self._open[name] -= 1
        totals = self.totals[name]
        totals[0] += 1
        # A call nested in a call of the same name is already inside the
        # outer one's busy time.
        if self._open[name] == 0:
            totals[1] += duration
        totals[2] += duration - self._child[span]
        parent = self.parents[span]
        if parent >= 0:
            self._child[parent] += duration

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer._enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(span, name)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON array: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as stream:
            for span, name in enumerate(self.names):
                record = [
                    span,
                    self.parents[span],
                    name,
                    round(self.starts[span] - origin, 9),
                    round(self.ends[span] - origin, 9),
                ]
                stream.write(json.dumps(record, separators=(",", ":")) + "\n")


def _count_found(tracer: Tracer, result: Any) -> None:
    tracer.add("index.windows_found", result is not None)


def _count_search(tracer: Tracer, result: Any) -> None:
    tracer.add("search.passes", result.passes)
    tracer.add("search.windows", result.total_alternatives)


def _count_snapshot_bytes(tracer: Tracer, path: Any) -> None:
    tracer.add("checkpoint.snapshot_bytes", os.path.getsize(path))


_ON_RESULT = {
    "search.find_alternatives": _count_search,
    "index.find_alp_window": _count_found,
    "index.find_amp_window_at": _count_found,
    "checkpoint.save_snapshot": _count_snapshot_bytes,
}


class Patches:
    """Installs the tracer's wrappers and puts the originals back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attribute: str, value: object) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        self.missing = []
        for name, module_name, attribute in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.tracer.wrap(name, original, _ON_RESULT.get(name))
            for module_key, module in list(sys.modules.items()):
                if module is None or not module_key.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for name, module_name, class_name, attribute in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            original = None if owner is None else owner.__dict__.get(attribute)
            if original is None:
                self.missing.append(name)
                continue
            self._set(owner, attribute, self.tracer.wrap(name, original, _ON_RESULT.get(name)))

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
