"""The virtual organization environment.

:class:`VOEnvironment` composes clusters into the resource pool of one
virtual organization.  Its two jobs are exactly the metascheduler's two
contact points with reality (paper Section 2):

* publish the **ordered list of vacant slots** over a scheduling horizon
  (built from every node's occupancy schedule), and
* **commit** a chosen window back into the node schedules as
  reservations, so the next iteration's slot list reflects it.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from repro.core.errors import InvalidRequestError, SlotListError
from repro.core.slot import Slot, SlotList
from repro.core.window import Window
from repro.grid.cluster import Cluster, ClusterSpec
from repro.grid.node import ComputeNode

__all__ = ["VOEnvironment"]


class VOEnvironment:
    """Resource pool of a virtual organization: clusters of priced nodes."""

    def __init__(self, clusters: Iterable[Cluster]) -> None:
        self._clusters = list(clusters)
        if not self._clusters:
            raise InvalidRequestError("environment needs at least one cluster")
        self._nodes_by_uid: dict[int, ComputeNode] = {}
        for cluster in self._clusters:
            for node in cluster:
                if node.resource.uid in self._nodes_by_uid:
                    raise InvalidRequestError(
                        f"node {node.name!r} appears in more than one cluster"
                    )
                self._nodes_by_uid[node.resource.uid] = node

    @classmethod
    def generate(
        cls,
        specs: Iterable[ClusterSpec],
        *,
        seed: int | None = None,
    ) -> "VOEnvironment":
        """Build an environment by sampling every cluster spec."""
        rng = random.Random(seed)
        return cls(spec.build(rng) for spec in specs)

    # ------------------------------------------------------------------ #
    # Topology                                                           #
    # ------------------------------------------------------------------ #

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        """The environment's clusters."""
        return tuple(self._clusters)

    def nodes(self) -> Iterator[ComputeNode]:
        """All nodes across all clusters."""
        for cluster in self._clusters:
            yield from cluster

    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self._nodes_by_uid)

    def node_for(self, resource_uid: int) -> ComputeNode:
        """The node owning the resource with ``resource_uid``.

        Raises:
            SlotListError: For an unknown uid (e.g. a window built
                against a different environment).
        """
        try:
            return self._nodes_by_uid[resource_uid]
        except KeyError:
            raise SlotListError(
                f"resource uid {resource_uid} does not belong to this environment"
            ) from None

    # ------------------------------------------------------------------ #
    # Metascheduler contact points                                       #
    # ------------------------------------------------------------------ #

    def vacant_slot_list(
        self,
        horizon_start: float,
        horizon_end: float,
        *,
        min_length: float = 0.0,
        price_multiplier: float = 1.0,
    ) -> SlotList:
        """The ordered vacant-slot list over a horizon (paper Fig. 1 (a)).

        Args:
            min_length: Suppress gaps shorter than this.
            price_multiplier: Scales every published slot price, e.g. for
                demand-adjusted pricing experiments; node base prices are
                untouched.
        """
        slots: list[Slot] = []
        for node in self.nodes():
            slots.extend(
                node.vacant_slots(
                    horizon_start,
                    horizon_end,
                    min_length=min_length,
                    price_multiplier=price_multiplier,
                )
            )
        # One sort instead of an insort per slot; vacant spans are never
        # empty, so nothing SlotList.insert would drop reaches here.
        return SlotList(slots)

    def vacant_slot_count(
        self, horizon_start: float, horizon_end: float, *, min_length: float = 0.0
    ) -> int:
        """``len(vacant_slot_list(...))``, counted without building a slot."""
        return sum(
            len(node.published_spans(horizon_start, horizon_end, min_length=min_length))
            for node in self.nodes()
        )

    def commit_window(self, job_name: str, window: Window) -> None:
        """Reserve a scheduled window's spans in the node schedules.

        All-or-nothing: if any span is unexpectedly busy (which indicates
        a stale window), already-made reservations for this job are
        rolled back before re-raising.

        Raises:
            SlotListError: On double booking or foreign resources.
        """
        committed: list[ComputeNode] = []
        try:
            for resource, start, end in window.occupied_spans():
                node = self.node_for(resource.uid)
                node.reserve_for(job_name, start, end)
                committed.append(node)
        except SlotListError:
            for node in committed:
                node.cancel_reservations(job_name)
            raise

    def cancel_job(self, job_name: str) -> int:
        """Drop every reservation of ``job_name``; returns the count."""
        return sum(node.cancel_reservations(job_name) for node in self.nodes())

    def inject_outage(
        self,
        node: ComputeNode,
        start: float,
        end: float,
        *,
        live_jobs: Iterable[str] | None = None,
    ) -> list[str]:
        """Take ``node`` down during ``[start, end)`` (Section 7 dynamics).

        Everything occupying the node in that span is evicted: local jobs
        simply die, while every *live* global job whose task overlapped
        the outage loses **all** its reservations across the environment —
        its tasks start synchronously, so losing one node kills the
        co-allocation.  The outage itself is recorded as a busy interval
        (label ``outage:...``), so subsequent slot lists exclude it.

        A job that already ran to completion cannot be retroactively
        failed: its reservations are *history*, and erasing them would
        corrupt :meth:`utilization` and owner-income accounting on every
        node the job touched.  Callers that track job life cycles (the
        metascheduler) pass ``live_jobs`` — the names of jobs still
        holding active reservations at outage start — and only those are
        revoked.  An evicted reservation of a non-live job keeps its
        spans outside the outage (the work happened); the overlapped
        portion is subsumed by the outage interval, which stays busy but
        earns no income.

        Args:
            live_jobs: Names of global jobs considered live at outage
                start.  ``None`` (the legacy default for callers without
                life-cycle knowledge) treats every evicted job as live.

        Returns:
            The names of the live global jobs whose reservations were
            revoked (the metascheduler recovers or resubmits them).

        Raises:
            SlotListError: If the node does not belong to this
                environment or the span is empty.
        """
        if self._nodes_by_uid.get(node.resource.uid) is not node:
            raise SlotListError(
                f"node {node.name!r} does not belong to this environment"
            )
        if end <= start:
            raise SlotListError(f"outage span must be non-empty, got [{start!r}, {end!r})")
        from repro.grid.node import OUTAGE_LABEL_PREFIX, RESERVATION_LABEL_PREFIX

        live = None if live_jobs is None else set(live_jobs)
        evicted = node.schedule.clear_span(start, end)
        killed: list[str] = []
        for interval in evicted:
            if not interval.label.startswith(RESERVATION_LABEL_PREFIX):
                continue
            job_name = interval.label[len(RESERVATION_LABEL_PREFIX) :]
            if live is None or job_name in live:
                if job_name not in killed:
                    killed.append(job_name)
            else:
                # Historical reservation: restore the executed spans
                # outside the outage so accounting keeps them.
                if interval.start < start:
                    node.schedule.reserve(interval.start, start, interval.label)
                if interval.end > end:
                    node.schedule.reserve(end, interval.end, interval.label)
        for job_name in killed:
            self.cancel_job(job_name)
        node.schedule.reserve(start, end, f"{OUTAGE_LABEL_PREFIX}{node.name}")
        return killed

    # ------------------------------------------------------------------ #
    # Accounting                                                         #
    # ------------------------------------------------------------------ #

    def utilization(self, horizon_start: float, horizon_end: float) -> float:
        """Mean node utilization over the horizon, in ``[0, 1]``."""
        nodes = list(self.nodes())
        if not nodes:
            return 0.0
        return sum(node.utilization(horizon_start, horizon_end) for node in nodes) / len(
            nodes
        )

    def total_income(self, horizon_start: float, horizon_end: float) -> float:
        """Aggregate owner income from global-job reservations."""
        return sum(cluster.income(horizon_start, horizon_end) for cluster in self._clusters)

    def prune_before(self, time: float) -> int:
        """Forget occupancy history older than ``time`` on every node."""
        return sum(node.schedule.prune_before(time) for node in self.nodes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VOEnvironment({len(self._clusters)} clusters, "
            f"{self.node_count()} nodes)"
        )
