"""Compute nodes — priced resources with occupancy schedules.

A :class:`ComputeNode` is the grid-substrate counterpart of the core
model's :class:`~repro.core.resource.Resource`: it carries the same
economic attributes *plus* the local occupancy schedule from which
vacant slots are published.  Non-dedication (Section 1 of the paper) is
modelled by the owner's local jobs occupying the same schedule that the
metascheduler reserves into.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.core.errors import InvalidRequestError
from repro.core.resource import Resource
from repro.core.slot import Slot, _carve_slot
from repro.grid.occupancy import BusyInterval, OccupancySchedule

__all__ = [
    "ComputeNode",
    "LOCAL_LABEL_PREFIX",
    "RESERVATION_LABEL_PREFIX",
    "OUTAGE_LABEL_PREFIX",
]

#: Label prefix used for the owner's local job occupancy.
LOCAL_LABEL_PREFIX = "local:"
#: Label prefix used for metascheduler (global job) reservations.
RESERVATION_LABEL_PREFIX = "job:"
#: Label prefix used for node outages (failure injection, Section 7).
OUTAGE_LABEL_PREFIX = "outage:"

_node_counter = itertools.count(1)


class ComputeNode:
    """One computational node of a virtual organization.

    Attributes:
        resource: The economic identity (name, performance, price) seen
            by the core algorithms.
        schedule: The node's occupancy schedule.
    """

    __slots__ = ("resource", "schedule")

    def __init__(self, name: str, *, performance: float = 1.0, price: float = 1.0) -> None:
        self.resource = Resource(name, performance=performance, price=price)
        self.schedule = OccupancySchedule()

    @property
    def name(self) -> str:
        """Node name (delegates to the resource)."""
        return self.resource.name

    @property
    def performance(self) -> float:
        """Relative performance rate ``P``."""
        return self.resource.performance

    @property
    def price(self) -> float:
        """Usage price per time unit ``C``."""
        return self.resource.price

    # ------------------------------------------------------------------ #
    # Occupancy                                                          #
    # ------------------------------------------------------------------ #

    def run_local_job(self, start: float, end: float, job_name: str = "") -> BusyInterval:
        """Occupy the node with one of the owner's local jobs."""
        label = f"{LOCAL_LABEL_PREFIX}{job_name or next(_node_counter)}"
        return self.schedule.reserve(start, end, label)

    def reserve_for(self, job_name: str, start: float, end: float) -> BusyInterval:
        """Commit a metascheduler reservation for a global job's task."""
        return self.schedule.reserve(start, end, f"{RESERVATION_LABEL_PREFIX}{job_name}")

    def cancel_reservations(self, job_name: str) -> int:
        """Drop every reservation made for ``job_name``; returns count."""
        return self.schedule.release_label(f"{RESERVATION_LABEL_PREFIX}{job_name}")

    def published_spans(
        self, horizon_start: float, horizon_end: float, *, min_length: float = 0.0
    ) -> list[tuple[float, float]]:
        """The vacant ``(start, end)`` spans the node publishes over a horizon.

        Args:
            horizon_start: Beginning of the published window (usually the
                current scheduling-iteration time).
            horizon_end: End of the published window.
            min_length: Gaps shorter than this are not published —
                real local managers suppress unusably short fragments.
        """
        if min_length < 0:
            raise InvalidRequestError(f"min_length must be >= 0, got {min_length!r}")
        return [
            (start, end)
            for start, end in self.schedule.vacant_spans(horizon_start, horizon_end)
            if end - start >= min_length
        ]

    def vacant_slots(
        self,
        horizon_start: float,
        horizon_end: float,
        *,
        min_length: float = 0.0,
        price_multiplier: float = 1.0,
    ) -> list[Slot]:
        """Publish the node's vacant slots over a horizon.

        One slot per :meth:`published_spans` span.  ``price_multiplier``
        scales the slot price (demand-adjusted pricing); the node's base
        price is untouched.  Vacant spans are never empty and the price
        is validated here, so the slots are built by the trusted
        constructor.

        Raises:
            InvalidRequestError: When ``price_multiplier`` is not
                positive or ``min_length`` is negative.
        """
        if price_multiplier <= 0:
            raise InvalidRequestError(
                f"price_multiplier must be positive, got {price_multiplier!r}"
            )
        resource = self.resource
        price = resource.price if price_multiplier == 1.0 else resource.price * price_multiplier
        return [
            _carve_slot(resource, start, end, price)
            for start, end in self.published_spans(
                horizon_start, horizon_end, min_length=min_length
            )
        ]

    # ------------------------------------------------------------------ #
    # Accounting                                                         #
    # ------------------------------------------------------------------ #

    def utilization(self, horizon_start: float, horizon_end: float) -> float:
        """Overall busy fraction of the node within the horizon."""
        return self.schedule.utilization(horizon_start, horizon_end)

    def local_share(self, horizon_start: float, horizon_end: float) -> float:
        """Fraction of busy time owed to the owner's local jobs.

        The balance between this and the global share is exactly what the
        paper's ``T*`` quota protects (Section 2).
        """
        busy = self.schedule.busy_time(horizon_start, horizon_end)
        if busy <= 0:
            return 0.0
        local = self.schedule.busy_time(
            horizon_start, horizon_end, label_prefix=LOCAL_LABEL_PREFIX
        )
        return local / busy

    def income(self, horizon_start: float, horizon_end: float) -> float:
        """Owner income from metascheduler reservations within the horizon."""
        reserved = self.schedule.busy_time(
            horizon_start, horizon_end, label_prefix=RESERVATION_LABEL_PREFIX
        )
        return reserved * self.resource.price

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputeNode({self.name!r}, P={self.performance:g}, "
            f"C={self.price:g}, busy={len(self.schedule)})"
        )


def total_income(nodes: Iterable[ComputeNode], horizon_start: float, horizon_end: float) -> float:
    """Aggregate owner income over ``nodes`` within the horizon."""
    return sum(node.income(horizon_start, horizon_end) for node in nodes)
