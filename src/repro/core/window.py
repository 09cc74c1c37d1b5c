"""Windows — co-allocated sets of concurrent slots for one job.

A :class:`Window` is the outcome of a successful ALP/AMP search: ``N``
task placements on distinct resources that all *start synchronously* at
``window.start`` (Section 2: "tasks of the parallel job must start
synchronously").  On heterogeneous nodes the placements end at different
times, producing the paper's "window with a rough right edge"
(Fig. 1 (a)); the job's execution time is set by the slowest node.

Windows are immutable value objects.  They remember which vacant slot
each placement was carved from, so the alternative-search scheme can
subtract exactly the occupied spans from the slot list (Fig. 1 (b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.errors import InvalidRequestError
from repro.core.job import ResourceRequest
from repro.core.resource import Resource
from repro.core.slot import Slot

__all__ = ["TaskAllocation", "Window", "carved_allocation"]


def carved_allocation(source: Slot, start: float, end: float) -> TaskAllocation:
    """Construct a :class:`TaskAllocation` without re-validating containment.

    Trusted fast path for the indexed finders, whose scan
    invariants guarantee ``source.contains_span(start, end)``: a
    candidate is only admitted while ``end - window_start >= runtime``
    holds and rows are scanned in start order, so every emitted placement
    fits its source slot by construction.  The naive reference finders
    always construct through the validating ``__init__``, and the
    differential oracles pin both paths to identical windows.
    """
    allocation = object.__new__(TaskAllocation)
    object.__setattr__(allocation, "source", source)
    object.__setattr__(allocation, "start", start)
    object.__setattr__(allocation, "end", end)
    return allocation


def _allocation_uid(allocation: "TaskAllocation") -> int:
    return allocation.source.resource.uid


@dataclass(frozen=True, slots=True)
class TaskAllocation:
    """One task's placement inside a window.

    This is the paper's ``K'`` slot: it starts at the window start and
    lasts exactly the task's runtime on the chosen node.

    Attributes:
        source: The vacant slot the placement was carved from.
        start: Placement start (== the window start).
        end: Placement end (``start + runtime on source's node``).
    """

    source: Slot
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.source.contains_span(self.start, self.end):
            raise InvalidRequestError(
                f"allocation [{self.start:g}, {self.end:g}) escapes its source slot "
                f"[{self.source.start:g}, {self.source.end:g}) on {self.resource.name!r}"
            )

    @property
    def resource(self) -> Resource:
        """Node executing this task."""
        return self.source.resource

    @property
    def runtime(self) -> float:
        """Actual task runtime on this node."""
        return self.end - self.start

    @property
    def cost(self) -> float:
        """Cost of this placement: ``price per unit × runtime``."""
        return self.source.price * self.runtime

    @property
    def unit_price(self) -> float:
        """Price per time unit of the underlying slot."""
        return self.source.price


class Window:
    """A co-allocation of ``N`` synchronous task placements (paper's ``Window``).

    Attributes mirror the paper's ``Window`` class: total cost, start and
    end times, time span, the number of slots, and the slots themselves
    (here: :class:`TaskAllocation` objects, which also remember their
    source vacant slots).
    """

    __slots__ = ("_request", "_allocations", "_end", "_cost")

    def __init__(self, request: ResourceRequest, allocations: Sequence[TaskAllocation]) -> None:
        if len(allocations) != request.node_count:
            raise InvalidRequestError(
                f"window needs exactly {request.node_count} allocations, got {len(allocations)}"
            )
        starts = {allocation.start for allocation in allocations}
        if len(starts) != 1:
            raise InvalidRequestError(
                f"window tasks must start synchronously, got starts {sorted(starts)}"
            )
        resources = {allocation.resource.uid for allocation in allocations}
        if len(resources) != len(allocations):
            raise InvalidRequestError("window tasks must run on distinct resources")
        self._request = request
        self._allocations = tuple(
            sorted(allocations, key=lambda a: (a.resource.uid, a.start))
        )
        # Lazily cached aggregates — allocations are immutable, so the
        # first computed value stays valid for the window's lifetime.
        self._end: float | None = None
        self._cost: float | None = None

    @classmethod
    def from_scan(cls, request: ResourceRequest, allocations: Sequence[TaskAllocation]) -> "Window":
        """Construct a window from a finder's scan without re-validating.

        Trusted fast path for the indexed finders: the scan
        emits exactly ``node_count`` placements sharing one start, and
        distinct resources follow from same-resource slots being
        disjoint (two allocations covering the same start on one
        resource would need overlapping vacant slots).  Sorting only by
        resource uid matches ``__init__``'s ``(uid, start)`` order
        because all starts are equal.  The naive reference finders
        always construct through the validating ``__init__``.
        """
        window = object.__new__(cls)
        window._request = request
        window._allocations = tuple(sorted(allocations, key=_allocation_uid))
        window._end = None
        window._cost = None
        return window

    # ------------------------------------------------------------------ #
    # Paper's Window fields                                              #
    # ------------------------------------------------------------------ #

    @property
    def request(self) -> ResourceRequest:
        """The request this window satisfies."""
        return self._request

    @property
    def allocations(self) -> tuple[TaskAllocation, ...]:
        """Task placements, ordered by resource uid."""
        return self._allocations

    @property
    def slots_number(self) -> int:
        """Number of co-allocated slots ``N``."""
        return len(self._allocations)

    @property
    def start(self) -> float:
        """Synchronous start time of all tasks."""
        return self._allocations[0].start

    @property
    def end(self) -> float:
        """End of the *longest* placement (the rough right edge)."""
        end = self._end
        if end is None:
            end = max(allocation.end for allocation in self._allocations)
            self._end = end
        return end

    @property
    def length(self) -> float:
        """The job execution time ``t_i(s̄_i)``: span set by the slowest node."""
        return self.end - self.start

    @property
    def cost(self) -> float:
        """Total usage cost ``c_i(s̄_i)``: sum of placement costs."""
        cost = self._cost
        if cost is None:
            cost = sum(allocation.cost for allocation in self._allocations)
            self._cost = cost
        return cost

    @property
    def unit_cost(self) -> float:
        """Sum of per-time-unit prices of the window's slots.

        For uniform-performance environments (as in the worked example of
        Section 4) the window is rectangular and
        ``cost == unit_cost × length``; the example's "maximum total
        window cost per time" constraints are bounds on this value.
        """
        return sum(allocation.unit_price for allocation in self._allocations)

    # ------------------------------------------------------------------ #
    # Derived views                                                      #
    # ------------------------------------------------------------------ #

    def resources(self) -> tuple[Resource, ...]:
        """Nodes used by the window, ordered by uid."""
        return tuple(allocation.resource for allocation in self._allocations)

    def occupied_spans(self) -> Iterator[tuple[Resource, float, float]]:
        """Spans ``(resource, start, end)`` to subtract from a slot list."""
        for allocation in self._allocations:
            yield (allocation.resource, allocation.start, allocation.end)

    def intersects(self, other: "Window") -> bool:
        """Whether two windows share processor time on some resource."""
        mine = {allocation.resource.uid: allocation for allocation in self._allocations}
        for allocation in other._allocations:
            twin = mine.get(allocation.resource.uid)
            if twin is not None and allocation.start < twin.end and twin.start < allocation.end:
                return True
        return False

    def satisfies(self, request: ResourceRequest | None = None, *, budget: float | None = None) -> bool:
        """Check the full co-allocation contract (used by tests and audits).

        Verifies node count, synchronous start, distinct resources (by
        construction), minimum performance, per-task runtime, and — when
        ``budget`` is given — the AMP budget; otherwise the per-slot price
        cap of ALP.
        """
        request = request or self._request
        if len(self._allocations) != request.node_count:
            return False
        for allocation in self._allocations:
            if not request.admits_performance(allocation.resource):
                return False
            expected = request.runtime_on(allocation.resource)
            if abs(allocation.runtime - expected) > 1e-9 * max(1.0, expected):
                return False
            if budget is None and not request.admits_price(allocation.source):
                return False
        if budget is not None and self.cost > budget * (1 + 1e-12):
            return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Window):
            return NotImplemented
        return self._allocations == other._allocations

    def __hash__(self) -> int:
        return hash(self._allocations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nodes = ",".join(resource.name for resource in self.resources())
        return (
            f"Window([{self.start:g}, {self.end:g}) on {nodes}, "
            f"cost={self.cost:g}, unit_cost={self.unit_cost:g})"
        )
