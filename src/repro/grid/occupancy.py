"""Occupancy schedules — the local resource manager's view of one node.

In the paper's model slots "come from local resource managers or
schedulers in the node domains" (Section 2): every node keeps a schedule
of busy intervals (owner's local jobs plus reservations committed by the
metascheduler), and the vacant gaps between them are exactly the slots
published to the economic scheduler.

:class:`OccupancySchedule` maintains the busy intervals of one node as a
sorted, non-overlapping list and derives the vacant spans over any
horizon.  It is the bridge between the grid substrate and the core
algorithms' :class:`~repro.core.slot.SlotList`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

from repro.core.errors import SlotListError

__all__ = ["BusyInterval", "OccupancySchedule"]


@dataclass(frozen=True, slots=True)
class BusyInterval:
    """One busy span on a node, with a label identifying its origin.

    Labels distinguish the owner's local jobs (``"local:..."``) from
    metascheduler reservations (``"job:..."``), which matters for the
    utilization split reported by the environment.
    """

    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SlotListError(
                f"busy interval must have positive length, got [{self.start!r}, {self.end!r})"
            )

    @property
    def length(self) -> float:
        """Duration of the busy span."""
        return self.end - self.start


_end = attrgetter("end")


class OccupancySchedule:
    """Sorted, non-overlapping busy intervals of a single node."""

    __slots__ = ("_intervals",)

    def __init__(self) -> None:
        self._intervals: list[BusyInterval] = []

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[BusyInterval]:
        return iter(self._intervals)

    def intervals(self) -> tuple[BusyInterval, ...]:
        """The busy intervals in start order."""
        return tuple(self._intervals)

    def is_free(self, start: float, end: float) -> bool:
        """Whether ``[start, end)`` overlaps no busy interval."""
        if end <= start:
            return True
        index = bisect.bisect_left(self._intervals, start, key=lambda iv: iv.start)
        # The predecessor may still cover `start`.
        if index > 0 and self._intervals[index - 1].end > start:
            return False
        return not (index < len(self._intervals) and self._intervals[index].start < end)

    def reserve(self, start: float, end: float, label: str = "") -> BusyInterval:
        """Mark ``[start, end)`` busy.

        Raises:
            SlotListError: If the span overlaps an existing reservation
                (double booking is a scheduler bug, not a recoverable
                condition).
        """
        if not self.is_free(start, end):
            raise SlotListError(
                f"span [{start:g}, {end:g}) overlaps an existing reservation"
            )
        interval = BusyInterval(start, end, label)
        bisect.insort(self._intervals, interval, key=lambda iv: iv.start)
        return interval

    def release(self, interval: BusyInterval) -> None:
        """Remove a reservation previously returned by :meth:`reserve`.

        Raises:
            SlotListError: If the interval is not present.
        """
        try:
            self._intervals.remove(interval)
        except ValueError:
            raise SlotListError(f"interval {interval!r} is not reserved") from None

    def release_label(self, label: str) -> int:
        """Release every interval carrying ``label``; returns the count."""
        kept = [iv for iv in self._intervals if iv.label != label]
        removed = len(self._intervals) - len(kept)
        self._intervals = kept
        return removed

    def vacant_spans(self, horizon_start: float, horizon_end: float) -> list[tuple[float, float]]:
        """Vacant ``(start, end)`` gaps inside ``[horizon_start, horizon_end)``.

        Busy intervals outside the horizon are clipped; zero-length gaps
        are dropped.  The intervals are sorted and disjoint, so their
        ends are sorted too: the history ending at or before the horizon
        is skipped by bisection rather than walked.
        """
        if horizon_end < horizon_start:
            raise SlotListError(
                f"horizon end {horizon_end!r} precedes start {horizon_start!r}"
            )
        intervals = self._intervals
        spans: list[tuple[float, float]] = []
        cursor = horizon_start
        first = bisect.bisect_right(intervals, horizon_start, key=_end)
        for position in range(first, len(intervals)):
            interval = intervals[position]
            if interval.start >= horizon_end:
                break
            if interval.start > cursor:
                spans.append((cursor, min(interval.start, horizon_end)))
            cursor = max(cursor, interval.end)
            if cursor >= horizon_end:
                break
        if cursor < horizon_end:
            spans.append((cursor, horizon_end))
        return spans

    def busy_time(self, horizon_start: float, horizon_end: float, *, label_prefix: str | None = None) -> float:
        """Total busy time within the horizon, optionally by label prefix."""
        total = 0.0
        for interval in self._intervals:
            if label_prefix is not None and not interval.label.startswith(label_prefix):
                continue
            overlap = min(interval.end, horizon_end) - max(interval.start, horizon_start)
            if overlap > 0:
                total += overlap
        return total

    def utilization(self, horizon_start: float, horizon_end: float) -> float:
        """Busy fraction of the horizon, in ``[0, 1]``."""
        span = horizon_end - horizon_start
        if span <= 0:
            return 0.0
        return min(1.0, self.busy_time(horizon_start, horizon_end) / span)

    def clear_span(self, start: float, end: float) -> list[BusyInterval]:
        """Remove and return every interval overlapping ``[start, end)``.

        Used by outage injection: whatever occupied the span — local job
        or reservation — is evicted, and the caller decides what to do
        with the evicted work (kill local jobs, reschedule global ones).
        """
        if end <= start:
            return []
        evicted = [
            interval
            for interval in self._intervals
            if interval.start < end and start < interval.end
        ]
        self._intervals = [
            interval for interval in self._intervals if interval not in evicted
        ]
        return evicted

    def prune_before(self, time: float) -> int:
        """Drop intervals that end at or before ``time`` (history cleanup).

        Returns the number of intervals removed.  Used by long-running
        metascheduler simulations to keep schedules compact.
        """
        kept = [iv for iv in self._intervals if iv.end > time]
        removed = len(self._intervals) - len(kept)
        self._intervals = kept
        return removed
