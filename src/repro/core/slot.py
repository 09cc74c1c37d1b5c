"""Time slots and the ordered vacant-slot list.

A :class:`Slot` is the unit of the economic model: a span of time on one
resource that a local resource manager has published as available to the
metascheduler (Section 2 of the paper).  The metascheduler's view of the
whole environment at one scheduling iteration is a :class:`SlotList` — the
paper's "ordered list of available slots", kept sorted by non-decreasing
start time (Fig. 1 (a)).

The one non-trivial operation is *slot subtraction* (Fig. 1 (b)): when a
window is allocated for a job, the occupied span ``K'`` is cut out of the
containing vacant slot ``K``, which is replaced by up to two remainder
slots ``K1 = [K.start, K'.start)`` and ``K2 = [K'.end, K.end)``.
Zero-length remainders are dropped.  This guarantees that alternatives
found for different jobs never intersect in processor time.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.errors import SlotListError
from repro.core.resource import Resource

__all__ = ["Slot", "SlotList"]


@dataclass(frozen=True, slots=True)
class Slot:
    """A vacant time span on one resource.

    Mirrors the paper's ``Slot`` class (Section 3): the resource on which
    the slot is allocated, a usage cost per time unit, and the start/end
    times.  ``price`` defaults to the resource's own price but may be
    overridden, e.g. for time-of-day pricing experiments.

    Attributes:
        resource: The node publishing this vacant span.
        start: Start time of the span (inclusive).
        end: End time of the span (exclusive).
        price: Usage cost per time unit for this particular span.
    """

    resource: Resource
    start: float
    end: float
    price: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SlotListError(
                f"slot on {self.resource.name!r}: end {self.end!r} precedes start {self.start!r}"
            )
        if self.price == -1.0:
            object.__setattr__(self, "price", self.resource.price)
        elif self.price < 0:
            raise SlotListError(f"slot price must be non-negative, got {self.price!r}")

    @property
    def length(self) -> float:
        """Time span of the slot (the paper's ``length`` field)."""
        return self.end - self.start

    @property
    def performance(self) -> float:
        """Performance rate ``P(s)`` of the underlying resource."""
        return self.resource.performance

    def runtime_of(self, volume: float) -> float:
        """Execution time on this slot's node of a task with etalon runtime ``volume``."""
        return volume / self.resource.performance

    def cost_of(self, volume: float) -> float:
        """Cost of running a task with etalon runtime ``volume`` in this slot."""
        return self.price * self.runtime_of(volume)

    def remaining_from(self, time: float) -> float:
        """Length of the slot still available at (and after) ``time``.

        Used by the expiry rule of ALP step 3°: once the tentative window
        start ``T_last`` advances past a slot, only ``end - T_last`` of it
        remains usable.
        """
        return self.end - max(self.start, time)

    def contains_span(self, start: float, end: float) -> bool:
        """Whether ``[start, end)`` lies entirely inside this slot."""
        return self.start <= start and end <= self.end

    def overlaps(self, other: "Slot") -> bool:
        """Whether this slot shares processor time with ``other``.

        Two slots overlap only if they live on the same resource and their
        half-open spans intersect with positive measure.
        """
        if self.resource != other.resource:
            return False
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Slot({self.resource.name}, [{self.start:g}, {self.end:g}), "
            f"price={self.price:g})"
        )


_new = object.__new__
_set_field = object.__setattr__


def _carve_slot(resource: Resource, start: float, end: float, price: float) -> Slot:
    """A :class:`Slot` without the dataclass ``__init__``.

    The trusted constructor for spans whose invariants already hold —
    a non-empty span and a validated price, such as a slot-index row or
    a vacant span of a node schedule — so hot paths skip the
    frozen-dataclass machinery and its re-validation.
    """
    slot = _new(Slot)
    _set_field(slot, "resource", resource)
    _set_field(slot, "start", start)
    _set_field(slot, "end", end)
    _set_field(slot, "price", price)
    return slot


def _sort_key(slot: Slot) -> tuple[float, float, int]:
    """Total order used by :class:`SlotList`.

    Primary key is the start time (the paper's only requirement); end time
    and resource uid break ties deterministically so that runs are
    reproducible regardless of insertion history.
    """
    return (slot.start, slot.end, slot.resource.uid)


class SlotList:
    """The ordered list of available slots (paper Fig. 1 (a)).

    The list is kept sorted by non-decreasing start time at all times.  It
    supports the operations the scheduling scheme needs:

    * ordered iteration (the forward scan of ALP/AMP),
    * insertion keeping order (``O(log m)`` search + ``O(m)`` shift),
    * the paper's *slot subtraction* of an allocated window span,
    * cheap copying, so alternative searches for different algorithms can
      run on identical snapshots of the environment.

    The container is intentionally list-backed rather than tree-backed:
    the search algorithms are linear scans, and ``m`` is a few hundred in
    every experiment of the paper, so locality beats asymptotics.
    """

    __slots__ = ("_slots",)

    def __init__(self, slots: Iterable[Slot] = ()) -> None:
        self._slots: list[Slot] = sorted(slots, key=_sort_key)

    # ------------------------------------------------------------------ #
    # Container protocol                                                 #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Slot]:
        return iter(self._slots)

    def __getitem__(self, index: int) -> Slot:
        return self._slots[index]

    def __contains__(self, slot: Slot) -> bool:
        index = bisect.bisect_left(self._slots, _sort_key(slot), key=_sort_key)
        while index < len(self._slots) and _sort_key(self._slots[index]) == _sort_key(slot):
            if self._slots[index] == slot:
                return True
            index += 1
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotList):
            return NotImplemented
        return self._slots == other._slots

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlotList({len(self._slots)} slots)"

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #

    def insert(self, slot: Slot) -> None:
        """Insert ``slot`` keeping the list ordered by start time.

        Zero-length slots are silently dropped, matching the paper's rule
        "if slots K1 and K2 have a zero time span, it is not necessary to
        add them to the list".
        """
        if slot.length <= 0:
            return
        bisect.insort(self._slots, slot, key=_sort_key)

    def extend(self, slots: Iterable[Slot]) -> None:
        """Insert every slot of ``slots`` (order preserved by sorting)."""
        for slot in slots:
            self.insert(slot)

    def remove(self, slot: Slot) -> None:
        """Remove one occurrence of ``slot``.

        Raises:
            SlotListError: If the slot is not present.
        """
        index = bisect.bisect_left(self._slots, _sort_key(slot), key=_sort_key)
        while index < len(self._slots) and self._slots[index].start == slot.start:
            if self._slots[index] == slot:
                del self._slots[index]
                return
            index += 1
        raise SlotListError(f"slot {slot!r} not present in list")

    def subtract(self, resource: Resource, start: float, end: float) -> Slot:
        """Cut the span ``[start, end)`` on ``resource`` out of the list.

        Implements the paper's slot subtraction (Fig. 1 (b)): find the
        vacant slot ``K`` that contains the allocated span ``K'``, remove
        it, and insert the non-empty remainders ``K1`` and ``K2``.

        Returns:
            The containing slot ``K`` that was removed.

        Raises:
            SlotListError: If the span is empty or negative
                (``end <= start``) — subtracting nothing must not carve
                a containing slot into fragments — or if no vacant slot
                on ``resource`` fully contains ``[start, end)``.
        """
        if end <= start:
            raise SlotListError(
                f"cannot subtract empty or negative span [{start!r}, {end!r})"
            )
        for index, candidate in enumerate(self._slots):
            if candidate.start > start:
                break
            if candidate.resource == resource and candidate.contains_span(start, end):
                del self._slots[index]
                self.insert(Slot(candidate.resource, candidate.start, start, candidate.price))
                self.insert(Slot(candidate.resource, end, candidate.end, candidate.price))
                return candidate
        raise SlotListError(
            f"no vacant slot on {resource.name!r} contains span [{start:g}, {end:g})"
        )

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def copy(self) -> "SlotList":
        """Return an independent copy (slots themselves are immutable)."""
        clone = SlotList.__new__(SlotList)
        clone._slots = list(self._slots)
        return clone

    def slots_on(self, resource: Resource) -> list[Slot]:
        """All vacant slots on ``resource``, in start order."""
        return [slot for slot in self._slots if slot.resource == resource]

    def resources(self) -> list[Resource]:
        """Distinct resources appearing in the list, in first-seen order."""
        seen: dict[int, Resource] = {}
        for slot in self._slots:
            seen.setdefault(slot.resource.uid, slot.resource)
        return list(seen.values())

    def total_vacant_time(self) -> float:
        """Sum of the lengths of all vacant slots."""
        return sum(slot.length for slot in self._slots)

    def horizon(self) -> tuple[float, float]:
        """``(earliest start, latest end)`` over all slots.

        Raises:
            SlotListError: If the list is empty.
        """
        if not self._slots:
            raise SlotListError("horizon of an empty slot list is undefined")
        return (self._slots[0].start, max(slot.end for slot in self._slots))

    def is_sorted(self) -> bool:
        """Invariant check: starts are non-decreasing (used by tests)."""
        starts = [slot.start for slot in self._slots]
        return all(a <= b for a, b in zip(starts, starts[1:]))

    def check_no_overlap(self) -> bool:
        """Invariant check: no two slots share processor time.

        Quadratic; intended for tests and debugging, not hot paths.
        """
        by_resource: dict[int, list[Slot]] = {}
        for slot in self._slots:
            by_resource.setdefault(slot.resource.uid, []).append(slot)
        for group in by_resource.values():
            group.sort(key=lambda s: s.start)
            for left, right in zip(group, group[1:]):
                if left.end > right.start:
                    return False
        return True
