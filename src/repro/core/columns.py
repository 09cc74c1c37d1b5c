"""Array-backed column storage for sorted slot rows (ROADMAP item 3).

:class:`ColumnStore` keeps the primitive fields of the ordered
vacant-slot list — start, end, resource uid, performance, price — in
parallel ``array('d')`` / ``array('q')`` columns instead of a list of
python tuples.  Two things fall out of that layout:

* the request-*static* feasibility predicates — minimum performance,
  ALP's per-slot price cap, and the slot-length test
  ``end - start >= runtime`` — can be evaluated as one vectorized mask
  over the raw float buffers (numpy reads the ``array`` memory directly
  through the buffer protocol, no copies), so a survivor-memo build is
  a handful of C loops instead of a python-level predicate per row;
* mutation stays cheap: inserting or deleting a row is a small
  ``memmove`` per column instead of shifting ``PyObject`` pointers, and
  the sorted-by-``(start, end, uid)`` invariant is maintained by
  bisection exactly as before.

**Bit-exactness.**  The vectorized mask computes ``volume / performance``
and ``end - start`` as IEEE-754 double operations — elementwise
identical to the scalar expressions of the reference finders — and the
comparisons are exact predicates, so both the survivor *set* and each
survivor's ``runtime`` are bit-for-bit the same whether the mask or the
scalar kernel produced them (``tests/test_columns.py`` checks the two
against each other; the differential oracles in
``tests/test_reference_oracles.py`` pin the full search).  When numpy is
unavailable the scalar kernel *is* the implementation, not just the
spec.

The kernels here back the survivor memos of
:class:`~repro.core.index.SlotIndex`, the phase-1 fast path.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable

__all__ = ["Row", "SurvivorRow", "ColumnStore", "static_survivor", "expiry_bound"]

try:  # numpy is a hard dependency of phase 2 (repro.core.optimize), but
    # the phase-1 column path degrades gracefully to the scalar kernel.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None  # type: ignore[assignment]

#: Primitive row layout shared by every fast path:
#: ``(start, end, resource uid, performance, price)``.  The leading
#: triple is exactly ``SlotList``'s sort key, so row order and scan
#: order coincide with the reference list.
Row = tuple[float, float, int, float, float]

#: A row that passed the static predicates, extended with the
#: precomputed ``runtime = volume / performance`` as a sixth field so
#: every consumer uses the same float, and the conservative candidate
#: expiry bound of :func:`expiry_bound` as a seventh.
SurvivorRow = tuple[float, float, int, float, float, float, float]

_row_key = itemgetter(0, 1, 2)


def expiry_bound(end, runtime):
    """Safe lower bound on the scan events a candidate row survives.

    A candidate expires at event ``s`` when ``end - s < runtime`` — an
    IEEE-754 comparison the finders must reproduce exactly.  This bound
    under-approximates the expiry threshold by a relative margin many
    orders of magnitude wider than the subtraction's rounding error
    (``1e-9`` of the operand magnitudes versus ~``2e-16``), so for any
    event ``s < expiry_bound(end, runtime)`` *no* rounding outcome of
    ``end - s < runtime`` can be true: scans may skip the per-event
    expiry filter below the smallest bound among their candidates
    without changing a single comparison result.  Works elementwise on
    numpy arrays with the identical operation order, so vectorized and
    scalar survivor rows carry bit-equal bounds.
    """
    return (end - runtime) - 1e-9 * ((end + runtime) + 1.0)


def static_survivor(
    row: Row, volume: float, min_performance: float, max_price: float | None
) -> SurvivorRow | None:
    """Apply the request-*static* scan predicates to one row.

    Mirrors the suitability tests of the reference finders that do not
    depend on the start hint: minimum performance, the ALP per-slot
    price cap, and the slot-length test ``end - start >= runtime``.
    Returns the row extended with its runtime, or ``None`` if filtered.

    This scalar kernel and the vectorized mask of
    :meth:`ColumnStore.survivors` are interchangeable bit-for-bit; the
    incremental memo maintenance of the index uses this form because it
    touches one row at a time.
    """
    performance = row[3]
    if performance < min_performance:
        return None
    if max_price is not None and row[4] > max_price:
        return None
    runtime = volume / performance
    if row[1] - row[0] < runtime:
        return None
    return (
        row[0],
        row[1],
        row[2],
        performance,
        row[4],
        runtime,
        expiry_bound(row[1], runtime),
    )


class ColumnStore:
    """Parallel primitive columns of a sorted slot-row table.

    Rows are kept sorted by ``(start, end, uid)`` — the scan order of
    every finder.  The store holds no ``Slot`` objects; callers that
    need them (:class:`~repro.core.index.SlotIndex`) keep a parallel
    list aligned with the row positions this class reports.
    """

    __slots__ = ("starts", "ends", "uids", "perfs", "prices", "_uid_counts")

    def __init__(self, rows: Iterable[Row] = ()) -> None:
        ordered = sorted(rows, key=_row_key)
        self.starts = array("d", (row[0] for row in ordered))
        self.ends = array("d", (row[1] for row in ordered))
        self.uids = array("q", (row[2] for row in ordered))
        self.perfs = array("d", (row[3] for row in ordered))
        self.prices = array("d", (row[4] for row in ordered))
        counts: dict[int, int] = {}
        for uid in self.uids:
            counts[uid] = counts.get(uid, 0) + 1
        self._uid_counts = counts

    # ------------------------------------------------------------------ #
    # Row access                                                         #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.starts)

    def row_at(self, position: int) -> Row:
        """The primitive row at ``position``."""
        return (
            self.starts[position],
            self.ends[position],
            self.uids[position],
            self.perfs[position],
            self.prices[position],
        )

    def key_at(self, position: int) -> tuple[float, float, int]:
        """The sort key ``(start, end, uid)`` of the row at ``position``."""
        return (self.starts[position], self.ends[position], self.uids[position])

    def rows(self) -> list[Row]:
        """All rows in scan order (materialised tuples)."""
        return [self.row_at(position) for position in range(len(self.starts))]

    def uid_present(self, uid: int) -> bool:
        """Whether any row of resource ``uid`` is in the table."""
        return uid in self._uid_counts

    # ------------------------------------------------------------------ #
    # Ordered mutation                                                   #
    # ------------------------------------------------------------------ #

    def bisect_key(self, key: tuple[float, float, int]) -> int:
        """Leftmost position whose ``(start, end, uid)`` is >= ``key``.

        Two stages: a C-level :func:`bisect.bisect_left` on the start
        column narrows to the first row of ``key``'s start, then a short
        walk over the (rare) equal-start run refines by ``(end, uid)``.
        """
        starts = self.starts
        start, end, uid = key
        lo = bisect_left(starts, start)
        ends, uids = self.ends, self.uids
        total = len(starts)
        while lo < total and starts[lo] == start:
            row_end = ends[lo]
            if row_end > end or (row_end == end and uids[lo] >= uid):
                break
            lo += 1
        return lo

    def insert_row(self, row: Row) -> int:
        """Insert ``row`` keeping sort order; returns its position."""
        position = self.bisect_key((row[0], row[1], row[2]))
        self.starts.insert(position, row[0])
        self.ends.insert(position, row[1])
        self.uids.insert(position, row[2])
        self.perfs.insert(position, row[3])
        self.prices.insert(position, row[4])
        uid = row[2]
        self._uid_counts[uid] = self._uid_counts.get(uid, 0) + 1
        return position

    def replace_row_at(self, position: int, row: Row) -> None:
        """Overwrite the row at ``position`` in place.

        The caller guarantees the new row keeps the sort invariant at
        this position and shares the old row's uid (so the uid counts
        are unchanged) — the carve-in-place fast path of
        :meth:`~repro.core.index.SlotIndex.commit`, which shrinks a
        slot's end while keeping its start, satisfies both.
        """
        self.starts[position] = row[0]
        self.ends[position] = row[1]
        self.uids[position] = row[2]
        self.perfs[position] = row[3]
        self.prices[position] = row[4]

    def delete_at(self, position: int) -> Row:
        """Remove and return the row at ``position``."""
        row = (
            self.starts.pop(position),
            self.ends.pop(position),
            self.uids.pop(position),
            self.perfs.pop(position),
            self.prices.pop(position),
        )
        uid = row[2]
        remaining = self._uid_counts[uid] - 1
        if remaining:
            self._uid_counts[uid] = remaining
        else:
            del self._uid_counts[uid]
        return row

    def find_same_uid_overlap(
        self, start: float, end: float, uid: int
    ) -> tuple[float, float] | None:
        """Span of an existing same-``uid`` row overlapping ``[start, end)``.

        Locates the insertion neighbourhood by bisection instead of
        scanning the whole row prefix: rows starting inside
        ``[start, end)`` are checked directly, and of the rows starting
        before ``start`` only the *latest* same-uid one can reach past
        ``start`` — same-resource rows are disjoint, so every earlier
        one ends at or before that row's start — so the leftward walk
        stops at the first same-uid hit.  Returns the overlapping span
        for the caller's error message, or ``None``.
        """
        if uid not in self._uid_counts:
            return None
        starts, ends, uids = self.starts, self.ends, self.uids
        first = bisect_left(starts, start)
        position = first
        total = len(starts)
        while position < total and starts[position] < end:
            if uids[position] == uid and ends[position] > start:
                return (starts[position], ends[position])
            position += 1
        position = first - 1
        while position >= 0:
            if uids[position] == uid:
                if ends[position] > start:
                    return (starts[position], ends[position])
                return None
            position -= 1
        return None

    # ------------------------------------------------------------------ #
    # Vectorized predicates                                              #
    # ------------------------------------------------------------------ #

    def survivors(
        self,
        volume: float,
        min_performance: float,
        max_price: float | None,
        min_end: float = float("-inf"),
    ) -> tuple[list[SurvivorRow], list[int]]:
        """Rows passing the static predicates, with their positions.

        Returns ``(entries, positions)`` where ``entries`` are
        :data:`SurvivorRow` tuples in scan order and ``positions`` the
        corresponding row indices (so a caller keeping a parallel
        ``Slot`` list can attach the objects).  With numpy present the
        mask is evaluated vectorized over zero-copy buffer views of the
        columns; the result is bit-identical to mapping
        :func:`static_survivor` over every row.

        ``min_end`` additionally drops rows with ``end <= min_end`` —
        an exact comparison, so the result equals the unfiltered
        survivor set minus those rows.  Callers rebuilding a survivor
        memo for a scan at a monotone start hint use it to skip
        attaching entries the scan would immediately discard as
        hint-dead.
        """
        if _np is not None and len(self.starts):
            perfs = _np.frombuffer(self.perfs)
            mask = perfs >= min_performance
            if max_price is not None:
                mask &= _np.frombuffer(self.prices) <= max_price
            runtimes = volume / perfs
            starts = _np.frombuffer(self.starts)
            ends = _np.frombuffer(self.ends)
            mask &= (ends - starts) >= runtimes
            if min_end != float("-inf"):
                mask &= ends > min_end
            chosen = _np.flatnonzero(mask)
            positions: list[int] = chosen.tolist()
            entries: list[SurvivorRow] = list(
                zip(
                    starts[chosen].tolist(),
                    ends[chosen].tolist(),
                    _np.frombuffer(self.uids, dtype=_np.int64)[chosen].tolist(),
                    perfs[chosen].tolist(),
                    _np.frombuffer(self.prices)[chosen].tolist(),
                    runtimes[chosen].tolist(),
                    expiry_bound(ends, runtimes)[chosen].tolist(),
                )
            )
            return entries, positions
        scalar_entries: list[SurvivorRow] = []
        scalar_positions: list[int] = []
        for position in range(len(self.starts)):
            if self.ends[position] <= min_end:
                continue
            entry = static_survivor(
                self.row_at(position), volume, min_performance, max_price
            )
            if entry is not None:
                scalar_entries.append(entry)
                scalar_positions.append(position)
        return scalar_entries, scalar_positions

    def count_end_at_or_before(self, limit: float) -> int:
        """Rows whose ``end <= limit`` — the tier-1 start-hint prune count."""
        if _np is not None and len(self.ends):
            return int(_np.count_nonzero(_np.frombuffer(self.ends) <= limit))
        return sum(1 for end in self.ends if end <= limit)
