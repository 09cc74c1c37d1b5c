"""Array-backed column storage for sorted slot rows (ROADMAP item 3).

:class:`ColumnStore` keeps the primitive fields of an ordered
vacant-slot list — start, end, resource uid, performance, price — in
parallel ``array('d')`` / ``array('q')`` columns instead of a list of
python tuples, sorted by ``(start, end, uid)`` once when it is built.
It is never mutated afterwards: the request-*static* feasibility
predicates — minimum performance, ALP's per-slot price cap, and the
slot-length test ``end - start >= runtime`` — are evaluated as one
vectorized mask over the raw float buffers (numpy reads the ``array``
memory directly through the buffer protocol, no copies), so a
survivor-memo build is a handful of C loops instead of a python-level
predicate per row.

**Bit-exactness.**  The vectorized mask computes ``volume / performance``
and ``end - start`` as IEEE-754 double operations — elementwise
identical to the scalar expressions of the reference finders — and the
comparisons are exact predicates, so both the survivor *set* and each
survivor's ``runtime`` are bit-for-bit the same whether the mask or the
scalar kernel produced them (``tests/test_columns.py`` checks the two
against each other; the differential oracles in
``tests/test_reference_oracles.py`` pin the full search).  numpy is a
runtime dependency: the mask builds every memo, and the scalar kernel is
its executable spec, inlined by the memo replay of
:meth:`~repro.core.index.SlotIndex.commit` ops.

The kernels here back the survivor memos of
:class:`~repro.core.index.SlotIndex`, the phase-1 fast path.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Iterable

import numpy as _np

__all__ = ["Row", "SurvivorRow", "ColumnStore", "static_survivor", "expiry_bound"]

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
    incremental memo replay of the index inlines this form because it
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

    Rows are sorted by ``(start, end, uid)`` — the scan order of every
    finder — when the store is built, and never change afterwards.  The
    store holds no ``Slot`` objects;
    :class:`~repro.core.index.SlotIndex` rebuilds value-equal slots
    from rows and its ``uid → Resource`` map where it needs them.
    """

    __slots__ = ("starts", "ends", "uids", "perfs", "prices")

    def __init__(self, rows: Iterable[Row] = ()) -> None:
        ordered = sorted(rows, key=_row_key)
        starts, ends, uids, perfs, prices = zip(*ordered) if ordered else ((),) * 5
        self.starts = array("d", starts)
        self.ends = array("d", ends)
        self.uids = array("q", uids)
        self.perfs = array("d", perfs)
        self.prices = array("d", prices)

    def __len__(self) -> int:
        return len(self.starts)

    # ------------------------------------------------------------------ #
    # Vectorized predicates                                              #
    # ------------------------------------------------------------------ #

    def survivors(
        self,
        volume: float,
        min_performance: float,
        max_price: float | None,
        min_end: float = float("-inf"),
    ) -> list[SurvivorRow]:
        """Rows passing the static predicates, as :data:`SurvivorRow`
        tuples in scan order.

        The mask is evaluated vectorized over zero-copy buffer views of
        the columns; the result is bit-identical to mapping
        :func:`static_survivor` over every row.

        ``min_end`` additionally drops rows with ``end <= min_end`` —
        an exact comparison, so the result equals the unfiltered
        survivor set minus those rows.  Callers rebuilding a survivor
        memo for a scan at a monotone start hint use it to skip
        attaching entries the scan would immediately discard as
        hint-dead.
        """
        if not len(self.starts):
            return []
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
        return list(
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
