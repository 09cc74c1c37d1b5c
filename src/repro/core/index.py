"""Per-search slot index — the fast phase-1 search path.

:class:`SlotIndex` keeps two views of the ordered vacant-slot list.

* **Build-time columns.**  The list the index was built from, as
  parallel primitive columns (start, end, resource uid, performance,
  price in ``array('d')``/``array('q')`` storage —
  :class:`~repro.core.columns.ColumnStore`).  They never change after
  the build and feed only the vectorized first build of each survivor
  memo.
* **The live-row map.**  ``(start, end, uid) → price`` for every row
  that is vacant now.  :meth:`commit` is the index's only mutation: it
  checks each source slot against the map, swaps the source key for
  the carved remainders — a few dict operations per allocation — and
  appends one op per allocation to the commit journal.

The index holds no ``Slot`` objects at all: it keeps the only
``uid → Resource`` map and reconstructs value-equal ``Slot`` objects
exactly where one leaves the index — a found window's source slots and
:meth:`slot_list` — so the hot scan and commit paths touch nothing but
primitive tuples.  The index is built once per alternative search.

On top of the columns the index memoizes the request-*static* part of
the scan predicates: for each ``(volume, min_performance, max_price)``
key the surviving rows — with their precomputed runtimes — are built
once by a vectorized mask over the build-time columns
(:meth:`ColumnStore.survivors`) and brought up to date by replaying the
commit journal from its first op, so the repeated passes of one
alternative search only re-apply the cheap dynamic start-hint predicate
over the pre-filtered survivors (the static predicates are the kernels
of :mod:`repro.core.columns`).

The finders here are drop-in equivalents of :func:`repro.core.alp.find_window`
and :func:`repro.core.amp.find_window`: they perform the same suitability
tests, the same candidate-expiry filter, and the same budget summation in
the same float-operation order, so the produced windows are bit-for-bit
identical to the reference scans (``tests/test_reference_oracles.py``
enforces this differentially, ``tests/test_properties.py`` checks the
model invariants).  Hoisting the static predicates out of the scan loop
is order-safe because every skip condition is a pure per-row predicate.

Two assumptions, both guaranteed by the paper's model and checked by the
test suite, let the index go beyond the reference implementation:

* **No same-resource overlap.**  Vacant slots of one resource never share
  processor time (``SlotList.check_no_overlap``), so ``(start, end,
  uid)`` names a row uniquely and the slot containing an allocated span
  is found by one map lookup.
* **Monotone window starts.**  :meth:`commit` only removes vacant time,
  so for a fixed request the earliest feasible window start never moves
  backwards across the passes of one alternative search.  The optional
  ``start_hint`` (the event time of the previous window found for the
  same request on a superset of this list) lets the scan skip candidates
  that cannot survive to any feasible event, and — for AMP — skip the
  cheapest-subset budget checks at events that are provably infeasible.

Vacant time never comes back into an index.  Revocations and outages
return or remove time in the node schedules, and the next search
re-publishes it through
:meth:`~repro.grid.environment.VOEnvironment.vacant_slot_list` into a
fresh index, so a hint never outlives the list it was found on.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Iterator

from repro.core.columns import ColumnStore, Row, SurvivorRow, expiry_bound
from repro.core.errors import SlotListError
from repro.core.job import ResourceRequest
from repro.core.resource import Resource
from repro.core.slot import Slot, SlotList, _carve_slot
from repro.core.window import Window, carved_allocation

__all__ = ["SlotIndex"]

NEG_INF = float("-inf")
INF = float("inf")

# Memoized survivor layout: a plain repro.core.columns.SurvivorRow —
# ``(start, end, uid, performance, price, runtime)``.  The leading
# triple is exactly ``SlotList``'s sort key, so memo order and scan
# order coincide with the reference list; no ``Slot`` is attached, so a
# vectorized rebuild is a single C-level ``zip`` over the column
# buffers and the scans append the memo tuples themselves as
# candidates instead of building per-row wrappers.

#: Entries a scan must have skipped as hint-dead before a find bothers
#: rewriting its memo; below this the list-copy costs more than the
#: skips it saves.
_COMPACT_MIN_DEAD = 32

#: One committed allocation: the ``(start, end, uid)`` key of the
#: removed source row, its performance and price — so replay can decide
#: by the static predicates alone whether a memo could even contain the
#: row, skipping the bisect probe for the (common) ops that touch rows
#: outside the memo's survivor set — plus the replacement rows carved
#: from it.
_IndexOp = tuple[tuple[float, float, int], float, float, list[Row]]


class _Memo:
    """One survivor memo plus its compaction floor and journal cursor.

    ``entries`` are the static-predicate survivors in scan order.
    They are built from the build-time columns at the first scan's
    hint, which becomes ``floor``: rows with ``end <= floor`` are left
    out because they are tier-1 dead (``end <= hint``) for that scan and,
    by hint monotonicity, for every later one.  Finds drop further
    entries that fell behind the hint and raise ``floor`` to match.  A
    later scan with a smaller hint (a second job sharing the request
    key) would need those entries back, so it rebuilds the memo.

    ``synced`` is the index into the owning :class:`SlotIndex`'s
    commit journal up to which this memo is current; a build starts at
    op 0.  Commits do not touch memos eagerly — each memo replays its
    pending journal tail on next access — so memos of requests that
    finished searching cost nothing while other requests commit.
    """

    __slots__ = ("entries", "floor", "synced")

    def __init__(self, entries: list[SurvivorRow], floor: float) -> None:
        self.entries = entries
        self.floor = floor
        self.synced = 0


class SlotIndex:
    """Sorted view of a vacant-slot list, built once per search.

    The ``last_*`` attributes describe the most recent
    :meth:`find_alp_window`/:meth:`find_amp_window_at` call and are
    recorded on every find, so the search loop can report scan work
    without a second pass.  Entries a compaction or a memo rebuild at
    the hint already removed are not visited and not counted, so
    ``last_hint_skips + last_runtime_skips <= last_scanned`` always.

    Attributes:
        last_scanned: Survivor-memo entries the scan visited, skipped
            ones included.
        last_hint_skips: Visited entries skipped by the tier-1
            start-hint prune (``end <= start_hint``: the row cannot
            survive to any event at or past the hint).
        last_runtime_skips: Visited entries skipped by the tier-2
            prune (``end - start_hint < runtime``: the row outlives the
            hint but cannot fit the runtime from there).
    """

    __slots__ = (
        "_columns", "_live", "_resources", "_memos", "_ops",
        "last_scanned", "last_hint_skips", "last_runtime_skips",
    )

    def __init__(self, slots: Iterable[Slot] = ()) -> None:
        materialized = list(slots)
        # The only uid → Resource map; the rows hold primitive tuples.
        self._resources: dict[int, Resource] = {
            slot.resource.uid: slot.resource for slot in materialized
        }
        # The list as built; never mutated, read by memo builds only.
        columns = self._columns = ColumnStore(
            (slot.start, slot.end, slot.resource.uid, slot.resource.performance, slot.price)
            for slot in materialized
        )
        # (start, end, uid) → price of every row vacant now; the state
        # commit checks and updates.  Zipped from the columns at C level.
        self._live: dict[tuple[float, float, int], float] = dict(
            zip(zip(columns.starts, columns.ends, columns.uids), columns.prices)
        )
        # (volume, min_performance, max_price) → rows surviving the
        # static predicates, in scan order.  Built vectorized from the
        # columns on first use, then kept current lazily: each commit
        # appends one op per allocation to the journal and a memo
        # replays its pending tail on next access; the dynamic
        # start-hint predicate is applied per scan.
        self._memos: dict[tuple[float, float, float | None], _Memo] = {}
        self._ops: list[_IndexOp] = []
        self.last_scanned = 0
        self.last_hint_skips = 0
        self.last_runtime_skips = 0

    # ------------------------------------------------------------------ #
    # Container protocol                                                 #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self) -> Iterator[Slot]:
        return iter(self._materialize())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlotIndex({len(self._live)} slots)"

    def _slot_of(self, entry: "SurvivorRow | Row") -> Slot:
        """Value-equal :class:`Slot` for one row/survivor tuple."""
        return _carve_slot(self._resources[entry[2]], entry[0], entry[1], entry[4])

    def _materialize(self) -> list[Slot]:
        """The live rows as slots, in ``(start, end, uid)`` order."""
        resources = self._resources
        return [
            _carve_slot(resources[uid], start, end, price)
            for (start, end, uid), price in sorted(self._live.items())
        ]

    def slot_list(self) -> SlotList:
        """Materialise the current state as a plain :class:`SlotList`.

        The returned slots are value-equal reconstructions from the
        rows (the index keeps no ``Slot`` objects).
        """
        return SlotList(self._materialize())

    # ------------------------------------------------------------------ #
    # Survivor memos                                                     #
    # ------------------------------------------------------------------ #

    def _survivors(
        self,
        volume: float,
        min_performance: float,
        max_price: float | None,
        hint: float = NEG_INF,
    ) -> _Memo:
        """The static-predicate survivor memo for one request key.

        ``hint`` is the caller's start hint.  A new memo, or one
        compacted past ``hint``, is built vectorized from the build-time
        columns with ``hint`` as its floor and then replays the whole
        journal.  Replaying the pending ops produces exactly the entry
        set eager maintenance would have (same scalar kernel, same
        insertion order), less the replacement rows that are already
        dead at the floor.
        """
        key = (volume, min_performance, max_price)
        memo = self._memos.get(key)
        if memo is None or hint < memo.floor:
            # Rows with ``end <= hint`` are tier-1 dead for this and (by
            # hint monotonicity) every future scan of this memo, so the
            # mask drops them and ``hint`` becomes the floor.
            memo = self._memos[key] = _Memo(
                self._columns.survivors(volume, min_performance, max_price, hint),
                hint,
            )
        ops = self._ops
        total_ops = len(ops)
        if memo.synced != total_ops:
            entries = memo.entries
            floor = memo.floor
            for op_key, op_performance, op_price, replacements in ops[memo.synced:]:
                # Probes and insertions compare the entry tuples
                # directly — the leading (start, end, uid) triple is
                # unique per row, so plain C tuple comparison decides
                # on the triple, and the 3-tuple op key sorts
                # immediately before its full entry.  A removed row
                # that fails the memo's static predicates cannot be
                # among the entries (they are exactly the static
                # survivors), so the probe is skipped outright.
                if (
                    op_performance >= min_performance
                    and (max_price is None or op_price <= max_price)
                    and op_key[1] - op_key[0] >= volume / op_performance
                ):
                    position = bisect_left(entries, op_key)
                    if position < len(entries):
                        entry = entries[position]
                        if (
                            entry[0] == op_key[0]
                            and entry[1] == op_key[1]
                            and entry[2] == op_key[2]
                        ):
                            del entries[position]
                for start, end, uid, performance, price in replacements:
                    # The build mask's floor test, then the inlined
                    # scalar static_survivor kernel (same float ops,
                    # same order as the vectorized mask).
                    if end <= floor or performance < min_performance:
                        continue
                    if max_price is not None and price > max_price:
                        continue
                    runtime = volume / performance
                    if end - start < runtime:
                        continue
                    insort(
                        entries,
                        (
                            start,
                            end,
                            uid,
                            performance,
                            price,
                            runtime,
                            expiry_bound(end, runtime),
                        ),
                    )
            memo.synced = total_ops
        return memo

    def _finish_scan(
        self, memo: _Memo, hint: float, scanned: int, dead: int, short: int
    ) -> None:
        """Record a find's scan counts and drop the hint-dead entries it skipped.

        ``dead`` of the first ``scanned`` entries failed ``end > hint``;
        by hint monotonicity they fail every future scan of this memo
        too (a smaller hint forces a rebuild via ``floor``), so the scan
        rewrites its prefix without them once the copy pays for itself.
        """
        self.last_scanned = scanned
        self.last_hint_skips = dead
        self.last_runtime_skips = short
        if dead >= _COMPACT_MIN_DEAD and dead * 2 >= scanned:
            entries = memo.entries
            entries[:scanned] = [
                entry for entry in entries[:scanned] if entry[1] > hint
            ]
            if hint > memo.floor:
                memo.floor = hint

    # ------------------------------------------------------------------ #
    # Window search                                                      #
    # ------------------------------------------------------------------ #

    def find_alp_window(
        self,
        request: ResourceRequest,
        *,
        check_price: bool = True,
        start_hint: float = NEG_INF,
    ) -> Window | None:
        """ALP forward scan over the index (paper steps 1°-5°).

        Equivalent to :func:`repro.core.alp.find_window` on the same slot
        list.  ``start_hint`` may be set to the start of a window
        previously found for the *same request* on a superset of this
        list; candidates that cannot survive to any event at or past the
        hint are skipped (the result is unchanged by monotonicity).
        """
        node_count = request.node_count
        max_price = request.max_price if check_price else None
        memo = self._survivors(
            request.volume, request.min_performance, max_price, start_hint
        )
        survivors = memo.entries
        window_start = NEG_INF
        dead = short = 0
        # Candidates are the memo tuples themselves, in scan insertion
        # order — the same order ForwardScan.candidates holds; a slot
        # is only materialised for the accepted window.  ``min_bound``
        # is the smallest per-candidate expiry bound
        # (:func:`~repro.core.columns.expiry_bound`): events below it
        # provably expire nobody, so the per-event filter — whose exact
        # ``end - start >= runtime`` comparisons are unchanged when it
        # does run — is skipped there.
        candidates: list[SurvivorRow] = []
        min_bound = INF
        for scanned, entry in enumerate(survivors, 1):
            end = entry[1]
            if end <= start_hint:  # cannot survive to any event >= hint
                dead += 1
                continue
            runtime = entry[5]
            if end - start_hint < runtime:
                short += 1
                continue
            start = entry[0]
            if start > window_start:
                window_start = start
                if start >= min_bound:
                    alive: list[SurvivorRow] = []
                    min_bound = INF
                    for c in candidates:
                        if c[1] - start >= c[5]:
                            alive.append(c)
                            if c[6] < min_bound:
                                min_bound = c[6]
                    candidates = alive
            candidates.append(entry)
            if entry[6] < min_bound:
                min_bound = entry[6]
            if len(candidates) == node_count:
                allocations = [
                    carved_allocation(
                        self._slot_of(c), window_start, window_start + c[5]
                    )
                    for c in candidates
                ]
                self._finish_scan(memo, start_hint, scanned, dead, short)
                return Window.from_scan(request, allocations)
        self._finish_scan(memo, start_hint, len(survivors), dead, short)
        return None

    def find_amp_window(
        self,
        request: ResourceRequest,
        *,
        budget: float | None = None,
        start_hint: float = NEG_INF,
    ) -> Window | None:
        """AMP forward scan over the index (paper steps 1°-4°).

        Equivalent to :func:`repro.core.amp.find_window`; see
        :meth:`find_alp_window` for the ``start_hint`` contract (for AMP
        the hint must be the *event time* at which the previous window
        was accepted, as returned by :meth:`find_amp_window_at`).
        """
        found = self.find_amp_window_at(request, budget=budget, start_hint=start_hint)
        return None if found is None else found[0]

    def find_amp_window_at(
        self,
        request: ResourceRequest,
        *,
        budget: float | None = None,
        start_hint: float = NEG_INF,
    ) -> tuple[Window, float] | None:
        """Like :meth:`find_amp_window` but also returns the accepting
        event time (the scan position ``T_last``, which may be later than
        the window's own start when the cheapest subset excludes the
        newest candidate).  The event time is the correct ``start_hint``
        for the next AMP search of the same request.
        """
        if budget is None:
            budget = request.budget
        node_count = request.node_count
        memo = self._survivors(
            request.volume, request.min_performance, None, start_hint
        )
        survivors = memo.entries
        window_start = NEG_INF
        dead = short = 0
        # Candidates are the memo tuples in insertion order, plus the
        # same candidates ranked by (cost, uid) — AMP step 2°'s ordering —
        # maintained by insertion/removal instead of per-event sorting.
        # ``cheapest_total`` caches the cost of the first ``node_count``
        # ranked entries; it is invalidated only when an insertion or an
        # expiry touches that prefix, so unchanged events skip the
        # re-summation entirely (the cached value was produced by the
        # identical float-addition sequence, keeping results bit-exact).
        candidates: list[SurvivorRow] = []
        ranked: list[tuple[float, int, float, SurvivorRow]] = []
        cheapest_total: float | None = None
        min_bound = INF
        for scanned, entry in enumerate(survivors, 1):
            end = entry[1]
            if end <= start_hint:
                dead += 1
                continue
            runtime = entry[5]
            if end - start_hint < runtime:
                short += 1
                continue
            start = entry[0]
            if start > window_start:
                window_start = start
                # Events below ``min_bound`` provably expire nobody
                # (see find_alp_window); otherwise run the exact expiry
                # filter, unranking expired candidates in insertion
                # order.  ``c[4] * c[5]`` re-produces a candidate's
                # cost bit-for-bit (same two operands, same multiply).
                if start >= min_bound:
                    alive: list[SurvivorRow] = []
                    min_bound = INF
                    for c in candidates:
                        if c[1] - start >= c[5]:
                            alive.append(c)
                            if c[6] < min_bound:
                                min_bound = c[6]
                        elif _remove_ranked(ranked, c[4] * c[5], c[2]) < node_count:
                            cheapest_total = None
                    candidates = alive
            uid = entry[2]
            cost = entry[4] * runtime
            candidates.append(entry)
            if entry[6] < min_bound:
                min_bound = entry[6]
            position = bisect_left(ranked, (cost, uid))
            ranked.insert(position, (cost, uid, runtime, entry))
            if position < node_count:
                cheapest_total = None
            if len(candidates) < node_count or start < start_hint:
                continue
            if cheapest_total is None:
                total = 0.0
                for k in range(node_count):
                    total += ranked[k][0]
                cheapest_total = total
            if cheapest_total <= budget:
                chosen = ranked[:node_count]
                sync = max(item[3][0] for item in chosen)
                allocations = [
                    carved_allocation(self._slot_of(item[3]), sync, sync + item[2])
                    for item in chosen
                ]
                self._finish_scan(memo, start_hint, scanned, dead, short)
                return Window.from_scan(request, allocations), start
        self._finish_scan(memo, start_hint, len(survivors), dead, short)
        return None

    # ------------------------------------------------------------------ #
    # Commit                                                             #
    # ------------------------------------------------------------------ #

    def commit(self, window: Window) -> None:
        """Subtract the window's occupied spans (paper Fig. 1 (b)).

        Each allocation remembers the vacant slot it was carved from,
        matched by value — ``(start, end, uid)`` key plus price —
        against the live-row map instead of the linear rescan of
        :meth:`SlotList.subtract`.  The source key is swapped for its
        carved remainders in the map and one op is appended to the
        journal the memos replay; the build-time columns are not
        touched.

        Raises:
            SlotListError: If some source slot is no longer in the index.
        """
        live = self._live
        ops = self._ops
        for allocation in window.allocations:
            source = allocation.source
            resource = source.resource
            uid = resource.uid
            price = source.price
            key = (source.start, source.end, uid)
            if live.get(key) != price:
                raise SlotListError(
                    f"no vacant slot on {resource.name!r} contains span "
                    f"[{allocation.start:g}, {allocation.end:g})"
                )
            del live[key]
            performance = resource.performance
            replacements: list[Row] = []
            if allocation.start > source.start:
                live[source.start, allocation.start, uid] = price
                replacements.append(
                    (source.start, allocation.start, uid, performance, price)
                )
            if source.end > allocation.end:
                live[allocation.end, source.end, uid] = price
                replacements.append(
                    (allocation.end, source.end, uid, performance, price)
                )
            ops.append((key, performance, price, replacements))


def _remove_ranked(
    ranked: list[tuple[float, int, float, SurvivorRow]], cost: float, uid: int
) -> int:
    """Drop the ``(cost, uid)`` entry from the ranked list; return its position."""
    position = bisect_left(ranked, (cost, uid))
    while position < len(ranked):
        entry = ranked[position]
        if entry[0] == cost and entry[1] == uid:
            del ranked[position]
            return position
        position += 1
    raise SlotListError(f"ranked candidate (cost={cost!r}, uid={uid!r}) missing")
