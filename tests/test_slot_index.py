"""Unit tests for the incremental slot index (repro.core.index).

The differential suite in ``test_reference_oracles.py`` proves the
indexed finders equivalent to the reference scans; these tests cover the
index's own container contract and its commit error path, which the
happy-path equivalence runs never hit.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ResourceRequest,
    Slot,
    SlotIndex,
    SlotList,
    SlotListError,
    TaskAllocation,
    Window,
)
from repro.core import alp

from tests.conftest import (
    make_random_batch,
    make_random_slot_list,
    make_uniform_slots,
)


class TestContainer:
    def test_iterates_in_slot_list_order(self):
        slots = make_random_slot_list(3)
        index = SlotIndex(slots)
        assert len(index) == len(slots)
        assert [
            (s.resource.uid, s.start, s.end) for s in index
        ] == [(s.resource.uid, s.start, s.end) for s in slots]

    def test_slot_list_round_trip(self):
        slots = make_random_slot_list(4)
        materialised = SlotIndex(slots).slot_list()
        assert isinstance(materialised, SlotList)
        assert [(s.start, s.end) for s in materialised] == [
            (s.start, s.end) for s in slots
        ]


class TestCommit:
    def test_commit_splits_source_slot(self):
        slots = make_uniform_slots(2, start=0.0, length=100.0)
        index = SlotIndex(slots)
        request = ResourceRequest(node_count=2, volume=40.0, max_price=2.0)
        window = index.find_alp_window(request)
        assert window is not None
        index.commit(window)
        # Each 100-long slot loses its leading 40-long span.
        assert [(s.start, s.end) for s in index] == [(40.0, 100.0), (40.0, 100.0)]

    def test_commit_twice_raises(self):
        slots = make_uniform_slots(1, start=0.0, length=100.0)
        index = SlotIndex(slots)
        window = index.find_alp_window(
            ResourceRequest(node_count=1, volume=40.0, max_price=2.0)
        )
        index.commit(window)
        with pytest.raises(SlotListError):
            index.commit(window)  # source slot no longer in the index

    def test_commit_leaves_build_time_columns_unchanged(self):
        index = SlotIndex(make_random_slot_list(5, count=30))
        columns = index._columns

        def rows():
            return list(
                zip(columns.starts, columns.ends, columns.uids, columns.perfs, columns.prices)
            )

        built = rows()
        request = ResourceRequest(node_count=2, volume=60.0, max_price=5.0)
        commits = 0
        while (window := index.find_alp_window(request)) is not None:
            index.commit(window)
            commits += 1
        assert commits > 1
        assert rows() == built
        assert len(index) != len(columns)

    def test_commit_source_with_other_price_raises(self):
        slots = make_uniform_slots(1, start=0.0, length=100.0)
        index = SlotIndex(slots)
        window = index.find_alp_window(
            ResourceRequest(node_count=1, volume=40.0, max_price=2.0)
        )
        (allocation,) = window.allocations
        source = allocation.source
        # Same (start, end, uid) key as the vacant row, another price.
        repriced = Window(
            window.request,
            [
                TaskAllocation(
                    Slot(source.resource, source.start, source.end, source.price + 1.0),
                    allocation.start,
                    allocation.end,
                )
            ],
        )
        with pytest.raises(SlotListError):
            index.commit(repriced)
        index.commit(window)
        assert [(s.start, s.end) for s in index] == [(40.0, 100.0)]

    def test_find_matches_reference_after_commits(self):
        """After incremental mutations, the index still agrees with a
        fresh reference scan over its materialised list."""
        index = SlotIndex(make_random_slot_list(11, count=30))
        request = ResourceRequest(node_count=2, volume=60.0, max_price=5.0)
        for _ in range(5):
            window = index.find_alp_window(request)
            if window is None:
                break
            reference = alp.find_window(index.slot_list(), request)
            assert reference is not None
            assert reference.start == window.start
            index.commit(window)


class _CountingEntries(list):
    """A survivor-memo entry list that records the entries a scan visits."""

    def __init__(self, entries):
        super().__init__(entries)
        self.seen = []

    @property
    def visited(self):
        return len(self.seen)

    def __iter__(self):
        for entry in list.__iter__(self):
            self.seen.append(entry)
            yield entry


class TestLastScanned:
    """``last_scanned`` equals the memo entries the finder's scan visited,
    and both prune counts equal the visited entries failing each tier."""

    @staticmethod
    def _counting_index(slots, monkeypatch):
        memos: list[_CountingEntries] = []
        original = SlotIndex._survivors

        def counting(self, *args, **kwargs):
            memo = original(self, *args, **kwargs)
            if not isinstance(memo.entries, _CountingEntries):
                memo.entries = _CountingEntries(memo.entries)
            memos.append(memo.entries)
            return memo

        monkeypatch.setattr(SlotIndex, "_survivors", counting)
        return SlotIndex(slots), memos

    @pytest.mark.parametrize("is_amp", [False, True], ids=["alp", "amp"])
    def test_matches_visited_entries_across_passes(self, is_amp, monkeypatch):
        finds = pruned = 0
        for seed in range(12):
            slots = make_random_slot_list(seed, count=40)
            index, memos = self._counting_index(slots, monkeypatch)
            batch = make_random_batch(seed)
            hints = {job: float("-inf") for job in batch}
            for _ in range(4):
                for job in batch:
                    memos.clear()
                    if is_amp:
                        found = index.find_amp_window_at(
                            job.request, start_hint=hints[job]
                        )
                    else:
                        window = index.find_alp_window(
                            job.request, start_hint=hints[job]
                        )
                        found = None if window is None else (window, window.start)
                    (entries,) = memos
                    hint = hints[job]
                    assert index.last_scanned == entries.visited, f"seed={seed}"
                    assert index.last_hint_skips == sum(
                        1 for entry in entries.seen if entry[1] <= hint
                    ), f"seed={seed}"
                    assert index.last_runtime_skips == sum(
                        1
                        for entry in entries.seen
                        if entry[1] > hint and entry[1] - hint < entry[5]
                    ), f"seed={seed}"
                    entries.seen.clear()
                    finds += 1
                    pruned += index.last_hint_skips + index.last_runtime_skips
                    if found is not None:
                        index.commit(found[0])
                        hints[job] = found[1]
        assert finds > 100
        assert pruned > 0

    def test_miss_scans_every_survivor(self):
        index = SlotIndex(make_uniform_slots(3, length=50.0))
        assert index.find_alp_window(ResourceRequest(4, 10.0)) is None
        assert index.last_scanned == 3
        assert index.find_alp_window(ResourceRequest(1, 10.0)) is not None
        assert index.last_scanned == 1
