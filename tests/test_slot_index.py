"""Unit tests for the incremental slot index (repro.core.index).

The differential suite in ``test_reference_oracles.py`` proves the
indexed finders equivalent to the reference scans; these tests cover the
index's own container contract and its mutation error paths, which the
happy-path equivalence runs never hit.
"""

from __future__ import annotations

import pytest

from repro.core import ResourceRequest, SlotIndex, SlotList, SlotListError
from repro.core import alp

from tests.conftest import (
    make_random_batch,
    make_random_slot_list,
    make_resource,
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


class TestInsert:
    def test_insert_restores_subtracted_span(self):
        slots = make_uniform_slots(1, start=0.0, length=100.0)
        index = SlotIndex(slots)
        victim = list(slots)[0]
        removed = index.subtract(victim.resource, 20.0, 60.0)
        # The index stores primitive rows, not Slot objects, so the
        # subtracted slot comes back as a value-equal reconstruction.
        assert removed == victim
        from repro.core import Slot

        index.insert(Slot(victim.resource, 20.0, 60.0, victim.price))
        assert [(s.start, s.end) for s in index] == [
            (0.0, 20.0),
            (20.0, 60.0),
            (60.0, 100.0),
        ]

    def test_insert_overlapping_same_resource_raises(self):
        slots = make_uniform_slots(1, start=0.0, length=100.0)
        index = SlotIndex(slots)
        victim = list(slots)[0]
        from repro.core import Slot

        with pytest.raises(SlotListError):
            index.insert(Slot(victim.resource, 50.0, 150.0, victim.price))

    def test_stale_hint_clamped_after_insert(self):
        # Regression for start_hint monotonicity: subtraction-only
        # mutation lets a caller reuse the previous window's start as a
        # hint, but re-inserting vacant time (hot-swap revocation, outage
        # cancellation) can make *earlier* events feasible again.  A
        # stale hint must not hide them.
        slots = make_uniform_slots(1, start=0.0, length=100.0)
        index = SlotIndex(slots)
        request = ResourceRequest(node_count=1, volume=40.0, max_price=2.0)
        first = index.find_alp_window(request)
        assert first.start == 0.0
        index.commit(first)  # vacant time is now [40, 100)
        second = index.find_alp_window(request, start_hint=first.start)
        assert second.start == 40.0
        # The committed window is revoked: its span returns to the list.
        from repro.core import Slot

        victim = first.allocations[0]
        index.insert(Slot(victim.resource, victim.start, victim.end, victim.unit_price))
        # With the (now stale) hint of the later window, the finder must
        # still see the re-inserted earlier vacancy.
        again = index.find_alp_window(request, start_hint=second.start)
        assert again is not None
        assert again.start == 0.0

    def test_hint_clamp_matches_reference_scan(self):
        index = SlotIndex(make_random_slot_list(5, count=20))
        request = ResourceRequest(node_count=2, volume=50.0, max_price=5.0)
        window = index.find_alp_window(request)
        assert window is not None
        index.commit(window)
        from repro.core import Slot

        for allocation in window.allocations:
            index.insert(
                Slot(
                    allocation.resource,
                    allocation.start,
                    allocation.end,
                    allocation.unit_price,
                )
            )
        hinted = index.find_alp_window(request, start_hint=1e9)
        reference = alp.find_window(index.slot_list(), request)
        assert (hinted is None) == (reference is None)
        if hinted is not None:
            assert hinted.start == reference.start


class TestSubtract:
    def test_parity_with_slot_list_subtract(self):
        slots = make_random_slot_list(21, count=12)
        index = SlotIndex(slots)
        reference = slots.copy()
        victim = list(slots)[0]
        span = (victim.start + 1.0, victim.end - 1.0)
        index.subtract(victim.resource, *span)
        reference.subtract(victim.resource, *span)
        assert [(s.resource.uid, s.start, s.end) for s in index] == [
            (s.resource.uid, s.start, s.end) for s in reference
        ]

    def test_subtract_missing_span_raises(self):
        index = SlotIndex(make_uniform_slots(1, start=0.0, length=10.0))
        stranger = make_resource("stranger")
        with pytest.raises(SlotListError):
            index.subtract(stranger, 0.0, 5.0)

    def test_subtract_negative_span_raises(self):
        slots = make_uniform_slots(1, start=0.0, length=10.0)
        index = SlotIndex(slots)
        with pytest.raises(SlotListError):
            index.subtract(list(slots)[0].resource, 6.0, 4.0)


class _CountingEntries(list):
    """A survivor-memo entry list that counts the entries a scan visits."""

    visited = 0

    def __iter__(self):
        for entry in list.__iter__(self):
            self.visited += 1
            yield entry


class TestLastScanned:
    """``last_scanned`` equals the memo entries the finder's scan visited."""

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
        finds = 0
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
                    assert index.last_scanned == entries.visited, f"seed={seed}"
                    entries.visited = 0
                    finds += 1
                    if found is not None:
                        index.commit(found[0])
                        hints[job] = found[1]
        assert finds > 100

    def test_miss_scans_every_survivor(self):
        index = SlotIndex(make_uniform_slots(3, length=50.0))
        assert index.find_alp_window(ResourceRequest(4, 10.0)) is None
        assert index.last_scanned == 3
        assert index.find_alp_window(ResourceRequest(1, 10.0)) is not None
        assert index.last_scanned == 1
