"""Unit tests for the array-backed column store (repro.core.columns).

The load-bearing property is **mask/kernel parity**: the vectorized
survivor mask of :meth:`ColumnStore.survivors` must be bit-for-bit
interchangeable with mapping the scalar :func:`static_survivor` kernel
over every row — same survivor set, same precomputed runtimes — because
the index builds its memos through either form depending on whether numpy is present and whether the memo is
being built (vectorized) or maintained (scalar).
"""

from __future__ import annotations

import random

import pytest

import repro.core.columns as columns_module
from repro.core.columns import ColumnStore, Row, static_survivor


def random_rows(seed: int, count: int = 60) -> list[Row]:
    """Rows with adversarial floats: shared starts, tiny spans, ties."""
    rng = random.Random(seed)
    rows: list[Row] = []
    for uid in range(count):
        start = rng.uniform(0.0, 50.0)
        length = rng.uniform(0.1, 120.0)
        performance = rng.uniform(1.0, 3.0)
        price = rng.uniform(1.0, 6.0)
        rows.append((start, start + length, uid, performance, price))
    return rows


def scalar_survivors(
    store: ColumnStore, volume: float, min_performance: float, max_price: float | None
) -> tuple[list, list[int]]:
    entries, positions = [], []
    for position in range(len(store)):
        entry = static_survivor(
            store.row_at(position), volume, min_performance, max_price
        )
        if entry is not None:
            entries.append(entry)
            positions.append(position)
    return entries, positions


class TestMaskKernelParity:
    @pytest.mark.parametrize("seed", range(20))
    def test_vectorized_equals_scalar_bit_for_bit(self, seed):
        store = ColumnStore(random_rows(seed))
        rng = random.Random(seed ^ 0xC01)
        for _ in range(12):
            volume = rng.uniform(1.0, 250.0)
            min_performance = rng.uniform(0.5, 3.5)
            max_price = None if rng.random() < 0.3 else rng.uniform(0.5, 7.0)
            vec = store.survivors(volume, min_performance, max_price)
            scal = scalar_survivors(store, volume, min_performance, max_price)
            # Tuple equality over floats is exact: any rounding drift in
            # the vectorized runtime division would fail here.
            assert vec == scal

    def test_degenerate_request_keeps_all_rows(self):
        # Volume 0 and an unbounded performance floor: every row must
        # survive with runtime exactly 0.0.
        store = ColumnStore(random_rows(3))
        entries, positions = store.survivors(0.0, float("-inf"), None)
        assert positions == list(range(len(store)))
        assert all(entry[5] == 0.0 for entry in entries)

    def test_scalar_fallback_without_numpy(self, monkeypatch):
        store = ColumnStore(random_rows(7))
        vectorized = store.survivors(40.0, 1.2, 4.0)
        monkeypatch.setattr(columns_module, "_np", None)
        assert store.survivors(40.0, 1.2, 4.0) == vectorized
        assert store.count_end_at_or_before(30.0) == sum(
            1 for end in store.ends if end <= 30.0
        )


class TestStoreMutation:
    def test_rows_sorted_on_build_and_after_inserts(self):
        rows = random_rows(11)
        store = ColumnStore(rows)
        assert store.rows() == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
        store.insert_row((-5.0, 1.0, 99, 2.0, 1.0))
        store.insert_row((1000.0, 1001.0, 98, 2.0, 1.0))
        listed = store.rows()
        assert listed == sorted(listed, key=lambda r: (r[0], r[1], r[2]))
        assert len(store) == len(rows) + 2

    def test_delete_returns_row_and_updates_uid_presence(self):
        store = ColumnStore([(0.0, 10.0, 1, 1.0, 1.0), (5.0, 15.0, 2, 1.0, 1.0)])
        position = store.bisect_key((5.0, 15.0, 2))
        assert store.delete_at(position) == (5.0, 15.0, 2, 1.0, 1.0)
        assert not store.uid_present(2)
        assert store.uid_present(1)

    def test_bisect_key_matches_list_semantics(self):
        store = ColumnStore(random_rows(5))
        rows = store.rows()
        for row in rows:
            key = (row[0], row[1], row[2])
            assert store.key_at(store.bisect_key(key)) == key
        assert store.bisect_key((float("inf"), 0.0, 0)) == len(store)


class TestSameUidOverlap:
    def overlap_exists(self, store: ColumnStore, start, end, uid) -> bool:
        return any(
            row[2] == uid and row[0] < end and row[1] > start
            for row in store.rows()
        )

    def test_absent_uid_short_circuits(self):
        store = ColumnStore(random_rows(2))
        assert store.find_same_uid_overlap(0.0, 1e9, 12345) is None

    def test_touching_spans_do_not_overlap(self):
        store = ColumnStore([(0.0, 10.0, 1, 1.0, 1.0), (20.0, 30.0, 1, 1.0, 1.0)])
        assert store.find_same_uid_overlap(10.0, 20.0, 1) is None
        assert store.find_same_uid_overlap(30.0, 40.0, 1) is None
        assert store.find_same_uid_overlap(0.0, 0.0 + 1e-9, 1) == (0.0, 10.0)

    def test_row_reaching_past_insertion_point_is_found(self):
        # The overlapping row starts before the probe span, so only the
        # leftward walk can find it.
        store = ColumnStore(
            [(0.0, 50.0, 1, 1.0, 1.0), (5.0, 6.0, 2, 1.0, 1.0), (7.0, 8.0, 3, 1.0, 1.0)]
        )
        assert store.find_same_uid_overlap(10.0, 20.0, 1) == (0.0, 50.0)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_linear_reference_on_disjoint_rows(self, seed):
        # Same-uid rows kept disjoint, as the index invariant guarantees.
        rng = random.Random(seed)
        rows: list[Row] = []
        for uid in range(6):
            cursor = rng.uniform(0.0, 5.0)
            for _ in range(rng.randint(1, 5)):
                length = rng.uniform(0.5, 10.0)
                rows.append((cursor, cursor + length, uid, 1.0, 1.0))
                cursor += length + rng.uniform(0.0, 4.0)
        store = ColumnStore(rows)
        for _ in range(60):
            start = rng.uniform(-5.0, 60.0)
            end = start + rng.uniform(0.1, 15.0)
            uid = rng.randint(0, 7)
            found = store.find_same_uid_overlap(start, end, uid)
            # The bisected probe must agree with the linear reference on
            # *existence*; when it reports a hit, the witness span must be
            # a genuine same-uid overlap (any such row is acceptable).
            if self.overlap_exists(store, start, end, uid):
                assert found is not None
                witness_start, witness_end = found
                assert witness_start < end and witness_end > start
                assert (witness_start, witness_end) in {
                    (row[0], row[1]) for row in store.rows() if row[2] == uid
                }
            else:
                assert found is None
