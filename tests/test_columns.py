"""Unit tests for the array-backed column store (repro.core.columns).

The load-bearing property is **mask/kernel parity**: the vectorized
survivor mask of :meth:`ColumnStore.survivors` must be bit-for-bit
interchangeable with mapping the scalar :func:`static_survivor` kernel
over every row — same survivor set, same precomputed runtimes — because
the index builds its memos through the vectorized mask and maintains
them across commits through the scalar kernel.
"""

from __future__ import annotations

import random

import pytest

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


def all_rows(store: ColumnStore) -> list[Row]:
    """All rows of ``store`` in scan order."""
    return list(zip(store.starts, store.ends, store.uids, store.perfs, store.prices))


def scalar_survivors(
    store: ColumnStore, volume: float, min_performance: float, max_price: float | None
) -> list:
    entries = []
    for row in all_rows(store):
        entry = static_survivor(row, volume, min_performance, max_price)
        if entry is not None:
            entries.append(entry)
    return entries


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
        entries = store.survivors(0.0, float("-inf"), None)
        assert len(entries) == len(store)
        assert all(entry[5] == 0.0 for entry in entries)

    def test_empty_store_has_no_survivors(self):
        assert ColumnStore().survivors(10.0, 1.0, None) == []



def test_rows_sorted_on_build():
    rows = random_rows(11)
    store = ColumnStore(rows)
    assert all_rows(store) == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
