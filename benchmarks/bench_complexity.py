"""EXP-CPLX — the Section 3 complexity claim: O(m) ALP/AMP vs O(m²) backfill.

The paper argues ALP and AMP are linear in the number of available
slots ``m`` because the scan only moves forward, while backfilling is
quadratic.  We time single-window searches over generated slot lists of
growing ``m`` with a *hard* request (many nodes, high performance
demand) so the scan cannot stop early, and assert the growth exponents:
doubling ``m`` should roughly double ALP/AMP's time but roughly
quadruple backfill's.

Each (algorithm, m) pair is its own pytest-benchmark entry, so the
``--benchmark-only`` table doubles as the scaling report; the exponent
assertion runs in a final summary test using the same measurements.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.baselines import backfill_find_window
from repro.core import ResourceRequest
from repro.core import alp, amp
from repro.sim import SlotGenerator, SlotGeneratorConfig, table

from benchmarks.conftest import report

SIZES = [250, 500, 1000, 2000]

#: A request no window can satisfy: the forward scan must consume the
#: entire list, exposing the true per-slot cost of each algorithm.
HARD_REQUEST = ResourceRequest(node_count=64, volume=100.0, min_performance=1.0, max_price=10.0)

FINDERS = {
    "ALP": lambda slots, request: alp.find_window(slots, request),
    "AMP": lambda slots, request: amp.find_window(slots, request),
    "backfill": backfill_find_window,
}


def _slots_of_size(size: int):
    config = SlotGeneratorConfig(slot_count_range=(size, size))
    return SlotGenerator(config, seed=11).generate()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("algorithm", list(FINDERS))
def test_window_search_scaling(benchmark, algorithm, size):
    slots = _slots_of_size(size)
    finder = FINDERS[algorithm]
    benchmark.group = f"window-search m={size}"
    result = benchmark(lambda: finder(slots, HARD_REQUEST))
    assert result is None  # the hard request must exhaust the list


def _measure(finder, slots, *, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        finder(slots, HARD_REQUEST)
        best = min(best, time.perf_counter() - started)
    return best


def test_growth_exponents(benchmark, capsys):
    small, large = 400, 3200  # 8x growth separates O(m) from O(m²) cleanly
    slots_small = _slots_of_size(small)
    slots_large = _slots_of_size(large)
    benchmark.pedantic(
        lambda: FINDERS["ALP"](slots_large, HARD_REQUEST), rounds=1, iterations=1
    )

    rows = []
    exponents = {}
    for name, finder in FINDERS.items():
        t_small = _measure(finder, slots_small)
        t_large = _measure(finder, slots_large)
        exponent = math.log(t_large / t_small) / math.log(large / small)
        exponents[name] = exponent
        rows.append([name, f"{t_small * 1e3:.2f}", f"{t_large * 1e3:.2f}", f"{exponent:.2f}"])
    report(capsys, "=" * 72)
    report(capsys, "EXP-CPLX — empirical growth exponents (paper: 1 vs 2)")
    report(
        capsys,
        table(rows, header=["algorithm", f"m={small} (ms)", f"m={large} (ms)", "exponent"]),
    )

    assert exponents["ALP"] < 1.5, f"ALP should scale ~linearly, got m^{exponents['ALP']:.2f}"
    assert exponents["AMP"] < 1.6, f"AMP should scale ~linearly, got m^{exponents['AMP']:.2f}"
    assert exponents["backfill"] > 1.5, (
        f"backfill should scale ~quadratically, got m^{exponents['backfill']:.2f}"
    )
    assert exponents["backfill"] > exponents["ALP"] + 0.4
