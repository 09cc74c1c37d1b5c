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

import json
import math
import os
import time
from dataclasses import asdict

import pytest

from repro.baselines import backfill_find_window
from repro.core import ResourceRequest
from repro.core import alp, amp
from repro.core.optimize import DPMemo
from repro.sim import ExperimentConfig, ParallelRunner, SlotGenerator, SlotGeneratorConfig, table
from repro.sim import experiment as experiment_module

from benchmarks.conftest import BENCH_SEED, BENCH_WORKERS, record_baseline, report

SIZES = [250, 500, 1000, 2000]

#: Iterations of the speedup workload — the paper's 25 000-iteration
#: series, scaled down to a CI-friendly slice with identical
#: per-iteration shape (same generators, both pipelines, both phases).
SPEEDUP_ITERATIONS = int(os.environ.get("REPRO_BENCH_SPEEDUP_ITERATIONS", "32"))

#: Timing repeats per configuration; the *minimum* wall time is
#: recorded.  A single-shot measurement is a lottery against background
#: machine load (observed swings of 2× between identical runs); the
#: min-of-k estimator damps that noise symmetrically for the naive and
#: indexed paths, so the recorded speedup ratio is stable enough for
#: the CI gate's tolerance.
SPEEDUP_REPEATS = int(os.environ.get("REPRO_BENCH_SPEEDUP_REPEATS", "3"))

#: Slot list size of the speedup workload: 2.5× the paper's [120, 150]
#: so that, like the full 25 000-iteration sweeps the engine exists for,
#: the run is dominated by phase-1 search (the naive path's rescans grow
#: ~quadratically with m: more slots ⇒ more windows found ⇒ more full
#: rescans), not by generation and the phase-2 DP.
SPEEDUP_SLOT_RANGE = (300, 375)

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

    record_baseline(
        "complexity",
        "growth_exponents",
        {
            "sizes": {"small": small, "large": large},
            "exponents": {name: round(value, 3) for name, value in exponents.items()},
        },
    )


# --------------------------------------------------------------------- #
# EXP-SPEEDUP — indexed search + parallel engine vs the seed serial path #
# --------------------------------------------------------------------- #


def _timed_series(*, workers: int, use_index: bool, dp_memo=None):
    """Run the speedup workload once; returns (elapsed seconds, result).

    ``use_index=False`` wraps :func:`repro.sim.experiment.find_alternatives`
    for the duration so every phase-1 call passes ``use_index=False`` —
    the naive O(m)-rescan behaviour of the seed.  Only the in-process
    (workers=1) run may be wrapped: worker processes import the module
    fresh and would not see the wrapper.  ``dp_memo`` is the runner's explicit cross-run DP
    memo (the global default memo is gone; sharing is opt-in).
    """
    assert use_index or workers == 1, "naive baseline must stay in-process"
    config = ExperimentConfig(
        iterations=SPEEDUP_ITERATIONS,
        seed=BENCH_SEED,
        slot_config=SlotGeneratorConfig(slot_count_range=SPEEDUP_SLOT_RANGE),
    )
    indexed = experiment_module.find_alternatives
    if not use_index:

        def naive(*args, **kwargs):
            return indexed(*args, use_index=False, **kwargs)

        experiment_module.find_alternatives = naive
    try:
        started = time.perf_counter()
        result = ParallelRunner(config, workers=workers, dp_memo=dp_memo).run()
        elapsed = time.perf_counter() - started
    finally:
        experiment_module.find_alternatives = indexed
    return elapsed, result


def _best_series(*, workers: int, use_index: bool, dp_memo=None):
    """Best-of-:data:`SPEEDUP_REPEATS` wall time for one configuration.

    Every repeat must produce the byte-identical series (the engine is
    deterministic for a fixed seed), so repeats only tighten the timing
    estimate — they cannot mask a result change.
    """
    best = math.inf
    result = None
    for _ in range(SPEEDUP_REPEATS):
        elapsed, current = _timed_series(
            workers=workers, use_index=use_index, dp_memo=dp_memo
        )
        if result is None:
            result = current
        else:
            assert _series_document(current) == _series_document(result)
        best = min(best, elapsed)
    return best, result


def _series_document(result) -> str:
    """Everything the series determined: samples and all drop/total
    counters.  At this workload's scale most iterations are dropped by
    the phase-2 feasibility filter, so the counters — which would
    diverge if the indexed search changed any job's coverage — carry the
    equivalence signal; the per-window proof is the differential suite
    in tests/test_reference_oracles.py."""
    return json.dumps(
        {
            "samples": [asdict(sample) for sample in result.samples],
            "dropped_uncovered": result.dropped_uncovered,
            "dropped_infeasible": result.dropped_infeasible,
            "total_slots_processed": result.total_slots_processed,
            "total_jobs_attempted": result.total_jobs_attempted,
        },
        sort_keys=True,
    )


@pytest.mark.bench
def test_experiment_workload_speedup(capsys):
    """The ISSUE-2 acceptance workload: a 25k-iteration-style experiment
    series must run ≥ 3× faster with the indexed search plus the
    parallel engine than on the seed's serial naive-rescan path — while
    producing byte-identical samples.  Each configuration is timed
    best-of-:data:`SPEEDUP_REPEATS` (see the constant's rationale)."""
    # One explicit memo shared across the serial timed runs — the same
    # cross-run reuse the retired process-global memo used to provide,
    # now visible and opt-in (worker runs build their own span-local
    # memos; the parent process does no DP there).
    serial_memo = DPMemo()
    naive_elapsed, naive_result = _best_series(
        workers=1, use_index=False, dp_memo=serial_memo
    )
    memo_before = serial_memo.stats()
    indexed_elapsed, indexed_result = _best_series(
        workers=1, use_index=True, dp_memo=serial_memo
    )
    memo_after = serial_memo.stats()
    # Cross-cycle DP memo traffic of the indexed repeats.
    dp_memo_hits = memo_after["hits"] - memo_before["hits"]
    dp_memo_misses = memo_after["misses"] - memo_before["misses"]
    parallel_elapsed, parallel_result = _best_series(
        workers=BENCH_WORKERS, use_index=True
    )

    # The optimisations must not change a single sample.
    reference = _series_document(naive_result)
    assert _series_document(indexed_result) == reference
    assert _series_document(parallel_result) == reference

    index_speedup = naive_elapsed / indexed_elapsed
    combined_speedup = naive_elapsed / parallel_elapsed
    rows = [
        ["seed serial (naive rescan)", f"{naive_elapsed:.2f}", "1.00"],
        ["indexed, 1 worker", f"{indexed_elapsed:.2f}", f"{index_speedup:.2f}"],
        [
            f"indexed, {BENCH_WORKERS} workers",
            f"{parallel_elapsed:.2f}",
            f"{combined_speedup:.2f}",
        ],
    ]
    report(capsys, "=" * 72)
    report(
        capsys,
        f"EXP-SPEEDUP — {SPEEDUP_ITERATIONS} attempted iterations "
        f"({naive_result.counted} counted), both pipelines per iteration, "
        f"best of {SPEEDUP_REPEATS}",
    )
    report(capsys, table(rows, header=["configuration", "seconds", "speedup"]))
    report(
        capsys,
        f"DP memo (indexed serial repeats): {dp_memo_hits} hits / "
        f"{dp_memo_misses} misses",
    )

    record_baseline(
        "complexity",
        "experiment_workload",
        {
            "iterations": SPEEDUP_ITERATIONS,
            "slot_count_range": list(SPEEDUP_SLOT_RANGE),
            "workers": BENCH_WORKERS,
            "repeats": SPEEDUP_REPEATS,
            "seed_serial_seconds": round(naive_elapsed, 3),
            "indexed_serial_seconds": round(indexed_elapsed, 3),
            "indexed_parallel_seconds": round(parallel_elapsed, 3),
            "index_speedup": round(index_speedup, 2),
            "combined_speedup": round(combined_speedup, 2),
            "dp_memo_hits": dp_memo_hits,
            "dp_memo_misses": dp_memo_misses,
        },
    )

    assert combined_speedup >= 3.0, (
        f"indexed + {BENCH_WORKERS}-worker path must be >= 3x the seed serial "
        f"path, got {combined_speedup:.2f}x"
    )
