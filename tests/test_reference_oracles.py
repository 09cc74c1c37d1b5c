"""Oracle tests: ALP/AMP vs slow brute-force reference implementations.

The forward scans are optimized and subtle (expiry, tentative starts,
cheapest-subset retries); these tests validate them against maximally
dumb O(m²) oracles that enumerate every candidate start time directly
from the definitions in docs/model.md.  Agreement across random
environments is the core correctness argument of the reproduction.

The second half of the module is the *differential* suite guarding the
indexed fast path (:class:`repro.core.index.SlotIndex`): the optimised
finders and the retained naive O(m)-rescan reference must produce
identical window sets — same alternatives, same pass counts, same
remaining slots — and identical phase-2 DP selections, across hundreds
of random instances.  This is the equivalence-testing policy of
docs/benchmarks.md: any future fast path must ship with tests of this
shape before it may become the default.  The *stop* differential holds
a search that ends at its first uncovered job (``stop_if_uncovered``)
to the full search on both loops.  The *re-search* differential
extends it to the revocation path: ``RecoveryManager.research`` on a
seeded VO with outages must pick the reference finder's window.

The last section is the *seed-sharded series* suite.  Phase 1 runs
serially; parallelism lives one level up, where
:class:`repro.sim.experiment.ParallelRunner` cuts a seeded series into
contiguous spans that worker processes regenerate from per-iteration
derived seeds.  Every shard count must reproduce the serial series
search for search, byte for byte.
"""

from __future__ import annotations

import dataclasses
import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Batch,
    Criterion,
    InvalidRequestError,
    Job,
    Resource,
    ResourceRequest,
    Slot,
    SlotIndex,
    SlotList,
    SlotSearchAlgorithm,
    find_alternatives,
    minimize_cost,
    minimize_time,
    time_quota,
    vo_budget,
)
from repro.core import alp, amp
from repro.core.columns import ColumnStore
from repro.grid import ClusterSpec, LocalJobFlow, RecoveryManager, VOEnvironment
from repro.obs.telemetry import configure, get_telemetry, install
from repro.sim import ExperimentConfig, ParallelRunner
from repro.sim.experiment import _run_indices, _shard_spans, generate_iteration

from tests.conftest import make_random_batch, make_random_request, make_random_slot_list


def _alive(slot: Slot, request: ResourceRequest, at: float) -> bool:
    """Definition: slot can host a task of `request` starting at `at`."""
    if not request.admits_performance(slot.resource):
        return False
    if slot.start > at:
        return False
    return slot.end - at >= request.runtime_on(slot.resource)


def _oracle_alp_start(slots: SlotList, request: ResourceRequest) -> float | None:
    """Earliest start where N price-capped suited slots are alive."""
    for candidate in sorted({slot.start for slot in slots}):
        alive = [
            slot
            for slot in slots
            if _alive(slot, request, candidate) and request.admits_price(slot)
        ]
        if len(alive) >= request.node_count:
            return candidate
    return None


def _oracle_amp_start(slots: SlotList, request: ResourceRequest) -> float | None:
    """Earliest start where the N cheapest alive slots fit the budget."""
    budget = request.budget
    for candidate in sorted({slot.start for slot in slots}):
        alive = [slot for slot in slots if _alive(slot, request, candidate)]
        if len(alive) < request.node_count:
            continue
        costs = sorted(slot.cost_of(request.volume) for slot in alive)
        if sum(costs[: request.node_count]) <= budget:
            return candidate
    return None


# The instance generator now lives in tests/conftest.py so the property
# suite can reuse it; the local alias keeps the oracle tests readable.
_random_slot_list = make_random_slot_list


_request_strategy = st.builds(
    ResourceRequest,
    node_count=st.integers(min_value=1, max_value=5),
    volume=st.floats(min_value=10.0, max_value=200.0),
    min_performance=st.floats(min_value=1.0, max_value=2.0),
    max_price=st.floats(min_value=1.0, max_value=8.0),
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), request=_request_strategy)
def test_alp_matches_oracle(seed, request):
    """ALP's window start (and feasibility) equals the brute-force
    earliest feasible start."""
    slots = _random_slot_list(seed)
    window = alp.find_window(slots, request)
    oracle = _oracle_alp_start(slots, request)
    if oracle is None:
        assert window is None
    else:
        assert window is not None
        assert window.start == oracle


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), request=_request_strategy)
def test_amp_matches_oracle(seed, request):
    """AMP's window start equals the brute-force earliest budget-feasible
    start, and its cost matches the cheapest-N total there."""
    slots = _random_slot_list(seed)
    window = amp.find_window(slots, request)
    oracle = _oracle_amp_start(slots, request)
    if oracle is None:
        assert window is None
    else:
        assert window is not None
        assert window.start == oracle
        # The budget always holds.  Note AMP's cheapest-N is taken over
        # candidates alive at the *scan event* (the last added slot's
        # start), per the paper's step 2°-3°; cheaper slots that expire
        # between the final window start and that event are legitimately
        # not reconsidered, so cost-minimality at the window start is
        # NOT a property of AMP and is not asserted.
        assert window.cost <= request.budget + 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_oracles_agree_on_ordering(seed):
    """Sanity of the oracles themselves: the AMP oracle never reports a
    later start than the ALP oracle (budget relaxes the per-slot cap
    when all performances are >= 1)."""
    slots = _random_slot_list(seed)
    request = ResourceRequest(node_count=2, volume=80.0, max_price=4.0)
    alp_start = _oracle_alp_start(slots, request)
    amp_start = _oracle_amp_start(slots, request)
    if alp_start is not None:
        assert amp_start is not None
        assert amp_start <= alp_start


# --------------------------------------------------------------------- #
# Differential tests: indexed fast path vs naive O(m)-rescan reference  #
# --------------------------------------------------------------------- #

#: 100 seeds × 2 algorithms = 200 random multi-pass instances, plus the
#: rho-scaled and single-find variants below.
DIFF_SEEDS = range(100)


def _window_fingerprint(window):
    """A window's identity: synchronous start + exact placements.

    Resources are shared objects between the two search paths (both read
    the same input list), so uids are comparable; starts/ends/prices must
    be bit-equal, which is the contract the indexed path promises.
    """
    return (
        window.start,
        tuple(
            (a.resource.uid, a.start, a.end, a.source.price)
            for a in window.allocations
        ),
    )


def _search_fingerprint(result):
    """Everything a SearchResult determines, in comparable form."""
    return {
        "alternatives": {
            job.name: [_window_fingerprint(w) for w in windows]
            for job, windows in result.alternatives.items()
        },
        "passes": result.passes,
        "remaining": sorted(
            (s.resource.uid, s.start, s.end, s.price) for s in result.remaining_slots
        ),
    }


def _combination_fingerprint(combination):
    return {
        job.name: _window_fingerprint(window)
        for job, window in combination.selection.items()
    }


def _both_paths(seed: int, algorithm: SlotSearchAlgorithm, *, rho: float = 1.0):
    slots = make_random_slot_list(seed, count=40)
    batch = make_random_batch(seed)
    naive = find_alternatives(slots, batch, algorithm, rho=rho, use_index=False)
    indexed = find_alternatives(slots, batch, algorithm, rho=rho, use_index=True)
    return naive, indexed


@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_indexed_search_matches_reference(algorithm):
    """The indexed multi-pass search is window-for-window identical to
    the naive-rescan reference across 100 random instances each."""
    for seed in DIFF_SEEDS:
        naive, indexed = _both_paths(seed, algorithm)
        assert _search_fingerprint(indexed) == _search_fingerprint(naive), (
            f"divergence on seed={seed} algorithm={algorithm.value}"
        )


@pytest.mark.parametrize("rho", [0.8, 0.5])
def test_indexed_search_matches_reference_scaled_budget(rho):
    """Equivalence holds under the Section 6 budget-shrink extension."""
    for seed in range(40):
        naive, indexed = _both_paths(seed, SlotSearchAlgorithm.AMP, rho=rho)
        assert _search_fingerprint(indexed) == _search_fingerprint(naive), (
            f"divergence on seed={seed} rho={rho}"
        )


@pytest.mark.parametrize(
    "objective", [Criterion.TIME, Criterion.COST], ids=["time", "cost"]
)
def test_indexed_search_matches_phase2_selection(objective):
    """Identical alternatives must produce identical DP selections.

    Beyond asserting equal phase-1 output, run the phase-2 dynamic
    programming over both paths' alternatives and require the *chosen
    combinations* to coincide — the end-to-end guarantee the experiment
    engine relies on.
    """
    checked = 0
    for seed in DIFF_SEEDS:
        for algorithm in (SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP):
            naive, indexed = _both_paths(seed, algorithm)
            if not naive.all_jobs_covered():
                continue
            quota = time_quota(naive.alternatives)
            try:
                if objective is Criterion.TIME:
                    budget = vo_budget(naive.alternatives, quota)
                    chosen_naive = minimize_time(naive.alternatives, budget)
                    chosen_indexed = minimize_time(indexed.alternatives, budget)
                else:
                    chosen_naive = minimize_cost(naive.alternatives, quota)
                    chosen_indexed = minimize_cost(indexed.alternatives, quota)
            except Exception:
                continue
            assert _combination_fingerprint(chosen_indexed) == _combination_fingerprint(
                chosen_naive
            ), f"phase-2 divergence on seed={seed} algorithm={algorithm.value}"
            checked += 1
    assert checked >= 20, f"too few covered instances exercised ({checked})"


def test_indexed_single_find_matches_reference_finders():
    """SlotIndex.find_{alp,amp}_window equal alp/amp.find_window on the
    same list — including the exact float fields of every placement."""
    for seed in range(120):
        slots = make_random_slot_list(seed, count=40)
        rng = random.Random(seed * 31 + 7)
        request = make_random_request(rng)
        index = SlotIndex(slots)

        reference = alp.find_window(slots, request)
        fast = index.find_alp_window(request)
        assert (reference is None) == (fast is None), f"ALP feasibility, seed={seed}"
        if reference is not None:
            assert _window_fingerprint(fast) == _window_fingerprint(reference)

        reference = amp.find_window(slots, request)
        fast = index.find_amp_window(request)
        assert (reference is None) == (fast is None), f"AMP feasibility, seed={seed}"
        if reference is not None:
            assert _window_fingerprint(fast) == _window_fingerprint(reference)


def _fragmented_slot_list(seed: int, nodes: int = 12, per_node: int = 20) -> SlotList:
    """Many short vacant slots per node, so start hints strand dozens of
    survivor-memo entries and the finders compact their memos."""
    rng = random.Random(seed)
    slots = []
    for i in range(nodes):
        node = Resource(
            f"n{i}", performance=rng.uniform(1.0, 3.0), price=rng.uniform(1.0, 6.0)
        )
        start = rng.uniform(0.0, 20.0)
        for _ in range(per_node):
            length = rng.uniform(20.0, 90.0)
            slots.append(Slot(node, start, start + length))
            start += length + rng.uniform(1.0, 15.0)
    return SlotList(slots)


def _shared_key_batch(seed: int) -> Batch:
    """Jobs sharing ``(volume, min_performance, max_price)`` — and hence
    one survivor memo — but asking for different node counts, so their
    start hints advance at different rates."""
    rng = random.Random(seed ^ 0x5A4ED)
    volume = rng.uniform(10.0, 100.0)
    min_performance = rng.uniform(1.0, 2.0)
    max_price = rng.uniform(3.0, 8.0)
    node_counts = rng.sample(range(1, 7), rng.randint(2, 4))
    return Batch(
        [
            Job(
                ResourceRequest(
                    node_count=node_count,
                    volume=volume,
                    min_performance=min_performance,
                    max_price=max_price,
                ),
                name=f"j{i}",
            )
            for i, node_count in enumerate(node_counts)
        ]
    )


@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_shared_request_key_matches_reference(algorithm, monkeypatch):
    """Jobs sharing a survivor memo scan it at unordered start hints.

    A scan whose hint is below the memo's compaction floor rebuilds the
    memo from the build-time columns and replays the whole commit
    journal; the indexed search must still equal the reference, and
    that rebuild must actually run.
    """
    built: set[tuple[int, float, float, float | None]] = set()
    rebuilds = 0
    survivors = ColumnStore.survivors

    def counting(self, volume, min_performance, max_price, min_end=float("-inf")):
        nonlocal rebuilds
        key = (id(self), volume, min_performance, max_price)
        rebuilds += key in built
        built.add(key)
        return survivors(self, volume, min_performance, max_price, min_end)

    monkeypatch.setattr(ColumnStore, "survivors", counting)
    for seed in range(20):
        slots = _fragmented_slot_list(seed)
        batch = _shared_key_batch(seed)
        naive = find_alternatives(slots, batch, algorithm, use_index=False)
        built.clear()
        indexed = find_alternatives(slots, batch, algorithm)
        assert _search_fingerprint(indexed) == _search_fingerprint(naive), (
            f"divergence on seed={seed} algorithm={algorithm.value}"
        )
    assert rebuilds > 0, "no scan ran below its memo's floor"


@pytest.mark.parametrize("cap", [None, 1, 3], ids=["uncapped", "cap1", "cap3"])
@pytest.mark.parametrize("rho", [1.0, 0.8, 0.5, 0.3])
def test_empty_amp_find_is_final(rho, cap, monkeypatch):
    """An AMP job whose find comes back empty is never searched again.

    Subtraction mints new row starts, but it never adds a candidate at
    any time or lowers a candidate's cost, so a failed find stays failed
    for the rest of the search.  The search must equal the reference
    with each job's empty find made at most once, and some of those
    empty finds must fail on the budget alone (they succeed with an
    unbounded one), not only on too few concurrent rows.
    """
    empties: list[tuple[ResourceRequest, bool]] = []
    find = SlotIndex.find_amp_window_at

    def spy(self, request, *, budget=None, start_hint=float("-inf")):
        found = find(self, request, budget=budget, start_hint=start_hint)
        if found is None:
            unbounded = find(
                SlotIndex(self.slot_list()),
                request,
                budget=float("inf"),
                start_hint=start_hint,
            )
            empties.append((request, unbounded is not None))
        return found

    monkeypatch.setattr(SlotIndex, "find_amp_window_at", spy)
    budget_limited = 0
    for seed in range(30):
        slots = _fragmented_slot_list(seed, nodes=8, per_node=12)
        batch = make_random_batch(seed)
        options = dict(rho=rho, max_alternatives_per_job=cap)
        naive = find_alternatives(
            slots, batch, SlotSearchAlgorithm.AMP, use_index=False, **options
        )
        empties.clear()
        indexed = find_alternatives(slots, batch, SlotSearchAlgorithm.AMP, **options)
        assert _search_fingerprint(indexed) == _search_fingerprint(naive), (
            f"divergence on seed={seed} rho={rho} cap={cap}"
        )
        requests = [id(request) for request, _ in empties]
        assert len(requests) == len(set(requests)), f"re-searched on seed={seed}"
        budget_limited += sum(limited for _, limited in empties)
    assert budget_limited > 0, "no empty find was limited by the budget"


#: Telemetry of one empty-batch search, as the loop recorded it when it
#: still built an index: kind, metric key (``{algo}`` filled in), value
#: for counters, observation count for histograms.
_EMPTY_BATCH_TELEMETRY = {
    ("counter", "search.batches{algo={algo}}"): 1,
    ("counter", "search.passes{algo={algo}}"): 1,
    ("counter", "search.windows_collected{algo={algo}}"): 0,
    ("counter", "search.jobs_uncovered{algo={algo}}"): 0,
    ("counter", "search.slots_scanned{algo={algo}}"): 0,
    ("counter", "search.windows_missed{algo={algo}}"): 0,
    ("counter", "search.hint_skips{algo={algo}}"): 0,
    ("counter", "search.hint_runtime_skips{algo={algo}}"): 0,
    ("histogram", "search.scan_depth{algo={algo}}"): 0,
    ("histogram", "phase.seconds{phase=phase1.scan}"): 1,
    ("histogram", "phase.seconds{phase=phase1.subtract}"): 1,
    ("histogram", "span.seconds{span=phase1.find_alternatives}"): 1,
}


@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_empty_batch_builds_no_index(algorithm, monkeypatch):
    """An empty batch ends after one pass over nothing: it builds no
    index, returns what the reference returns, and leaves the same
    telemetry it did when it built one."""
    slots = make_random_slot_list(3)
    naive = find_alternatives(slots, Batch(), algorithm, use_index=False)
    builds = 0
    build = SlotIndex.__init__

    def counting(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(SlotIndex, "__init__", counting)
    previous = get_telemetry()
    configure()
    try:
        indexed = find_alternatives(slots, Batch(), algorithm)
        snapshot = get_telemetry().registry.snapshot()
    finally:
        install(previous)
    assert builds == 0
    assert _search_fingerprint(indexed) == _search_fingerprint(naive)
    assert indexed.remaining_slots is not slots
    recorded = {
        (entry["kind"], entry["name"]): entry.get("value", entry.get("count"))
        for entry in snapshot
    }
    expected = {
        (kind, name.replace("{algo}", algorithm.value)): value
        for (kind, name), value in _EMPTY_BATCH_TELEMETRY.items()
    }
    assert recorded == expected


@pytest.mark.parametrize("cap", [None, 1, 3], ids=["uncapped", "cap1", "cap3"])
@pytest.mark.parametrize("rho", [1.0, 0.8, 0.5, 0.3])
@pytest.mark.parametrize("use_index", [True, False], ids=["indexed", "naive"])
@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_stop_if_uncovered_matches_full_search(algorithm, use_index, rho, cap, monkeypatch):
    """A search that stops at the first job it cannot cover decides
    coverage as the full search does.

    A covered batch gets the full search, window for window.  An
    uncovered one ends in pass 1 with the batch prefix up to the first
    job the full search leaves uncovered, and no later job is searched.
    """
    searched: list[int] = []
    finders = [
        (SlotIndex, "find_alp_window"),
        (SlotIndex, "find_amp_window_at"),
        (alp, "find_window"),
        (amp, "find_window"),
    ]
    for owner, name in finders:
        original = getattr(owner, name)

        def spy(*args, _original=original, **kwargs):
            searched.append(id(args[1]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    stops = early_stops = 0
    for seed in range(30):
        slots = _fragmented_slot_list(seed, nodes=8, per_node=12)
        batch = make_random_batch(seed)
        options = dict(rho=rho, max_alternatives_per_job=cap, use_index=use_index)
        full = find_alternatives(slots, batch, algorithm, **options)
        searched.clear()
        stopped = find_alternatives(slots, batch, algorithm, stop_if_uncovered=True, **options)
        assert stopped.all_jobs_covered() == full.all_jobs_covered(), seed
        if full.all_jobs_covered():
            assert _search_fingerprint(stopped) == _search_fingerprint(full), seed
            continue
        jobs = list(batch)
        first = jobs.index(full.jobs_without_alternatives()[0])
        prefix = jobs[: first + 1]
        assert stopped.passes == 1, seed
        assert list(stopped.alternatives) == prefix, seed
        assert stopped.jobs_without_alternatives() == [prefix[-1]], seed
        assert set(searched) == {id(job.request) for job in prefix}, seed
        stops += 1
        early_stops += first < len(jobs) - 1
    assert stops > 0 and early_stops > 0, "no search stopped before the batch's end"


def test_stop_if_uncovered_rejects_custom_finder():
    """The stop rests on ALP/AMP's empty find being final, which an
    arbitrary finder need not share."""
    slots = make_random_slot_list(0, count=40)
    batch = make_random_batch(0)
    custom = SlotSearchAlgorithm.AMP.finder()
    find_alternatives(slots, batch, custom)
    with pytest.raises(InvalidRequestError, match="stop_if_uncovered"):
        find_alternatives(slots, batch, custom, stop_if_uncovered=True)


# --------------------------------------------------------------------- #
# Re-search: RecoveryManager.research vs the reference finders          #
# --------------------------------------------------------------------- #
#
# A revoked job is re-searched on a freshly published slot list, after
# the revocation has returned its vacant time to the node schedules.
# The index must never carry a start hint across that publication.

RESEARCH_HORIZON = 400.0
RESEARCH_MIN_SLOT = 15.0


def _research_environment(seed: int) -> tuple[VOEnvironment, random.Random, int]:
    """A seeded two-cluster VO with local occupancy, committed global
    windows and outages, some of which revoke those windows; also
    returns the number of revoked jobs."""
    rng = random.Random(seed)
    environment = VOEnvironment.generate(
        [ClusterSpec("a", 6), ClusterSpec("b", 5)], seed=seed
    )
    flow = LocalJobFlow(seed=seed)
    for cluster in environment.clusters:
        flow.occupy(cluster, 0.0, 3 * RESEARCH_HORIZON)
    committed = []
    for number in range(3):
        request = make_random_request(rng)
        window = alp.find_window(
            environment.vacant_slot_list(0.0, 2 * RESEARCH_HORIZON), request
        )
        if window is not None:
            environment.commit_window(f"g{number}", window)
            committed.append(window)
    nodes = list(environment.nodes())
    revoked = 0
    for _ in range(rng.randint(1, 4)):
        if committed and rng.random() < 0.6:
            # Hit a committed window so the outage revokes its job.
            allocation = rng.choice(rng.choice(committed).allocations)
            node = environment.node_for(allocation.resource.uid)
            start = allocation.start + rng.uniform(0.0, 0.5) * (
                allocation.end - allocation.start
            )
        else:
            node = rng.choice(nodes)
            start = rng.uniform(0.0, 2 * RESEARCH_HORIZON)
        revoked += len(
            environment.inject_outage(node, start, start + rng.uniform(10.0, 120.0))
        )
    return environment, rng, revoked


@pytest.mark.parametrize("rho", [1.0, 0.8])
@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_research_matches_reference_finders(algorithm, rho):
    """``RecoveryManager.research`` returns the window the reference
    finder picks on the same published list, or agrees there is none."""
    found = missed = revocations = 0
    for seed in range(40):
        environment, rng, revoked = _research_environment(seed)
        revocations += revoked
        manager = RecoveryManager()
        for number in range(4):
            job = Job(make_random_request(rng), name=f"r{number}")
            now = rng.uniform(0.0, RESEARCH_HORIZON)
            window = manager.research(
                job,
                environment,
                now,
                horizon=RESEARCH_HORIZON,
                min_slot_length=RESEARCH_MIN_SLOT,
                algorithm=algorithm,
                rho=rho,
            )
            slots = environment.vacant_slot_list(
                now, now + RESEARCH_HORIZON, min_length=RESEARCH_MIN_SLOT
            )
            if algorithm is SlotSearchAlgorithm.AMP:
                reference = amp.find_window(
                    slots, job.request, budget=job.request.scaled_budget(rho)
                )
            else:
                reference = alp.find_window(slots, job.request)
            assert (window is None) == (reference is None), f"seed={seed}"
            if reference is None:
                missed += 1
                continue
            found += 1
            assert _window_fingerprint(window) == _window_fingerprint(reference), (
                f"divergence on seed={seed}"
            )
    assert found >= 20 and missed >= 5, (found, missed)
    assert revocations >= 20, f"too few revocations exercised ({revocations})"


# --------------------------------------------------------------------- #
# Seed-sharded series: spans regenerated in isolation vs one serial run #
# --------------------------------------------------------------------- #
#
# Resource uids come from a process-global counter, so a shard that
# regenerates its iterations mints different uids than the serial run;
# the searches must not depend on them.  The fingerprints below name
# resources instead of uids for that reason.

#: Shard counts under test: the serial degenerate case, even and odd
#: splits, a count matching typical core counts, and one *larger than
#: the series* (the runner drops the empty trailing spans).
SHARD_COUNTS = [1, 2, 3, 4, 7]

SHARD_SERIES = ExperimentConfig(objective=Criterion.TIME, iterations=6, seed=20110368)


def _portable_search_fingerprint(result):
    """:func:`_search_fingerprint` with resources named, not numbered."""

    def window_rows(window):
        return (
            window.start,
            tuple(
                (a.resource.name, a.start, a.end, a.source.price)
                for a in window.allocations
            ),
        )

    return {
        "alternatives": {
            job.name: [window_rows(w) for w in windows]
            for job, windows in result.alternatives.items()
        },
        "passes": result.passes,
        "remaining": sorted(
            (s.resource.name, s.start, s.end, s.price) for s in result.remaining_slots
        ),
    }


def _span_search_fingerprints(
    config: ExperimentConfig, algorithm: SlotSearchAlgorithm, start: int, stop: int
):
    """Phase-1 fingerprints of iterations ``[start, stop)``, regenerated
    from their derived seeds the way a worker shard does."""
    fingerprints = []
    for index in range(start, stop):
        slots, batch = generate_iteration(config, index)
        search = find_alternatives(slots, batch, algorithm, rho=config.rho)
        fingerprints.append(_portable_search_fingerprint(search))
    return fingerprints


def _sharded_series_fingerprints(
    config: ExperimentConfig, algorithm: SlotSearchAlgorithm, shards: int
):
    """(serial, sharded) phase-1 fingerprints of one seeded series.

    The shards run last span first, so no span sees the resource uids
    (or any other process state) it would have seen in the serial run.
    """
    serial = _span_search_fingerprints(config, algorithm, 0, config.iterations)
    spans = _shard_spans(config.iterations, shards)
    chunks = [
        _span_search_fingerprints(config, algorithm, start, stop)
        for start, stop in reversed(spans)
    ]
    sharded = [fingerprint for chunk in reversed(chunks) for fingerprint in chunk]
    return serial, sharded


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_sharded_search_matches_serial(algorithm, shards):
    """A series cut into ``shards`` spans finds the same alternatives as
    the serial run, iteration for iteration, and the shards' outcomes,
    concatenated in index order, equal the whole-series outcomes."""
    serial, sharded = _sharded_series_fingerprints(SHARD_SERIES, algorithm, shards)
    assert sharded == serial, (
        f"divergence on algorithm={algorithm.value} shards={shards}"
    )
    spans = _shard_spans(SHARD_SERIES.iterations, shards)
    outcomes = [
        outcome
        for start, stop in spans
        for outcome in _run_indices(SHARD_SERIES, range(start, stop))
    ]
    assert outcomes == _run_indices(SHARD_SERIES, range(SHARD_SERIES.iterations))


@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_sharded_search_matches_serial_across_processes(algorithm):
    """Shards searched in worker processes, and a 3-worker
    :class:`ParallelRunner` series, equal the serial run."""
    serial = _span_search_fingerprints(
        SHARD_SERIES, algorithm, 0, SHARD_SERIES.iterations
    )
    spans = _shard_spans(SHARD_SERIES.iterations, 3)
    with ProcessPoolExecutor(max_workers=2) as pool:
        chunks = list(
            pool.map(
                _span_search_fingerprints,
                [SHARD_SERIES] * len(spans),
                [algorithm] * len(spans),
                [start for start, _ in spans],
                [stop for _, stop in spans],
            )
        )
    sharded = [fingerprint for chunk in chunks for fingerprint in chunk]
    assert sharded == serial, "divergence in process mode"
    parallel = ParallelRunner(SHARD_SERIES, workers=3).run()
    assert parallel == ParallelRunner(SHARD_SERIES, workers=1).run()


def test_sharded_search_matches_serial_scaled_budget():
    """The equivalence holds under the Section 6 budget-shrink extension."""
    config = dataclasses.replace(SHARD_SERIES, rho=0.5)
    serial, sharded = _sharded_series_fingerprints(config, SlotSearchAlgorithm.AMP, 3)
    assert sharded == serial, "divergence at rho=0.5"
