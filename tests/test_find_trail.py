"""The indexed loop's per-find telemetry is exact, though flushed per batch.

The indexed phase-1 loop records one row per find while telemetry is on
and turns the rows into counters, the ``search.scan_depth`` histogram and
decision records after the loop.  These tests spy on the two indexed
finders, rebuild from the spy alone the stream of records a per-find
emit would have produced, and require the log to equal it record for
record, key order included, along with the four per-find counters and
the histogram.  A search whose commit raises must still report the
finds it made before the raise.
"""

from __future__ import annotations

import pytest

from repro.core import SlotSearchAlgorithm, find_alternatives
from repro.core.index import SlotIndex
from repro.core.job import Batch, Job, ResourceRequest
from repro.obs.decisions import DecisionLog
from repro.obs.metrics import Histogram
from repro.obs.telemetry import configure, disable, get_telemetry, install

from tests.conftest import make_random_batch, make_random_slot_list
from tests.test_reference_oracles import _fragmented_slot_list

ALGORITHMS = [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP]


@pytest.fixture(autouse=True)
def _restore_telemetry():
    previous = get_telemetry()
    yield
    install(previous)


@pytest.fixture
def finds(monkeypatch):
    """Spies on both indexed finders; each find appends one entry.

    An entry is ``(request, window or None, last_scanned,
    last_hint_skips, last_runtime_skips)``, read right after the call.
    """
    calls: list[tuple] = []

    def spy(name, unpack):
        original = getattr(SlotIndex, name)

        def wrapper(self, request, *args, **kwargs):
            found = original(self, request, *args, **kwargs)
            calls.append(
                (
                    request,
                    unpack(found),
                    self.last_scanned,
                    self.last_hint_skips,
                    self.last_runtime_skips,
                )
            )
            return found

        monkeypatch.setattr(SlotIndex, name, wrapper)

    spy("find_alp_window", lambda found: found)
    spy("find_amp_window_at", lambda found: None if found is None else found[0])
    return calls


def _with_uncoverable_job(batch: Batch) -> Batch:
    """``batch`` with a job no slot list here can host, second in line."""
    never = Job(
        ResourceRequest(node_count=500, volume=10.0, min_performance=1.0),
        name="never",
    )
    jobs = list(batch)
    return Batch(jobs[:1] + [never] + jobs[1:])


def _instances():
    for seed in range(4):
        yield f"random-{seed}", make_random_slot_list(seed), make_random_batch(seed, 4)
    for seed in range(2):
        yield (
            f"fragmented-{seed}",
            _fragmented_slot_list(seed),
            make_random_batch(seed + 10, 5),
        )
    yield (
        "uncoverable",
        make_random_slot_list(7),
        _with_uncoverable_job(make_random_batch(7, 3)),
    )


INSTANCES = list(_instances())


def _expected_records(batch: Batch, calls: list[tuple], scope: dict) -> list[dict]:
    """The records one emit per find would make, rebuilt from the spy.

    Within a pass the loop visits jobs in batch order, so a find whose
    job does not come later in the batch than the previous find's job
    opens the next pass.
    """
    position = {id(job.request): (index, job) for index, job in enumerate(batch)}
    accepted: dict[str, int] = {}
    records: list[dict] = []
    search_pass = 0
    previous = len(batch)
    for request, window, scanned, hint_skips, runtime_skips in calls:
        index, job = position[id(request)]
        if index <= previous:
            search_pass += 1
        previous = index
        if window is None:
            record = {
                "kind": "decision",
                "op": "index.no_window",
                "seq": len(records),
                **scope,
                "job": job.name,
                "search_pass": search_pass,
                "scanned": scanned,
                "hint_skips": hint_skips,
                "hint_runtime_skips": runtime_skips,
            }
        else:
            accepted[job.name] = accepted.get(job.name, 0) + 1
            record = {
                "kind": "decision",
                "op": "search.alternative_accepted",
                "seq": len(records),
                **scope,
                "job": job.name,
                "alternative": accepted[job.name],
                "search_pass": search_pass,
                "start": window.start,
                "cost": window.cost,
                "scanned": scanned,
                "hint_skips": hint_skips,
                "hint_runtime_skips": runtime_skips,
            }
        records.append(record)
    return records


def _check_per_find_metrics(telemetry, calls: list[tuple], label: str) -> None:
    registry = telemetry.registry

    def counter(name):
        return registry.get(name, algo=label).value

    assert counter("search.slots_scanned") == sum(call[2] for call in calls)
    assert counter("search.windows_missed") == sum(call[1] is None for call in calls)
    assert counter("search.hint_skips") == sum(call[3] for call in calls)
    assert counter("search.hint_runtime_skips") == sum(call[4] for call in calls)
    expected = Histogram("search.scan_depth{algo=%s}" % label)
    for call in calls:
        expected.observe(call[2])
    assert registry.get("search.scan_depth", algo=label).to_dict() == expected.to_dict()


def _ordered(records: list[dict]) -> list[list[tuple]]:
    return [list(record.items()) for record in records]


@pytest.mark.parametrize("log_decisions", [True, False], ids=["decisions-on", "decisions-off"])
@pytest.mark.parametrize("max_alternatives", [None, 1], ids=["uncapped", "cap-1"])
@pytest.mark.parametrize("stop_if_uncovered", [False, True], ids=["full", "stop"])
@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=["alp", "amp"])
@pytest.mark.parametrize("name,slots,batch", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_decision_stream_matches_the_finds(
    finds, name, slots, batch, algorithm, stop_if_uncovered, max_alternatives, log_decisions
):
    telemetry = configure(decisions=DecisionLog(enabled=log_decisions))
    try:
        with telemetry.decisions.scope(iteration=3, unit="t"):
            result = find_alternatives(
                slots,
                batch,
                algorithm,
                max_alternatives_per_job=max_alternatives,
                stop_if_uncovered=stop_if_uncovered,
            )
    finally:
        disable()
    assert finds, "the spy saw no find"
    accepted = [call for call in finds if call[1] is not None]
    assert len(accepted) == result.total_alternatives
    if log_decisions:
        expected = _expected_records(batch, finds, {"iteration": 3, "unit": "t"})
        assert _ordered(telemetry.decisions.records) == _ordered(expected)
    else:
        assert telemetry.decisions.records == []
    _check_per_find_metrics(telemetry, finds, algorithm.value)
    if name == "uncoverable" and stop_if_uncovered:
        assert finds[-1][1] is None
        assert list(result.alternatives)[-1].name == "never"


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=["alp", "amp"])
def test_a_raising_commit_still_flushes_the_finds_before_it(finds, monkeypatch, algorithm):
    slots, batch = make_random_slot_list(1), make_random_batch(1, 4)
    original = SlotIndex.commit
    commits = []

    def failing_commit(self, window):
        commits.append(window)
        if len(commits) == 4:
            raise RuntimeError("commit failed")
        original(self, window)

    monkeypatch.setattr(SlotIndex, "commit", failing_commit)
    telemetry = configure(decisions=DecisionLog())
    try:
        with pytest.raises(RuntimeError, match="commit failed"):
            find_alternatives(slots, batch, algorithm)
    finally:
        disable()
    # The find whose commit raised accepted nothing, so it leaves no row.
    assert finds[-1][1] is commits[-1]
    made = finds[:-1]
    assert sum(call[1] is not None for call in made) == 3
    expected = _expected_records(batch, made, {})
    assert _ordered(telemetry.decisions.records) == _ordered(expected)
    _check_per_find_metrics(telemetry, made, algorithm.value)
    registry = telemetry.registry
    for phase in ("phase1.scan", "phase1.subtract"):
        assert registry.get("phase.seconds", phase=phase).count == 1
    assert registry.get("search.batches", algo=algorithm.value) is None


def test_the_instances_exercise_several_passes_and_empty_finds(finds):
    for name, slots, batch in INSTANCES:
        finds.clear()
        result = find_alternatives(slots, batch, SlotSearchAlgorithm.AMP)
        assert result.passes >= 2, name
        assert any(call[1] is None for call in finds), name
