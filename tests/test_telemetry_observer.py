"""Telemetry is an observer: enabling it never changes which code runs.

With telemetry on — with decision logging on and with it off — the
phase-1 search must stay on the indexed path (no call reaches the naive
``alp.find_window``/``amp.find_window`` scans) and must produce exactly
the windows, pass counts and remaining slots of the telemetry-off run.
Three entry points are checked: ``find_alternatives`` with default
arguments, ``sim.experiment.run_iteration`` and
``BatchScheduler.schedule``.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BatchScheduler,
    InfeasiblePolicy,
    SchedulerConfig,
    SlotSearchAlgorithm,
    alp,
    amp,
    find_alternatives,
)
from repro.obs.decisions import DecisionLog
from repro.obs.telemetry import configure, disable, get_telemetry, install
from repro.sim import experiment
from repro.sim.experiment import ExperimentConfig, run_iteration

from tests.conftest import make_random_batch, make_random_slot_list
from tests.test_reference_oracles import _search_fingerprint, _window_fingerprint

SEEDS = range(8)

#: Telemetry-on configurations: decision logging on, and off.
MODES = {
    "decisions-on": lambda: configure(decisions=DecisionLog()),
    "decisions-off": lambda: configure(decisions=DecisionLog(enabled=False)),
}


@pytest.fixture(autouse=True)
def _restore_telemetry():
    previous = get_telemetry()
    yield
    install(previous)


@pytest.fixture
def naive_calls(monkeypatch):
    """Spies on the naive ALP/AMP finders; the list collects every call."""
    calls: list[str] = []
    for module in (alp, amp):
        original = module.find_window

        def spy(*args, _original=original, _name=module.__name__, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "find_window", spy)
    return calls


def _with_telemetry(mode, run):
    """``run()`` under a fresh telemetry context of ``mode``."""
    telemetry = MODES[mode]()
    try:
        return run(), telemetry
    finally:
        disable()


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_find_alternatives_default_path(mode, algorithm, naive_calls):
    for seed in SEEDS:
        slots = make_random_slot_list(seed, count=40)
        batch = make_random_batch(seed)
        disable()
        plain = find_alternatives(slots, batch, algorithm)
        observed, telemetry = _with_telemetry(
            mode, lambda: find_alternatives(slots, batch, algorithm)
        )
        assert _search_fingerprint(observed) == _search_fingerprint(plain), seed
        assert telemetry.registry.get("search.batches", algo=algorithm.value)
    assert naive_calls == []


@pytest.mark.parametrize("mode", sorted(MODES))
def test_run_iteration(mode, naive_calls, monkeypatch):
    searches: list[dict] = []
    indexed = experiment.find_alternatives

    def recording(*args, **kwargs):
        result = indexed(*args, **kwargs)
        searches.append(_search_fingerprint(result))
        return result

    monkeypatch.setattr(experiment, "find_alternatives", recording)
    config = ExperimentConfig(iterations=1)
    for seed in SEEDS:
        slots = make_random_slot_list(seed, count=40)
        batch = make_random_batch(seed)
        disable()
        plain = run_iteration(config, seed, slots, batch)
        plain_searches = list(searches)
        searches.clear()
        observed, _ = _with_telemetry(
            mode, lambda: run_iteration(config, seed, slots, batch)
        )
        assert observed == plain, seed
        assert searches == plain_searches, seed
        assert searches, seed
        searches.clear()
    assert naive_calls == []


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_batch_scheduler(mode, algorithm, naive_calls):
    config = SchedulerConfig(
        algorithm=algorithm, infeasible_policy=InfeasiblePolicy.EARLIEST
    )
    for seed in SEEDS:
        slots = make_random_slot_list(seed, count=40)
        batch = make_random_batch(seed)
        disable()
        plain = BatchScheduler(config).schedule(slots, batch)
        observed, _ = _with_telemetry(
            mode, lambda: BatchScheduler(config).schedule(slots, batch)
        )
        assert _search_fingerprint(observed.search) == _search_fingerprint(
            plain.search
        ), seed
        assert {
            job.name: _window_fingerprint(window)
            for job, window in observed.combination.selection.items()
        } == {
            job.name: _window_fingerprint(window)
            for job, window in plain.combination.selection.items()
        }, seed
    assert naive_calls == []


def test_spy_sees_the_naive_path(naive_calls):
    """Control: the spies do catch the reference scan when it runs."""
    slots = make_random_slot_list(0, count=40)
    batch = make_random_batch(0)
    for algorithm in (SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP):
        find_alternatives(slots, batch, algorithm, use_index=False)
    assert set(naive_calls) == {alp.__name__, amp.__name__}
