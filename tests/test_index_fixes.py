"""Regression tests for two slot-search edge cases.

* zero-width ``subtract`` spans are rejected by :class:`SlotList`
  (previously ``end == start`` slipped past an ``end < start`` guard and
  fragmented the containing slot);
* the finders count *both* start-hint prune tiers while they scan
  (``last_hint_skips`` for ``end <= start_hint``, ``last_runtime_skips``
  for ``end - start_hint < runtime``), so the counts describe the scan
  itself — never more skips than visited entries — and the search
  loop's decision records carry both numbers.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Batch,
    Job,
    ResourceRequest,
    Slot,
    SlotIndex,
    SlotList,
    SlotListError,
)
from repro.core.search import SlotSearchAlgorithm, find_alternatives
from repro.obs.decisions import DecisionLog
from repro.obs.telemetry import configure, disable, get_telemetry, install
from repro.sim import ExperimentConfig, ParallelRunner
from tests.conftest import (
    make_random_batch,
    make_random_slot_list,
    make_resource,
)


@pytest.fixture(autouse=True)
def _restore_telemetry():
    previous = get_telemetry()
    yield
    install(previous)


class TestZeroWidthSubtract:
    @pytest.mark.parametrize("container", [SlotList])
    def test_zero_width_span_rejected(self, container):
        resource = make_resource("n0")
        slots = container([Slot(resource, 0.0, 100.0)])
        with pytest.raises(SlotListError, match="empty or negative span"):
            slots.subtract(resource, 40.0, 40.0)
        # The containing slot must be untouched — the old behaviour
        # fragmented [0, 100) into [0, 40) + [40, 100).
        assert [(s.start, s.end) for s in slots] == [(0.0, 100.0)]

    @pytest.mark.parametrize("container", [SlotList])
    def test_negative_span_still_rejected(self, container):
        resource = make_resource("n0")
        slots = container([Slot(resource, 0.0, 100.0)])
        with pytest.raises(SlotListError, match="empty or negative span"):
            slots.subtract(resource, 50.0, 40.0)

    def test_zero_width_at_slot_boundary_rejected(self):
        # end == start == candidate.start was the worst old case: it
        # deleted the slot and re-inserted it as one zero-width row plus
        # the original span.
        resource = make_resource("n0")
        slots = SlotList([Slot(resource, 10.0, 100.0)])
        with pytest.raises(SlotListError, match="empty or negative span"):
            slots.subtract(resource, 10.0, 10.0)
        assert len(slots) == 1


def pinned_environment() -> tuple[SlotIndex, ResourceRequest]:
    """Hand-built instance with known prune counts at hints 25 and 35.

    Rows (perf, price, span): n1 (1, 1, [0,10)), n2 (1, 1, [0,30)),
    n3 (2, 5, [0,35)), n4 (1, 1, [20,100)), n5 (0.5, 1, [40,60)).
    Request: 2 nodes, volume 30, min_performance 1, max_price 2.
    """
    slots = [
        Slot(make_resource("n1", performance=1.0, price=1.0), 0.0, 10.0),
        Slot(make_resource("n2", performance=1.0, price=1.0), 0.0, 30.0),
        Slot(make_resource("n3", performance=2.0, price=5.0), 0.0, 35.0),
        Slot(make_resource("n4", performance=1.0, price=1.0), 20.0, 100.0),
        Slot(make_resource("n5", performance=0.5, price=1.0), 40.0, 60.0),
    ]
    request = ResourceRequest(
        node_count=2, volume=30.0, min_performance=1.0, max_price=2.0
    )
    return SlotIndex(slots), request


def scan_counts(index: SlotIndex) -> tuple[int, int, int]:
    """``(hint_skips, runtime_skips, scanned)`` of the index's last find."""
    return (index.last_hint_skips, index.last_runtime_skips, index.last_scanned)


#: AMP budget no candidate pair meets, so every AMP find below misses
#: and leaves the index unchanged.
NO_BUDGET = 1.0


class TestHintPrunes:
    def test_pinned_two_tier_counts(self):
        index, request = pinned_environment()
        # ALP statics are {n2, n4}: n1 is too short for runtime 30, n3
        # too expensive, n5 too slow.  A first find at hint 25 builds the
        # memo already filtered to ``end > 25``, so no tier-1 entry is
        # visited; of the two entries only n2 (end 30) cannot fit 30 time
        # units after the hint.
        assert index.find_alp_window(request, start_hint=25.0) is None
        assert scan_counts(index) == (0, 1, 2)
        # Without the price cap (AMP) n3 joins the statics: runtime 15,
        # end 35, and 35 - 25 = 10 < 15 adds a second tier-2 prune.
        index, request = pinned_environment()
        assert (
            index.find_amp_window_at(request, budget=NO_BUDGET, start_hint=25.0)
            is None
        )
        assert scan_counts(index) == (0, 2, 3)

    def test_unset_hint_reports_zero(self):
        index, request = pinned_environment()
        assert index.find_alp_window(request, start_hint=float("-inf")) is None
        assert scan_counts(index) == (0, 0, 2)
        assert (
            index.find_amp_window_at(request, budget=NO_BUDGET) is None
        )
        assert scan_counts(index) == (0, 0, 3)

    @pytest.mark.parametrize("is_amp", [False, True], ids=["alp", "amp"])
    def test_tier1_counts_visited_dead_entries(self, is_amp):
        # A first find with no hint builds the full memo; a second find
        # at hint 35 replays it unchanged and visits the entries ending
        # at or before the hint — n2 for ALP, n2 and n3 for AMP.
        index, request = pinned_environment()

        def find(start_hint):
            if is_amp:
                return index.find_amp_window_at(
                    request, budget=NO_BUDGET, start_hint=start_hint
                )
            return index.find_alp_window(request, start_hint=start_hint)

        assert find(float("-inf")) is None
        assert find(35.0) is None
        assert scan_counts(index) == ((2, 0, 3) if is_amp else (1, 0, 2))

    def test_tiers_never_double_count(self):
        # A tier-1 entry is not re-tested by tier 2, and a fresh find
        # at the hint never visits the entries its rebuild dropped.
        index, request = pinned_environment()
        assert index.find_alp_window(request, start_hint=35.0) is None
        assert scan_counts(index) == (0, 0, 1)
        assert index.find_alp_window(request, start_hint=35.0) is None
        assert scan_counts(index) == (0, 0, 1)

    @pytest.mark.parametrize(
        "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
    )
    def test_counts_equal_with_telemetry_off_and_on(self, algorithm, monkeypatch):
        recorded: list[tuple[int, int, int]] = []
        for name in ("find_alp_window", "find_amp_window_at"):
            original = getattr(SlotIndex, name)

            def spy(self, *args, _original=original, **kwargs):
                found = _original(self, *args, **kwargs)
                recorded.append(scan_counts(self))
                return found

            monkeypatch.setattr(SlotIndex, name, spy)

        def run() -> list[tuple[int, int, int]]:
            recorded.clear()
            for seed in range(6):
                find_alternatives(
                    make_random_slot_list(seed, count=60),
                    make_random_batch(seed),
                    algorithm,
                )
            return list(recorded)

        disable()
        off = run()
        configure(decisions=DecisionLog())
        on = run()
        records = [
            (record["hint_skips"], record["hint_runtime_skips"], record["scanned"])
            for record in get_telemetry().decisions.records
            if record["op"] in ("search.alternative_accepted", "index.no_window")
        ]
        assert off == on == records
        assert any(skips or short for skips, short, _ in off), "no hint prunes"

    @pytest.mark.parametrize("seed", [20110368, 918273])
    def test_skips_bounded_by_scanned_on_series(self, seed):
        configure(decisions=DecisionLog())
        ParallelRunner(ExperimentConfig(iterations=20, seed=seed), workers=1).run()
        records = [
            record
            for record in get_telemetry().decisions.records
            if record["op"] in ("search.alternative_accepted", "index.no_window")
        ]
        assert records, "series emitted no search records"
        assert any(record["hint_skips"] for record in records)
        assert any(record["hint_runtime_skips"] for record in records)
        for record in records:
            skipped = record["hint_skips"] + record["hint_runtime_skips"]
            assert skipped <= record["scanned"], record


class TestDecisionRecordFields:
    @pytest.mark.parametrize("node_count", [1, 2])
    def test_accepted_records_carry_both_tiers(self, node_count):
        configure(decisions=DecisionLog())
        telemetry = get_telemetry()
        slots = SlotList(
            [
                Slot(make_resource(f"d{i}", performance=1.0, price=1.0), 0.0, 400.0)
                for i in range(4)
            ]
        )
        batch = Batch(
            [
                Job(
                    ResourceRequest(
                        node_count=node_count,
                        volume=100.0,
                        min_performance=1.0,
                        max_price=2.0,
                    ),
                    name="j0",
                )
            ]
        )
        find_alternatives(slots, batch, SlotSearchAlgorithm.ALP)
        records = [
            record
            for record in telemetry.decisions.records
            if record["op"] in ("search.alternative_accepted", "index.no_window")
        ]
        assert records, "search with decision logging emitted no records"
        for record in records:
            assert "hint_skips" in record
            assert "hint_runtime_skips" in record

    def test_serial_and_sharded_report_equal_prunes(self, tmp_path):
        """A traced series cut into worker shards (spans run in isolation,
        last span first) reports the same per-find prune counts as the
        serial traced run once its shard traces are merged."""
        from repro.obs import merge_trace_files
        from repro.sim import ExperimentConfig
        from repro.sim.experiment import (
            _run_span_traced,
            _shard_spans,
            trace_shard_path,
        )

        config = ExperimentConfig(iterations=5, seed=20110368)

        def prune_report(trace):
            return [
                (
                    record["iteration"],
                    record["op"],
                    record.get("job"),
                    record.get("hint_skips"),
                    record.get("hint_runtime_skips"),
                )
                for record in trace.decisions
                if record["op"] in ("search.alternative_accepted", "index.no_window")
            ]

        serial_base = tmp_path / "serial.jsonl"
        _run_span_traced(config, 0, config.iterations, str(serial_base), 0)
        serial = prune_report(
            merge_trace_files([str(trace_shard_path(serial_base, 0))])
        )
        sharded_base = tmp_path / "sharded.jsonl"
        spans = _shard_spans(config.iterations, 2)
        for worker in reversed(range(len(spans))):
            start, stop = spans[worker]
            _run_span_traced(config, start, stop, str(sharded_base), worker)
        sharded = prune_report(
            merge_trace_files(
                [str(trace_shard_path(sharded_base, w)) for w in range(len(spans))]
            )
        )
        assert serial, "traced series emitted no prune reports"
        assert any(skips for *_, skips, _ in serial), "no hint prunes exercised"
        assert sharded == serial
