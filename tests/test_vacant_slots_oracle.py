"""Vacant-slot publication against its plain reference routine.

``OccupancySchedule.vacant_spans`` bisects past the busy history that
ends before the horizon, and ``VOEnvironment.vacant_slot_list`` sorts
every node's slots once.  The reference below is the straightforward
routine they replace: walk every busy interval from the first, and
insert slot by slot into a :class:`SlotList`.  Both must publish equal
slot lists over random occupancies — with and without ``min_length``
and ``price_multiplier``, for horizons starting inside a busy interval,
and for nodes with empty schedules.

Published slots come from the trusted constructor
(``repro.core.slot._carve_slot``), the reference's from the validating
``Slot`` constructor, so the slots must also compare and price equal
node by node, down to the price's type.  A metascheduler tick with an
empty batch counts the slots (``VOEnvironment.vacant_slot_count``)
instead of publishing them, so the count must equal the length of the
list.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Slot, SlotList
from repro.core.errors import InvalidRequestError
from repro.grid import Cluster, ComputeNode, OccupancySchedule, VOEnvironment


def reference_vacant_spans(
    schedule: OccupancySchedule, horizon_start: float, horizon_end: float
) -> list[tuple[float, float]]:
    """Vacant gaps by a full walk of the busy intervals."""
    spans: list[tuple[float, float]] = []
    cursor = horizon_start
    for interval in schedule:
        if interval.end <= horizon_start:
            continue
        if interval.start >= horizon_end:
            break
        if interval.start > cursor:
            spans.append((cursor, min(interval.start, horizon_end)))
        cursor = max(cursor, interval.end)
        if cursor >= horizon_end:
            break
    if cursor < horizon_end:
        spans.append((cursor, horizon_end))
    return [(start, end) for start, end in spans if end > start]


def reference_vacant_slot_list(
    environment: VOEnvironment,
    horizon_start: float,
    horizon_end: float,
    *,
    min_length: float = 0.0,
    price_multiplier: float = 1.0,
) -> SlotList:
    """The published slot list, inserted slot by slot."""
    slots = SlotList()
    for node in environment.nodes():
        for start, end in reference_vacant_spans(
            node.schedule, horizon_start, horizon_end
        ):
            if end - start < min_length:
                continue
            slot = Slot(node.resource, start, end)
            if price_multiplier != 1.0:
                slot = Slot(
                    slot.resource, start, end, price=slot.price * price_multiplier
                )
            slots.insert(slot)
    return slots


#: One node's occupancy: (gap before, busy length) pairs on an integer
#: grid, so interval ends, horizons and slot starts tie often.  A zero
#: gap makes back-to-back intervals; an empty list is a node with an
#: empty schedule.
occupancies = st.lists(
    st.tuples(st.integers(0, 15), st.integers(1, 25)), max_size=12
)


def build_environment(layout: list[list[tuple[int, int]]]) -> VOEnvironment:
    nodes = []
    for number, busy in enumerate(layout):
        # Odd nodes get an int price, which an unscaled slot keeps.
        price = 1 + number if number % 2 else 1.0 + number * 0.7
        node = ComputeNode(f"v{number}", performance=1.0 + number % 3, price=price)
        cursor = 0
        for gap, length in busy:
            start = cursor + gap
            node.run_local_job(float(start), float(start + length))
            cursor = start + length
        nodes.append(node)
    return VOEnvironment([Cluster("c", nodes)])


@settings(max_examples=300, deadline=None)
@given(
    layout=st.lists(occupancies, min_size=1, max_size=6),
    horizon_start=st.integers(0, 200),
    horizon_length=st.integers(0, 250),
    min_length=st.sampled_from([0.0, 1.0, 7.5, 30.0]),
    price_multiplier=st.sampled_from([1.0, 0.5, 1.3, 2.0]),
)
def test_vacant_slot_list_matches_reference(
    layout, horizon_start, horizon_length, min_length, price_multiplier
):
    environment = build_environment(layout)
    start = float(horizon_start)
    end = start + horizon_length
    for node in environment.nodes():
        assert node.schedule.vacant_spans(start, end) == reference_vacant_spans(
            node.schedule, start, end
        )
    published = environment.vacant_slot_list(
        start, end, min_length=min_length, price_multiplier=price_multiplier
    )
    reference = reference_vacant_slot_list(
        environment,
        start,
        end,
        min_length=min_length,
        price_multiplier=price_multiplier,
    )
    assert published == reference
    assert [slot.price for slot in published] == [slot.price for slot in reference]
    assert environment.vacant_slot_count(start, end, min_length=min_length) == len(
        published
    )
    for node in environment.nodes():
        trusted = node.vacant_slots(
            start, end, min_length=min_length, price_multiplier=price_multiplier
        )
        validated = reference.slots_on(node.resource)
        assert trusted == validated
        assert [(type(slot.price), slot.price) for slot in trusted] == [
            (type(slot.price), slot.price) for slot in validated
        ]


@pytest.mark.parametrize("price_multiplier", [0.0, -1.5])
def test_non_positive_price_multiplier_rejected(price_multiplier):
    environment = build_environment([[(2, 5)]])
    node = next(environment.nodes())
    with pytest.raises(InvalidRequestError, match="price_multiplier"):
        environment.vacant_slot_list(0.0, 50.0, price_multiplier=price_multiplier)
    with pytest.raises(InvalidRequestError, match="price_multiplier"):
        node.vacant_slots(0.0, 50.0, price_multiplier=price_multiplier)


def test_negative_min_length_rejected_by_the_count_too():
    environment = build_environment([[(2, 5)]])
    for publish in (environment.vacant_slot_list, environment.vacant_slot_count):
        with pytest.raises(InvalidRequestError, match="min_length"):
            publish(0.0, 50.0, min_length=-1.0)


def test_horizon_inside_busy_interval():
    node = ComputeNode("n")
    node.run_local_job(0.0, 10.0)
    node.run_local_job(20.0, 30.0)
    node.run_local_job(40.0, 50.0)
    environment = VOEnvironment([Cluster("c", [node, ComputeNode("idle")])])
    assert node.schedule.vacant_spans(25.0, 60.0) == [(30.0, 40.0), (50.0, 60.0)]
    for horizon_start in (0.0, 5.0, 10.0, 25.0, 30.0, 50.0, 70.0):
        assert environment.vacant_slot_list(
            horizon_start, 80.0, min_length=5.0, price_multiplier=1.5
        ) == reference_vacant_slot_list(
            environment, horizon_start, 80.0, min_length=5.0, price_multiplier=1.5
        )
