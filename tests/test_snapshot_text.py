"""The snapshot text cache's direct window text against the encoder.

``checkpoint._window_text`` writes a window's canonical JSON without
building the dict :meth:`checkpoint._Encoder.window` returns.  Over
random windows it must give exactly ``_canonical(_Encoder().window(w))``
and leave the same resource table, in the same order.  A NaN or
infinite field must raise the same error with the same message.

The windows are built by the trusted constructors, so no value is
rejected before it reaches the encoders: float edge values, ints where
floats are expected, and 1 to 9 allocations.
"""

from __future__ import annotations

import math
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Resource, ResourceRequest, Window
from repro.core.errors import InvalidRequestError
from repro.core.slot import _carve_slot
from repro.core.window import carved_allocation
from repro.grid.checkpoint import _canonical, _Encoder, _window_text

#: Floats whose shortest repr is unusual, plus plain and integral ones.
EDGE_FLOATS = [0.0, -0.0, 1.0, 3.0, 1e16, 1e22, 5e-324, 2.5e-7, 0.1, 123456789.125]

numbers = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])

#: ``max_price`` as a request may hold it: unbounded (written as null),
#: a finite float or int, and ``None``, which both encoders reject alike.
max_prices = st.one_of(
    st.sampled_from([math.inf, -math.inf, None, 7.25, 1e16]),
    numbers,
)


def build_request(node_count: int, volume: Any, min_performance: Any, max_price: Any):
    request = object.__new__(ResourceRequest)
    object.__setattr__(request, "node_count", node_count)
    object.__setattr__(request, "volume", volume)
    object.__setattr__(request, "min_performance", min_performance)
    object.__setattr__(request, "max_price", max_price)
    return request


def build_window(request: ResourceRequest, allocations: list[dict[str, Any]]) -> Window:
    placed = []
    for fields in allocations:
        resource = Resource(
            f"r{fields['uid']}",
            performance=fields["performance"],
            price=fields["resource_price"],
            uid=fields["uid"],
        )
        source = _carve_slot(
            resource, fields["slot_start"], fields["slot_end"], fields["slot_price"]
        )
        placed.append(carved_allocation(source, fields["start"], fields["end"]))
    return Window.from_scan(request, placed)


def outcome(encode) -> tuple[str, Any, list[Any]]:
    """``("text", text, resource table)`` or ``("error", type, message)``."""
    encoder = _Encoder()
    try:
        text = encode(encoder)
    except (InvalidRequestError, TypeError) as error:
        return ("error", type(error), [str(error)])
    return ("text", text, list(encoder.resources.items()))


def assert_same(window: Window) -> None:
    direct = outcome(lambda encoder: _window_text(encoder, window))
    reference = outcome(lambda encoder: _canonical(encoder.window(window)))
    assert direct == reference


def allocation_fields(values: st.SearchStrategy) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {
            # Shared uids are allowed: the table interns each one once.
            "uid": st.integers(1, 12),
            "performance": st.sampled_from([1.0, 1.5, 2, 3.25]),
            "resource_price": st.sampled_from([0.0, 1.0, 2.5, 4]),
            "slot_start": values,
            "slot_end": values,
            "slot_price": values,
            "start": values,
            "end": values,
        }
    )


@settings(max_examples=400, deadline=None)
@given(
    allocations=st.lists(allocation_fields(numbers), min_size=1, max_size=9),
    volume=numbers,
    min_performance=numbers,
    max_price=max_prices,
)
def test_direct_window_text_matches_the_encoder(
    allocations, volume, min_performance, max_price
):
    request = build_request(len(allocations), volume, min_performance, max_price)
    assert_same(build_window(request, allocations))


@settings(max_examples=300, deadline=None)
@given(
    allocations=st.lists(
        allocation_fields(st.one_of(numbers, non_finite)), min_size=1, max_size=9
    ),
    volume=st.one_of(numbers, non_finite),
    min_performance=st.one_of(numbers, non_finite),
    max_price=st.one_of(max_prices, st.just(math.nan)),
)
def test_non_finite_fields_raise_the_same_error(
    allocations, volume, min_performance, max_price
):
    request = build_request(len(allocations), volume, min_performance, max_price)
    assert_same(build_window(request, allocations))


@settings(max_examples=100, deadline=None)
@given(
    field=st.sampled_from(["slot_start", "slot_end", "slot_price", "start", "end"]),
    position=st.integers(0, 8),
    bad=non_finite,
    count=st.integers(1, 9),
)
def test_one_bad_allocation_field_raises_its_own_message(field, position, bad, count):
    allocations = [
        {
            "uid": index + 1,
            "performance": 1.0,
            "resource_price": 1.0,
            "slot_start": 0.0,
            "slot_end": 100.0,
            "slot_price": 2.0,
            "start": 10.0,
            "end": 60.0,
        }
        for index in range(count)
    ]
    allocations[position % count][field] = bad
    window = build_window(build_request(count, 50.0, 1.0, math.inf), allocations)
    kind, error_type, message = outcome(lambda encoder: _window_text(encoder, window))
    assert (kind, error_type) == ("error", InvalidRequestError)
    assert_same(window)


def test_bad_resource_fields_raise_the_same_error():
    window = build_window(
        build_request(1, 50.0, 1.0, 3.0),
        [
            {
                "uid": 1,
                "performance": math.inf,
                "resource_price": 1.0,
                "slot_start": 0.0,
                "slot_end": 100.0,
                "slot_price": 2.0,
                "start": 10.0,
                "end": 60.0,
            }
        ],
    )
    assert outcome(lambda encoder: _window_text(encoder, window))[0] == "error"
    assert_same(window)


def test_a_uid_whose_text_holds_a_comma_is_written_field_by_field():
    fields = {
        "performance": 1.0,
        "resource_price": 1.0,
        "slot_start": 0.0,
        "slot_end": 100.0,
        "slot_price": 2.0,
        "start": 10.0,
        "end": 60.0,
    }
    window = build_window(
        build_request(2, 50.0, 1.0, math.inf),
        [{**fields, "uid": "a,b"}, {**fields, "uid": "c"}],
    )
    assert '"resource":"a,b"' in outcome(lambda encoder: _window_text(encoder, window))[1]
    assert_same(window)
