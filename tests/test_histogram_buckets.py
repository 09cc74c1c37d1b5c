"""``Histogram.observe`` / ``observe_many`` against a linear bucket scan.

The reference below is the histogram's original observe: it walks the
bounds in order and counts a value in the first bucket whose bound is
``>=`` it.  NaN and values above the last bound land in no bucket.  The
bisecting ``observe`` and the batched ``observe_many`` must leave
identical ``counts``, ``count``, ``total`` (bit for bit), ``minimum``
and ``maximum`` for any bounds and values.

A NaN is compared as "some NaN", not by its bits: IEEE 754 leaves the
sign and payload of a NaN result unspecified, and CPython's float add
does vary them.  ``inf + -inf + nan`` run through the same loop reads
``0x7ff8...`` on its first calls and ``0xfff8...`` once the interpreter
has specialised the add, so the bits of a NaN total depend on how warm
each code path is, not on the bucket logic under test.
"""

from __future__ import annotations

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram


class _LinearHistogram:
    """The linear-scan observe, kept here as the oracle."""

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break


def _bits(value: float) -> tuple[type, bytes | str]:
    if math.isnan(value):
        return type(value), "nan"
    return type(value), struct.pack("<d", value)


def _assert_same(histogram: Histogram, reference: _LinearHistogram) -> None:
    assert histogram.counts == reference.counts
    assert histogram.count == reference.count
    assert _bits(histogram.total) == _bits(reference.total)
    assert _bits(histogram.minimum) == _bits(reference.minimum)
    assert _bits(histogram.maximum) == _bits(reference.maximum)


custom_bounds = st.lists(
    st.floats(allow_nan=False, allow_infinity=True, width=64), min_size=1, max_size=12
).map(lambda values: tuple(sorted(values)))

bounds_strategy = st.one_of(st.just(DEFAULT_BUCKETS), custom_bounds)


@st.composite
def bounds_and_values(draw):
    bounds = draw(bounds_strategy)
    value = st.one_of(
        st.sampled_from(bounds),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=-(10**6), max_value=10**9),
        st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0]),
        st.just(bounds[0]).map(lambda bound: bound - 1.0),
        st.just(bounds[-1]).map(lambda bound: bound * 2.0 + 1.0),
    )
    return bounds, draw(st.lists(value, max_size=40))


@settings(max_examples=300, deadline=None)
@given(bounds_and_values())
def test_observe_matches_the_linear_scan(case):
    bounds, values = case
    histogram, reference = Histogram("h", bounds=bounds), _LinearHistogram(bounds)
    for value in values:
        histogram.observe(value)
        reference.observe(value)
    _assert_same(histogram, reference)


@settings(max_examples=300, deadline=None)
@given(bounds_and_values(), st.integers(min_value=0, max_value=40))
def test_observe_many_matches_the_linear_scan(case, split):
    bounds, values = case
    histogram, reference = Histogram("h", bounds=bounds), _LinearHistogram(bounds)
    for value in values:
        reference.observe(value)
    # Part of the stream one value at a time, the rest in one batch (as a
    # generator, so nothing may rely on a sized input).
    for value in values[:split]:
        histogram.observe(value)
    histogram.observe_many(value for value in values[split:])
    _assert_same(histogram, reference)


def test_boundary_values_land_in_the_bucket_they_bound():
    histogram = Histogram("h", bounds=(1.0, 2.0, 2.0, 5.0))
    histogram.observe_many([1.0, 2.0, 5.0, 0.5, 7.0, math.nan, -math.inf, math.inf])
    assert histogram.counts == [3, 1, 0, 1]
    assert histogram.count == 8
    assert histogram.minimum == -math.inf
    assert histogram.maximum == math.inf


def test_observe_many_of_nothing_changes_nothing():
    histogram = Histogram("h")
    histogram.observe_many([])
    assert histogram.to_dict() == Histogram("h").to_dict()
