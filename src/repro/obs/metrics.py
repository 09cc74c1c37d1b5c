"""Process-local metric instruments: counters, gauges, and histograms.

The scheduler's observability layer (ISSUE: "make the two-phase pipeline
measurable") needs exactly three instrument kinds:

* :class:`Counter` — monotonically increasing totals, e.g.
  ``search.slots_scanned`` or ``meta.postponements``;
* :class:`Gauge` — last-written values, e.g. ``meta.backlog``;
* :class:`Histogram` — value distributions with fixed bucket boundaries,
  e.g. ``search.alternatives_per_job`` or span durations.

Instruments live in a :class:`MetricRegistry`, keyed by metric name plus
an optional label set (``search.windows_collected{algo=amp}``).  The module
is dependency-free (standard library only) so the hot algorithm modules
can import it without any risk of circular imports, and instrument
updates are plain attribute arithmetic — no locks, no allocation beyond
the instrument itself.  The registry is *process-local* by design: one
scheduling run, one registry (see ``docs/observability.md``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from repro.core.errors import TelemetryUsageError
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

_InstrumentT = TypeVar("_InstrumentT", bound="Counter | Gauge | Histogram")

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "metric_key",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds: a 1-2.5-5 geometric ladder wide
#: enough for both sub-millisecond span durations (seconds) and large
#: integer quantities such as DP table cells.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    mantissa * 10.0**exponent for exponent in range(-6, 7) for mantissa in (1.0, 2.5, 5.0)
)


def metric_key(name: str, labels: Mapping[str, str] | None = None) -> str:
    """Canonical registry key ``name{k1=v1,k2=v2}`` with sorted labels.

    Without labels the key is the bare name, so unlabelled metrics keep
    their natural spelling in exports.
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing total.

    Attributes:
        name: Canonical metric key (including labels).
        value: Current total; starts at zero.
    """

    name: str
    value: float = 0.0

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise TelemetryUsageError(
                f"counter {self.name!r} cannot decrease (got {amount!r})"
            )
        self.value += amount

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the instrument."""
        return {"kind": "counter", "name": self.name, "value": self.value}


@dataclass
class Gauge:
    """A last-written value (may move in either direction).

    Attributes:
        name: Canonical metric key (including labels).
        value: Most recently set value.
    """

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = value

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the instrument."""
        return {"kind": "gauge", "name": self.name, "value": self.value}


@dataclass
class Histogram:
    """A fixed-bucket distribution of observed values.

    Tracks count, sum, min, and max exactly, plus cumulative bucket
    counts (Prometheus-style ``le`` semantics: ``buckets[i]`` counts
    observations ``<= bounds[i]``; values above the last bound only land
    in the implicit ``+Inf`` bucket, i.e. in ``count``).

    Attributes:
        name: Canonical metric key (including labels).
        bounds: Ascending bucket upper bounds.
        counts: Per-bucket observation counts (non-cumulative storage).
        count: Total observations.
        total: Sum of observed values.
        minimum: Smallest observation (``inf`` before the first).
        maximum: Largest observation (``-inf`` before the first).
    """

    name: str
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * len(self.bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise TelemetryUsageError(
                f"histogram bounds must be ascending, got {self.bounds!r}"
            )

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Record every value of ``values``, in order.

        ``total`` is accumulated in the given order, so a batch leaves the
        same bits as one :meth:`observe` per value.  Each value lands in
        the bucket of the first bound ``>=`` it; NaN and values above the
        last bound land in none (the implicit ``+Inf`` bucket, i.e. only
        in ``count``).
        """
        bounds, counts = self.bounds, self.counts
        last = len(bounds)
        count, total = self.count, self.total
        minimum, maximum = self.minimum, self.maximum
        for value in values:
            count += 1
            total += value
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
            index = bisect_left(bounds, value)
            if index < last and value <= bounds[index]:
                counts[index] += 1
        self.count, self.total = count, total
        self.minimum, self.maximum = minimum, maximum

    @property
    def mean(self) -> float:
        """Arithmetic mean of observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def cumulative_counts(self) -> list[int]:
        """Prometheus-style cumulative bucket counts (``le`` semantics)."""
        running = 0
        cumulative = []
        for bucket in self.counts:
            running += bucket
            cumulative.append(running)
        return cumulative

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the bucket counts.

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q · count`` (the maximum for values beyond the
        last bound); 0.0 when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryUsageError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        threshold = q * self.count
        for bound, cumulative in zip(self.bounds, self.cumulative_counts()):
            if cumulative >= threshold:
                return bound
        return self.maximum

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the instrument."""
        return {
            "kind": "histogram",
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "buckets": [
                [bound, cumulative]
                for bound, cumulative in zip(self.bounds, self.cumulative_counts())
                if cumulative
            ],
        }


class MetricRegistry:
    """Process-local home of every instrument, keyed by name + labels.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call for a key creates the instrument, later calls return the same
    object, so call sites never need registration boilerplate.  Asking
    for an existing key with a different instrument kind is a bug and
    raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        """Number of registered instruments."""
        return len(self._instruments)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        """Instruments in sorted key order (stable exports)."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def _get_or_create(
        self,
        kind: type[_InstrumentT],
        key: str,
        factory: Callable[[], _InstrumentT],
    ) -> _InstrumentT:
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {key!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``name`` + ``labels`` (created on first use)."""
        key = metric_key(name, labels)
        return self._get_or_create(Counter, key, lambda: Counter(key))

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``name`` + ``labels`` (created on first use)."""
        key = metric_key(name, labels)
        return self._get_or_create(Gauge, key, lambda: Gauge(key))

    def histogram(
        self, name: str, *, bounds: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        """The histogram for ``name`` + ``labels`` (created on first use).

        ``bounds`` only applies at creation; later calls return the
        existing instrument unchanged.
        """
        key = metric_key(name, labels)
        return self._get_or_create(
            Histogram,
            key,
            lambda: Histogram(key, bounds=bounds or DEFAULT_BUCKETS),
        )

    def get(self, name: str, **labels: str) -> Counter | Gauge | Histogram | None:
        """Look up an instrument without creating it (``None`` if absent)."""
        return self._instruments.get(metric_key(name, labels))

    def clear(self) -> None:
        """Drop every instrument (used between runs and by tests)."""
        self._instruments.clear()

    def snapshot(self) -> list[dict]:
        """JSON-serializable dump of all instruments, sorted by key."""
        return [instrument.to_dict() for instrument in self]
