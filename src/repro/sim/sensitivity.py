"""Parameter-sensitivity sweeps over the Section 5 generators.

The paper fixes one generator parameterization; a reproduction should
also show *which* parameters the headline ratios depend on.  This
module sweeps one generator parameter at a time — environment
heterogeneity, release synchronization, slot supply, and the price-cap
free parameter — re-running the experiment protocol at each value and
collecting the ALP/AMP comparison.  The accompanying benchmark
(``benchmarks/bench_sensitivity.py``) prints the sweep tables and
asserts the qualitative trends:

* with a *homogeneous* environment (performance ceiling → 1) AMP's time
  advantage disappears — there are no fast nodes to buy;
* with a generous price cap ALP approaches AMP — the per-slot cap stops
  binding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.criteria import Criterion
from repro.core.errors import InvalidRequestError
from repro.sim.ascii_plot import table
from repro.sim.experiment import ExperimentConfig, ParallelRunner
from repro.sim.generators import JobGeneratorConfig, SlotGeneratorConfig
from repro.sim.stats import ExperimentSummary, summarize

__all__ = ["SWEEPABLE_PARAMETERS", "SensitivityPoint", "sweep", "render_sweep"]


def _with_performance_ceiling(value: float) -> ExperimentConfig:
    if value < 1.0:
        raise InvalidRequestError(f"performance ceiling must be >= 1, got {value!r}")
    return ExperimentConfig(
        slot_config=SlotGeneratorConfig(performance_range=(1.0, value)),
        # Jobs may not demand more than the environment can offer.
        job_config=JobGeneratorConfig(
            min_performance_range=(1.0, min(2.0, value)),
        ),
    )


def _with_same_start_probability(value: float) -> ExperimentConfig:
    return ExperimentConfig(
        slot_config=SlotGeneratorConfig(same_start_probability=value)
    )


def _with_slot_count(value: float) -> ExperimentConfig:
    count = int(value)
    if count < 1:
        raise InvalidRequestError(f"slot count must be >= 1, got {value!r}")
    return ExperimentConfig(slot_config=SlotGeneratorConfig(slot_count_range=(count, count)))


def _with_price_cap_ceiling(value: float) -> ExperimentConfig:
    if value <= 0:
        raise InvalidRequestError(f"price-cap ceiling must be positive, got {value!r}")
    return ExperimentConfig(
        job_config=JobGeneratorConfig(price_cap_factor_range=(0.9, value))
    )


#: Supported sweep axes: name → config builder for one value.
SWEEPABLE_PARAMETERS: dict[str, Callable[[float], ExperimentConfig]] = {
    "performance_ceiling": _with_performance_ceiling,
    "same_start_probability": _with_same_start_probability,
    "slot_count": _with_slot_count,
    "price_cap_ceiling": _with_price_cap_ceiling,
}


@dataclass(frozen=True)
class SensitivityPoint:
    """One sweep point: the parameter value and the resulting summary."""

    parameter: str
    value: float
    summary: ExperimentSummary


def sweep(
    parameter: str,
    values: Sequence[float],
    *,
    objective: Criterion = Criterion.TIME,
    iterations: int = 150,
    seed: int = 20110368,
) -> list[SensitivityPoint]:
    """Run the experiment protocol at each parameter value.

    Args:
        parameter: One of :data:`SWEEPABLE_PARAMETERS`.
        values: Parameter values to visit, in order.
        objective: Phase-2 criterion (TIME reproduces the Fig. 4 setup).
        iterations: Attempted iterations per point.
        seed: Master seed, shared by all points so only the parameter
            varies.

    Raises:
        InvalidRequestError: For an unknown parameter name.
    """
    try:
        builder = SWEEPABLE_PARAMETERS[parameter]
    except KeyError:
        raise InvalidRequestError(
            f"unknown sweep parameter {parameter!r}; pick one of "
            f"{sorted(SWEEPABLE_PARAMETERS)}"
        ) from None
    points = []
    for value in values:
        template = builder(value)
        config = dataclasses.replace(
            template, objective=objective, iterations=iterations, seed=seed
        )
        result = ParallelRunner(config).run()
        points.append(
            SensitivityPoint(parameter=parameter, value=value, summary=summarize(result))
        )
    return points


def render_sweep(points: Sequence[SensitivityPoint]) -> str:
    """Text table of one sweep: ratios per parameter value."""
    if not points:
        return "(empty sweep)"
    rows = []
    for point in points:
        summary = point.summary
        ratios = summary.ratios()
        rows.append(
            [
                f"{point.value:g}",
                str(summary.counted),
                f"{summary.alp.mean_job_time:.1f}",
                f"{summary.amp.mean_job_time:.1f}",
                f"{100 * ratios.amp_time_gain:+.0f}%",
                f"{100 * ratios.amp_cost_premium:+.0f}%",
                f"x{ratios.alternatives_factor:.1f}",
            ]
        )
    return table(
        rows,
        header=[
            points[0].parameter,
            "counted",
            "ALP time",
            "AMP time",
            "time gain",
            "cost premium",
            "alts factor",
        ],
    )
