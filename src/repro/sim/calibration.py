"""Calibration of the unpublished generator parameter.

Section 5 omits the jobs' maximum-price parameter (DESIGN.md §2).  Our
default, ``price_cap_factor ∈ [0.9, 1.3]``, was *fit*: this module is
the fitting harness, kept in the library so the choice is reproducible
and re-runnable — e.g. after changing any other model convention.

The fit minimizes a weighted relative distance between the measured
ALP/AMP comparison ratios and the paper's reported ones:

* AMP time gain 35 % (Fig. 4),
* AMP cost premium 15 % (Fig. 4),
* ALP alternatives per job 7.39 and the AMP/ALP factor 4.64 (in-text).

``python -m repro.cli`` does not expose this (it is a developer tool);
see ``tests/test_calibration.py`` for usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.criteria import Criterion
from repro.core.errors import InvalidRequestError
from repro.sim.experiment import ExperimentConfig, ParallelRunner
from repro.sim.generators import JobGeneratorConfig
from repro.sim.stats import ExperimentSummary, summarize

__all__ = ["PAPER_TARGET", "CalibrationTarget", "CalibrationResult", "score", "calibrate"]


@dataclass(frozen=True)
class CalibrationTarget:
    """The paper ratios a parameterization should reproduce.

    Attributes:
        time_gain: AMP's relative time advantage (paper ~0.35).
        cost_premium: AMP's relative extra cost (paper ~0.15).
        alp_alternatives_per_job: ALP's per-job alternative count
            (paper ~7.39).
        alternatives_factor: AMP/ALP per-job factor (paper ~4.64).
        weights: Relative importance of the four terms, in the order
            above.
    """

    time_gain: float = 0.35
    cost_premium: float = 0.15
    alp_alternatives_per_job: float = 7.39
    alternatives_factor: float = 4.64
    weights: tuple[float, float, float, float] = (2.0, 1.0, 1.0, 1.0)


#: The default target: the paper's Section 5 numbers.
PAPER_TARGET = CalibrationTarget()


@dataclass(frozen=True)
class CalibrationResult:
    """One evaluated candidate, with its fit distance (lower = better)."""

    factor_range: tuple[float, float]
    summary: ExperimentSummary
    distance: float


def score(summary: ExperimentSummary, target: CalibrationTarget = PAPER_TARGET) -> float:
    """Weighted relative distance of a summary from the target ratios.

    A summary with no counted experiments scores infinity — an
    uncalibratable parameterization, not a good one.
    """
    if summary.counted == 0:
        return float("inf")
    ratios = summary.ratios()
    measured = (
        ratios.amp_time_gain,
        ratios.amp_cost_premium,
        summary.alp.mean_alternatives_per_job,
        ratios.alternatives_factor,
    )
    reference = (
        target.time_gain,
        target.cost_premium,
        target.alp_alternatives_per_job,
        target.alternatives_factor,
    )
    total = 0.0
    for weight, value, wanted in zip(target.weights, measured, reference):
        if wanted == 0:
            raise InvalidRequestError("calibration target values must be non-zero")
        total += weight * abs(value - wanted) / abs(wanted)
    return total


def calibrate(
    candidates: Sequence[tuple[float, float]],
    *,
    iterations: int = 150,
    seed: int = 20110368,
    target: CalibrationTarget = PAPER_TARGET,
) -> list[CalibrationResult]:
    """Evaluate candidate ``price_cap_factor`` ranges against the target.

    Args:
        candidates: ``(low, high)`` factor ranges to try.
        iterations: Attempted scheduling iterations per candidate.
        seed: Shared master seed, so candidates differ only in the
            parameter under study.
        target: Ratios to fit (defaults to the paper's).

    Returns:
        One result per candidate, sorted by ascending distance — the
        first entry is the best fit.
    """
    if not candidates:
        raise InvalidRequestError("need at least one candidate range")
    results = []
    for low, high in candidates:
        job_config = JobGeneratorConfig(price_cap_factor_range=(low, high))
        config = ExperimentConfig(
            objective=Criterion.TIME,
            iterations=iterations,
            seed=seed,
            job_config=job_config,
        )
        summary = summarize(ParallelRunner(config).run())
        results.append(
            CalibrationResult(
                factor_range=(low, high),
                summary=summary,
                distance=score(summary, target),
            )
        )
    results.sort(key=lambda result: result.distance)
    return results
