"""Aggregation of experiment series into the paper's reported statistics.

Section 5 reports, per experiment series: average job execution time and
cost for each algorithm, total and per-job alternative counts, the
average number of slots processed, and the average batch size of the
*counted* iterations.  :func:`summarize` computes all of them from an
:class:`~repro.sim.experiment.ExperimentResult`; the comparison ratios
(AMP's time gain, AMP's cost premium) come out of
:meth:`ExperimentSummary.ratios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.criteria import Criterion
from repro.sim.experiment import ExperimentResult, IterationComparison

__all__ = [
    "AlgorithmStats",
    "ComparisonRatios",
    "ExperimentSummary",
    "summarize",
    "mean",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (explicit, not NaN)."""
    return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class AlgorithmStats:
    """Per-algorithm aggregates over the counted experiments."""

    mean_job_time: float
    mean_job_cost: float
    total_alternatives: int
    mean_alternatives_per_job: float

    @classmethod
    def over(cls, samples: Sequence[IterationComparison], *, algorithm: str) -> "AlgorithmStats":
        picked = [getattr(sample, algorithm) for sample in samples]
        total_jobs = sum(sample.job_count for sample in samples)
        total_alternatives = sum(p.total_alternatives for p in picked)
        return cls(
            mean_job_time=mean([p.mean_job_time for p in picked]),
            mean_job_cost=mean([p.mean_job_cost for p in picked]),
            total_alternatives=total_alternatives,
            mean_alternatives_per_job=(
                total_alternatives / total_jobs if total_jobs else 0.0
            ),
        )


@dataclass(frozen=True)
class ComparisonRatios:
    """The headline ALP-vs-AMP ratios of Sections 5-6.

    Attributes:
        amp_time_gain: Relative time advantage of AMP,
            ``(ALP time − AMP time) / ALP time`` (paper: ~0.35 in
            time minimization, ~0.15 in cost minimization).
        amp_cost_premium: Relative extra cost of AMP,
            ``(AMP cost − ALP cost) / ALP cost`` (paper: ~0.15 in time
            minimization, ~0.09 in cost minimization).
        alternatives_factor: How many times more alternatives AMP finds
            per job (paper: ~34.28 / 7.39 ≈ 4.6).
    """

    amp_time_gain: float
    amp_cost_premium: float
    alternatives_factor: float


@dataclass(frozen=True)
class ExperimentSummary:
    """All Section 5 statistics of one experiment series."""

    objective: Criterion
    attempted: int
    counted: int
    dropped_uncovered: int
    dropped_infeasible: int
    alp: AlgorithmStats
    amp: AlgorithmStats
    mean_slots_per_experiment: float
    mean_slots_per_counted_experiment: float
    mean_jobs_per_counted_experiment: float

    def ratios(self) -> ComparisonRatios:
        """The ALP-vs-AMP comparison ratios (0.0 where undefined)."""
        time_gain = (
            (self.alp.mean_job_time - self.amp.mean_job_time) / self.alp.mean_job_time
            if self.alp.mean_job_time
            else 0.0
        )
        cost_premium = (
            (self.amp.mean_job_cost - self.alp.mean_job_cost) / self.alp.mean_job_cost
            if self.alp.mean_job_cost
            else 0.0
        )
        factor = (
            self.amp.mean_alternatives_per_job / self.alp.mean_alternatives_per_job
            if self.alp.mean_alternatives_per_job
            else 0.0
        )
        return ComparisonRatios(
            amp_time_gain=time_gain,
            amp_cost_premium=cost_premium,
            alternatives_factor=factor,
        )

    def as_rows(self) -> list[tuple[str, str, str]]:
        """Tabular view ``(metric, ALP, AMP)`` for reports and the CLI."""
        ratios = self.ratios()
        return [
            ("average job execution time", f"{self.alp.mean_job_time:.2f}", f"{self.amp.mean_job_time:.2f}"),
            ("average job execution cost", f"{self.alp.mean_job_cost:.2f}", f"{self.amp.mean_job_cost:.2f}"),
            ("total alternatives found", str(self.alp.total_alternatives), str(self.amp.total_alternatives)),
            (
                "alternatives per job",
                f"{self.alp.mean_alternatives_per_job:.2f}",
                f"{self.amp.mean_alternatives_per_job:.2f}",
            ),
            ("AMP time gain", "-", f"{100 * ratios.amp_time_gain:.1f}%"),
            ("AMP cost premium", "-", f"{100 * ratios.amp_cost_premium:.1f}%"),
        ]


def summarize(result: ExperimentResult) -> ExperimentSummary:
    """Aggregate an experiment series into the paper's statistics."""
    samples = result.samples
    return ExperimentSummary(
        objective=result.config.objective,
        attempted=result.attempted,
        counted=result.counted,
        dropped_uncovered=result.dropped_uncovered,
        dropped_infeasible=result.dropped_infeasible,
        alp=AlgorithmStats.over(samples, algorithm="alp"),
        amp=AlgorithmStats.over(samples, algorithm="amp"),
        mean_slots_per_experiment=(
            result.total_slots_processed / result.attempted if result.attempted else 0.0
        ),
        mean_slots_per_counted_experiment=mean(
            [float(sample.slot_count) for sample in samples]
        ),
        mean_jobs_per_counted_experiment=mean(
            [float(sample.job_count) for sample in samples]
        ),
    )
