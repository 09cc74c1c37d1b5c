"""Shared machinery for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artefacts
(Figs. 4, 5, 6, the in-text statistics, the worked example, the
complexity claim, and our ablations).  The expensive experiment series
are computed once per session and cached; individual benchmarks time a
representative slice of the work and print the regenerated
figure/table so that ``pytest benchmarks/ --benchmark-only`` output is
a self-contained report.

Environment knobs:

* ``REPRO_BENCH_ITERATIONS`` — attempted scheduling iterations per
  experiment series (default 300; the paper uses 25 000 — set
  ``REPRO_BENCH_ITERATIONS=25000`` for the full-fidelity run).
* ``REPRO_BENCH_SEED`` — master seed (default the paper's page number).
"""

from __future__ import annotations

import functools
import os

from repro.core import Criterion
from repro.sim import ExperimentConfig, ExperimentResult, ParallelRunner

BENCH_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "300"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "368"))


@functools.lru_cache(maxsize=None)
def get_result(objective: Criterion, rho: float = 1.0) -> ExperimentResult:
    """Session-cached experiment series for one objective/rho."""
    config = ExperimentConfig(
        objective=objective,
        iterations=BENCH_ITERATIONS,
        seed=BENCH_SEED,
        rho=rho,
    )
    return ParallelRunner(config).run()


def small_config(objective: Criterion) -> ExperimentConfig:
    """A short series used as the timed unit inside benchmarks."""
    return ExperimentConfig(objective=objective, iterations=20, seed=BENCH_SEED + 1)


def report(capsys, text: str) -> None:
    """Print ``text`` past pytest's capture, so it lands in the output."""
    with capsys.disabled():
        print()
        print(text)
