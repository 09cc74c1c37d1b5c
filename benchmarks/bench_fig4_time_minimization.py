"""EXP-T1 — Fig. 4: job batch execution *time* minimization.

Regenerates both panels of Fig. 4: (a) average job execution time and
(b) average job execution cost, for ALP and AMP under
``min T(s̄) s.t. C(s̄) <= B*``.  Paper reference: time 59.85 vs 39.01
(AMP 35 % faster), cost 313.56 vs 369.69 (AMP 15 % dearer).  We assert
the *shape*: AMP strictly faster, AMP at least as expensive.

The timed unit is a 20-iteration slice of the pipeline (generation +
double two-phase scheduling); the printed figures come from the full
cached series (``REPRO_BENCH_ITERATIONS`` iterations).
"""

from __future__ import annotations

from repro.core import Criterion
from repro.sim import ParallelRunner, render_figure4, summarize, summary_table

from benchmarks.conftest import get_result, report, small_config


def test_fig4_time_minimization(benchmark, capsys):
    benchmark.pedantic(
        lambda: ParallelRunner(small_config(Criterion.TIME)).run(),
        rounds=1,
        iterations=1,
    )

    result = get_result(Criterion.TIME)
    summary = summarize(result)
    report(capsys, "=" * 72)
    report(capsys, "EXP-T1 / Fig. 4 — time minimization (min T under B*)")
    report(capsys, summary_table(summary))
    report(capsys, render_figure4(result))

    assert result.counted > 0, "no counted experiments — generators or DP regressed"
    # Fig. 4 (a): AMP minimizes batch time far below ALP.
    assert summary.amp.mean_job_time < summary.alp.mean_job_time
    assert summary.ratios().amp_time_gain > 0.10
    # Fig. 4 (b): the speed is bought with money.
    assert summary.amp.mean_job_cost > summary.alp.mean_job_cost
