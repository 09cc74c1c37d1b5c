"""Markdown report generation: the EXPERIMENTS.md paper-vs-measured log.

:func:`experiments_report` runs the complete evaluation — both Section 5
experiment series, the worked example, and the complexity sweep — and
renders a Markdown document with one section per paper artefact, each
showing the paper's reported numbers next to ours.  The repository's
``EXPERIMENTS.md`` is generated by::

    python -m repro.cli report --iterations 2000 > EXPERIMENTS.md
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core import Criterion, ResourceRequest, SlotSearchAlgorithm, find_alternatives
from repro.core import alp, amp
from repro.baselines import backfill_find_window
from repro.examples_data import build_example
from repro.sim.experiment import ExperimentConfig, ExperimentRunner
from repro.core.errors import WindowNotFoundError
from repro.sim.figures import PAPER_REFERENCE, figure5, figure_series
from repro.sim.generators import SlotGenerator, SlotGeneratorConfig
from repro.sim.stats import ExperimentSummary, summarize

__all__ = ["experiments_report", "ComplexityPoint", "complexity_sweep"]


@dataclass(frozen=True)
class ComplexityPoint:
    """One (algorithm, slot count) timing of the complexity sweep."""

    algorithm: str
    slots: int
    seconds: float


def complexity_sweep(
    sizes: tuple[int, ...] = (400, 800, 1600, 3200),
    *,
    seed: int = 11,
    repeats: int = 3,
) -> list[ComplexityPoint]:
    """Best-of-``repeats`` single-search timings over growing slot lists.

    Uses an unsatisfiable request so every algorithm scans its worst
    case (see the EXP-CPLX benchmark for the rationale).
    """
    request = ResourceRequest(node_count=64, volume=100.0, max_price=10.0)
    finders = {
        "ALP": lambda slots: alp.find_window(slots, request),
        "AMP": lambda slots: amp.find_window(slots, request),
        "backfill": lambda slots: backfill_find_window(slots, request),
    }
    points = []
    for size in sizes:
        config = SlotGeneratorConfig(slot_count_range=(size, size))
        slots = SlotGenerator(config, seed=seed).generate()
        for name, finder in finders.items():
            best = math.inf
            for _ in range(repeats):
                started = time.perf_counter()
                finder(slots)
                best = min(best, time.perf_counter() - started)
            points.append(ComplexityPoint(algorithm=name, slots=size, seconds=best))
    return points


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def _deviation(measured: float, reference: float) -> str:
    if reference == 0:
        return "-"
    return f"{100 * (measured - reference) / reference:+.0f}%"


def _series_section(
    title: str,
    summary: ExperimentSummary,
    panels: list[tuple[str, str, float, float, float, float]],
) -> list[str]:
    """One experiment section: figure panel table + selection stats."""
    lines = [f"## {title}", ""]
    rows = [
        [
            panel,
            metric,
            f"{paper_alp:.2f} / {paper_amp:.2f}",
            f"{ours_alp:.2f} / {ours_amp:.2f}",
            _deviation(
                (ours_amp / ours_alp if ours_alp else 0.0),
                (paper_amp / paper_alp if paper_alp else 1.0),
            ),
        ]
        for panel, metric, paper_alp, paper_amp, ours_alp, ours_amp in panels
    ]
    lines.append(
        _md_table(
            ["panel", "metric", "paper (ALP / AMP)", "measured (ALP / AMP)", "ratio drift"],
            rows,
        )
    )
    lines.extend(
        [
            "",
            f"- experiments counted: {summary.counted} of {summary.attempted} attempted "
            f"({summary.dropped_uncovered} dropped for coverage, "
            f"{summary.dropped_infeasible} for DP infeasibility)",
            f"- alternatives per job: ALP {summary.alp.mean_alternatives_per_job:.2f}, "
            f"AMP {summary.amp.mean_alternatives_per_job:.2f} "
            f"(x{summary.ratios().alternatives_factor:.1f}; paper x4.6)",
            f"- slots per experiment: {summary.mean_slots_per_experiment:.2f} (paper 135.11)",
            f"- jobs per counted experiment: {summary.mean_jobs_per_counted_experiment:.2f}",
            "",
        ]
    )
    return lines


def experiments_report(*, iterations: int = 2000, seed: int = 20110368) -> str:
    """Run the full evaluation and render the Markdown report."""
    time_result = ExperimentRunner(
        ExperimentConfig(objective=Criterion.TIME, iterations=iterations, seed=seed)
    ).run()
    cost_result = ExperimentRunner(
        ExperimentConfig(objective=Criterion.COST, iterations=iterations, seed=seed)
    ).run()
    time_summary = summarize(time_result)
    cost_summary = summarize(cost_result)

    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.cli report --iterations "
        f"{iterations} --seed {seed}`.  The paper runs 25 000 iterations; this",
        "report uses a smaller default for turnaround — ratios are stable from",
        "~1 000 counted experiments on.  Absolute values are *not* expected to",
        "match (the authors' RNG and the job price-cap parameter are",
        "unpublished — see DESIGN.md §2); the comparisons below therefore",
        "focus on who wins and by roughly what factor.",
        "",
    ]

    # ------------------------------------------------------------------ #
    # EXP-T1 — Fig. 4 (time minimization)                                #
    # ------------------------------------------------------------------ #
    ref4a = PAPER_REFERENCE["fig4a_time"]
    ref4b = PAPER_REFERENCE["fig4b_cost"]
    lines.extend(
        _series_section(
            "EXP-T1 / Fig. 4 — time minimization (min T(s̄) s.t. C(s̄) ≤ B*)",
            time_summary,
            [
                (
                    "4 (a)",
                    "avg job execution time",
                    ref4a["ALP"],
                    ref4a["AMP"],
                    time_summary.alp.mean_job_time,
                    time_summary.amp.mean_job_time,
                ),
                (
                    "4 (b)",
                    "avg job execution cost",
                    ref4b["ALP"],
                    ref4b["AMP"],
                    time_summary.alp.mean_job_cost,
                    time_summary.amp.mean_job_cost,
                ),
            ],
        )
    )
    ratios = time_summary.ratios()
    lines.extend(
        [
            f"**Headline:** AMP is {100 * ratios.amp_time_gain:.0f}% faster "
            f"(paper: 35%) at {100 * ratios.amp_cost_premium:.0f}% higher cost "
            "(paper: 15%).",
            "",
        ]
    )

    # ------------------------------------------------------------------ #
    # EXP-T1 — Fig. 5 (per-experiment series)                            #
    # ------------------------------------------------------------------ #
    first_n = min(300, time_result.counted)
    panel = figure5(time_result, first_n=first_n)
    series = figure_series(panel)
    wins = sum(1 for a, b in zip(series["ALP"], series["AMP"]) if b <= a)
    lines.extend(
        [
            "## EXP-T1 / Fig. 5 — per-experiment comparison (first "
            f"{first_n} counted experiments)",
            "",
            f"- AMP at or below ALP in {wins}/{first_n} experiments "
            f"({100 * wins / max(1, first_n):.0f}%); the paper reports a gain "
            "in every single experiment.",
            f"- series means: ALP {panel.measured['ALP']:.2f}, "
            f"AMP {panel.measured['AMP']:.2f}.",
            "- the full two-series chart is printed by "
            "`pytest benchmarks/bench_fig5_series.py --benchmark-only` and "
            "`repro-scheduler figures --figure 5`.",
            "",
        ]
    )

    # ------------------------------------------------------------------ #
    # EXP-T2 — Fig. 6 (cost minimization)                                #
    # ------------------------------------------------------------------ #
    ref6a = PAPER_REFERENCE["fig6a_cost"]
    ref6b = PAPER_REFERENCE["fig6b_time"]
    lines.extend(
        _series_section(
            "EXP-T2 / Fig. 6 — cost minimization (min C(s̄) s.t. T(s̄) ≤ T*)",
            cost_summary,
            [
                (
                    "6 (a)",
                    "avg job execution cost",
                    ref6a["ALP"],
                    ref6a["AMP"],
                    cost_summary.alp.mean_job_cost,
                    cost_summary.amp.mean_job_cost,
                ),
                (
                    "6 (b)",
                    "avg job execution time",
                    ref6b["ALP"],
                    ref6b["AMP"],
                    cost_summary.alp.mean_job_time,
                    cost_summary.amp.mean_job_time,
                ),
            ],
        )
    )
    cost_ratios = cost_summary.ratios()
    lines.extend(
        [
            f"**Headline:** ALP's cost advantage shrinks to "
            f"{100 * cost_ratios.amp_cost_premium:.0f}% (paper: 9%) while AMP "
            f"remains {100 * cost_ratios.amp_time_gain:.0f}% faster (paper: 15%).",
            "",
        ]
    )

    # ------------------------------------------------------------------ #
    # EXP-ALT — in-text statistics                                       #
    # ------------------------------------------------------------------ #
    lines.extend(
        [
            "## EXP-ALT — alternative counts and batch statistics (in-text table)",
            "",
            _md_table(
                ["metric", "paper", "measured (time min.)", "measured (cost min.)"],
                [
                    [
                        "alternatives per job, ALP",
                        "7.39 / 7.28",
                        f"{time_summary.alp.mean_alternatives_per_job:.2f}",
                        f"{cost_summary.alp.mean_alternatives_per_job:.2f}",
                    ],
                    [
                        "alternatives per job, AMP",
                        "34.28 / 34.23",
                        f"{time_summary.amp.mean_alternatives_per_job:.2f}",
                        f"{cost_summary.amp.mean_alternatives_per_job:.2f}",
                    ],
                    [
                        "slots per experiment",
                        "135.11",
                        f"{time_summary.mean_slots_per_experiment:.2f}",
                        f"{cost_summary.mean_slots_per_experiment:.2f}",
                    ],
                    [
                        "jobs per counted experiment",
                        "4.18 (cost min.)",
                        f"{time_summary.mean_jobs_per_counted_experiment:.2f}",
                        f"{cost_summary.mean_jobs_per_counted_experiment:.2f}",
                    ],
                ],
            ),
            "",
            "The AMP/ALP alternatives factor measures "
            f"x{time_summary.ratios().alternatives_factor:.1f} here vs. the "
            "paper's x4.6; the direction (AMP several times richer) is what "
            "drives every other comparison.",
            "",
        ]
    )

    # ------------------------------------------------------------------ #
    # EXP-EX — the worked example                                        #
    # ------------------------------------------------------------------ #
    example = build_example()
    slots = example.slots.copy()
    first_windows = []
    for job in example.batch:
        window = amp.find_window(slots, job.request)
        if window is None:
            raise WindowNotFoundError(
                "worked example must schedule every job", job_name=job.name
            )
        for resource, start, end in window.occupied_spans():
            slots.subtract(resource, start, end)
        first_windows.append(window)
    w1, w2, w3 = first_windows
    amp_result = find_alternatives(example.slots, example.batch, SlotSearchAlgorithm.AMP)
    alp_result = find_alternatives(example.slots, example.batch, SlotSearchAlgorithm.ALP)
    cpu6_amp = sum(
        1
        for windows in amp_result.alternatives.values()
        for window in windows
        if any(resource.name == "cpu6" for resource in window.resources())
    )
    lines.extend(
        [
            "## EXP-EX / Figs. 2-3 — the Section 4 worked example",
            "",
            _md_table(
                ["fact (paper text)", "measured"],
                [
                    [
                        "W1 on cpu1+cpu4, span [150, 230], unit cost 10",
                        f"{{{', '.join(sorted(r.name for r in w1.resources()))}}}, "
                        f"[{w1.start:g}, {w1.end:g}], unit cost {w1.unit_cost:g}",
                    ],
                    [
                        "W2 on cpu1+cpu2+cpu4, unit cost 14",
                        f"{{{', '.join(sorted(r.name for r in w2.resources()))}}}, "
                        f"unit cost {w2.unit_cost:g}",
                    ],
                    [
                        "W3 spans [450, 500]",
                        f"[{w3.start:g}, {w3.end:g}]",
                    ],
                    [
                        "AMP uses cpu6 (price 12); ALP never can",
                        f"AMP: {cpu6_amp} alternatives on cpu6; ALP: 0",
                    ],
                    [
                        "Fig. 3 chart of all alternatives",
                        f"AMP {amp_result.total_alternatives} vs ALP "
                        f"{alp_result.total_alternatives} alternatives "
                        "(chart: `repro-scheduler example`)",
                    ],
                ],
            ),
            "",
        ]
    )

    # ------------------------------------------------------------------ #
    # EXP-CPLX — complexity                                              #
    # ------------------------------------------------------------------ #
    points = complexity_sweep()
    by_algorithm: dict[str, list[ComplexityPoint]] = {}
    for point in points:
        by_algorithm.setdefault(point.algorithm, []).append(point)
    rows = []
    exponents: dict[str, float] = {}
    for name, algo_points in by_algorithm.items():
        algo_points.sort(key=lambda p: p.slots)
        first, last = algo_points[0], algo_points[-1]
        exponent = math.log(last.seconds / first.seconds) / math.log(
            last.slots / first.slots
        )
        exponents[name] = exponent
        rows.append(
            [name]
            + [f"{p.seconds * 1e3:.2f}" for p in algo_points]
            + [f"{exponent:.2f}"]
        )
    # 1.5 splits linear from quadratic growth.
    if max(exponents["ALP"], exponents["AMP"]) < 1.5 < exponents["backfill"]:
        verdict = "confirm the claim on"
    else:
        verdict = "do not confirm the claim on this run's"
    sizes = sorted({p.slots for p in points})
    lines.extend(
        [
            "## EXP-CPLX — Section 3 complexity claim (O(m) vs O(m²))",
            "",
            _md_table(
                ["algorithm"] + [f"m={size} (ms)" for size in sizes] + ["exponent"],
                rows,
            ),
            "",
            "Paper claim: ALP/AMP are linear in the number of slots, "
            "backfilling quadratic.  Measured growth exponents above "
            f"(1.0 ≈ linear, 2.0 ≈ quadratic) {verdict} worst-case "
            "(unsatisfiable) searches.",
            "",
            "## Extensions and ablations (not paper figures)",
            "",
            "- EXP-RHO (`benchmarks/bench_rho_ablation.py`) sweeps the "
            "Section 6 budget factor ρ ∈ {1.0, 0.8, 0.6}: alternatives and "
            "cost shrink monotonically, time never improves — the knob works "
            "as described.",
            "- EXP-GRID (`benchmarks/bench_metascheduler.py`) runs the "
            "Section 2 iterative scheme end to end on the grid substrate: the "
            "AMP-driven VO places more jobs and, paired over commonly placed "
            "jobs, executes them faster than the ALP-driven VO.",
            "- EXP-SENS (`benchmarks/bench_sensitivity.py`) probes the "
            "mechanism: a homogeneous environment erases AMP's time gain; a "
            "generous price cap closes the ALP/AMP alternatives gap.",
            "- EXP-STRAT (`benchmarks/bench_strategies.py`) compares the "
            "Section 7 whole-batch co-scheduling strategies against the "
            "paper's consecutive scheme.",
            "- EXP-FINDERS (`benchmarks/bench_finder_quality.py`) places "
            "every window finder (ALP, AMP, first-fit, cheapest, backfill, "
            "utility) on the (start, cost) plane.",
            "- EXP-DP (`benchmarks/bench_dp_resolution.py`) quantifies the "
            "phase-2 discretization trade-off (objective drift vs overshoot "
            "vs runtime).",
            "",
        ]
    )
    return "\n".join(lines)
