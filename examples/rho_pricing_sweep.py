#!/usr/bin/env python3
"""Extension scenario: the Section 6 budget factor ρ and demand pricing.

The paper proposes shrinking AMP's job budget to ``S = ρ·C·t·N`` so that
"variation of ρ allows to obtain flexible distribution schedules on
different scheduling periods, depending on the time of day, resource
load level, etc.".  This example sweeps ρ over the Section 5 workload
and shows the knob working: smaller ρ pushes AMP toward ALP-like costs
at the price of later/slower windows and fewer alternatives.

It then couples ρ with the future-work demand-adjusted pricing model:
as utilization rises, prices surge, and a time-of-day policy can lower ρ
to keep spending flat.

Run:  python examples/rho_pricing_sweep.py
"""

from __future__ import annotations

from repro.core import Criterion, DemandAdjustedPricing
from repro.sim import ExperimentConfig, ParallelRunner, summarize, table

ITERATIONS = 150
SEED = 424242


def sweep_rho() -> None:
    rows = []
    for rho in (1.0, 0.9, 0.8, 0.7):
        config = ExperimentConfig(
            objective=Criterion.TIME,
            iterations=ITERATIONS,
            seed=SEED,
            rho=rho,
        )
        summary = summarize(ParallelRunner(config).run())
        ratios = summary.ratios()
        rows.append(
            [
                f"{rho:.1f}",
                str(summary.counted),
                f"{summary.amp.mean_job_time:.1f}",
                f"{summary.amp.mean_job_cost:.1f}",
                f"{summary.amp.mean_alternatives_per_job:.1f}",
                f"{100 * ratios.amp_cost_premium:+.0f}%",
            ]
        )
    print("AMP under shrinking budgets S = ρ·C·t·N (time minimization):")
    print(
        table(
            rows,
            header=["ρ", "counted", "AMP time", "AMP cost", "AMP alts/job", "cost vs ALP"],
        )
    )


def demand_pricing_story() -> None:
    pricing = DemandAdjustedPricing(sensitivity=0.6)
    print("\ndemand-adjusted pricing (future-work model):")
    rows = []
    for utilization, rho in ((0.2, 1.0), (0.5, 0.9), (0.8, 0.8)):
        multiplier = pricing.multiplier(utilization)
        rows.append(
            [
                f"{utilization:.0%}",
                f"x{multiplier:.2f}",
                f"{rho:.1f}",
                f"x{multiplier * rho:.2f}",
            ]
        )
    print(
        table(
            rows,
            header=["utilization", "price surge", "policy ρ", "effective spend factor"],
        )
    )
    print(
        "\nlowering ρ as demand surges keeps the effective spending factor\n"
        "roughly flat — the scheduling-period policy Section 6 sketches."
    )


def main() -> None:
    sweep_rho()
    demand_pricing_story()


if __name__ == "__main__":
    main()
