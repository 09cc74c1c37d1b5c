"""The observable surface of phase 2, pinned case by case.

``optimize`` (TIME and COST) and ``vo_budget`` each run the paper's
eq. (1) backward run under five regimes: plain DP, a ``max_cells``
resolution step-down, the ``max_cells`` greedy fallback, the
``deadline`` greedy fallback, and genuine infeasibility (on the DP path
and on the greedy path).  Every case runs twice through one fresh
:class:`DPMemo` with in-memory telemetry, so the second run is a memo
hit wherever the DP runs.

For each case the test pins the result, the exact counters, how often
each histogram was observed, the decision records (op and fields, in
order) and, when the instance is infeasible, the exception's type,
``limit`` and ``best``.
"""

from __future__ import annotations

import pytest

from repro.core import Criterion, InfeasibleConstraintError, OptimizationBudget
from repro.core.optimize import DPMemo, optimize, vo_budget
from repro.obs.telemetry import configure, get_telemetry, install
from tests.test_degradation import SPEC, _alts


@pytest.fixture(autouse=True)
def _restore_telemetry():
    previous = get_telemetry()
    yield
    install(previous)


#: Budgets per regime.  SPEC has 8 alternatives: at resolution 400 a
#: cap of 8 × 101 cells steps 400 → 200 → 100; a cap of 8 cells cannot
#: fit even ``min_resolution=1`` (8 × 2), so the DP is skipped.
STEPDOWN = OptimizationBudget(max_cells=8 * 101, min_resolution=50)
NO_CELLS = OptimizationBudget(max_cells=8, min_resolution=1)
NO_TIME = OptimizationBudget(deadline=1e-12)

#: ``(call, limit, budget)`` per case.  The feasible limits bind: a
#: budget of 33 forces job ``a`` onto its cheapest window, a quota of
#: 12 keeps every job on a short one, and ``vo_budget`` under a quota
#: of 18 spends the slack on ``b`` and ``c``.  The infeasible limits sit
#: below the cheapest (31) and the fastest (9) selection.
CASES = {
    "time-dp": ("time", 33.0, None),
    "time-stepdown": ("time", 33.0, STEPDOWN),
    "time-greedy-cells": ("time", 33.0, NO_CELLS),
    "time-greedy-deadline": ("time", 33.0, NO_TIME),
    "time-infeasible-dp": ("time", 30.0, None),
    "time-infeasible-greedy": ("time", 30.0, NO_CELLS),
    "cost-dp": ("cost", 12.0, None),
    "cost-stepdown": ("cost", 12.0, STEPDOWN),
    "cost-greedy-cells": ("cost", 12.0, NO_CELLS),
    "cost-greedy-deadline": ("cost", 12.0, NO_TIME),
    "cost-infeasible-dp": ("cost", 8.0, None),
    "cost-infeasible-greedy": ("cost", 8.0, NO_CELLS),
    "budget-dp": ("budget", 18.0, None),
    "budget-stepdown": ("budget", 18.0, STEPDOWN),
    "budget-greedy-cells": ("budget", 18.0, NO_CELLS),
    "budget-greedy-deadline": ("budget", 18.0, NO_TIME),
    "budget-infeasible-dp": ("budget", 8.0, None),
    "budget-infeasible-greedy": ("budget", 8.0, NO_CELLS),
}


def _run(call: str, limit: float, budget: OptimizationBudget | None, memo: DPMemo):
    """One phase-2 call; returns its result or the raised error's shape."""
    alts = _alts(SPEC)
    try:
        if call == "budget":
            return vo_budget(alts, limit, resolution=400, budget=budget, memo=memo)
        objective = Criterion.TIME if call == "time" else Criterion.COST
        combination = optimize(
            alts, objective, limit, resolution=400, budget=budget, memo=memo
        )
    except InfeasibleConstraintError as error:
        return (type(error).__name__, error.limit, error.best)
    return (
        combination.total_cost,
        combination.total_time,
        combination.degraded,
        sorted(
            (job.name, window.start) for job, window in combination.selection.items()
        ),
    )


def surface(case: str) -> dict:
    """Result, counters, histogram counts and decisions of one case, run twice."""
    call, limit, budget = CASES[case]
    telemetry = configure()
    memo = DPMemo()
    results = [_run(call, limit, budget, memo) for _ in range(2)]
    counters = {}
    histograms = {}
    for instrument in telemetry.registry.snapshot():
        if instrument["kind"] == "counter":
            counters[instrument["name"]] = instrument["value"]
        elif instrument["kind"] == "histogram":
            histograms[instrument["name"]] = instrument["count"]
    records = [
        {key: value for key, value in record.items() if key != "kind"}
        for record in telemetry.decisions.records
    ]
    return {
        "results": results,
        "counters": counters,
        "histograms": histograms,
        "records": records,
    }


def _selected(objective: str, degraded: bool, *picks: tuple[str, int, float, float]):
    """``dp.selected`` records for ``(job, alternative, start, cost)`` picks."""
    return [
        {
            "op": "dp.selected",
            "job": job,
            "objective": objective,
            "alternative": alternative,
            "start": start,
            "cost": cost,
            "degraded": degraded,
        }
        for job, alternative, start, cost in picks
    ]


#: ``(job, alternative, start, cost)`` per job.  Time minimization
#: under 33 moves ``a`` to its third (cheapest) window; cost
#: minimization under 12 keeps every job on its first.
TIME_PICKS = (("a", 3, 11.0, 9.0), ("b", 1, 21.0, 10.0), ("c", 1, 39.0, 12.0))
COST_PICKS = (("a", 1, 0.0, 12.0), ("b", 1, 21.0, 10.0), ("c", 1, 39.0, 12.0))


def _dp_histograms(label: str, span: str) -> dict:
    return {
        f"dp.alternatives{{objective={label}}}": 2,
        f"dp.capacity{{objective={label}}}": 2,
        "phase.seconds{phase=phase2.dp}": 2,
        f"span.seconds{{span={span}}}": 2,
    }


def _memo_counters(label: str, cells: float) -> dict:
    """Two DP runs of ``cells`` cells each: one memo miss, then one hit."""
    return {
        f"dp.memo.hits{{objective={label}}}": 1.0,
        f"dp.memo.misses{{objective={label}}}": 1.0,
        f"dp.runs{{objective={label}}}": 2.0,
        f"dp.table_cells{{objective={label}}}": 2 * cells,
    }


def _optimize_expectations(
    label: str, limit: float, low: float, best: float, picks, total_time: float
) -> dict:
    """The six cases of one ``optimize`` objective (per-run records)."""
    total_cost = sum(pick[3] for pick in picks)
    result = [(job, start) for job, _, start, _ in picks]
    span = "phase2.optimize"
    infeasible = ("InfeasibleConstraintError", low, best)
    greedy_span = {f"span.seconds{{span={span}}}": 2}
    return {
        f"{label}-dp": {
            "result": (total_cost, total_time, False, result),
            "counters": _memo_counters(label, 8 * 401),
            "histograms": _dp_histograms(label, span),
            "records": _selected(label, False, *picks),
        },
        f"{label}-stepdown": {
            "result": (total_cost, total_time, True, result),
            "counters": {
                **_memo_counters(label, 8 * 101),
                f"optimize.degraded{{mode=stepdown,objective={label}}}": 2.0,
            },
            "histograms": _dp_histograms(label, span),
            "records": [
                {
                    "op": "dp.resolution_stepdown",
                    "objective": label,
                    "requested": 400,
                    "fitted": 100,
                },
                *_selected(label, True, *picks),
            ],
        },
        **{
            f"{label}-greedy-{mode}": {
                "result": (total_cost, total_time, True, result),
                "counters": {
                    f"optimize.degraded{{mode={reason},objective={label}}}": 2.0
                },
                "histograms": greedy_span,
                "records": [
                    {
                        "op": "dp.greedy_fallback",
                        "objective": label,
                        "reason": reason,
                        "limit": limit,
                    },
                    *_selected(label, True, *picks),
                ],
            }
            for mode, reason in (("cells", "max_cells"), ("deadline", "deadline"))
        },
        f"{label}-infeasible-dp": {
            "result": infeasible,
            "counters": {
                f"dp.infeasible{{objective={label}}}": 2.0,
                **_memo_counters(label, 8 * 401),
            },
            "histograms": _dp_histograms(label, span),
            "records": [{"op": "dp.infeasible", "objective": label, "limit": low}],
        },
        f"{label}-infeasible-greedy": {
            "result": infeasible,
            "counters": {f"dp.infeasible{{objective={label}}}": 2.0},
            "histograms": greedy_span,
            "records": [{"op": "dp.infeasible", "objective": label, "limit": low}],
        },
    }


BUDGET_SPAN = {"span.seconds{span=phase2.vo_budget}": 2}

EXPECTED = {
    **_optimize_expectations("time", 33.0, 30.0, 31.0, TIME_PICKS, 15.0),
    **_optimize_expectations("cost", 12.0, 8.0, 9.0, COST_PICKS, 9.0),
    # B* = 42: the fastest base (9) leaves 9 units of quota, spent on
    # b's and c's dearest windows.  vo_budget emits no dp.selected.
    "budget-dp": {
        "result": 42.0,
        "counters": _memo_counters("budget", 8 * 401),
        "histograms": _dp_histograms("budget", "phase2.vo_budget"),
        "records": [],
    },
    "budget-stepdown": {
        "result": 42.0,
        "counters": {
            **_memo_counters("budget", 8 * 101),
            "optimize.degraded{mode=stepdown,objective=budget}": 2.0,
        },
        "histograms": _dp_histograms("budget", "phase2.vo_budget"),
        "records": [
            {
                "op": "dp.resolution_stepdown",
                "objective": "budget",
                "requested": 400,
                "fitted": 100,
            }
        ],
    },
    "budget-greedy-cells": {
        "result": 42.0,
        "counters": {"optimize.degraded{mode=max_cells,objective=budget}": 2.0},
        "histograms": BUDGET_SPAN,
        "records": [
            {
                "op": "dp.greedy_fallback",
                "objective": "budget",
                "reason": "max_cells",
                "limit": 18.0,
            }
        ],
    },
    "budget-greedy-deadline": {
        "result": 42.0,
        "counters": {"optimize.degraded{mode=deadline,objective=budget}": 2.0},
        "histograms": BUDGET_SPAN,
        "records": [
            {
                "op": "dp.greedy_fallback",
                "objective": "budget",
                "reason": "deadline",
                "limit": 18.0,
            }
        ],
    },
    "budget-infeasible-dp": {
        "result": ("InfeasibleConstraintError", 8.0, 9.0),
        "counters": {
            "dp.infeasible{objective=budget}": 2.0,
            **_memo_counters("budget", 8 * 401),
        },
        "histograms": _dp_histograms("budget", "phase2.vo_budget"),
        "records": [{"op": "dp.infeasible", "objective": "budget", "limit": 8.0}],
    },
    "budget-infeasible-greedy": {
        "result": ("InfeasibleConstraintError", 8.0, 9.0),
        "counters": {"dp.infeasible{objective=budget}": 2.0},
        "histograms": BUDGET_SPAN,
        "records": [{"op": "dp.infeasible", "objective": "budget", "limit": 8.0}],
    },
}


def test_every_case_has_an_expectation():
    assert set(EXPECTED) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_phase2_surface(case):
    expected = EXPECTED[case]
    observed = surface(case)
    assert observed["results"] == [expected["result"]] * 2
    assert observed["counters"] == expected["counters"]
    assert observed["histograms"] == expected["histograms"]
    # Both runs emit the same records; seq numbers run on across them.
    assert observed["records"] == [
        {**record, "seq": seq} for seq, record in enumerate(expected["records"] * 2)
    ]
