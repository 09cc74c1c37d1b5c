"""The observable surface of phase 2, pinned case by case.

``optimize`` (TIME and COST) and ``vo_budget`` each run the paper's
eq. (1) backward run on a feasible limit and on a genuinely infeasible
one.  Every case runs twice through one fresh :class:`DPMemo` with
in-memory telemetry, so the second run is a memo hit.

For each case the test pins the result, the exact counters, how often
each histogram was observed, the decision records (op and fields, in
order) and, when the instance is infeasible, the exception's type,
``limit`` and ``best``.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Criterion,
    InfeasibleConstraintError,
    Job,
    ResourceRequest,
    Slot,
    TaskAllocation,
    Window,
)
from repro.core.optimize import DPMemo, optimize, vo_budget
from repro.obs.telemetry import configure, get_telemetry, install

from tests.conftest import make_resource


@pytest.fixture(autouse=True)
def _restore_telemetry():
    previous = get_telemetry()
    yield
    install(previous)


def _window(price: float, volume: float, start: float) -> Window:
    node = make_resource(price=price)
    slot = Slot(node, start, start + volume)
    request = ResourceRequest(node_count=1, volume=volume)
    return Window(request, [TaskAllocation(slot, start, start + volume)])


def _alts(spec: dict[str, list[tuple[float, float]]]) -> dict[Job, list[Window]]:
    """One job per name; its ``(price, volume)`` windows laid out disjointly."""
    mapping: dict[Job, list[Window]] = {}
    cursor = 0.0
    for name, pairs in spec.items():
        windows = []
        for price, volume in pairs:
            windows.append(_window(price, volume, start=cursor))
            cursor += volume + 1.0
        mapping[Job(ResourceRequest(1, 10.0), name=name)] = windows
    return mapping


SPEC = {
    "a": [(4.0, 3.0), (2.0, 6.0), (1.0, 9.0)],
    "b": [(5.0, 2.0), (3.0, 5.0), (2.0, 8.0)],
    "c": [(3.0, 4.0), (2.0, 7.0)],
}

#: ``(call, limit)`` per case.  The feasible limits bind: a budget of 33
#: forces job ``a`` onto its cheapest window, a quota of 12 keeps every
#: job on a short one, and ``vo_budget`` under a quota of 18 spends the
#: slack on ``b`` and ``c``.  The infeasible limits sit below the
#: cheapest (31) and the fastest (9) selection.
CASES = {
    "time-dp": ("time", 33.0),
    "time-infeasible-dp": ("time", 30.0),
    "cost-dp": ("cost", 12.0),
    "cost-infeasible-dp": ("cost", 8.0),
    "budget-dp": ("budget", 18.0),
    "budget-infeasible-dp": ("budget", 8.0),
}


def _run(call: str, limit: float, memo: DPMemo):
    """One phase-2 call; returns its result or the raised error's shape."""
    alts = _alts(SPEC)
    try:
        if call == "budget":
            return vo_budget(alts, limit, resolution=400, memo=memo)
        objective = Criterion.TIME if call == "time" else Criterion.COST
        combination = optimize(alts, objective, limit, resolution=400, memo=memo)
    except InfeasibleConstraintError as error:
        return (type(error).__name__, error.limit, error.best)
    return (
        combination.total_cost,
        combination.total_time,
        sorted(
            (job.name, window.start) for job, window in combination.selection.items()
        ),
    )


def surface(case: str) -> dict:
    """Result, counters, histogram counts and decisions of one case, run twice."""
    call, limit = CASES[case]
    telemetry = configure()
    memo = DPMemo()
    results = [_run(call, limit, memo) for _ in range(2)]
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


def _selected(objective: str, *picks: tuple[str, int, float, float]):
    """``dp.selected`` records for ``(job, alternative, start, cost)`` picks."""
    return [
        {
            "op": "dp.selected",
            "job": job,
            "objective": objective,
            "alternative": alternative,
            "start": start,
            "cost": cost,
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


#: Undominated alternatives per case, of SPEC's 8: ``dp.table_cells``
#: counts one row of 401 bins for each.  Windows as ``(time, cost)``:
#: a = (3, 12), (6, 12), (9, 9); b = (2, 10), (5, 15), (8, 16);
#: c = (4, 12), (7, 14).  An alternative is dominated when an earlier
#: one of its job is no heavier (in bins) and no worse in ``g``.
KEPT = {
    # g = time, z = cost: a2 (a1 is as dear and faster), b2 and b3
    # (b1 is cheaper and faster) and c2 (c1 likewise) are dominated;
    # a1, a3, b1, c1 remain.
    "time-dp": 4,
    "time-infeasible-dp": 4,
    # g = cost, z = time: a2 (a1 is as cheap and shorter), b2, b3 and
    # c2 (b1 and c1 are cheaper and shorter); a1, a3, b1, c1 remain.
    "cost-dp": 4,
    # As cost-dp, and a3 (9 time units = 450 bins) exceeds the 400-bin
    # capacity of a quota of 8: a1, b1, c1 remain.
    "cost-infeasible-dp": 3,
    # g = income (maximized), z = time: a1 earns at least as much as a2
    # and a3 in less time; b's and c's longer windows earn more, so all
    # five remain beside a1.  Under a quota of 8, b3 (8 time units) is
    # 400 bins, exactly the capacity, and a3 is dominated either way.
    "budget-dp": 6,
    "budget-infeasible-dp": 6,
}


def _memo_counters(case: str) -> dict:
    """Two DP runs of the case's kept rows × 401 bins: one memo miss, one hit."""
    label = CASES[case][0]
    return {
        f"dp.memo.hits{{objective={label}}}": 1.0,
        f"dp.memo.misses{{objective={label}}}": 1.0,
        f"dp.runs{{objective={label}}}": 2.0,
        f"dp.table_cells{{objective={label}}}": 2.0 * KEPT[case] * 401,
    }


def _infeasible(label: str, span: str, low: float, best: float) -> dict:
    return {
        "result": ("InfeasibleConstraintError", low, best),
        "counters": {
            f"dp.infeasible{{objective={label}}}": 2.0,
            **_memo_counters(f"{label}-infeasible-dp"),
        },
        "histograms": _dp_histograms(label, span),
        "records": [{"op": "dp.infeasible", "objective": label, "limit": low}],
    }


def _optimize_expectations(
    label: str, low: float, best: float, picks, total_time: float
) -> dict:
    """The two cases of one ``optimize`` objective (per-run records)."""
    total_cost = sum(pick[3] for pick in picks)
    result = [(job, start) for job, _, start, _ in picks]
    return {
        f"{label}-dp": {
            "result": (total_cost, total_time, result),
            "counters": _memo_counters(f"{label}-dp"),
            "histograms": _dp_histograms(label, "phase2.optimize"),
            "records": _selected(label, *picks),
        },
        f"{label}-infeasible-dp": _infeasible(label, "phase2.optimize", low, best),
    }


EXPECTED = {
    **_optimize_expectations("time", 30.0, 31.0, TIME_PICKS, 15.0),
    **_optimize_expectations("cost", 8.0, 9.0, COST_PICKS, 9.0),
    # B* = 42: the fastest base (9) leaves 9 units of quota, spent on
    # b's and c's dearest windows.  vo_budget emits no dp.selected.
    "budget-dp": {
        "result": 42.0,
        "counters": _memo_counters("budget-dp"),
        "histograms": _dp_histograms("budget", "phase2.vo_budget"),
        "records": [],
    },
    "budget-infeasible-dp": _infeasible("budget", "phase2.vo_budget", 8.0, 9.0),
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
