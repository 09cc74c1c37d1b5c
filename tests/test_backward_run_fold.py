"""The phase-2 fold against the full-table backward run it replaced.

:func:`repro.core.optimize._backward_run` folds only each job's
undominated alternatives into one ``best`` vector.  The reference below
is the earlier body verbatim: it fills an ``(alternatives × bins)``
table per job and reduces it with ``argmin`` / ``argmax``.  Both must
choose the same indices and reach the same ``f[capacity]`` bits, ties
included — which is why the reference is this table and not
``brute_force``, whose tie rule differs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criteria import Criterion
from repro.core.optimize import (
    _READ,
    _backward_run,
    _discretize,
    _undominated,
    time_quota,
)
from repro.core.search import find_alternatives
from tests.conftest import make_random_batch, make_random_slot_list


def table_backward_run(
    g_values: list[list[float]],
    z_weights: list[list[int]],
    capacity: int,
    *,
    maximize: bool,
) -> tuple[list[int], float] | None:
    """Solve the multiple-choice knapsack by the paper's backward run.

    ``f_i(b)`` is the extremal total of ``g`` over jobs ``i..n`` when bins
    ``b`` of the constraint remain; the recurrence is eq. (1).  Vectorised
    over the constraint axis with numpy.

    Returns:
        ``(chosen indices, extremal objective)`` or ``None`` when no
        selection fits the capacity.
    """
    bad = math.inf if not maximize else -math.inf
    spread = capacity + 1
    f_next = np.zeros(spread)
    choices: list[np.ndarray] = []
    for job_g, job_z in zip(reversed(g_values), reversed(z_weights)):
        table = np.full((len(job_g), spread), bad)
        for alt, (g, z) in enumerate(zip(job_g, job_z)):
            if z > capacity:
                continue
            row = table[alt]
            row[z:] = g + f_next[: spread - z]
        if maximize:
            choice = np.argmax(table, axis=0)
            f_next = np.max(table, axis=0)
        else:
            choice = np.argmin(table, axis=0)
            f_next = np.min(table, axis=0)
        choices.append(choice)
    choices.reverse()
    if not math.isfinite(f_next[capacity]):
        return None
    # Forward reconstruction: Z_1 = Z*, Z_{i+1} = Z_i − z_i(s̄_i).
    selection: list[int] = []
    remaining = capacity
    for job_index, choice in enumerate(choices):
        alt = int(choice[remaining])
        selection.append(alt)
        remaining -= z_weights[job_index][alt]
    return selection, float(f_next[capacity])


def fold(g_values, z_weights, capacity, *, maximize):
    """The production DP, with the kept sets computed as ``_solve`` does."""
    kept = [
        _undominated(job_g, job_z, capacity, maximize=maximize)
        for job_g, job_z in zip(g_values, z_weights)
    ]
    return _backward_run(g_values, z_weights, kept, capacity, maximize=maximize)


def bits(solved):
    """Selection indices and the exact bits of ``f[capacity]``."""
    if solved is None:
        return None
    selection, value = solved
    return selection, value.hex()


def assert_same(g_values, z_weights, capacity, *, maximize):
    expected = table_backward_run(g_values, z_weights, capacity, maximize=maximize)
    observed = fold(g_values, z_weights, capacity, maximize=maximize)
    assert bits(observed) == bits(expected)


def discretized(g_values, flat_z, limit, resolution):
    """``(g rows, z bins, capacity)``, binned and split per job as ``_solve`` does."""
    weights, capacity = _discretize(flat_z, limit, resolution)
    z_weights = []
    cursor = 0
    for job_g in g_values:
        z_weights.append(weights[cursor : cursor + len(job_g)])
        cursor += len(job_g)
    return g_values, z_weights, capacity


#: Objective values drawn from a small pool, so jobs repeat them: equal
#: ``g`` with equal bins makes exact ties, and ``0.1 + 0.2`` style sums
#: exercise rounding.  No ``-0.0``, which windows never carry: ``min``
#: may return either zero from a ``0.0`` / ``-0.0`` tie, the fold the
#: first.
G_VALUES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 1.5, 2.0, 3.0, 7.25, -1.0, 1e6]),
    st.floats(min_value=-50.0, max_value=50.0).map(lambda g: g + 0.0),
)

#: Raw constrained values: small integers collide in the same bin, and
#: values above the limit discretize past the capacity.
Z_VALUES = st.one_of(st.integers(0, 12).map(float), st.floats(0.0, 12.0))


@st.composite
def instances(draw):
    """``(g rows, z bins, capacity, maximize)`` discretized as ``_solve`` does."""
    jobs = draw(st.integers(1, 5))
    pairs = [
        draw(st.lists(st.tuples(G_VALUES, Z_VALUES), min_size=1, max_size=7))
        for _ in range(jobs)
    ]
    # A job whose every alternative is a copy of one pair.
    if draw(st.booleans()):
        job = draw(st.integers(0, jobs - 1))
        pairs[job] = [pairs[job][0]] * len(pairs[job])
    limit = float(draw(st.integers(0, 30)))
    resolution = draw(st.integers(1, 40))
    g_values = [[g for g, _ in job] for job in pairs]
    flat_z = [z for job in pairs for _, z in job]
    return (*discretized(g_values, flat_z, limit, resolution), draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(instances())
def test_fold_matches_table(instance):
    g_values, z_weights, capacity, maximize = instance
    assert_same(g_values, z_weights, capacity, maximize=maximize)


@pytest.mark.parametrize("maximize", [False, True])
def test_identical_alternatives_resolve_to_the_first(maximize):
    g_values = [[2.0, 2.0], [1.0]]
    z_weights = [[3, 3], [1]]
    assert fold(g_values, z_weights, 10, maximize=maximize) == ([0, 0], 3.0)
    assert_same(g_values, z_weights, 10, maximize=maximize)


@pytest.mark.parametrize("maximize", [False, True])
def test_zero_capacity_keeps_only_weightless_alternatives(maximize):
    # A limit of 0: only z = 0 fits; the second job has none, so the
    # instance is infeasible in both directions.
    assert fold([[4.0, 1.0]], [[0, 1]], 0, maximize=maximize) == ([0], 4.0)
    assert fold([[4.0], [1.0]], [[0], [2]], 0, maximize=maximize) is None
    assert_same([[4.0], [1.0]], [[0], [2]], 0, maximize=maximize)


def test_undominated_keeps_the_earliest_of_equals():
    # b repeats a, c is heavier and no better, d is lighter, e too heavy.
    assert _undominated(
        [1.0, 1.0, 2.0, 5.0, 0.0], [2, 2, 3, 1, 9], 8, maximize=False
    ) == [0, 3]
    # Maximizing flips the g test: c earns more, d less in less time.
    assert _undominated(
        [1.0, 1.0, 2.0, 0.5, 9.0], [2, 2, 3, 1, 9], 8, maximize=True
    ) == [0, 2, 3]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize(
    "measure,maximize", [(Criterion.TIME, False), (Criterion.COST, False), (Criterion.COST, True)]
)
def test_fold_matches_table_on_phase1_alternatives(seed, measure, maximize):
    result = find_alternatives(make_random_slot_list(seed), make_random_batch(seed))
    covered = {job: windows for job, windows in result.alternatives.items() if windows}
    if not covered:
        pytest.skip("no job covered")
    lists = list(covered.values())
    if measure is Criterion.TIME:
        # A budget that binds: 80 % of the dearest selection's cost.
        limit = 0.8 * sum(max(window.cost for window in windows) for windows in lists)
    else:
        limit = time_quota(covered)
    value, weight = _READ[measure], _READ[measure.dual]
    g_values = [[value(window) for window in windows] for windows in lists]
    flat_z = [weight(window) for windows in lists for window in windows]
    g_values, z_weights, capacity = discretized(g_values, flat_z, limit, 2000)
    assert_same(g_values, z_weights, capacity, maximize=maximize)
