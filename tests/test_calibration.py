"""Tests for the price-cap calibration harness (repro.sim.calibration)."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core import Criterion, InvalidRequestError
from repro.sim import ExperimentConfig, ParallelRunner, summarize
from repro.sim.calibration import (
    PAPER_TARGET,
    CalibrationTarget,
    calibrate,
    score,
)


@pytest.fixture(scope="module")
def small_summary():
    config = ExperimentConfig(objective=Criterion.TIME, iterations=40, seed=11)
    return summarize(ParallelRunner(config).run())


class TestScore:
    def test_perfect_match_scores_zero(self, small_summary):
        ratios = small_summary.ratios()
        target = CalibrationTarget(
            time_gain=ratios.amp_time_gain,
            cost_premium=ratios.amp_cost_premium,
            alp_alternatives_per_job=small_summary.alp.mean_alternatives_per_job,
            alternatives_factor=ratios.alternatives_factor,
        )
        assert score(small_summary, target) == pytest.approx(0.0)

    def test_distance_grows_with_mismatch(self, small_summary):
        near = CalibrationTarget(
            time_gain=small_summary.ratios().amp_time_gain + 0.01
        )
        far = CalibrationTarget(time_gain=small_summary.ratios().amp_time_gain + 0.2)
        assert score(small_summary, near) < score(small_summary, far)

    def test_empty_summary_scores_infinity(self, small_summary):
        empty = dataclasses.replace(small_summary, counted=0)
        assert math.isinf(score(empty))

    def test_zero_target_rejected(self, small_summary):
        with pytest.raises(InvalidRequestError):
            score(small_summary, CalibrationTarget(time_gain=0.0))


class TestCalibrate:
    def test_requires_candidates(self):
        with pytest.raises(InvalidRequestError):
            calibrate([])

    def test_results_sorted_by_distance(self):
        results = calibrate(
            [(0.9, 1.3), (2.0, 3.0)],
            iterations=30,
            seed=11,
        )
        assert len(results) == 2
        assert results[0].distance <= results[1].distance

    def test_default_range_beats_generous_cap(self):
        # The shipped default must fit the paper better than a cap so
        # generous that ALP stops being constrained at all.
        results = calibrate(
            [(0.9, 1.3), (2.5, 3.5)],
            iterations=40,
            seed=11,
        )
        assert results[0].factor_range == (0.9, 1.3)

    def test_paper_target_constants(self):
        assert PAPER_TARGET.time_gain == pytest.approx(0.35)
        assert PAPER_TARGET.alp_alternatives_per_job == pytest.approx(7.39)
