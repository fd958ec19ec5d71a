"""Tests for the query-optimizer cost model (paper future work)."""

import numpy as np
import pytest

from repro.analysis.optimizer import (backward_fraction, budget_geometry,
                                      calibrate_cpu, choose_unit_size,
                                      estimate_ego_join, interval_fraction)
from repro.analysis.costmodel import DEFAULT_CPU_MODEL
from repro.core.ego_join import ego_self_join_file
from repro.data.loader import make_point_file
from repro.data.synthetic import uniform


def measured_run(n, d, eps, unit_bytes, buffer_units, seed=1):
    pts = uniform(n, d, seed=seed)
    disk, pf = make_point_file(pts)
    try:
        return ego_self_join_file(pf, eps, unit_bytes=unit_bytes,
                                  buffer_units=buffer_units,
                                  materialize=False)
    finally:
        disk.close()


class TestFractions:
    def test_interval_is_two_sided(self):
        assert interval_fraction(0.2) == pytest.approx(0.4)
        assert backward_fraction(0.2) == pytest.approx(0.2)

    def test_clipped_at_one(self):
        assert interval_fraction(0.7) == 1.0
        assert backward_fraction(1.5) == 1.0

    def test_extent_scales(self):
        assert interval_fraction(0.2, data_extent=2.0) == pytest.approx(0.2)

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError):
            interval_fraction(0.2, data_extent=0.0)


class TestEstimate:
    def test_unit_count_exact(self):
        est = estimate_ego_join(1000, 8, 0.2, unit_bytes=7200,
                                buffer_units=4)
        assert est.units == 10  # 1000 * 72 / 7200

    def test_gallop_detected_with_big_buffer(self):
        est = estimate_ego_join(10000, 8, 0.1, unit_bytes=7200,
                                buffer_units=1000)
        assert est.gallop
        assert est.predicted_unit_loads == est.units

    def test_crabstep_predicts_rereads(self):
        est = estimate_ego_join(10000, 8, 0.4, unit_bytes=7200,
                                buffer_units=3)
        assert not est.gallop
        assert est.predicted_unit_loads > est.units

    def test_loads_prediction_tracks_measurement(self):
        """The key optimizer property: predictions within ~25 % of runs."""
        for n, eps in [(8000, 0.15), (8000, 0.3), (16000, 0.25)]:
            rec = 72
            budget = int(n * rec * 0.10)
            unit_bytes = max(16 * rec, budget // 8)
            buffer_units = max(2, budget // unit_bytes)
            est = estimate_ego_join(n, 8, eps, unit_bytes, buffer_units)
            run = measured_run(n, 8, eps, unit_bytes, buffer_units)
            measured = run.schedule_stats.total_unit_loads
            assert est.predicted_unit_loads == pytest.approx(
                measured, rel=0.25)
            assert est.predicted_io_time_s == pytest.approx(
                run.simulated_io_time_s, rel=0.35)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            estimate_ego_join(-1, 8, 0.2, 1024, 4)
        with pytest.raises(ValueError):
            estimate_ego_join(10, 8, 0.2, 1024, 1)
        with pytest.raises(ValueError):
            estimate_ego_join(10, 8, -0.2, 1024, 4)

    def test_empty_dataset(self):
        est = estimate_ego_join(0, 8, 0.2, 1024, 4)
        assert est.predicted_unit_loads == 0


class TestCalibrateCpu:
    def test_scales_quadratically(self, rng):
        pts = uniform(600, 8, seed=3)
        small = calibrate_cpu(pts, 0.25, n_target=600)
        big = calibrate_cpu(pts, 0.25, n_target=1200)
        assert big == pytest.approx(4 * small)

    def test_roughly_tracks_measurement(self):
        n, d, eps = 8000, 8, 0.25
        pts = uniform(n, d, seed=4)
        predicted = calibrate_cpu(pts[::4], eps, n_target=n)
        run = measured_run(n, d, eps, unit_bytes=14400, buffer_units=8,
                           seed=4)
        measured = DEFAULT_CPU_MODEL.cpu_time(run.cpu, d)
        # Sampling keeps this within a small factor, not exact.
        assert predicted == pytest.approx(measured, rel=1.5)
        assert predicted > 0

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            calibrate_cpu(np.zeros((1, 2)), 0.2, 100)


class TestBudgetGeometry:
    """``(budget_bytes, unit_bytes, buffer_units)``; d = 8 records are
    72 bytes, so the floors are a 288-byte budget, 1152-byte units and
    two frames."""

    @pytest.mark.parametrize("n, fraction, expected", [
        (10_000, 0.1, (72_000, 9_000, 8)),   # no floor binds
        (1_000, 0.1, (7_200, 1_152, 6)),     # unit floor: 16 records
        (100, 0.1, (720, 1_152, 2)),         # frame floor: 2 units
        (1, 0.1, (288, 1_152, 2)),           # budget floor: 4 records
        (10_000, 0.05, (36_000, 4_500, 8)),
    ])
    def test_values(self, n, fraction, expected):
        assert budget_geometry(n, 8, fraction) == expected


class TestChooseUnitSize:
    def test_returns_feasible_configuration(self):
        budget = 100_000
        best = choose_unit_size(50_000, 8, 0.2, budget_bytes=budget)
        assert best.unit_bytes * best.buffer_units <= budget * 2
        assert best.buffer_units >= 2

    def test_picks_minimum_of_candidates(self):
        budget = 200_000
        candidates = [4096, 16384, 65536]
        best = choose_unit_size(100_000, 8, 0.15, budget,
                                candidates=candidates)
        all_costs = {
            ub: estimate_ego_join(100_000, 8, 0.15, ub,
                                  max(2, budget // ub)).predicted_io_time_s
            for ub in candidates}
        assert best.predicted_io_time_s == min(all_costs.values())

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            choose_unit_size(1000, 8, 0.2, budget_bytes=0)
