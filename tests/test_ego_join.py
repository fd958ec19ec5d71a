"""Tests for the top-level EGO join entry points."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_join import (ego_join, ego_self_join,
                                 ego_self_join_file)
from repro.core.result import JoinResult
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import CPUCounters

from conftest import brute_truth, make_file


class TestInMemorySelfJoin:
    def test_matches_brute_force(self, rng):
        pts = rng.random((250, 4))
        eps = 0.3
        result = ego_self_join(pts, eps)
        assert result.canonical_pair_set() == brute_truth(pts, eps)

    def test_empty_input(self):
        result = ego_self_join(np.empty((0, 3)), 0.5)
        assert result.count == 0

    def test_custom_ids(self, rng):
        pts = rng.random((30, 2))
        ids = np.arange(1000, 1030)
        result = ego_self_join(pts, 0.4, ids=ids)
        a, b = result.pairs()
        assert ((a >= 1000) & (a < 1030)).all()
        assert ((b >= 1000) & (b < 1030)).all()

    def test_counters_populated(self, rng):
        cpu = CPUCounters()
        ego_self_join(rng.random((50, 3)), 0.3, cpu=cpu)
        assert cpu.distance_calculations > 0
        assert cpu.sequence_pairs > 0

    def test_existing_result_extended(self, rng):
        result = JoinResult()
        ego_self_join(rng.random((20, 2)), 0.5, result=result)
        count_first = result.count
        ego_self_join(rng.random((20, 2)), 0.5, result=result)
        assert result.count >= count_first

    def test_rejects_bad_epsilon(self, rng):
        with pytest.raises(ValueError):
            ego_self_join(rng.random((5, 2)), -0.5)

    @given(st.floats(min_value=0.01, max_value=1.4),
           st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_epsilon_sweep_property(self, eps, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((60, 3))
        result = ego_self_join(pts, eps)
        assert result.canonical_pair_set() == brute_truth(pts, eps)

    def test_monotone_in_epsilon(self, rng):
        pts = rng.random((100, 3))
        small = ego_self_join(pts, 0.1).canonical_pair_set()
        large = ego_self_join(pts, 0.3).canonical_pair_set()
        assert small <= large


class TestInMemoryTwoSetJoin:
    def test_matches_brute_force(self, rng):
        eps = 0.25
        r = rng.random((60, 3))
        s = rng.random((45, 3))
        result = ego_join(r, s, eps)
        expected = set()
        for i in range(60):
            for j in range(45):
                if np.linalg.norm(r[i] - s[j]) <= eps:
                    expected.add((i, j))
        assert result.pair_set() == expected

    def test_empty_side(self, rng):
        result = ego_join(np.empty((0, 2)), rng.random((10, 2)), 0.5)
        assert result.count == 0

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            ego_join(rng.random((5, 2)), rng.random((5, 3)), 0.5)

    def test_join_with_itself_gives_reflexive_pairs(self, rng):
        """R ⋈ R (two-set semantics) includes (i, i) pairs."""
        pts = rng.random((20, 2))
        result = ego_join(pts, pts, 0.2)
        pairs = result.pair_set()
        for i in range(20):
            assert (i, i) in pairs


class TestExternalSelfJoin:
    def test_matches_brute_force(self, rng):
        pts = rng.random((300, 4))
        eps = 0.25
        with SimulatedDisk() as disk:
            pf = make_file(disk, pts)
            report = ego_self_join_file(pf, eps, unit_bytes=1024,
                                        buffer_units=4)
            assert (report.result.canonical_pair_set()
                    == brute_truth(pts, eps))

    def test_report_accounting_complete(self, rng):
        pts = rng.random((200, 3))
        with SimulatedDisk() as disk:
            pf = make_file(disk, pts)
            report = ego_self_join_file(pf, 0.3, unit_bytes=512,
                                        buffer_units=4)
            assert report.sort_stats.records_sorted == 200
            assert report.schedule_stats.total_unit_loads > 0
            assert report.io.bytes_read > 0
            assert report.simulated_io_time_s > 0
            assert report.simulated_io_time_s == pytest.approx(
                report.sort_io_time_s + report.join_io_time_s)
            assert report.cpu.distance_calculations > 0

    def test_count_only_mode(self, rng):
        pts = rng.random((100, 2))
        with SimulatedDisk() as disk:
            pf = make_file(disk, pts)
            report = ego_self_join_file(pf, 0.2, unit_bytes=512,
                                        buffer_units=4,
                                        materialize=False)
            assert report.result.count == len(brute_truth(pts, 0.2))
            with pytest.raises(RuntimeError):
                report.result.pairs()

    def test_small_sort_memory_forces_multiple_runs(self, rng):
        # The sort works in the join's budget: two 512-byte units hold
        # 42 of the 24-byte records, so 150 records make four runs.
        pts = rng.random((150, 2))
        with SimulatedDisk() as disk:
            pf = make_file(disk, pts)
            report = ego_self_join_file(pf, 0.3, unit_bytes=512,
                                        buffer_units=2)
            assert report.sort_stats.runs_generated == 4
            assert (report.result.canonical_pair_set()
                    == brute_truth(pts, 0.3))

    def test_duplicate_coordinates(self):
        pts = np.array([[0.5, 0.5]] * 10 + [[0.9, 0.9]] * 5)
        with SimulatedDisk() as disk:
            pf = make_file(disk, pts)
            report = ego_self_join_file(pf, 0.1, unit_bytes=128,
                                        buffer_units=2)
            assert report.result.count == 10 * 9 // 2 + 5 * 4 // 2
