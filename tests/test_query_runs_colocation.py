"""Tests for replacement-selection runs and co-location mining."""

import numpy as np
import pytest

from repro.apps.colocation import colocation_patterns
from repro.core.ego_join import ego_key_function
from repro.core.ego_order import is_ego_sorted
from repro.sorting.external_sort import external_sort
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile

from conftest import make_file


class TestReplacementSelection:
    def run_sort(self, points, memory, strategy):
        eps = 0.2
        with SimulatedDisk() as src, SimulatedDisk() as dst, \
                SimulatedDisk() as scratch:
            pf = make_file(src, points)
            out, stats = external_sort(pf, dst, scratch,
                                       ego_key_function(eps), memory,
                                       run_strategy=strategy)
            ids, pts = out.read_all()
            return ids.copy(), pts.copy(), stats

    def test_produces_sorted_output(self, rng):
        pts = rng.random((400, 3))
        ids, out, _ = self.run_sort(pts, 40, "replacement")
        assert is_ego_sorted(out, 0.2)
        assert sorted(ids.tolist()) == list(range(400))

    def test_fewer_runs_than_load_strategy(self, rng):
        """Replacement selection gives ~2x longer runs on random input."""
        pts = rng.random((600, 2))
        _, _, load = self.run_sort(pts, 50, "load")
        _, _, repl = self.run_sort(pts, 50, "replacement")
        assert repl.runs_generated < load.runs_generated
        assert repl.runs_generated <= load.runs_generated * 0.75

    def test_presorted_input_single_run(self, rng):
        """Already-sorted input collapses to one run (the classic win)."""
        from repro.core.ego_order import ego_sorted
        _ids, pts = ego_sorted(rng.random((300, 2)), 0.2)
        _, _, stats = self.run_sort(pts, 20, "replacement")
        assert stats.runs_generated == 1

    def test_unknown_strategy_rejected(self, rng):
        with pytest.raises(ValueError):
            self.run_sort(rng.random((10, 2)), 8, "quantum")

    def test_same_result_as_load(self, rng):
        pts = rng.random((200, 2))
        ids_a, out_a, _ = self.run_sort(pts, 30, "load")
        ids_b, out_b, _ = self.run_sort(pts, 30, "replacement")
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(out_a, out_b)


class TestColocation:
    def _planted(self, rng, n_sites=40, noise=0.003):
        sites = rng.random((n_sites, 2))
        a = sites + rng.normal(0, noise, sites.shape)
        b = sites + rng.normal(0, noise, sites.shape)
        c = rng.random((n_sites, 2))
        pts = np.vstack([a, b, c])
        labels = np.array([0] * n_sites + [1] * n_sites + [2] * n_sites)
        return pts, labels

    def test_finds_planted_pattern(self, rng):
        pts, labels = self._planted(rng)
        patterns = colocation_patterns(pts, labels, epsilon=0.02,
                                       min_participation=0.5)
        tops = {(p.label_a, p.label_b) for p in patterns}
        assert (0, 1) in tops

    def test_independent_labels_not_reported(self, rng):
        pts, labels = self._planted(rng)
        patterns = colocation_patterns(pts, labels, epsilon=0.02,
                                       min_participation=0.5)
        pairs = {(p.label_a, p.label_b) for p in patterns}
        assert (0, 2) not in pairs
        assert (1, 2) not in pairs

    def test_participation_index_is_min(self, rng):
        pts, labels = self._planted(rng)
        patterns = colocation_patterns(pts, labels, epsilon=0.02,
                                       min_participation=0.1)
        for p in patterns:
            assert p.participation_index == pytest.approx(
                min(p.participation_a, p.participation_b))

    def test_sorted_by_strength(self, rng):
        pts, labels = self._planted(rng)
        patterns = colocation_patterns(pts, labels, epsilon=0.05,
                                       min_participation=0.05)
        strengths = [p.participation_index for p in patterns]
        assert strengths == sorted(strengths, reverse=True)

    def test_rejects_bad_inputs(self, rng):
        pts = rng.random((10, 2))
        with pytest.raises(ValueError):
            colocation_patterns(pts, [0] * 9, 0.1)
        with pytest.raises(ValueError):
            colocation_patterns(pts, [0] * 10, 0.1,
                                min_participation=0.0)

    def test_within_label_pattern(self, rng):
        cluster = rng.normal(0.5, 0.002, (40, 2))
        spread = rng.random((40, 2))
        pts = np.vstack([cluster, spread])
        labels = np.array([7] * 40 + [9] * 40)
        patterns = colocation_patterns(pts, labels, epsilon=0.02,
                                       min_participation=0.8)
        assert any(p.label_a == 7 and p.label_b == 7 for p in patterns)
