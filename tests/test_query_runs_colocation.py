"""Tests for co-location mining."""

import numpy as np
import pytest

from repro.apps.colocation import colocation_patterns


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
