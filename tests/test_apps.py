"""Tests for the join-based applications (DBSCAN, outliers, graphs)."""

import numpy as np
import pytest

from repro.apps.dbscan import NOISE, dbscan, dbscan_from_graph
from repro.apps.neighborhood import (NeighborhoodGraph, UnionFind,
                                     epsilon_graph, symmetric_csr)
from repro.apps.outliers import distance_based_outliers
from repro.core.ego_join import ego_self_join
from repro.data.synthetic import gaussian_clusters


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert len({uf.find(i) for i in range(4)}) == 4

    def test_union_and_find(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.union(1, 2)
        assert not uf.union(0, 2)  # already merged
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)

    def test_labels_compact(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(2, 3)
        labels = uf.labels()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert len(set(labels.tolist())) == 4

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            UnionFind(-1)


class TestNeighborhoodGraph:
    def test_degrees_match_direct_count(self, rng):
        pts = rng.random((80, 3))
        eps = 0.3
        graph = epsilon_graph(pts, eps)
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        expected = (d2 <= eps * eps).sum(axis=1) - 1
        np.testing.assert_array_equal(graph.degree(), expected)

    def test_neighbors_symmetric(self, rng):
        pts = rng.random((50, 2))
        graph = epsilon_graph(pts, 0.3)
        for i in range(50):
            for j in graph.neighbors(i):
                assert i in graph.neighbors(int(j)).tolist()

    def test_num_edges_matches_join(self, rng):
        pts = rng.random((60, 2))
        result = ego_self_join(pts, 0.25)
        graph = NeighborhoodGraph.build(pts, 0.25, result=result)
        assert graph.num_edges() == result.count

    def test_components_of_two_blobs(self):
        a = np.random.default_rng(0).normal(0.2, 0.01, (30, 2))
        b = np.random.default_rng(1).normal(0.8, 0.01, (30, 2))
        pts = np.vstack([a, b])
        graph = epsilon_graph(pts, 0.1)
        labels = graph.connected_components()
        assert len(set(labels[:30].tolist())) == 1
        assert len(set(labels[30:].tolist())) == 1
        assert labels[0] != labels[30]

    def test_isolated_points_are_singletons(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        graph = epsilon_graph(pts, 0.5)
        labels = graph.connected_components()
        assert labels[0] != labels[1]

    def test_symmetric_csr_rows_carry_values(self):
        """Each pair lands in both rows, in pair order, with its value."""
        a, b = np.array([0, 2, 1]), np.array([1, 0, 3])
        dists = np.array([0.1, 0.2, 0.3])
        indptr, indices, values = symmetric_csr(4, a, b, dists)
        np.testing.assert_array_equal(indptr, [0, 2, 4, 5, 6])
        np.testing.assert_array_equal(indices, [1, 2, 3, 0, 0, 1])
        np.testing.assert_array_equal(values, [0.1, 0.2, 0.3, 0.1, 0.2, 0.3])
        same_ptr, same_idx, none = symmetric_csr(4, a, b)
        assert none is None
        np.testing.assert_array_equal(same_ptr, indptr)
        np.testing.assert_array_equal(same_idx, indices)

    def test_from_pairs_rejects_mismatch(self):
        with pytest.raises(ValueError):
            NeighborhoodGraph.from_pairs(3, 0.5, np.array([0]),
                                         np.array([1, 2]))


class TestDBSCAN:
    def test_finds_planted_clusters(self):
        rng = np.random.default_rng(11)
        centers = np.array([[0.2, 0.2, 0.2], [0.8, 0.2, 0.5],
                            [0.2, 0.8, 0.8], [0.8, 0.8, 0.2]])
        pts = np.vstack([c + rng.normal(0, 0.01, (150, 3))
                         for c in centers])
        result = dbscan(pts, epsilon=0.05, min_pts=5)
        assert result.num_clusters == 4
        assert result.noise_mask.mean() < 0.05
        # Each planted blob maps to exactly one found cluster.
        for k in range(4):
            blob = result.labels[k * 150:(k + 1) * 150]
            clustered = blob[blob != NOISE]
            assert len(set(clustered.tolist())) == 1

    def test_noise_detected(self):
        rng = np.random.default_rng(3)
        cluster = rng.normal(0.5, 0.005, (50, 2))
        lone = np.array([[0.05, 0.05], [0.95, 0.95]])
        pts = np.vstack([cluster, lone])
        result = dbscan(pts, epsilon=0.05, min_pts=4)
        assert result.labels[50] == NOISE
        assert result.labels[51] == NOISE
        assert result.num_clusters == 1

    def test_core_points_meet_min_pts(self, rng):
        pts = rng.random((100, 2))
        eps, min_pts = 0.15, 4
        result = dbscan(pts, eps, min_pts)
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        neighborhood = (d2 <= eps * eps).sum(axis=1)  # includes self
        np.testing.assert_array_equal(result.core_mask,
                                      neighborhood >= min_pts)

    def test_border_points_adjacent_to_core(self, rng):
        pts = gaussian_clusters(300, 2, clusters=3, std=0.02, seed=13)
        result = dbscan(pts, 0.05, 6)
        eps_sq = 0.05 * 0.05
        for i in np.nonzero(result.border_mask)[0]:
            diff = pts[result.core_mask] - pts[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            assert (d2 <= eps_sq).any()

    def test_all_noise_when_min_pts_huge(self, rng):
        pts = rng.random((30, 2))
        result = dbscan(pts, 0.05, min_pts=25)
        assert result.num_clusters == 0
        assert result.noise_mask.all()

    def test_accepts_precomputed_join(self, rng):
        pts = rng.random((60, 2))
        join = ego_self_join(pts, 0.2)
        a = dbscan(pts, 0.2, 4, join_result=join)
        b = dbscan(pts, 0.2, 4)
        np.testing.assert_array_equal(a.core_mask, b.core_mask)
        assert a.num_clusters == b.num_clusters

    def test_rejects_bad_min_pts(self, rng):
        graph = epsilon_graph(rng.random((10, 2)), 0.3)
        with pytest.raises(ValueError):
            dbscan_from_graph(graph, 0)

    def test_core_labels_transitively_consistent(self, rng):
        """Core points within eps of each other share a cluster."""
        pts = gaussian_clusters(300, 2, clusters=2, std=0.02, seed=17)
        result = dbscan(pts, 0.06, 5)
        eps_sq = 0.06 * 0.06
        core_idx = np.nonzero(result.core_mask)[0]
        for i in core_idx:
            diff = pts[core_idx] - pts[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            for j in core_idx[d2 <= eps_sq]:
                assert result.labels[i] == result.labels[j]


class TestOutliers:
    def test_plants_obvious_outlier(self):
        rng = np.random.default_rng(5)
        dense = rng.normal(0.5, 0.02, (100, 3))
        pts = np.vstack([dense, [[0.0, 0.0, 0.0]]])
        result = distance_based_outliers(pts, distance=0.2, fraction=0.95)
        assert result.outlier_mask[100]
        assert result.outlier_mask[:100].mean() < 0.1

    def test_neighbor_counts_match_direct(self, rng):
        pts = rng.random((70, 2))
        result = distance_based_outliers(pts, 0.3, fraction=0.9)
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        expected = (d2 <= 0.09).sum(axis=1) - 1
        np.testing.assert_array_equal(result.neighbor_counts, expected)

    def test_fraction_one_marks_no_neighbour_points(self, rng):
        pts = rng.random((40, 2))
        result = distance_based_outliers(pts, 0.05, fraction=1.0)
        assert (result.neighbor_counts[result.outlier_mask] == 0).all()

    def test_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            distance_based_outliers(rng.random((5, 2)), 0.1, fraction=0.0)

    def test_outlier_ids_match_mask(self, rng):
        pts = rng.random((30, 2))
        result = distance_based_outliers(pts, 0.1, fraction=0.9)
        np.testing.assert_array_equal(
            result.outlier_ids, np.nonzero(result.outlier_mask)[0])
        assert result.num_outliers == result.outlier_mask.sum()
