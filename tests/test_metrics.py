"""Tests for Minkowski/Chebyshev metric support."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.dbscan import dbscan
from repro.core.ego_join import ego_join, ego_self_join
from repro.core.metrics import (CHEBYSHEV, EUCLIDEAN, MANHATTAN, Metric,
                                get_metric)
from repro.core.result import JoinResult


def metric_truth(points, epsilon, metric):
    """Ground-truth pair set under an arbitrary metric."""
    pts = np.asarray(points, dtype=float)
    out = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if metric.distance(pts[i], pts[j]) <= epsilon:
                out.add((i, j))
    return out


class TestMetricObjects:
    def test_get_metric_by_name(self):
        assert get_metric("euclidean") is EUCLIDEAN
        assert get_metric("L1") is MANHATTAN
        assert get_metric("linf") is CHEBYSHEV
        assert get_metric(None) is EUCLIDEAN

    def test_get_metric_by_power(self):
        assert get_metric(2.0) is EUCLIDEAN
        assert get_metric(1) is MANHATTAN
        m = get_metric(3.0)
        assert m.power == 3.0

    def test_get_metric_passthrough(self):
        assert get_metric(CHEBYSHEV) is CHEBYSHEV

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_metric("cosine")

    def test_power_below_one_rejected(self):
        with pytest.raises(ValueError):
            Metric("bad", 0.5)

    def test_distances(self):
        a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert EUCLIDEAN.distance(a, b) == pytest.approx(5.0)
        assert MANHATTAN.distance(a, b) == pytest.approx(7.0)
        assert CHEBYSHEV.distance(a, b) == pytest.approx(4.0)
        assert get_metric(3.0).distance(a, b) == pytest.approx(
            (27 + 64) ** (1 / 3))

    def test_thresholds(self):
        assert EUCLIDEAN.threshold(0.5) == pytest.approx(0.25)
        assert MANHATTAN.threshold(0.5) == pytest.approx(0.5)
        assert CHEBYSHEV.threshold(0.5) == pytest.approx(0.5)

    def test_finalize_inverts_threshold(self):
        for metric in (EUCLIDEAN, MANHATTAN, CHEBYSHEV, get_metric(4.0)):
            val = metric.threshold(0.37)
            assert float(metric.finalize(np.asarray(val))) \
                == pytest.approx(0.37)


class TestJoinWithMetrics:
    @pytest.mark.parametrize("spec", ["manhattan", "chebyshev", 3.0])
    def test_self_join_matches_truth(self, rng, spec):
        metric = get_metric(spec)
        pts = rng.random((120, 3))
        eps = 0.3
        result = ego_self_join(pts, eps, metric=spec)
        assert result.canonical_pair_set() == metric_truth(pts, eps,
                                                           metric)

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_engines_agree_under_manhattan(self, rng, engine):
        pts = rng.random((60, 4))
        result = ego_self_join(pts, 0.4, metric="manhattan",
                               engine=engine)
        assert result.canonical_pair_set() == metric_truth(
            pts, 0.4, MANHATTAN)

    def test_chebyshev_wider_than_euclidean(self, rng):
        """L∞ ball contains the L2 ball contains the L1 ball."""
        pts = rng.random((100, 3))
        eps = 0.25
        l1 = ego_self_join(pts, eps, metric="l1").canonical_pair_set()
        l2 = ego_self_join(pts, eps).canonical_pair_set()
        linf = ego_self_join(pts, eps,
                             metric="linf").canonical_pair_set()
        assert l1 <= l2 <= linf

    def test_two_set_join_with_metric(self, rng):
        r, s = rng.random((40, 2)), rng.random((35, 2))
        eps = 0.3
        result = ego_join(r, s, eps, metric="chebyshev")
        expected = {(i, j) for i in range(40) for j in range(35)
                    if CHEBYSHEV.distance(r[i], s[j]) <= eps}
        assert result.pair_set() == expected

    def test_parallel_join_with_metric(self, rng):
        # The metric travels to the worker processes.
        from repro.core.ego_join import ego_self_join_file
        from repro.storage.disk import SimulatedDisk
        from conftest import make_file
        pts = rng.random((150, 3))
        with SimulatedDisk() as disk:
            report = ego_self_join_file(make_file(disk, pts), 0.35,
                                        unit_bytes=512, buffer_units=4,
                                        workers=2, metric="manhattan")
        assert report.result.canonical_pair_set() == metric_truth(
            pts, 0.35, MANHATTAN)

    def test_collected_distances_are_metric_distances(self, rng):
        pts = rng.random((50, 3))
        join = JoinResult(collect_distances=True)
        ego_self_join(pts, 0.5, metric="manhattan", result=join)
        a, b = join.pairs()
        d = join.distances()
        expected = np.abs(pts[a] - pts[b]).sum(axis=1)
        np.testing.assert_allclose(d, expected, rtol=1e-9)

    def test_dbscan_with_metric(self, rng):
        pts = rng.random((200, 2))
        result_l1 = dbscan(pts, 0.08, 4, metric="manhattan")
        result_l2 = dbscan(pts, 0.08, 4)
        # L1 neighbourhoods are subsets of L2 neighbourhoods, so L1 can
        # only have fewer (or equal) core points.
        assert result_l1.core_mask.sum() <= result_l2.core_mask.sum()

    @given(st.integers(min_value=2, max_value=50),
           st.floats(min_value=0.05, max_value=1.0),
           st.sampled_from(["manhattan", "chebyshev", "euclidean"]),
           st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_all_metrics(self, n, eps, spec, seed):
        rng = np.random.default_rng(seed)
        metric = get_metric(spec)
        pts = rng.random((n, 2))
        result = ego_self_join(pts, eps, metric=spec, minlen=4)
        assert result.canonical_pair_set() == metric_truth(pts, eps,
                                                           metric)


class TestExternalJoinWithMetric:
    def test_external_pipeline_manhattan(self, rng):
        from repro.core.ego_join import ego_self_join_file
        from repro.data.loader import make_point_file
        pts = rng.random((200, 3))
        eps = 0.35
        disk, pf = make_point_file(pts)
        try:
            report = ego_self_join_file(pf, eps, unit_bytes=512,
                                        buffer_units=3,
                                        metric="manhattan")
        finally:
            disk.close()
        assert (report.result.canonical_pair_set()
                == metric_truth(pts, eps, MANHATTAN))

    def test_two_file_pipeline_chebyshev(self, rng):
        from repro.core.ego_join import ego_join_files
        from repro.data.loader import make_point_file
        r, s = rng.random((80, 2)), rng.random((70, 2))
        eps = 0.25
        dr, fr = make_point_file(r)
        ds, fs = make_point_file(s)
        try:
            report = ego_join_files(fr, fs, eps, unit_bytes=256,
                                    buffer_units=3, metric="chebyshev")
        finally:
            dr.close()
            ds.close()
        expected = {(i, j) for i in range(80) for j in range(70)
                    if CHEBYSHEV.distance(r[i], s[j]) <= eps}
        assert report.result.pair_set() == expected
