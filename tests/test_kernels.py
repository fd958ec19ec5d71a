"""Tests for the high-throughput leaf kernels (GEMM kernel, windowing,
scratch buffers) and the engines a join accepts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance import natural_ordering, pairs_within_scalar
from repro.core.ego_join import ego_self_join
from repro.core.ego_order import ego_sorted
from repro.core.kernels import (ScratchBuffers, candidate_windows,
                                pairs_within_matmul)
from repro.core.metrics import get_metric
from repro.core.sequence import Sequence
from repro.core.sequence_join import (ENGINES, JoinContext, KernelConfig,
                                      _active)
from repro.joins.lsh_join import GEMM_BUCKET_VOLUME, bucket_engine
from repro.core.result import JoinResult
from repro.storage.stats import CPUCounters

from conftest import brute_truth

METRICS = [None, "manhattan", "chebyshev", 3.0]


def pair_set(ia, ib):
    return set(zip(ia.tolist(), ib.tolist()))


class TestMatmulKernel:
    @given(st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=20),
           st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.05, max_value=2.0),
           st.sampled_from(METRICS),
           st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(self, na, nb, d, eps, metric, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((na, d))
        b = rng.random((nb, d))
        order = natural_ordering(d)
        m = get_metric(metric)
        threshold = m.threshold(eps)
        em = None if m.name == "euclidean" else m
        sa, sb = pairs_within_scalar(a, b, threshold, order, metric=em)
        ma, mb = pairs_within_matmul(a, b, threshold, order, metric=em)
        assert pair_set(sa, sb) == pair_set(ma, mb)

    @given(st.integers(min_value=2, max_value=24),
           st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_upper_triangle_matches_scalar(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, 4))
        order = natural_ordering(4)
        sa, sb = pairs_within_scalar(a, a, 0.25, order,
                                     upper_triangle=True)
        ma, mb = pairs_within_matmul(a, a, 0.25, order,
                                     upper_triangle=True)
        assert pair_set(sa, sb) == pair_set(ma, mb)
        if len(ma):
            assert (ma < mb).all()

    def test_duplicate_points(self):
        """Exact duplicates (distance 0) survive the Gram identity."""
        a = np.tile([[0.5, 0.5, 0.5]], (6, 1))
        order = natural_ordering(3)
        ia, ib = pairs_within_matmul(a, a, 1e-12, order,
                                     upper_triangle=True)
        assert len(ia) == 6 * 5 // 2

    def test_empty_and_single_point(self):
        order = natural_ordering(2)
        ia, ib = pairs_within_matmul(np.empty((0, 2)), np.empty((3, 2)),
                                     1.0, order)
        assert len(ia) == 0 == len(ib)
        one = np.array([[0.1, 0.2]])
        ia, ib = pairs_within_matmul(one, one, 1.0, order,
                                     upper_triangle=True)
        assert len(ia) == 0

    def test_distances_match_scalar(self, rng):
        a = rng.random((40, 6))
        b = rng.random((35, 6))
        order = natural_ordering(6)
        sa, sb, sd = pairs_within_scalar(a, b, 0.5, order,
                                         return_sq_distances=True)
        ma, mb, md = pairs_within_matmul(a, b, 0.5, order,
                                         return_sq_distances=True)
        assert pair_set(sa, sb) == pair_set(ma, mb)
        smap = dict(zip(zip(sa.tolist(), sb.tolist()), sd.tolist()))
        # Accepts are re-verified from exact differences, so the
        # distances match the reference to the last ulp or so.
        for i, j, d2 in zip(ma.tolist(), mb.tolist(), md.tolist()):
            assert d2 == pytest.approx(smap[(i, j)], rel=1e-12, abs=1e-15)

    def test_boundary_pair_is_inclusive(self):
        """A pair at exactly distance ε is reported (≤, not <)."""
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.6, 0.8]])
        order = natural_ordering(2)
        ia, ib = pairs_within_matmul(a, b, 1.0, order)
        assert len(ia) == 1

    def test_blocking_invariance(self, rng):
        """Any tile size returns the same pair set."""
        a = rng.random((70, 5))
        b = rng.random((90, 5))
        order = natural_ordering(5)
        ref = pair_set(*pairs_within_matmul(a, b, 0.3, order))
        for block in (1, 3, 16, 64, 1024):
            got = pairs_within_matmul(a, b, 0.3, order,
                                      scratch=ScratchBuffers(block))
            assert pair_set(*got) == ref

    def test_counters_charge_dense_work(self, rng):
        a = rng.random((10, 4))
        b = rng.random((12, 4))
        c = CPUCounters()
        pairs_within_matmul(a, b, 0.2, natural_ordering(4), counters=c)
        assert c.distance_calculations == 10 * 12
        assert c.dimension_evaluations == 10 * 12 * 4
        c2 = CPUCounters()
        pairs_within_matmul(a, a, 0.2, natural_ordering(4), counters=c2,
                            upper_triangle=True)
        assert c2.distance_calculations == 10 * 9 // 2


class TestCandidateWindows:
    def test_windows_are_sound_and_contiguous(self, rng):
        eps = 0.15
        ids, pts = ego_sorted(rng.random((200, 3)), eps)
        cells = Sequence(ids, pts, eps).cells
        wdim = _active(cells[0].tolist(), cells[-1].tolist())
        assert wdim < 3
        lo, hi = candidate_windows(pts, pts, wdim, eps)
        truth = brute_truth(pts, eps)
        for i, j in truth:
            assert lo[i] <= j < hi[i], "window dropped a true mate"
            assert lo[j] <= i < hi[j]


class TestEngineSelection:
    """The two engine resolutions left: a join's leaf kernel (once per
    join, by metric) and the LSH bucket verify's volume rule."""

    def test_explicit_engines_pass_through(self):
        for eng in ("scalar", "vector", "matmul"):
            assert bucket_engine(eng, 1000, 32) == eng
        for eng in ("scalar", "vector"):
            assert KernelConfig(engine=eng).leaf_kernel == eng

    def test_auto_small_leaf_uses_vector(self):
        assert bucket_engine("auto", 8, 4) == "vector"
        # A join's leaves are all GEMM tiles, whatever their size.
        assert KernelConfig(engine="auto", minlen=8).leaf_kernel == "gemm"

    def test_auto_large_leaf_uses_matmul(self):
        assert bucket_engine("auto", 256, 16) == "matmul"

    def test_auto_non_euclidean_uses_vector(self):
        m = get_metric("manhattan")
        assert KernelConfig(engine="auto", metric=m).leaf_kernel == "vector"

    def test_threshold_is_the_knob(self):
        na = d = 32
        assert na * na * d == GEMM_BUCKET_VOLUME
        assert bucket_engine("auto", na, d) == "matmul"
        assert bucket_engine("auto", na - 1, d) == "vector"

    def test_context_accepts_new_engines(self):
        assert ENGINES == ("scalar", "vector", "auto")
        for eng in ENGINES:
            ctx = JoinContext(epsilon=0.1, result=JoinResult(),
                              kernel=KernelConfig(engine=eng))
            assert ctx.kernel.engine == eng

    def test_context_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            KernelConfig(engine="gpu")


class TestEnginesEndToEnd:
    @given(st.integers(min_value=0, max_value=120),
           st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.05, max_value=0.6),
           st.sampled_from(["scalar", "auto"]),
           st.sampled_from(METRICS),
           st.integers(min_value=1, max_value=64),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_self_join_matches_vector(self, n, d, eps, engine, metric,
                                      minlen, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, d))
        ref = ego_self_join(pts, eps, engine="vector",
                            metric=metric).canonical_pair_set()
        got = ego_self_join(pts, eps, engine=engine, minlen=minlen,
                            metric=metric).canonical_pair_set()
        assert got == ref

    def test_self_join_with_duplicates(self, rng):
        base = rng.random((40, 3))
        pts = np.vstack([base, base[:10]])  # exact duplicates
        eps = 0.2
        ref = brute_truth(pts, eps)
        for eng in ("scalar", "auto"):
            got = ego_self_join(pts, eps, engine=eng,
                                minlen=16).canonical_pair_set()
            assert got == ref

    def test_collect_distances_end_to_end(self, rng):
        pts = rng.random((200, 4))
        eps = 0.25
        res_v = JoinResult(collect_distances=True)
        res_m = JoinResult(collect_distances=True)
        ego_self_join(pts, eps, engine="vector", result=res_v)
        ego_self_join(pts, eps, engine="auto", minlen=64, result=res_m)

        def dist_map(res):
            ia, ib = res.pairs()
            keys = [(min(i, j), max(i, j))
                    for i, j in zip(ia.tolist(), ib.tolist())]
            return dict(zip(keys, res.distances().tolist()))

        dv, dm = dist_map(res_v), dist_map(res_m)
        assert set(dv) == set(dm)
        for k in dv:
            assert dm[k] == pytest.approx(dv[k], rel=1e-9)
