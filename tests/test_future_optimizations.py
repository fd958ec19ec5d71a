"""Tests for the §4 future-research optimizations (sort order, splits)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_join import ego_self_join
from repro.core.ego_order import ego_sorted
from repro.core.preprocess import (resolve_dimension_order,
                                   spread_dimension_order,
                                   variance_dimension_order)
from repro.core.sequence import Sequence
from repro.core.result import JoinResult
from repro.core.sequence_join import (JoinContext, KernelConfig, _active,
                                      _RangeJoin)
from repro.storage.stats import CPUCounters

from conftest import brute_truth


class TestDimensionOrders:
    def test_spread_order_puts_widest_first(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.1, 5.0, 1.0]])
        order = spread_dimension_order(pts, 0.5)
        assert order.tolist() == [1, 2, 0]

    def test_variance_order(self, rng):
        pts = rng.random((200, 3)) * np.array([0.01, 1.0, 0.1])
        order = variance_dimension_order(pts)
        assert order.tolist() == [1, 2, 0]

    def test_tie_keeps_natural_order(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert spread_dimension_order(pts, 0.5).tolist() == [0, 1]

    def test_resolve_accepts_explicit_permutation(self, rng):
        pts = rng.random((5, 3))
        out = resolve_dimension_order(pts, 0.1, [2, 0, 1])
        assert out.tolist() == [2, 0, 1]

    def test_resolve_rejects_non_permutation(self, rng):
        pts = rng.random((5, 3))
        with pytest.raises(ValueError):
            resolve_dimension_order(pts, 0.1, [0, 0, 1])

    def test_resolve_rejects_unknown_name(self, rng):
        with pytest.raises(ValueError):
            resolve_dimension_order(rng.random((5, 2)), 0.1, "magic")

    def test_natural_and_none_identity(self, rng):
        pts = rng.random((5, 4))
        assert resolve_dimension_order(pts, 0.1, None).tolist() \
            == [0, 1, 2, 3]
        assert resolve_dimension_order(pts, 0.1, "natural").tolist() \
            == [0, 1, 2, 3]

    def test_empty_points(self):
        assert spread_dimension_order(np.empty((0, 3)), 0.1).tolist() \
            == [0, 1, 2]


class TestSortDimsJoin:
    @pytest.mark.parametrize("sort_dims", ["spread", "variance",
                                           [1, 0, 2]])
    def test_result_invariant_under_permutation(self, rng, sort_dims):
        pts = rng.random((150, 3))
        eps = 0.3
        result = ego_self_join(pts, eps, sort_dims=sort_dims)
        assert result.canonical_pair_set() == brute_truth(pts, eps)

    def test_spread_reduces_work_on_anisotropic_data(self, rng):
        pts = rng.random((1500, 4)) * np.array([0.01, 0.01, 1.0, 1.0])
        eps = 0.05
        base, opt = CPUCounters(), CPUCounters()
        a = ego_self_join(pts, eps, cpu=base, minlen=16)
        b = ego_self_join(pts, eps, cpu=opt, minlen=16,
                          sort_dims="spread")
        assert a.canonical_pair_set() == b.canonical_pair_set()
        assert opt.distance_calculations < base.distance_calculations

    @given(st.integers(min_value=2, max_value=60),
           st.floats(min_value=0.05, max_value=0.8),
           st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_spread_invariance(self, n, eps, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 3)) * np.array([10.0, 1.0, 0.1])
        a = ego_self_join(pts, eps).canonical_pair_set()
        b = ego_self_join(pts, eps,
                          sort_dims="spread").canonical_pair_set()
        assert a == b


def boundary_split(seq):
    """``_RangeJoin.split`` of a whole sequence under the boundary split."""
    ctx = JoinContext(epsilon=seq.epsilon, result=JoinResult(),
                      kernel=KernelConfig(split_strategy="boundary"))
    active = _active(seq.cells[0].tolist(), seq.cells[-1].tolist())
    return _RangeJoin(seq, seq, ctx).split(seq, 0, len(seq), active)


class TestBoundarySplit:
    def test_split_point_is_cell_boundary(self, rng):
        eps = 0.1
        ids, pts = ego_sorted(rng.random((200, 1)), eps)
        point = boundary_split(Sequence(ids, pts, eps))
        assert 0 < point < len(pts)
        left_cell = int(np.floor(pts[point - 1, 0] / eps))
        right_cell = int(np.floor(pts[point, 0] / eps))
        assert left_cell != right_cell

    def test_no_active_dimension_falls_back_to_middle(self):
        pts = np.full((10, 2), 0.5)
        seq = Sequence(np.arange(10), pts, 1.0)
        assert boundary_split(seq) == 5

    def test_lopsided_boundary_falls_back_to_middle(self):
        # The only cell change is at row 15 of 16, outside the middle
        # 3/4, so the split halves instead.
        pts = np.full((16, 1), 0.5)
        pts[-1] = 1.5
        seq = Sequence(np.arange(16), pts, 1.0)
        assert boundary_split(seq) == 8

    @pytest.mark.parametrize("minlen", [2, 16, 64])
    def test_boundary_join_matches_brute(self, rng, minlen):
        pts = rng.random((200, 3))
        eps = 0.25
        result = ego_self_join(pts, eps, split_strategy="boundary",
                               minlen=minlen)
        assert result.canonical_pair_set() == brute_truth(pts, eps)

    def test_boundary_reduces_distance_calcs(self, rng):
        pts = rng.random((1500, 4))
        eps = 0.1
        base, opt = CPUCounters(), CPUCounters()
        ego_self_join(pts, eps, cpu=base, minlen=16)
        ego_self_join(pts, eps, cpu=opt, minlen=16,
                      split_strategy="boundary")
        assert opt.distance_calculations < base.distance_calculations

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(split_strategy="golden-ratio")

    def test_degenerate_single_giant_cell(self, rng):
        """A dominant cell must not blow the recursion depth."""
        dense = np.full((500, 2), 0.55) + rng.normal(0, 1e-4, (500, 2))
        sparse = rng.random((20, 2))
        pts = np.vstack([dense, sparse])
        eps = 0.5
        result = ego_self_join(pts, eps, split_strategy="boundary",
                               minlen=8)
        assert result.canonical_pair_set() == brute_truth(pts, eps)

    @given(st.integers(min_value=2, max_value=80),
           st.floats(min_value=0.05, max_value=0.9),
           st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_boundary_matches_brute(self, n, eps, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        result = ego_self_join(pts, eps, split_strategy="boundary",
                               minlen=4)
        assert result.canonical_pair_set() == brute_truth(pts, eps)


class TestTwoSetSortDims:
    def test_two_set_join_invariant(self, rng):
        from repro.core.ego_join import ego_join
        r = rng.random((60, 3)) * np.array([0.01, 1.0, 0.1])
        s = rng.random((50, 3)) * np.array([0.01, 1.0, 0.1])
        eps = 0.15
        base = ego_join(r, s, eps).pair_set()
        opt = ego_join(r, s, eps, sort_dims="spread",
                       split_strategy="boundary").pair_set()
        assert base == opt
