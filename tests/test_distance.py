"""Tests for the early-abort distance test and dimension ordering (§4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance import (dimension_ordering, distance_below_eps,
                                 natural_ordering, pairs_within_scalar,
                                 pairs_within_vector, pairwise_sq_distances)
from repro.core.ego_join import ego_self_join
from repro.core.ego_order import ego_sorted
from repro.core.sequence import Sequence
from repro.core.sequence_join import _active
from repro.data.synthetic import cad_like
from repro.storage.stats import CPUCounters
from repro.verify.workloads import generate_workload


def seq_of(points, epsilon):
    ids, pts = ego_sorted(np.asarray(points, dtype=float), epsilon)
    return Sequence(ids, pts, epsilon)


def active_of(seq):
    """Active dimension of a whole sequence (``d`` when none)."""
    return _active(seq.cells[0].tolist(), seq.cells[-1].tolist())


def ordering(s, t):
    """``dimension_ordering`` of two whole sequences."""
    return dimension_ordering(s.cells[0].tolist(), t.cells[0].tolist(),
                              active_of(s), active_of(t))


class TestDistanceBelowEps:
    def test_within(self):
        order = natural_ordering(2)
        assert distance_below_eps(np.array([0.0, 0.0]),
                                  np.array([0.3, 0.4]), 0.25, order)

    def test_boundary_inclusive(self):
        order = natural_ordering(2)
        assert distance_below_eps(np.array([0.0, 0.0]),
                                  np.array([0.6, 0.8]), 1.0, order)

    def test_outside(self):
        order = natural_ordering(2)
        assert not distance_below_eps(np.array([0.0, 0.0]),
                                      np.array([1.0, 1.0]), 1.0, order)

    def test_early_abort_counts_fewer_dimensions(self):
        p = np.zeros(8)
        q = np.zeros(8)
        q[0] = 10.0  # first dimension already exceeds
        counters = CPUCounters()
        assert not distance_below_eps(p, q, 1.0, natural_ordering(8),
                                      counters)
        assert counters.dimension_evaluations == 1
        assert counters.distance_calculations == 1

    def test_full_evaluation_when_within(self):
        counters = CPUCounters()
        assert distance_below_eps(np.zeros(5), np.zeros(5), 1.0,
                                  natural_ordering(5), counters)
        assert counters.dimension_evaluations == 5

    def test_order_changes_abort_position(self):
        p = np.zeros(4)
        q = np.array([0.1, 0.1, 0.1, 9.0])
        eps_sq = 1.0
        natural = CPUCounters()
        distance_below_eps(p, q, eps_sq, natural_ordering(4), natural)
        best = CPUCounters()
        distance_below_eps(p, q, eps_sq,
                           np.array([3, 0, 1, 2], dtype=np.intp), best)
        assert natural.dimension_evaluations == 4
        assert best.dimension_evaluations == 1


class TestEnginesAgree:
    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.05, max_value=2.0),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_pairs_and_counters_identical(self, na, nb, d, eps, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((na, d))
        b = rng.random((nb, d))
        order = np.asarray(rng.permutation(d), dtype=np.intp)
        cs, cv = CPUCounters(), CPUCounters()
        sa, sb = pairs_within_scalar(a, b, eps * eps, order, cs)
        va, vb = pairs_within_vector(a, b, eps * eps, order, cv)
        assert set(zip(sa.tolist(), sb.tolist())) \
            == set(zip(va.tolist(), vb.tolist()))
        assert cs.distance_calculations == cv.distance_calculations
        assert cs.dimension_evaluations == cv.dimension_evaluations

    @given(st.integers(min_value=2, max_value=10),
           st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_upper_triangle_mode_agrees(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, 3))
        order = natural_ordering(3)
        cs, cv = CPUCounters(), CPUCounters()
        sa, sb = pairs_within_scalar(a, a, 0.25, order, cs,
                                     upper_triangle=True)
        va, vb = pairs_within_vector(a, a, 0.25, order, cv,
                                     upper_triangle=True)
        assert set(zip(sa.tolist(), sb.tolist())) \
            == set(zip(va.tolist(), vb.tolist()))
        assert (sa < sb).all()
        assert cs.dimension_evaluations == cv.dimension_evaluations

    def test_vector_without_counters_same_pairs(self, rng):
        a = rng.random((20, 4))
        order = natural_ordering(4)
        va, vb = pairs_within_vector(a, a, 0.1, order, counters=None)
        ca, cb = pairs_within_vector(a, a, 0.1, order,
                                     counters=CPUCounters())
        assert set(zip(va.tolist(), vb.tolist())) \
            == set(zip(ca.tolist(), cb.tolist()))

    def test_empty_inputs(self):
        order = natural_ordering(2)
        ia, ib = pairs_within_vector(np.empty((0, 2)), np.empty((3, 2)),
                                     1.0, order)
        assert len(ia) == 0 == len(ib)


class TestDimensionOrdering:
    def test_neighboring_inactive_comes_first(self):
        """Sequences aligned in d0, neighboring in d1 → d1 leads."""
        eps = 1.0
        s = seq_of([[0.2, 0.2, 0.5], [0.8, 0.8, 0.6]], eps)
        t = seq_of([[0.3, 1.2, 0.5], [0.7, 1.8, 0.4]], eps)
        assert active_of(s) == 3
        assert active_of(t) == 3
        order = ordering(s, t)
        assert order[0] == 1                       # neighboring inactive
        assert set(order[1:].tolist()) == {0, 2}   # aligned inactive last

    def test_order_is_permutation(self, rng):
        eps = 0.25
        s = seq_of(rng.random((8, 6)), eps)
        t = seq_of(rng.random((8, 6)), eps)
        order = ordering(s, t)
        assert sorted(order.tolist()) == list(range(6))

    def test_active_before_aligned(self):
        eps = 1.0
        # d0 aligned-inactive for both; s has active d1.
        s = seq_of([[0.2, 0.2], [0.8, 1.8]], eps)
        t = seq_of([[0.3, 0.1], [0.7, 0.2]], eps)
        assert active_of(s) == 1
        order = ordering(s, t)
        assert order.tolist() == [1, 0]

    def test_unspecified_before_active(self):
        eps = 1.0
        # 3-d: d0 active for both; d1, d2 unspecified.
        s = seq_of([[0.5, 0.5, 0.5], [1.5, 0.6, 0.7]], eps)
        t = seq_of([[0.6, 0.1, 0.2], [1.6, 0.3, 0.2]], eps)
        assert active_of(s) == 0
        order = ordering(s, t)
        assert order.tolist() == [1, 2, 0]

    def test_natural_ordering(self):
        assert natural_ordering(4).tolist() == [0, 1, 2, 3]


#: Section 4.2's abort counts, pinned: ``(distance_calculations,
#: dimension_evaluations, sequence_pairs, sequence_exclusions)`` of an
#: in-memory self-join with the dimension ordering on.  A wrong order
#: moves ``dimension_evaluations`` first.
PINNED_ABORT_COUNTS = [
    ("cad", 0.25, 32, "vector", "half", (2481467, 12033897, 6622, 352)),
    ("cad", 0.25, 32, "vector", "boundary", (2407942, 10135989, 9442, 50)),
    ("skewed", 0.15, 8, "scalar", "boundary", (256950, 454453, 17065, 2154)),
]


class TestDimensionOrderingCounts:
    @pytest.mark.parametrize("data,eps,minlen,engine,split,want",
                             PINNED_ABORT_COUNTS)
    def test_pinned_abort_counts(self, data, eps, minlen, engine, split,
                                 want):
        if data == "cad":
            pts = cad_like(3000, 16, seed=3)
        else:
            pts = generate_workload("skewed", 1500, 8, 0.15, 2).points
        cpu = CPUCounters()
        ego_self_join(pts, eps, cpu=cpu, minlen=minlen, engine=engine,
                      split_strategy=split, order_dimensions=True)
        assert (cpu.distance_calculations, cpu.dimension_evaluations,
                cpu.sequence_pairs, cpu.sequence_exclusions) == want


class TestPairwiseSqDistances:
    def test_matches_norm(self, rng):
        a, b = rng.random((5, 3)), rng.random((7, 3))
        d2 = pairwise_sq_distances(a, b)
        for i in range(5):
            for j in range(7):
                assert d2[i, j] == pytest.approx(
                    np.linalg.norm(a[i] - b[j]) ** 2)
