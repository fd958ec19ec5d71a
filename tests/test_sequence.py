"""Tests for the root Sequence and active/inactive dimensions (Definition 2)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.ego_order import ego_sorted, floor_cells, grid_cells
from repro.core.kernels import candidate_windows
from repro.core.result import JoinResult
from repro.core.sequence import Sequence
from repro.core.sequence_join import (JoinContext, KernelConfig,
                                      _active, _RangeJoin, join_sequences)

from conftest import brute_truth


def seq_of(points, epsilon):
    """EGO-sort points and wrap them in a Sequence."""
    ids, pts = ego_sorted(np.asarray(points, dtype=float), epsilon)
    return Sequence(ids, pts, epsilon)


def active_of(cells):
    """Definition 2 on a range's cell rows (``d`` when none is active)."""
    return _active(cells[0].tolist(), cells[-1].tolist())


def range_join(seq, split_strategy):
    """A range join of ``seq`` with itself under ``split_strategy``."""
    ctx = JoinContext(epsilon=seq.epsilon, result=JoinResult(),
                      kernel=KernelConfig(split_strategy=split_strategy))
    return _RangeJoin(seq, seq, ctx)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sequence(np.empty(0, dtype=np.int64), np.empty((0, 2)), 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Sequence(np.arange(2), np.zeros((3, 2)), 1.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            Sequence(np.arange(1), np.zeros((1, 2)), -1.0)

    def test_basic_properties(self):
        s = seq_of([[0.1, 0.2], [0.9, 0.8]], 1.0)
        assert len(s) == 2
        assert s.dimensions == 2


class TestActiveDimension:
    def test_all_in_one_cell_no_active(self):
        s = seq_of([[0.1, 0.1], [0.5, 0.9], [0.9, 0.3]], 1.0)
        assert active_of(s.cells) == 2

    def test_first_dimension_active(self):
        s = seq_of([[0.5, 0.5], [1.5, 0.5]], 1.0)
        assert active_of(s.cells) == 0

    def test_second_dimension_active(self):
        """First dim same cell, second differs: Figure 5's situation."""
        s = seq_of([[0.5, 0.2, 0.9], [0.6, 1.7, 0.1]], 1.0)
        assert active_of(s.cells) == 1

    def test_single_point_all_inactive(self):
        s = seq_of([[3.3, 4.4]], 1.0)
        assert active_of(s.cells) == 2

    def test_active_dim_from_first_and_last_only(self):
        """Definition 2 looks only at p_1 and p_k."""
        pts = [[0.1, 0.1], [0.2, 5.0], [0.3, 9.9]]
        s = seq_of(pts, 10.0)  # all in cell (0, 0) at eps=10
        assert active_of(s.cells) == 2

    def test_cells_cached(self):
        s = seq_of([[0.5, 1.5], [2.5, 0.5]], 1.0)
        assert s.cells[0].tolist() == [0, 1]
        assert s.cells[-1].tolist() == [2, 0]


class TestHalving:
    def test_halves_partition_the_sequence(self, rng):
        s = seq_of(rng.random((11, 2)), 0.3)
        join = range_join(s, "half")
        assert join.split(s, 0, 11, active_of(s.cells)) == 6
        assert join.split(s, 2, 11, active_of(s.cells[2:])) == 7

    def test_two_point_split(self):
        s = seq_of([[0.1, 0.1], [0.9, 0.9]], 1.0)
        assert range_join(s, "half").split(s, 0, 2, active_of(s.cells)) == 1


class TestCells:
    def test_root_computes_cells_once_for_the_block(self, rng):
        s = seq_of(rng.random((9, 3)) - 0.5, 0.2)
        assert s.cells.dtype == np.int64
        assert s.cells.tolist() == grid_cells(s.points, 0.2).tolist()

    def test_given_cells_are_used_as_is(self, rng):
        ids, pts = ego_sorted(rng.random((6, 2)), 0.5)
        cells = grid_cells(pts, 0.5)
        assert Sequence(ids, pts, 0.5, cells).cells is cells

    def test_rejects_cells_of_another_shape(self, rng):
        ids, pts = ego_sorted(rng.random((6, 2)), 0.5)
        with pytest.raises(ValueError):
            Sequence(ids, pts, 0.5, grid_cells(pts[:5], 0.5))


#: Cell widths and translations for the boundary-hugging property test:
#: an awkward width whose multiples are not representable, and offsets
#: that put the data negative or far from the origin.
BOUNDARY_WIDTHS = (0.1, 0.37, 0.001433268844161744)
BOUNDARY_OFFSETS = (0.0, -1234.5, -5e6, 1e8)


def _boundary_points(rng, n, d, width, offset):
    """Points on a small cell lattice, many within a few ulps of a cell
    boundary, the rest anywhere inside their cell."""
    base = np.rint(offset / width)
    k = base + rng.integers(-1, 2, size=(n, d))
    on_lattice = k * width
    ulps = rng.integers(-4, 5, size=(n, d))
    near = on_lattice + ulps * np.spacing(on_lattice)
    inside = on_lattice + rng.uniform(0.0, width, size=(n, d))
    return np.where(rng.random((n, d)) < 0.5, near, inside)


def _reference_split_point(points, width, active):
    """The boundary split of a range, from per-point ``grid_cells``."""
    n = len(points)
    mid = (n + 1) // 2
    if active is None or n < 2:
        return mid
    cells = np.array([grid_cells(p, width)[active] for p in points])
    c_mid = cells[min(mid, n - 1)]
    cut = [int(np.searchsorted(cells, c_mid, side=side))
           for side in ("left", "right")]
    cut = [x for x in cut if 0 < x < n]
    if not cut:
        return mid
    point = min(cut, key=lambda x: abs(x - mid))
    return point if n // 8 <= point <= n - n // 8 else mid


def _recursion_ranges(join, n):
    """Every range a half or boundary split recursion can reach."""
    todo, seen = [(0, n)], []
    while todo:
        lo, hi = todo.pop()
        seen.append((lo, hi))
        if hi - lo < 2:
            continue
        mid = lo + (hi - lo + 1) // 2
        todo += [(lo, mid), (mid, hi)]
        point = join.split(join.s, lo, hi, active_of(join.s.cells[lo:hi]))
        if point != mid:
            todo += [(lo, point), (point, hi)]
    return seen


class TestPrecomputedCellsProperty:
    @given(st.integers(0, 10**6), st.integers(2, 48), st.integers(1, 4),
           st.sampled_from(BOUNDARY_WIDTHS),
           st.sampled_from(BOUNDARY_OFFSETS))
    def test_sliced_cells_match_per_point_cells(self, seed, n, d, width,
                                                offset):
        rng = np.random.default_rng(seed)
        ids, pts = ego_sorted(_boundary_points(rng, n, d, width, offset),
                              width)
        seq = Sequence(ids, pts, width)
        join = range_join(seq, "boundary")
        ranges = _recursion_ranges(join, n)
        for lo, hi in ranges:
            rows = seq.cells[lo:hi]
            want = np.array([grid_cells(p, width) for p in pts[lo:hi]])
            assert rows.tolist() == want.tolist()
            diff = np.nonzero(want[0] != want[-1])[0]
            active = int(diff[0]) if len(diff) else None
            assert active_of(rows) == (d if active is None else active)
            if hi - lo >= 2:
                assert join.split(seq, lo, hi, active_of(rows)) == \
                    lo + _reference_split_point(pts[lo:hi], width, active)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges,
                                              ranges[1:] + ranges[:1]):
            wdim = active_of(seq.cells[b_lo:b_hi])
            if wdim == d:
                continue
            a, b = pts[a_lo:a_hi], pts[b_lo:b_hi]
            got = candidate_windows(a, b, wdim, width,
                                    cells_a=seq.cells[a_lo:a_hi, wdim],
                                    cells_b=seq.cells[b_lo:b_hi, wdim])
            cells_a = floor_cells(a[:, wdim], width)
            cells_b = np.array([grid_cells(p, width)[wdim] for p in b])
            want = (np.searchsorted(cells_b, cells_a - 1, side="left"),
                    np.searchsorted(cells_b, cells_a + 1, side="right"))
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()

    @given(st.integers(0, 10**6), st.integers(2, 60), st.integers(1, 4),
           st.sampled_from(BOUNDARY_WIDTHS),
           st.sampled_from(BOUNDARY_OFFSETS))
    def test_join_matches_brute_force_for_every_engine(self, seed, n, d,
                                                       width, offset):
        # The join ε sits below the grid width: lattice pairs are then
        # never at a distance within rounding of ε, so brute force is an
        # unambiguous reference while pruning still runs on the
        # boundary-hugging grid.
        rng = np.random.default_rng(seed)
        pts = _boundary_points(rng, n, d, width, offset)
        epsilon = 0.7 * width
        want = brute_truth(pts, epsilon)
        ids, spts = ego_sorted(pts, width)
        for engine in ("vector", "auto"):
            for split in ("half", "boundary"):
                result = JoinResult()
                kernel = KernelConfig(engine=engine, minlen=4,
                                      split_strategy=split)
                ctx = JoinContext(epsilon=epsilon, result=result,
                                  kernel=kernel, grid_epsilon=width)
                seq = Sequence(ids, spts, width)
                join_sequences(seq, seq, ctx)
                assert result.canonical_pair_set() == want, (engine, split)


class TestSelfPair:
    @pytest.mark.parametrize("engine", ["scalar", "vector", "auto"])
    def test_self_pair_is_one_object(self, rng, engine):
        """``join_sequences(seq, seq)`` reports each unordered pair once;
        two distinct objects over the same arrays join as two sets."""
        eps = 0.3
        raw = rng.random((60, 2))
        ids, pts = ego_sorted(raw, eps)

        def join(s, t):
            result = JoinResult()
            join_sequences(s, t, JoinContext(
                epsilon=eps, result=result,
                kernel=KernelConfig(engine=engine, minlen=4)))
            a, b = result.pairs()
            return sorted(zip(a.tolist(), b.tolist()))

        truth = brute_truth(raw, eps)
        assert truth
        seq = Sequence(ids, pts, eps)
        assert sorted((min(p), max(p)) for p in join(seq, seq)) == \
            sorted(truth)
        assert join(seq, Sequence(ids, pts, eps)) == sorted(
            [(i, i) for i in range(len(raw))]
            + [(a, b) for a, b in truth] + [(b, a) for a, b in truth])
