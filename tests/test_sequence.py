"""Tests for Sequence and active/inactive dimensions (Definition 2)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.ego_order import ego_sorted, floor_cells, grid_cells
from repro.core.kernels import candidate_windows
from repro.core.result import JoinResult
from repro.core.sequence import Sequence
from repro.core.sequence_join import (JoinContext, KernelConfig,
                                      join_sequences)

from conftest import brute_truth


def seq_of(points, epsilon):
    """EGO-sort points and wrap them in a Sequence."""
    ids, pts = ego_sorted(np.asarray(points, dtype=float), epsilon)
    return Sequence(ids, pts, epsilon)


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
        np.testing.assert_allclose(s.first_point, [0.1, 0.2])
        np.testing.assert_allclose(s.last_point, [0.9, 0.8])


class TestActiveDimension:
    def test_all_in_one_cell_no_active(self):
        s = seq_of([[0.1, 0.1], [0.5, 0.9], [0.9, 0.3]], 1.0)
        assert s.active_dimension() is None
        assert s.inactive_count() == 2

    def test_first_dimension_active(self):
        s = seq_of([[0.5, 0.5], [1.5, 0.5]], 1.0)
        assert s.active_dimension() == 0
        assert s.inactive_count() == 0

    def test_second_dimension_active(self):
        """First dim same cell, second differs: Figure 5's situation."""
        s = seq_of([[0.5, 0.2, 0.9], [0.6, 1.7, 0.1]], 1.0)
        assert s.active_dimension() == 1
        assert s.inactive_count() == 1

    def test_single_point_all_inactive(self):
        s = seq_of([[3.3, 4.4]], 1.0)
        assert s.active_dimension() is None

    def test_active_dim_from_first_and_last_only(self):
        """Definition 2 looks only at p_1 and p_k."""
        pts = [[0.1, 0.1], [0.2, 5.0], [0.3, 9.9]]
        s = seq_of(pts, 10.0)  # all in cell (0, 0) at eps=10
        assert s.active_dimension() is None

    def test_cells_cached(self):
        s = seq_of([[0.5, 1.5], [2.5, 0.5]], 1.0)
        assert s.first_cells.tolist() == [0, 1]
        assert s.last_cells.tolist() == [2, 0]


class TestHalving:
    def test_halves_partition_the_sequence(self, rng):
        s = seq_of(rng.random((11, 2)), 0.3)
        f, g = s.first_half(), s.second_half()
        assert len(f) == 6 and len(g) == 5
        np.testing.assert_allclose(np.vstack([f.points, g.points]),
                                   s.points)

    def test_halves_are_views(self, rng):
        s = seq_of(rng.random((8, 2)), 0.3)
        f = s.first_half()
        assert f.points.base is not None

    def test_two_point_split(self):
        s = seq_of([[0.1, 0.1], [0.9, 0.9]], 1.0)
        f, g = s.first_half(), s.second_half()
        assert len(f) == 1 and len(g) == 1

    def test_slice_bounds(self, rng):
        s = seq_of(rng.random((10, 3)), 0.5)
        sub = s.slice(2, 7)
        assert len(sub) == 5
        np.testing.assert_allclose(sub.points, s.points[2:7])

    def test_slices_carry_cell_views(self, rng):
        s = seq_of(rng.random((10, 3)), 0.5)
        sub = s.slice(2, 7).first_half()
        assert np.shares_memory(sub.cells, s.cells)
        assert sub.cells.tolist() == grid_cells(s.points[2:5], 0.5).tolist()

    def test_empty_slice_rejected(self, rng):
        s = seq_of(rng.random((4, 2)), 0.5)
        with pytest.raises(ValueError):
            s.slice(2, 2)


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
    """``boundary_split_point`` from per-point ``grid_cells``."""
    n = len(points)
    mid = (n + 1) // 2
    if active is None or n < 2:
        return mid
    cells = np.array([grid_cells(p, width)[active] for p in points])
    c_mid = cells[min(mid, n - 1)]
    cut = [int(np.searchsorted(cells, c_mid, side=side))
           for side in ("left", "right")]
    cut = [x for x in cut if 0 < x < n]
    return min(cut, key=lambda x: abs(x - mid)) if cut else mid


def _recursion_slices(seq):
    """Every slice a half or boundary split recursion can reach."""
    todo, seen = [seq], []
    while todo:
        s = todo.pop()
        seen.append(s)
        if len(s) < 2:
            continue
        todo += [s.first_half(), s.second_half()]
        point = s.boundary_split_point()
        if point != (len(s) + 1) // 2:
            todo += list(s.split_at(point))
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
        slices = _recursion_slices(Sequence(ids, pts, width))
        for s in slices:
            first = grid_cells(s.points[0], width)
            last = grid_cells(s.points[-1], width)
            assert s.first_cells.tolist() == first.tolist()
            assert s.last_cells.tolist() == last.tolist()
            diff = np.nonzero(first != last)[0]
            active = int(diff[0]) if len(diff) else None
            assert s.active_dimension() == active
            assert s.boundary_split_point() == _reference_split_point(
                s.points, width, active)
        for s, t in zip(slices, slices[1:] + slices[:1]):
            wdim = t.active_dimension()
            if wdim is None:
                continue
            got = candidate_windows(s.points, t.points, wdim, width,
                                    cells_a=s.cells[:, wdim],
                                    cells_b=t.cells[:, wdim])
            cells_a = floor_cells(s.points[:, wdim], width)
            cells_b = np.array([grid_cells(p, width)[wdim]
                                for p in t.points])
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


class TestSameStorage:
    def test_identical_sequence_objects(self, rng):
        ids, pts = ego_sorted(rng.random((6, 2)), 0.5)
        a = Sequence(ids, pts, 0.5)
        b = Sequence(ids, pts, 0.5)
        assert a.same_storage(b)

    def test_same_slice_of_same_array(self, rng):
        s = seq_of(rng.random((10, 2)), 0.5)
        assert s.slice(2, 6).same_storage(s.slice(2, 6))

    def test_different_slices_differ(self, rng):
        s = seq_of(rng.random((10, 2)), 0.5)
        assert not s.slice(0, 5).same_storage(s.slice(5, 10))
        assert not s.slice(0, 5).same_storage(s.slice(0, 6))

    def test_copies_differ(self, rng):
        ids, pts = ego_sorted(rng.random((4, 2)), 0.5)
        a = Sequence(ids, pts, 0.5)
        b = Sequence(ids.copy(), pts.copy(), 0.5)
        assert not a.same_storage(b)
