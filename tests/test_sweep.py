"""Tests for sorted-file reuse across epsilon parameter sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_join import (ego_key_function, ego_self_join,
                                 ego_self_join_file)
from repro.core.sequence_join import JoinContext, KernelConfig
from repro.core.result import JoinResult
from repro.service import EGOStore
from repro.sorting.external_sort import external_sort
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile

from conftest import brute_truth, make_file


@pytest.fixture(scope="module")
def sorted_setup():
    """One file sorted once at eps=0.4, reused by every test here."""
    rng = np.random.default_rng(77)
    pts = rng.random((350, 3))
    eps_sort = 0.4
    src = SimulatedDisk()
    dst = SimulatedDisk()
    scratch = SimulatedDisk()
    pf = make_file(src, pts)
    sorted_file, _ = external_sort(pf, dst, scratch,
                                   ego_key_function(eps_sort), 80)
    yield pts, eps_sort, sorted_file
    for d in (src, dst, scratch):
        d.close()


class TestPresortedFileJoin:
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.4])
    def test_smaller_epsilon_on_presorted_file(self, sorted_setup, eps):
        pts, eps_sort, sorted_file = sorted_setup
        report = ego_self_join_file(sorted_file, eps, unit_bytes=800,
                                    buffer_units=4, assume_sorted=True,
                                    sorted_epsilon=eps_sort)
        assert report.result.canonical_pair_set() == brute_truth(pts, eps)
        assert report.sort_io_time_s == 0.0
        assert report.sort_stats.records_sorted == 0

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.4])
    def test_smaller_epsilon_on_presorted_file_with_workers(self,
                                                          sorted_setup, eps):
        """Workers read their units at the file's grid ε, not the join ε:
        the ``workers=2`` pair stream is the serial one, byte for byte."""
        _pts, eps_sort, sorted_file = sorted_setup
        streams = [
            ego_self_join_file(sorted_file, eps, unit_bytes=800,
                               buffer_units=4, assume_sorted=True,
                               sorted_epsilon=eps_sort,
                               workers=workers).result.pairs()
            for workers in (1, 2)]
        assert len(streams[0][0]) > 0
        assert [a.tobytes() for a in streams[1]] == \
            [a.tobytes() for a in streams[0]]

    @pytest.mark.parametrize("factor", [1.5, 2, 3])
    def test_larger_epsilon_resorts(self, sorted_setup, factor):
        """ε above the sort ε re-sorts — no coarser grid keeps the order.

        Regression for the removed k·εs shortcut: fine lexicographic
        order does not imply coarse lexicographic order, so a file
        sorted at εs must be re-sorted for any larger join ε (integer
        multiples included) to stay exact.
        """
        pts, eps_sort, sorted_file = sorted_setup
        eps = eps_sort * factor
        report = ego_self_join_file(sorted_file, eps, unit_bytes=800,
                                    buffer_units=4, assume_sorted=True,
                                    sorted_epsilon=eps_sort)
        assert report.result.canonical_pair_set() == brute_truth(pts, eps)
        assert report.sort_stats.records_sorted == len(pts)

    def test_multiple_epsilon_shortcut_was_unsound(self, rng):
        """The coarse order a k·εs join needs differs from the fine order.

        Documents why the shortcut had to go: on enough random data the
        fine-sorted permutation is not sorted for the doubled width.
        """
        from repro.core.ego_order import ego_sorted, grid_cells
        pts = rng.random((400, 4))
        _ids, spts = ego_sorted(pts, 0.1)
        coarse = [tuple(r) for r in grid_cells(spts, 0.4).tolist()]
        assert coarse != sorted(coarse)

    def test_assume_sorted_default_epsilon(self, sorted_setup):
        """Without sorted_epsilon the file must be sorted at epsilon."""
        pts, eps_sort, sorted_file = sorted_setup
        report = ego_self_join_file(sorted_file, eps_sort,
                                    unit_bytes=800, buffer_units=4,
                                    assume_sorted=True)
        assert report.result.canonical_pair_set() == brute_truth(
            pts, eps_sort)


class TestGridEpsilonContext:
    def test_coarser_grid_still_exact(self, rng):
        """Joining at eps with pruning on a coarser grid stays exact."""
        pts = rng.random((150, 2))
        from repro.core.ego_order import ego_sorted
        from repro.core.sequence import Sequence
        from repro.core.sequence_join import join_sequences
        grid_eps = 0.5
        ids, spts = ego_sorted(pts, grid_eps)
        for eps in (0.1, 0.3, 0.5):
            result = JoinResult()
            ctx = JoinContext(epsilon=eps, result=result,
                              kernel=KernelConfig(minlen=8),
                              grid_epsilon=grid_eps)
            seq = Sequence(ids, spts, grid_eps)
            join_sequences(seq, seq, ctx)
            assert result.canonical_pair_set() == brute_truth(pts, eps)

    def test_grid_below_join_epsilon_rejected(self):
        with pytest.raises(ValueError, match="grid_epsilon"):
            JoinContext(epsilon=0.5, result=JoinResult(),
                        grid_epsilon=0.2)

    def test_default_grid_equals_epsilon(self):
        ctx = JoinContext(epsilon=0.3, result=JoinResult())
        assert ctx.grid_epsilon == pytest.approx(0.3)


class TestIndexSweep:
    """One resident EGO order (an :class:`EGOStore`) serves every ε up to
    its grid ε without re-sorting."""

    def test_self_join_sweep_matches_fresh_joins(self, rng):
        pts = rng.random((200, 3))
        store = EGOStore.from_points(pts, 0.4)
        for eps in (0.1, 0.25, 0.4):
            via_store = {tuple(p) for p in store.join(eps).tolist()}
            fresh = ego_self_join(pts, eps).canonical_pair_set()
            assert via_store == fresh
        assert store.grid_epsilon == 0.4

    def test_sweep_monotone(self, rng):
        store = EGOStore.from_points(rng.random((150, 2)), 0.5)
        sweep = [len(store.join(e)) for e in (0.1, 0.2, 0.3, 0.4, 0.5)]
        assert sweep == sorted(sweep)

    @given(st.floats(min_value=0.02, max_value=0.5),
           st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_sweep_property(self, eps, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((60, 2))
        store = EGOStore.from_points(pts, 0.5)
        assert ({tuple(p) for p in store.join(eps).tolist()}
                == brute_truth(pts, eps))
