"""Tests for the recursive sequence join (Figure 6)."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_join import ego_join_files, ego_self_join_file
from repro.core.ego_order import ego_sorted
from repro.core.result import JoinResult
from repro.core.sequence import Sequence
from repro.core.sequence_join import (JoinContext, KernelConfig,
                                      join_sequences, simple_join)
from repro.data.synthetic import cad_like
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile
from repro.storage.stats import CPUCounters

from conftest import brute_truth, make_file


def run_self_join(points, epsilon, cpu=None, **kernel):
    pts = np.asarray(points, dtype=float)
    ids, spts = ego_sorted(pts, epsilon)
    result = JoinResult()
    ctx = JoinContext(epsilon=epsilon, result=result,
                      kernel=KernelConfig(**kernel), cpu=cpu)
    seq = Sequence(ids, spts, epsilon)
    join_sequences(seq, seq, ctx)
    return result, ctx


class TestContextValidation:
    def test_rejects_bad_minlen(self):
        with pytest.raises(ValueError):
            KernelConfig(minlen=0)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            KernelConfig(engine="gpu")

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            JoinContext(epsilon=0.0, result=JoinResult())

    def test_eps_sq_derived(self):
        ctx = JoinContext(epsilon=0.5, result=JoinResult())
        assert ctx.eps_sq == pytest.approx(0.25)


class TestSelfJoinCorrectness:
    @pytest.mark.parametrize("minlen", [1, 2, 8, 64])
    def test_matches_brute_force(self, rng, minlen):
        pts = rng.random((120, 3))
        eps = 0.25
        result, _ = run_self_join(pts, eps, minlen=minlen)
        assert result.canonical_pair_set() == brute_truth(pts, eps)

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_engines_equivalent(self, rng, engine):
        pts = rng.random((60, 4))
        eps = 0.35
        result, _ = run_self_join(pts, eps, engine=engine, minlen=4)
        assert result.canonical_pair_set() == brute_truth(pts, eps)

    def test_no_self_pairs(self, rng):
        pts = rng.random((40, 2))
        result, _ = run_self_join(pts, 0.5)
        a, b = result.pairs()
        assert (a != b).all()

    def test_no_duplicate_pairs(self, rng):
        pts = rng.random((100, 2))
        result, _ = run_self_join(pts, 0.4)
        a, b = result.pairs()
        canon = set(zip(np.minimum(a, b).tolist(),
                        np.maximum(a, b).tolist()))
        assert len(canon) == len(a)

    def test_duplicate_points_pair_up(self):
        pts = np.array([[0.5, 0.5]] * 4)
        result, _ = run_self_join(pts, 0.1)
        assert result.count == 6  # C(4, 2)

    def test_single_point(self):
        result, _ = run_self_join(np.array([[1.0, 2.0]]), 0.5)
        assert result.count == 0

    def test_without_dimension_ordering(self, rng):
        pts = rng.random((80, 5))
        eps = 0.3
        result, _ = run_self_join(pts, eps, order_dimensions=False)
        assert result.canonical_pair_set() == brute_truth(pts, eps)

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.05, max_value=1.5),
           st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_brute(self, n, d, eps, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, d))
        result, _ = run_self_join(pts, eps, minlen=3)
        assert result.canonical_pair_set() == brute_truth(pts, eps)


class TestTwoSequenceJoin:
    def test_cross_join_matches_brute(self, rng):
        eps = 0.3
        a = rng.random((50, 3))
        b = rng.random((40, 3))
        ids_a, pts_a = ego_sorted(a, eps, ids=np.arange(50))
        ids_b, pts_b = ego_sorted(b, eps, ids=np.arange(100, 140))
        result = JoinResult()
        ctx = JoinContext(epsilon=eps, result=result,
                          kernel=KernelConfig(minlen=4))
        join_sequences(Sequence(ids_a, pts_a, eps),
                       Sequence(ids_b, pts_b, eps), ctx)
        expected = set()
        for i in range(50):
            for j in range(40):
                if np.linalg.norm(a[i] - b[j]) <= eps:
                    expected.add((i, 100 + j))
        assert result.pair_set() == expected


class TestPruning:
    def test_distant_sequences_excluded(self):
        eps = 0.1
        a = np.array([[0.05, 0.5], [0.06, 0.7]])
        b = np.array([[0.95, 0.5], [0.96, 0.7]])
        ids_a, pts_a = ego_sorted(a, eps)
        ids_b, pts_b = ego_sorted(b, eps)
        cpu = CPUCounters()
        ctx = JoinContext(epsilon=eps, result=JoinResult(), cpu=cpu)
        join_sequences(Sequence(ids_a, pts_a, eps),
                       Sequence(ids_b, pts_b, eps), ctx)
        assert cpu.sequence_exclusions == 1
        assert cpu.distance_calculations == 0

    def test_exclusion_counts_tracked(self, rng):
        pts = rng.random((200, 2))
        _result, ctx = run_self_join(pts, 0.05, minlen=4,
                                     cpu=CPUCounters())
        assert ctx.cpu.sequence_pairs > 0
        assert ctx.cpu.sequence_exclusions > 0

    def test_pruning_saves_distance_calls(self, rng):
        """With small eps, pruning must beat the all-pairs count."""
        pts = rng.random((300, 2))
        _res, ctx = run_self_join(pts, 0.02, minlen=8, cpu=CPUCounters())
        all_pairs = 300 * 299 // 2
        assert ctx.cpu.distance_calculations < all_pairs / 3


class TestSimpleJoinAndBlocks:
    def test_simple_join_upper_triangle(self, rng):
        eps = 0.5
        raw = rng.random((10, 2))
        ids, pts = ego_sorted(raw, eps)
        result = JoinResult()
        ctx = JoinContext(epsilon=eps, result=result)
        seq = Sequence(ids, pts, eps)
        simple_join(seq, seq, ctx, upper_triangle=True)
        assert result.canonical_pair_set() == brute_truth(raw, eps)
        a, b = result.pairs()
        assert (a != b).all()


class TestCellComputationCalls:
    """Regression guard: a unit's grid cells are computed once per load.

    Each physical load reads its unit into a :class:`Sequence`, which
    computes the unit's cells; the scheduler's unit metadata, the
    unit-pair joiner and the recursion only read those rows.  So a
    whole external join makes exactly one cell computation per unit
    load, whatever the recursion depth (``minlen``) and however many
    unit pairs each loaded unit joins.
    """

    #: Every name the join phase looks a cell function up by.  The sort
    #: (``repro.core.ego_join``) and the R join S metadata pass
    #: (``repro.core.units``) compute their own cells and are not
    #: counted.
    PATCHED = (("repro.core.sequence", "floor_cells"),
               ("repro.core.sequence", "grid_cells"),
               ("repro.core.kernels", "floor_cells"),
               ("repro.core.scheduler", "grid_cells"))

    def _count(self, monkeypatch, join):
        calls = [0]

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module_name, name in self.PATCHED:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        try:
            report = join()
        finally:
            monkeypatch.undo()
        return calls[0], report

    def _self_join(self, monkeypatch, minlen):
        def join():
            with SimulatedDisk() as disk:
                make_file(disk, cad_like(800, 8, seed=4))
                return ego_self_join_file(PointFile.open(disk), 0.15,
                                          unit_bytes=4096, buffer_units=4,
                                          minlen=minlen, engine="vector",
                                          materialize=False)
        return self._count(monkeypatch, join)

    def test_calls_do_not_grow_with_recursion_depth(self, monkeypatch):
        deep, deep_report = self._self_join(monkeypatch, minlen=4)
        shallow, shallow_report = self._self_join(monkeypatch, minlen=64)
        assert deep_report.result.count == shallow_report.result.count > 0
        assert deep_report.cpu.sequence_pairs > \
            shallow_report.cpu.sequence_pairs
        sched = deep_report.schedule_stats
        assert sched.unit_pairs_joined > sched.total_unit_loads
        assert deep == shallow == sched.total_unit_loads

    def test_rs_join_computes_cells_once_per_load(self, monkeypatch):
        def join():
            with SimulatedDisk() as disk_r, SimulatedDisk() as disk_s:
                make_file(disk_r, cad_like(600, 8, seed=5))
                make_file(disk_s, cad_like(500, 8, seed=6))
                return ego_join_files(PointFile.open(disk_r),
                                      PointFile.open(disk_s), 0.15,
                                      unit_bytes=2048, buffer_units=3,
                                      minlen=8, engine="auto",
                                      materialize=False)
        calls, report = self._count(monkeypatch, join)
        stats = report.schedule_stats
        assert report.result.count > 0
        assert stats.meta_reads > 0
        assert stats.unit_pairs_joined > stats.total_unit_loads
        assert calls == stats.r_loads + stats.s_loads
