"""Tests for the parallel EGO self-join (the paper's future work).

The one parallel executor is
:class:`~repro.core.supervisor.SupervisedUnitJoiner` behind
``ego_self_join_file(..., workers=k)``: it records the unit pairs the
I/O schedule submits (the tasks), cuts them into unit-range shards (the
chunks) and joins the shards on a process pool.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_join import ego_self_join, ego_self_join_file
from repro.core.ego_order import ego_sorted
from repro.core.result import JoinResult
from repro.core.scheduler import EGOScheduler
from repro.core.sequence_join import JoinContext
from repro.core.shard import plan_shards
from repro.core.supervisor import SupervisedUnitJoiner
from repro.core.units import SortedUnits
from repro.storage.disk import SimulatedDisk

from conftest import brute_truth, make_file

UNIT_BYTES = 256
BUFFER_UNITS = 4


def parallel_join(points, eps, workers=2, ids=None):
    with SimulatedDisk() as disk:
        pf = make_file(disk, points, ids)
        return ego_self_join_file(pf, eps, unit_bytes=UNIT_BYTES,
                                  buffer_units=BUFFER_UNITS,
                                  workers=workers).result


def recorded_schedule(points, eps):
    """Run the I/O schedule over ``points`` into the parallel executor.

    Returns the executor (its recorded tasks in ``events``) and the
    scheduler; the tasks are joined on the pool when the schedule
    drains.
    """
    ids, pts = ego_sorted(points, eps)
    result = JoinResult()
    with SimulatedDisk() as disk:
        pf = make_file(disk, pts, ids)
        ctx = JoinContext(epsilon=eps, result=result)
        units = SortedUnits(pf, UNIT_BYTES, eps)
        with SupervisedUnitJoiner(ctx, workers=2, units=units,
                                  buffer_units=BUFFER_UNITS) as joiner:
            scheduler = EGOScheduler(units, ctx, BUFFER_UNITS,
                                     unit_joiner=joiner)
            scheduler.run()
    assert result.canonical_pair_set() == brute_truth(points, eps)
    return joiner, scheduler


def unit_pairs(joiner):
    return [(ev.a, ev.b) for ev in joiner.events]


class TestChunkBoundaries:
    """The shards of a real recorded schedule."""

    def plan(self, rng, shards):
        joiner, scheduler = recorded_schedule(rng.random((200, 3)), 0.2)
        records = {u: 1 for u in range(scheduler.num_units)}
        return scheduler.num_units, plan_shards(
            scheduler.num_units, joiner.events, records, shards)

    def test_covers_everything(self, rng):
        num_units, specs = self.plan(rng, 7)
        assert specs[0].own_lo == 0
        assert specs[-1].own_hi == num_units
        for left, right in zip(specs, specs[1:]):
            assert left.own_hi == right.own_lo
            assert left.own_lo < left.own_hi

    def test_more_chunks_than_records(self, rng):
        num_units, specs = self.plan(rng, 10 ** 4)
        assert 1 < len(specs) <= num_units
        assert all(s.own_hi > s.own_lo for s in specs)

    def test_zero_records(self):
        joiner, scheduler = recorded_schedule(np.empty((0, 3)), 0.2)
        assert scheduler.num_units == 0
        assert joiner.events == []

    def test_rejects_zero_chunks(self):
        ctx = JoinContext(epsilon=0.2, result=JoinResult())
        with SimulatedDisk() as disk:
            pf = make_file(disk, np.zeros((2, 3)))
            with pytest.raises(ValueError):
                SupervisedUnitJoiner(ctx, 0, SortedUnits(pf, UNIT_BYTES, 0.2),
                                     BUFFER_UNITS)


class TestBuildTasks:
    """The unit-pair tasks the executor receives from the schedule."""

    def test_contains_all_self_tasks(self, rng):
        joiner, scheduler = recorded_schedule(rng.random((50, 2)), 0.2)
        self_tasks = [a for a, b in unit_pairs(joiner) if a == b]
        assert sorted(self_tasks) == list(range(scheduler.num_units))

    def test_distant_chunk_pairs_pruned(self, rng):
        """With a tiny eps, only neighbouring units can pair up."""
        joiner, scheduler = recorded_schedule(rng.random((1000, 1)), 0.001)
        cross = [(a, b) for a, b in unit_pairs(joiner) if a != b]
        n = scheduler.num_units
        # Far fewer than the full n(n-1)/2 cross pairs.
        assert len(cross) < 2 * n < n * (n - 1) // 2

    def test_wide_eps_keeps_all_pairs(self, rng):
        joiner, scheduler = recorded_schedule(rng.random((40, 2)), 5.0)
        n = scheduler.num_units
        assert sorted(unit_pairs(joiner)) == \
            [(a, b) for a in range(n) for b in range(a, n)]


class TestParallelJoin:
    def test_inline_matches_serial(self, rng):
        pts = rng.random((300, 4))
        eps = 0.3
        par = parallel_join(pts, eps, workers=1)
        ser = ego_self_join(pts, eps)
        assert par.canonical_pair_set() == ser.canonical_pair_set()

    def test_pool_matches_serial(self, rng):
        pts = rng.random((400, 3))
        eps = 0.25
        par = parallel_join(pts, eps, workers=3)
        assert par.canonical_pair_set() == brute_truth(pts, eps)

    def test_no_duplicates_across_tasks(self, rng):
        pts = rng.random((250, 2))
        par = parallel_join(pts, 0.4, workers=2)
        a, b = par.pairs()
        canon = set(zip(np.minimum(a, b).tolist(),
                        np.maximum(a, b).tolist()))
        assert len(canon) == len(a)

    def test_single_chunk_degenerates_to_serial(self, rng):
        # Few enough points for one unit: one shard, one task.
        pts = rng.random((5, 3))
        par = parallel_join(pts, 0.8, workers=2)
        assert par.canonical_pair_set() == brute_truth(pts, 0.8)

    def test_custom_ids(self, rng):
        pts = rng.random((60, 2))
        ids = np.arange(500, 560)
        par = parallel_join(pts, 0.3, ids=ids, workers=2)
        a, b = par.pairs()
        assert len(a)
        assert a.min() >= 500 and b.max() < 560

    def test_empty_input(self):
        par = parallel_join(np.empty((0, 2)), 0.5, workers=2)
        assert par.count == 0

    def test_rejects_bad_workers(self, rng):
        with pytest.raises(ValueError):
            parallel_join(rng.random((5, 2)), 0.3, workers=0)

    @given(st.integers(min_value=1, max_value=80),
           st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.05, max_value=1.0),
           st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_chunking_invariance(self, n, workers, eps, seed):
        """Any worker (and so shard) count yields the same pair set."""
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 3))
        par = parallel_join(pts, eps, workers=workers)
        assert par.canonical_pair_set() == brute_truth(pts, eps)
