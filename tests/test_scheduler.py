"""Tests for the gallop/crabstep I/O scheduler (Figure 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_join import ego_key_function
from repro.core.result import JoinResult
from repro.core.ego_order import lex_less
from repro.core.scheduler import EGOScheduler
from repro.core.sequence_join import JoinContext, KernelConfig
from repro.core.units import SortedUnits
from repro.obs.trace import Tracer
from repro.sorting.external_sort import external_sort
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile

from conftest import brute_truth, make_file


def sorted_file(disk, points, epsilon):
    """EGO-sorted point file built in memory, written once to ``disk``."""
    pts = np.asarray(points, dtype=float)
    from repro.core.ego_order import ego_sorted
    ids, spts = ego_sorted(pts, epsilon)
    return make_file(disk, spts, ids=ids)


def run_schedule(points, epsilon, unit_bytes, buffer_units,
                 allow_crabstep=True):
    with SimulatedDisk() as disk:
        pf = sorted_file(disk, points, epsilon)
        result = JoinResult()
        ctx = JoinContext(epsilon=epsilon, result=result, kernel=KernelConfig(minlen=8))
        stats = EGOScheduler(SortedUnits(pf, unit_bytes, epsilon), ctx,
                             buffer_units,
                             allow_crabstep=allow_crabstep).run()
        pairs = result.canonical_pair_set()
        io = disk.counters.snapshot()
    return pairs, stats, io


class TestLexLess:
    def test_orders_lexicographically(self):
        assert lex_less(np.array([0, 5]), np.array([1, 0]))
        assert lex_less(np.array([1, 0]), np.array([1, 1]))
        assert not lex_less(np.array([1, 1]), np.array([1, 1]))
        assert not lex_less(np.array([2, 0]), np.array([1, 9]))

    def test_equal_vectors_are_not_less(self):
        for v in ([0], [3, -2, 7], [-5, -5, -5, -5]):
            assert not lex_less(np.array(v), np.array(v))

    def test_negative_cells(self):
        assert lex_less(np.array([-3, 9]), np.array([-2, -9]))
        assert not lex_less(np.array([-2, -9]), np.array([-3, 9]))
        assert lex_less(np.array([-1, -7]), np.array([-1, -6]))
        assert not lex_less(np.array([0, 0]), np.array([-1, 99]))

    def test_prefix_equal_vectors_decided_by_first_difference(self):
        a = np.array([4, -1, 2, 0, 5])
        b = np.array([4, -1, 2, 1, -100])
        assert lex_less(a, b)
        assert not lex_less(b, a)
        c = np.array([4, -1, 2, 0, 6])
        assert lex_less(a, c) and not lex_less(c, a)

    def test_matches_tuple_order_on_int64_cells(self, rng):
        cells = rng.integers(-3, 3, size=(200, 4)).astype(np.int64)
        for a, b in zip(cells[:-1], cells[1:]):
            assert lex_less(a, b) == (tuple(a.tolist()) < tuple(b.tolist()))


class TestCorrectness:
    def test_gallop_only_sufficient_buffer(self, rng):
        pts = rng.random((200, 3))
        eps = 0.2
        pairs, stats, _ = run_schedule(pts, eps, unit_bytes=512,
                                       buffer_units=64)
        assert pairs == brute_truth(pts, eps)
        assert stats.crabstep_phases == 0

    def test_crabstep_small_buffer(self, rng):
        pts = rng.random((200, 2))
        eps = 0.5  # wide interval forces crabstep
        pairs, stats, _ = run_schedule(pts, eps, unit_bytes=300,
                                       buffer_units=2)
        assert stats.crabstep_phases > 0
        assert pairs == brute_truth(pts, eps)

    def test_thrash_mode_also_correct(self, rng):
        pts = rng.random((150, 2))
        eps = 0.5
        pairs, stats, _ = run_schedule(pts, eps, unit_bytes=300,
                                       buffer_units=2,
                                       allow_crabstep=False)
        assert stats.crabstep_phases == 0
        assert pairs == brute_truth(pts, eps)

    @given(st.integers(min_value=2, max_value=80),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=100, max_value=800),
           st.floats(min_value=0.05, max_value=0.9),
           st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_any_configuration_matches_brute(self, n, buffers, unit_bytes,
                                             eps, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        pairs, _stats, _ = run_schedule(pts, eps, unit_bytes, buffers)
        assert pairs == brute_truth(pts, eps)

    def test_empty_file(self):
        with SimulatedDisk() as disk:
            pf = PointFile.create(disk, 2)
            pf.close()
            ctx = JoinContext(epsilon=0.5, result=JoinResult())
            stats = EGOScheduler(SortedUnits(pf, 256, 0.5), ctx, 4).run()
            assert stats.total_unit_loads == 0

    def test_single_unit_file(self, rng):
        pts = rng.random((5, 2))
        pairs, stats, _ = run_schedule(pts, 0.5, unit_bytes=4096,
                                       buffer_units=2)
        assert pairs == brute_truth(pts, 0.5)
        assert stats.gallop_loads == 1


class TestSchedulingBehaviour:
    def test_gallop_loads_each_unit_once(self, rng):
        """Figure 3a: with enough buffer, each unit is read exactly once."""
        pts = rng.random((300, 2))
        eps = 0.1
        with SimulatedDisk() as disk:
            pf = sorted_file(disk, pts, eps)
            ctx = JoinContext(epsilon=eps, result=JoinResult(), kernel=KernelConfig(minlen=8))
            sched = EGOScheduler(SortedUnits(pf, 400, eps), ctx,
                                 buffer_units=32)
            stats = sched.run()
            assert stats.gallop_loads == sched.num_units
            assert stats.crabstep_phases == 0
            assert stats.crabstep_reloads == 0

    def test_crabstep_beats_thrashing(self, rng):
        """Figure 3b vs 3c: crabstep needs far fewer loads than LRU gallop."""
        pts = rng.random((400, 2))
        eps = 0.9  # everything joins everything: worst case
        _p1, crab, _ = run_schedule(pts, eps, unit_bytes=300,
                                    buffer_units=4)
        _p2, thrash, _ = run_schedule(pts, eps, unit_bytes=300,
                                      buffer_units=4,
                                      allow_crabstep=False)
        assert crab.total_unit_loads < thrash.total_unit_loads

    def test_unit_pair_skip_counts(self, rng):
        """Units far apart in the order are skipped (Figure 2's region)."""
        pts = rng.random((400, 1))
        eps = 0.01
        _pairs, stats, _ = run_schedule(pts, eps, unit_bytes=200,
                                        buffer_units=6)
        assert stats.unit_pairs_skipped >= 0
        # With tiny eps, most far pairs should never even be formed:
        # joined pairs stay near the diagonal.
        n_units = stats.gallop_loads + stats.crabstep_pins
        assert stats.unit_pairs_joined < n_units * 6

    def test_eviction_happens_in_gallop(self, rng):
        pts = rng.random((500, 2))
        eps = 0.05
        _pairs, stats, _ = run_schedule(pts, eps, unit_bytes=256,
                                        buffer_units=4)
        assert stats.evictions > 0

    def test_requires_two_buffers(self, rng):
        with SimulatedDisk() as disk:
            pf = sorted_file(disk, rng.random((10, 2)), 0.5)
            ctx = JoinContext(epsilon=0.5, result=JoinResult())
            with pytest.raises(ValueError):
                EGOScheduler(SortedUnits(pf, 256, 0.5), ctx, 1)


class TestWithExternalSort:
    def test_full_pipeline_on_presorted_runs(self, rng):
        """External sort output feeds the scheduler directly."""
        eps = 0.3
        pts = rng.random((150, 3))
        with SimulatedDisk() as src, SimulatedDisk() as dst, \
                SimulatedDisk() as scratch:
            pf = make_file(src, pts)
            out, _ = external_sort(pf, dst, scratch,
                                   ego_key_function(eps),
                                   memory_records=40)
            ctx = JoinContext(epsilon=eps, result=JoinResult(), kernel=KernelConfig(minlen=8))
            EGOScheduler(SortedUnits(out, 512, eps), ctx,
                         buffer_units=4).run()
            assert ctx.result.canonical_pair_set() == brute_truth(pts, eps)


def traced_schedule(points, epsilon, unit_bytes, buffer_units):
    """Run the schedule with a :class:`Tracer`; returns (tracer, stats)."""
    tracer = Tracer()
    with SimulatedDisk() as disk:
        pf = sorted_file(disk, points, epsilon)
        ctx = JoinContext(epsilon=epsilon, result=JoinResult(),
                          kernel=KernelConfig(minlen=8), trace=tracer)
        stats = EGOScheduler(SortedUnits(pf, unit_bytes, epsilon), ctx,
                             buffer_units).run()
    return tracer, stats


def skip_events(tracer):
    return [e for e in tracer.events
            if e["ph"] == "i" and e["name"] == "skip"]


class TestTracing:
    def test_trace_records_loads_and_pairs(self, rng):
        pts = rng.random((100, 2))
        tracer, stats = traced_schedule(pts, 0.3, unit_bytes=300,
                                        buffer_units=4)
        assert stats.total_unit_loads > 0 and stats.unit_pairs_joined > 0
        assert len(tracer.spans("load")) == stats.total_unit_loads
        assert len(tracer.spans("unit_pair")) == stats.unit_pairs_joined
        assert len(skip_events(tracer)) == stats.unit_pairs_skipped

    def test_trace_pairs_canonicalized(self, rng):
        pts = rng.random((80, 2))
        tracer, _stats = traced_schedule(pts, 0.4, 300, 3)
        pairs = tracer.spans("unit_pair") + skip_events(tracer)
        assert pairs
        for event in pairs:
            assert event["args"]["a"] <= event["args"]["b"]

    def test_crabstep_reloads_record_skips(self, rng):
        """A 3-frame buffer forces crabstep reloads; reloaded units that
        fall outside part of the pinned window's interval add skipped
        pairs a galloping run never forms, each one ``skip`` instant."""
        pts = rng.random((300, 2))
        tracer, stats = traced_schedule(pts, 0.2, unit_bytes=300,
                                        buffer_units=3)
        _gallop_tracer, gallop = traced_schedule(pts, 0.2, unit_bytes=300,
                                                 buffer_units=64)
        assert gallop.crabstep_reloads == 0 and stats.crabstep_reloads > 0
        assert stats.unit_pairs_skipped > gallop.unit_pairs_skipped
        skips = skip_events(tracer)
        assert len(skips) == stats.unit_pairs_skipped
        assert all(e["args"]["a"] < e["args"]["b"] for e in skips)
        assert len(tracer.spans("load")) == stats.total_unit_loads
