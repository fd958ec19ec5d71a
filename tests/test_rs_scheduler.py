"""Tests for the external two-file (R ⋈ S) join scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_join import ego_join, ego_join_files
from repro.core.ego_order import ego_sorted
from repro.core.result import JoinResult
from repro.core.rs_scheduler import TwoFileScheduler
from repro.core.sequence_join import JoinContext, KernelConfig
from repro.core.units import SortedUnits
from repro.obs.trace import Tracer
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile

from conftest import make_file


def make_files(r, s, epsilon, presorted=True):
    """Write (optionally EGO-sorted) copies of r and s to fresh disks."""
    disks = [SimulatedDisk(), SimulatedDisk()]
    files = []
    for disk, pts, offset in ((disks[0], r, 0), (disks[1], s, 0)):
        pts = np.asarray(pts, dtype=float)
        ids = np.arange(len(pts), dtype=np.int64)
        if presorted:
            ids, pts = ego_sorted(pts, epsilon, ids)
        files.append(make_file(disk, pts, ids=ids))
    return disks, files


def expected_pairs(r, s, epsilon):
    out = set()
    for i in range(len(r)):
        for j in range(len(s)):
            if np.linalg.norm(r[i] - s[j]) <= epsilon:
                out.add((i, j))
    return out


def scheduler(fr, fs, ctx, unit_bytes, buffer_units):
    eps = ctx.grid_epsilon
    return TwoFileScheduler(SortedUnits(fr, unit_bytes, eps),
                            SortedUnits(fs, unit_bytes, eps), ctx,
                            buffer_units)


class TestScheduledUnits:
    def test_counts_units_with_record_starts(self, temp_disk, rng):
        pf = make_file(temp_disk, rng.random((20, 1)))  # 16-byte records
        before = pf.disk.counters.bytes_read
        assert len(SortedUnits(pf, 16, 0.5)) == 20
        assert len(SortedUnits(pf, 64, 0.5)) == 5
        assert len(SortedUnits(pf, 10_000, 0.5)) == 1
        # Record counts come from the file geometry, without I/O:
        # 64-byte units hold four records each; 8-byte units are smaller
        # than a record, so every second one holds only a fragment and
        # is not scheduled.
        assert SortedUnits(pf, 64, 0.5).records == [4] * 5
        assert SortedUnits(pf, 8, 0.5).records == [1] * 20
        assert pf.disk.counters.bytes_read == before

    def test_empty_file(self, temp_disk):
        pf = PointFile.create(temp_disk, 2)
        pf.close()
        assert len(SortedUnits(pf, 64, 0.5)) == 0


class TestTwoFileScheduler:
    def test_sliding_mode_matches_reference(self, rng):
        eps = 0.3
        r, s = rng.random((150, 3)), rng.random((120, 3))
        disks, (fr, fs) = make_files(r, s, eps)
        try:
            result = JoinResult()
            ctx = JoinContext(epsilon=eps, result=result, kernel=KernelConfig(minlen=8))
            sched = scheduler(fr, fs, ctx, unit_bytes=8192,
                              buffer_units=16)
            stats = sched.run()
            assert stats.block_phases == 0
            assert result.pair_set() == expected_pairs(r, s, eps)
        finally:
            for d in disks:
                d.close()

    def test_block_mode_matches_reference(self, rng):
        eps = 0.7  # wide interval: the S window cannot fit 2 frames
        r, s = rng.random((200, 2)), rng.random((180, 2))
        disks, (fr, fs) = make_files(r, s, eps)
        try:
            result = JoinResult()
            ctx = JoinContext(epsilon=eps, result=result, kernel=KernelConfig(minlen=8))
            sched = scheduler(fr, fs, ctx, unit_bytes=400,
                              buffer_units=2)
            stats = sched.run()
            assert stats.block_phases > 0
            assert result.pair_set() == expected_pairs(r, s, eps)
        finally:
            for d in disks:
                d.close()

    def test_skipped_pairs_traced(self, rng):
        """Each interval-skipped unit pair leaves one ``skip`` instant,
        as in the self-join schedule, so the trace draws the whole R×S
        unit matrix; untraced runs record none."""
        eps = 0.2  # block mode with 3-unit R groups skips some pairs
        r, s = rng.random((200, 2)), rng.random((180, 2))
        disks, (fr, fs) = make_files(r, s, eps)
        try:
            tracer = Tracer()
            ctx = JoinContext(epsilon=eps, result=JoinResult(),
                              kernel=KernelConfig(minlen=8), trace=tracer)
            stats = scheduler(fr, fs, ctx, unit_bytes=200,
                              buffer_units=4).run()
            skips = [e for e in tracer.events
                     if e["ph"] == "i" and e["name"] == "skip"]
            assert stats.unit_pairs_skipped > 0
            assert len(skips) == stats.unit_pairs_skipped
            joined = {(e["args"]["r"], e["args"]["s"])
                      for e in tracer.spans("unit_pair")}
            skipped = {(e["args"]["r"], e["args"]["s"]) for e in skips}
            assert not joined & skipped
        finally:
            for d in disks:
                d.close()

    def test_sliding_mode_loads_each_unit_once(self, rng):
        eps = 0.05
        r, s = rng.random((300, 2)), rng.random((300, 2))
        disks, (fr, fs) = make_files(r, s, eps)
        try:
            ctx = JoinContext(epsilon=eps, result=JoinResult(), kernel=KernelConfig(minlen=8))
            sched = scheduler(fr, fs, ctx, unit_bytes=512,
                              buffer_units=16)
            stats = sched.run()
            assert stats.r_loads == sched.n_r
            assert stats.s_loads <= sched.n_s
        finally:
            for d in disks:
                d.close()

    def test_rejects_bad_parameters(self, rng):
        eps = 0.3
        disks, (fr, fs) = make_files(rng.random((5, 2)),
                                     rng.random((5, 2)), eps)
        try:
            ctx = JoinContext(epsilon=eps, result=JoinResult())
            with pytest.raises(ValueError):
                scheduler(fr, fs, ctx, 512, 1)
        finally:
            for d in disks:
                d.close()

    def test_dimension_mismatch_rejected(self, rng):
        with SimulatedDisk() as d1, SimulatedDisk() as d2:
            fr = make_file(d1, rng.random((5, 2)))
            fs = make_file(d2, rng.random((5, 3)))
            ctx = JoinContext(epsilon=0.3, result=JoinResult())
            with pytest.raises(ValueError):
                scheduler(fr, fs, ctx, 512, 4)


class TestEgoJoinFiles:
    def test_matches_in_memory_join(self, rng):
        eps = 0.3
        r, s = rng.random((200, 4)), rng.random((150, 4))
        with SimulatedDisk() as dr, SimulatedDisk() as ds:
            fr = make_file(dr, r)
            fs = make_file(ds, s)
            report = ego_join_files(fr, fs, eps, unit_bytes=1024,
                                    buffer_units=4)
            want = ego_join(r, s, eps).pair_set()
            assert report.result.pair_set() == want

    def test_empty_side(self, rng):
        with SimulatedDisk() as dr, SimulatedDisk() as ds:
            fr = make_file(dr, rng.random((10, 2)))
            fs = PointFile.create(ds, 2)
            fs.close()
            report = ego_join_files(fr, fs, 0.5, unit_bytes=512,
                                    buffer_units=2)
            assert report.result.count == 0

    def test_report_accounting(self, rng):
        eps = 0.25
        with SimulatedDisk() as dr, SimulatedDisk() as ds:
            fr = make_file(dr, rng.random((100, 3)))
            fs = make_file(ds, rng.random((80, 3)))
            report = ego_join_files(fr, fs, eps, unit_bytes=512,
                                    buffer_units=4)
            assert report.sort_stats_r.records_sorted == 100
            assert report.sort_stats_s.records_sorted == 80
            assert report.io.bytes_read > 0
            assert report.simulated_io_time_s == pytest.approx(
                report.sort_io_time_s + report.join_io_time_s)

    def test_disjoint_sets_no_pairs_few_s_loads(self, rng):
        """S far from R in dimension 0: the window stays empty."""
        eps = 0.1
        r = rng.random((100, 2)) * np.array([0.3, 1.0])
        s = rng.random((100, 2)) * np.array([0.3, 1.0]) + [0.6, 0.0]
        with SimulatedDisk() as dr, SimulatedDisk() as ds:
            fr = make_file(dr, r)
            fs = make_file(ds, s)
            report = ego_join_files(fr, fs, eps, unit_bytes=256,
                                    buffer_units=4)
            assert report.result.count == 0
            assert report.schedule_stats.s_loads == 0

    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=60),
           st.floats(min_value=0.05, max_value=0.9),
           st.integers(min_value=2, max_value=5),
           st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_matches_in_memory(self, nr, ns, eps, buffers,
                                        seed):
        rng = np.random.default_rng(seed)
        r, s = rng.random((nr, 2)), rng.random((ns, 2))
        with SimulatedDisk() as dr, SimulatedDisk() as ds:
            fr = make_file(dr, r)
            fs = make_file(ds, s)
            report = ego_join_files(fr, fs, eps, unit_bytes=200,
                                    buffer_units=buffers)
            assert report.result.pair_set() == expected_pairs(r, s, eps)
