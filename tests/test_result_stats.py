"""Tests for JoinResult collection and the operation counters."""

import numpy as np
import pytest

from conftest import make_file
from repro.core.ego_join import ego_self_join_file
from repro.core.ego_order import ego_sorted
from repro.core.result import JoinResult
from repro.data.synthetic import cad_like
from repro.obs.metrics import MetricsRegistry
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile
from repro.storage.stats import (CPUCounters, IOCounters, IOScope,
                                 OperationStats)


class TestJoinResult:
    def test_add_and_pairs(self):
        r = JoinResult()
        r.add_batch(np.array([1, 2]), np.array([3, 4]))
        r.add_pair(5, 6)
        a, b = r.pairs()
        assert a.tolist() == [1, 2, 5]
        assert b.tolist() == [3, 4, 6]
        assert len(r) == 3

    def test_empty_pairs(self):
        r = JoinResult()
        a, b = r.pairs()
        assert len(a) == 0 and len(b) == 0

    def test_mismatched_batch_rejected(self):
        r = JoinResult()
        with pytest.raises(ValueError):
            r.add_batch(np.array([1]), np.array([2, 3]))

    def test_zero_length_batch_ignored(self):
        r = JoinResult()
        r.add_batch(np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        assert r.count == 0

    def test_count_only_mode(self):
        r = JoinResult(materialize=False)
        r.add_batch(np.array([1]), np.array([2]))
        assert r.count == 1
        with pytest.raises(RuntimeError):
            r.pairs()

    def test_callback_streams_batches(self):
        seen = []
        r = JoinResult(materialize=False,
                       callback=lambda a, b: seen.append((a.copy(),
                                                          b.copy())))
        r.add_batch(np.array([1, 2]), np.array([3, 4]))
        r.add_pair(9, 9)
        assert len(seen) == 2
        assert seen[0][0].tolist() == [1, 2]

    def test_pair_set_and_canonical(self):
        r = JoinResult()
        r.add_pair(5, 2)
        r.add_pair(2, 5)
        assert r.pair_set() == {(5, 2), (2, 5)}
        assert r.canonical_pair_set() == {(2, 5)}


class TestIOCounters:
    def test_arithmetic(self):
        a = IOCounters(random_reads=2, bytes_read=100)
        b = IOCounters(random_reads=1, sequential_writes=3)
        s = a + b
        assert s.random_reads == 3
        assert s.sequential_writes == 3
        assert s.bytes_read == 100
        d = s - b
        assert d.random_reads == 2
        assert d.sequential_writes == 0

    def test_snapshot_is_independent(self):
        a = IOCounters(random_reads=1)
        snap = a.snapshot()
        a.random_reads = 99
        assert snap.random_reads == 1

    def test_reset(self):
        a = IOCounters(random_reads=5, bytes_written=10)
        a.reset()
        assert a.total_accesses == 0

    def test_totals(self):
        a = IOCounters(random_reads=1, sequential_reads=2,
                       random_writes=3, sequential_writes=4)
        assert a.total_reads == 3
        assert a.total_writes == 7
        assert a.total_accesses == 10


class TestCPUCounters:
    def test_arithmetic_and_snapshot(self):
        a = CPUCounters(distance_calculations=10, mbr_tests=2)
        b = CPUCounters(distance_calculations=5)
        assert (a + b).distance_calculations == 15
        assert (a - b).distance_calculations == 5
        snap = a.snapshot()
        a.mbr_tests = 0
        assert snap.mbr_tests == 2

    def test_reset(self):
        a = CPUCounters(sequence_pairs=7)
        a.reset()
        assert a.sequence_pairs == 0


class TestOperationStats:
    def test_bundle_arithmetic(self):
        a = OperationStats()
        a.io.bytes_read = 10
        a.cpu.distance_calculations = 3
        b = a + a
        assert b.io.bytes_read == 20
        assert b.cpu.distance_calculations == 6
        a.reset()
        assert a.io.bytes_read == 0


class TestIOScope:
    def test_delta_accounting(self, temp_disk):
        temp_disk.write(0, b"x" * 64)
        scope = IOScope(temp_disk).begin()
        temp_disk.write(64, b"y" * 32)
        temp_disk.read(0, 16)
        delta = scope.io_delta()
        assert delta.bytes_written == 32
        assert delta.bytes_read == 16
        assert delta.total_accesses == 2
        assert scope.time_delta() > 0.0

    def test_resets_arm_position(self, temp_disk):
        # Leave the arm exactly at offset 64; without the reset the next
        # access at 64 would count as sequential.
        temp_disk.write(0, b"x" * 64)
        with IOScope(temp_disk) as scope:
            temp_disk.read(64, 16)
        assert scope.io_delta().random_reads == 1
        assert scope.io_delta().sequential_reads == 0

    def test_dedups_and_tolerates_none(self, temp_disk):
        scope = IOScope(temp_disk, temp_disk, None).begin()
        temp_disk.write(0, b"z" * 8)
        assert scope.io_delta().bytes_written == 8  # counted once

    def test_requires_begin(self, temp_disk):
        scope = IOScope(temp_disk)
        with pytest.raises(RuntimeError):
            scope.io_delta()
        with pytest.raises(RuntimeError):
            scope.time_delta()

    def test_duck_typed_disk_without_reset_position(self):
        class Duck:
            def __init__(self):
                self.counters = IOCounters()
                self.simulated_time_s = 0.0
        duck = Duck()
        scope = IOScope(duck).begin()
        duck.counters.random_reads += 1
        assert scope.io_delta().random_reads == 1


class TestBackToBackRuns:
    def test_repeated_external_joins_report_identical_io(self, rng):
        """Regression: the arm position must not leak between runs.

        Before run-scoped accounting, a second ``ego_self_join_file``
        on the same disk inherited the arm position where the first run
        parked it, so its first access could be classified sequential
        instead of random — different counters and simulated time for
        byte-identical work.
        """
        pts = rng.uniform(size=(250, 4))
        with SimulatedDisk() as disk:
            make_file(disk, pts)
            from repro.storage.pagefile import PointFile
            pf = PointFile.open(disk)

            def run():
                r = ego_self_join_file(pf, 0.1, unit_bytes=2048,
                                       buffer_units=4, materialize=False)
                return (r.result.count, r.io, r.simulated_io_time_s,
                        r.sort_io_time_s, r.join_io_time_s)

            first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2:] == second[2:]

    @pytest.mark.parametrize("assume_sorted", [False, True])
    def test_reused_disk_reports_fresh_disk_seconds_bit_for_bit(
            self, assume_sorted):
        """Regression: simulated seconds must not drift on a reused disk.

        The run's seconds used to be the difference of two readings of
        the disk's ever-growing clock, which rounds differently once the
        clock is large: back-to-back runs on one input disk reported
        ``simulated_io_time_s`` values (and the matching
        ``ego_simulated_io_seconds`` gauge) differing in the last bits.
        Each run's seconds are now summed from zero.
        """
        pts = cad_like(400, 4, seed=3)
        if assume_sorted:
            _ids, pts = ego_sorted(pts, 0.1)

        def run(pf):
            registry = MetricsRegistry()
            r = ego_self_join_file(pf, 0.1, unit_bytes=2048,
                                   buffer_units=4, materialize=False,
                                   assume_sorted=assume_sorted,
                                   metrics=registry)
            gauge = registry.gauge("ego_simulated_io_seconds", "").value
            return (r.result.count, r.simulated_io_time_s,
                    r.sort_io_time_s, r.join_io_time_s, gauge)

        with SimulatedDisk() as disk:
            make_file(disk, pts)
            pf = PointFile.open(disk)
            reused = [run(pf) for _ in range(3)]
        with SimulatedDisk() as fresh_disk:
            make_file(fresh_disk, pts)
            fresh = run(PointFile.open(fresh_disk))
        assert reused == [fresh] * 3
        assert fresh[1] == fresh[4] > 0.0

    @pytest.mark.parametrize("join", ["lsh", "nested_loop"])
    def test_disk_tracker_joins_report_fresh_disk_seconds_bit_for_bit(
            self, join):
        """Regression: the same drift, for joins timed by DiskTracker.

        DiskTracker leaves the arm where it is, so the first run on a
        disk whose header was just read starts with a sequential access
        and later runs with a random one; runs that start from the same
        arm state must report the same seconds bit for bit.
        """
        from repro.joins.lsh_join import lsh_self_join_file
        from repro.joins.nested_loop import nested_loop_self_join_file

        pts = cad_like(400, 4, seed=3)

        def run(pf):
            if join == "lsh":
                r = lsh_self_join_file(pf, 0.1, tables=3, seed=1,
                                       materialize=False)
            else:
                r = nested_loop_self_join_file(pf, 0.1, buffer_records=64,
                                               materialize=False)
            return r.result.count, r.simulated_io_time_s

        with SimulatedDisk() as disk:
            make_file(disk, pts)
            pf = PointFile.open(disk)
            reused = [run(pf) for _ in range(3)]
        with SimulatedDisk() as fresh_disk:
            make_file(fresh_disk, pts)
            fresh = run(PointFile.open(fresh_disk))
        assert reused[0] == fresh
        assert reused[1] == reused[2]
        assert reused[1][0] == fresh[0] and fresh[1] > 0.0
