"""Tests for the external merge sort."""

import heapq
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_join import ego_key_function
from repro.core.ego_order import ego_key, is_ego_sorted
from repro.sorting.external_sort import external_sort, merge_sorted_arrays
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile

from conftest import make_file


def identity_key(points):
    """Sort by raw integer value of the first coordinate."""
    return points[:, 0].astype(np.int64)


#: The sort module itself; ``repro.sorting`` re-exports its function
#: ``external_sort`` under the module's name.
sort_module = importlib.import_module("repro.sorting.external_sort")


def lexsort_order(keys, ids):
    """One ``np.lexsort`` over ``(key columns, id)``: the sort's order."""
    keys = np.asarray(keys).reshape(len(ids), -1)
    return np.lexsort((ids,) + tuple(keys[:, c] for c in
                                     range(keys.shape[1] - 1, -1, -1)))


def run_sort(points, key, memory_records, fanin=4, ids=None):
    """Helper: sort an array through the full external machinery."""
    pts = np.asarray(points, dtype=np.float64)
    with SimulatedDisk() as src, SimulatedDisk() as dst, \
            SimulatedDisk() as scratch:
        pf = make_file(src, pts, ids)
        out, stats = external_sort(pf, dst, scratch, key, memory_records,
                                   fanin=fanin)
        ids, sorted_pts = out.read_all()
        return ids.copy(), sorted_pts.copy(), stats


class TestSingleRun:
    def test_already_fits_in_memory(self, rng):
        pts = rng.integers(0, 100, (20, 1)).astype(float)
        ids, out, stats = run_sort(pts, identity_key, memory_records=64)
        assert stats.runs_generated == 1
        assert (np.diff(out[:, 0]) >= 0).all()

    def test_ids_follow_points(self, rng):
        pts = rng.integers(0, 50, (30, 2)).astype(float)
        ids, out, _ = run_sort(pts, identity_key, memory_records=64)
        np.testing.assert_allclose(pts[ids], out)


class TestMultiRun:
    def test_many_runs_single_merge(self, rng):
        pts = rng.integers(0, 1000, (100, 1)).astype(float)
        ids, out, stats = run_sort(pts, identity_key, memory_records=16,
                                   fanin=8)
        assert stats.runs_generated == 7
        assert stats.merge_passes == 1
        assert (np.diff(out[:, 0]) >= 0).all()
        assert sorted(ids.tolist()) == list(range(100))

    def test_multi_pass_merge(self, rng):
        pts = rng.integers(0, 1000, (200, 1)).astype(float)
        ids, out, stats = run_sort(pts, identity_key, memory_records=10,
                                   fanin=2)
        assert stats.runs_generated == 20
        assert stats.merge_passes > 1
        assert (np.diff(out[:, 0]) >= 0).all()
        assert sorted(ids.tolist()) == list(range(200))

    def test_records_sorted_counted(self, rng):
        pts = rng.random((55, 2))
        _, _, stats = run_sort(pts, identity_key, memory_records=10)
        assert stats.records_sorted == 55

    def test_stable_tiebreak_by_id(self):
        pts = np.zeros((40, 1))  # all keys equal
        ids, _, _ = run_sort(pts, identity_key, memory_records=7)
        assert ids.tolist() == list(range(40))


class TestEgoKeySort:
    def test_output_is_ego_sorted(self, rng):
        eps = 0.2
        pts = rng.random((150, 4))
        _, out, _ = run_sort(pts, ego_key_function(eps), memory_records=20)
        assert is_ego_sorted(out, eps)

    def test_matches_in_memory_ego_sort(self, rng):
        eps = 0.3
        pts = rng.random((80, 3))
        ids, out, _ = run_sort(pts, ego_key_function(eps),
                               memory_records=12)
        keys = [ego_key(p, eps) for p in out]
        assert keys == sorted(keys)
        # Same multiset of points.
        np.testing.assert_allclose(pts[ids], out)

    @given(st.integers(min_value=2, max_value=60),
           st.integers(min_value=2, max_value=25))
    @settings(max_examples=20, deadline=None)
    def test_sortedness_property(self, n, memory):
        rng = np.random.default_rng(n * 31 + memory)
        eps = 0.25
        pts = rng.random((n, 3))
        _, out, _ = run_sort(pts, ego_key_function(eps),
                             memory_records=memory)
        assert is_ego_sorted(out, eps)
        assert len(out) == n


class TestValidation:
    def test_rejects_tiny_memory(self, rng):
        with SimulatedDisk() as src, SimulatedDisk() as dst, \
                SimulatedDisk() as scratch:
            pf = make_file(src, rng.random((5, 2)))
            with pytest.raises(ValueError):
                external_sort(pf, dst, scratch, identity_key, 1)

    def test_rejects_tiny_fanin(self, rng):
        with SimulatedDisk() as src, SimulatedDisk() as dst, \
                SimulatedDisk() as scratch:
            pf = make_file(src, rng.random((5, 2)))
            with pytest.raises(ValueError):
                external_sort(pf, dst, scratch, identity_key, 8, fanin=1)

    def test_rejects_float_keys(self, rng):
        """A float key column would be truncated; both entry points refuse it."""
        def float_key(points):
            return points * 10.0

        pts = rng.random((12, 2))
        with SimulatedDisk() as src, SimulatedDisk() as dst, \
                SimulatedDisk() as scratch:
            pf = make_file(src, pts)
            with pytest.raises(TypeError, match="integers"):
                external_sort(pf, dst, scratch, float_key, 8)
        with pytest.raises(TypeError, match="integers"):
            merge_sorted_arrays([(np.arange(12), pts)], float_key)

    def test_empty_input(self):
        with SimulatedDisk() as src, SimulatedDisk() as dst, \
                SimulatedDisk() as scratch:
            pf = PointFile.create(src, 2)
            pf.close()
            out, stats = external_sort(pf, dst, scratch, identity_key, 8)
            assert out.count == 0
            assert stats.runs_generated == 0


class TestIOAccounting:
    def test_sort_moves_bounded_data(self, rng):
        """A single merge pass reads and writes each record O(1) times.

        Input is read once; each record is written to a run, read back
        during the merge, and written to the output — no thrashing
        re-reads.
        """
        pts = rng.random((300, 2))
        data_bytes = 300 * 24
        with SimulatedDisk() as src, SimulatedDisk() as dst, \
                SimulatedDisk() as scratch:
            pf = make_file(src, pts)
            src.reset_accounting()
            _, stats = external_sort(pf, dst, scratch,
                                     ego_key_function(0.2),
                                     memory_records=50)
            assert stats.merge_passes == 1
            assert src.counters.bytes_read <= data_bytes + 1024
            assert scratch.counters.bytes_written <= data_bytes
            assert scratch.counters.bytes_read <= data_bytes
            assert dst.counters.bytes_written <= data_bytes + 1024

    def test_run_generation_reads_are_sequential(self, rng):
        """The run-generation scan of the input never seeks backwards."""
        pts = rng.random((200, 2))
        with SimulatedDisk() as src, SimulatedDisk() as dst, \
                SimulatedDisk() as scratch:
            pf = make_file(src, pts)
            src.reset_accounting()
            external_sort(pf, dst, scratch, ego_key_function(0.2),
                          memory_records=40)
            assert src.counters.random_reads <= 1

    #: ``(random_reads, sequential_reads, random_writes, sequential_writes,
    #: bytes_read, bytes_written)`` and simulated seconds per disk, for
    #: 300 records at 40 records of memory (8 runs).  These are the
    #: figures of a record-at-a-time k-way merge with the same buffers;
    #: any move in the order of refills or writes changes them.
    PINNED_IO = {
        16: {"src": ((1, 7, 0, 0, 9600, 0), 0.00991725260416667),
             "scratch": ((75, 0, 1, 7, 9600, 9600), 0.6784345052083338),
             "dst": ((0, 0, 2, 8, 0, 9664), 0.018824034288194444)},
        2: {"src": ((1, 7, 0, 0, 9600, 0), 0.00991725260416667),
            "scratch": ((70, 10, 16, 7, 28800, 28800), 0.7715035156250011),
            "dst": ((0, 0, 2, 6, 0, 9664), 0.018824034288194444)},
    }

    @pytest.mark.parametrize("fanin,passes", [(16, 1), (2, 3)],
                             ids=["single-pass", "multi-pass"])
    def test_io_pinned(self, fanin, passes):
        pts = np.random.default_rng(11).random((300, 3))
        with SimulatedDisk() as src, SimulatedDisk() as dst, \
                SimulatedDisk() as scratch:
            pf = make_file(src, pts)
            src.reset_accounting()
            _, stats = external_sort(pf, dst, scratch,
                                     ego_key_function(0.2),
                                     memory_records=40, fanin=fanin)
            assert (stats.runs_generated, stats.merge_passes) == (8, passes)
            for name, disk in (("src", src), ("scratch", scratch),
                               ("dst", dst)):
                c = disk.counters
                counts, seconds = self.PINNED_IO[fanin][name]
                assert (c.random_reads, c.sequential_reads,
                        c.random_writes, c.sequential_writes,
                        c.bytes_read, c.bytes_written) == counts, name
                assert disk.simulated_time_s == pytest.approx(
                    seconds, rel=1e-12), name


class TestBoundedMemory:
    def test_merge_holds_one_buffer_per_run(self, rng, monkeypatch):
        """Every merge of a multi-pass sort holds at most one read buffer
        per run it merges, so its input side fits in ``memory_records``."""
        merge = sort_module._merge
        merges = []

        def counting_merge(sources, key_of_batch):
            readers = [reader for _, _, reader in sources]
            held = [sum(len(ids) for ids, _, _ in sources)]
            for reader in readers:
                def next_batch(batch=reader.next_batch):
                    ids, points = batch()
                    held[0] += len(ids)
                    return ids, points
                reader.next_batch = next_batch
            peak = 0
            for ids, points in merge(sources, key_of_batch):
                peak = max(peak, held[0])
                held[0] -= len(ids)
                yield ids, points
            merges.append((len(readers), readers[0].buffer_records, peak))

        monkeypatch.setattr(sort_module, "_merge", counting_merge)
        memory = 30
        _, _, stats = run_sort(rng.random((400, 3)), ego_key_function(0.2),
                               memory_records=memory, fanin=3)
        assert stats.merge_passes > 2
        assert len(merges) > stats.merge_passes
        for runs, buffer_records, peak in merges:
            assert peak <= runs * buffer_records < memory


class TestMergeSortedArrays:
    def _runs(self, rng, k, total):
        """Random points cut into k runs, each sorted by (key, id)."""
        key = ego_key_function(0.2)
        pts = rng.random((total, 3))
        ids = rng.permutation(total).astype(np.int64)
        cuts = np.sort(rng.integers(0, total, size=k - 1))
        runs = []
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, total]):
            ri, rp = ids[lo:hi], pts[lo:hi]
            order = lexsort_order(key(rp), ri)
            runs.append((ri[order], rp[order]))
        return runs, key

    @staticmethod
    def _heap_merge(runs, key):
        """Record-at-a-time ``heapq.merge`` of the runs by (key, id)."""
        records = heapq.merge(*(
            [(tuple(row) + (int(i),), i, p)
             for row, i, p in zip(key(rp).reshape(len(ri), -1).tolist(),
                                  ri, rp)]
            for ri, rp in runs))
        merged = list(records)
        ids = np.array([i for _, i, _ in merged], dtype=np.int64)
        pts = np.array([p for _, _, p in merged])
        return ids, pts

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_vectorized_equals_heap_merge(self, rng, k):
        """The block merge is a record-at-a-time heap merge, bit for bit."""
        runs, key = self._runs(rng, k, 257)
        fast_ids, fast_pts = merge_sorted_arrays(runs, key)
        heap_ids, heap_pts = self._heap_merge(runs, key)
        assert np.array_equal(fast_ids, heap_ids)
        assert np.array_equal(fast_pts, heap_pts)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           dims=st.integers(1, 3), memory=st.integers(2, 9),
           fanin=st.integers(2, 4), one_column=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_disk_merge_equals_memory_merge_and_lexsort(
            self, seed, n, dims, memory, fanin, one_column):
        """``external_sort``, ``merge_sorted_arrays`` over the same runs and
        one ``np.lexsort`` over ``(keys, id)`` give the same order."""
        rng = np.random.default_rng(seed)
        # Few distinct coordinates: duplicate points tie on every key
        # column and fall to the id; negative ones give negative cells.
        pts = rng.integers(-3, 4, (n, dims)) * 0.3
        ids = rng.permutation(n).astype(np.int64) - n // 2
        if one_column:
            def key(points):
                return np.floor(points.sum(axis=1)).astype(np.int64)
        else:
            key = ego_key_function(0.5)
        disk_ids, disk_pts, _ = run_sort(pts, key, memory, fanin, ids=ids)
        runs = []
        for lo in range(0, n, memory):
            run_ids, run_pts = ids[lo:lo + memory], pts[lo:lo + memory]
            order = lexsort_order(key(run_pts), run_ids)
            runs.append((run_ids[order], run_pts[order]))
        mem_ids, mem_pts = merge_sorted_arrays(runs, key)
        want = lexsort_order(key(pts), ids)
        assert disk_ids.tolist() == mem_ids.tolist() == ids[want].tolist()
        np.testing.assert_array_equal(disk_pts, pts[want])
        np.testing.assert_array_equal(mem_pts, pts[want])

    def test_output_globally_sorted(self, rng):
        runs, key = self._runs(rng, 3, 120)
        ids, pts = merge_sorted_arrays(runs, key)
        keys = [tuple(row) + (int(i),)
                for row, i in zip(key(pts).tolist(), ids.tolist())]
        assert keys == sorted(keys)

    def test_empty_and_empty_runs(self):
        key = ego_key_function(0.2)
        ids, pts = merge_sorted_arrays([], key)
        assert len(ids) == 0
        empty = (np.empty(0, dtype=np.int64), np.empty((0, 3)))
        one = (np.array([7], dtype=np.int64), np.array([[0.1, 0.2, 0.3]]))
        ids, pts = merge_sorted_arrays([empty, one], key)
        assert ids.tolist() == [7]
