"""Tests for point files, I/O units and sequential readers/writers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import (PointFile, SequentialReader,
                                    SequentialWriter)

from conftest import make_file


class TestPointFileBasics:
    def test_create_and_reopen(self, temp_disk, rng):
        pts = rng.random((25, 3))
        make_file(temp_disk, pts)
        reopened = PointFile.open(temp_disk)
        assert reopened.count == 25
        assert reopened.dimensions == 3
        ids, out = reopened.read_all()
        np.testing.assert_array_equal(ids, np.arange(25))
        np.testing.assert_allclose(out, pts)

    def test_open_rejects_garbage(self, temp_disk):
        temp_disk.write(0, b"not a point file header, definitely not")
        with pytest.raises(ValueError):
            PointFile.open(temp_disk)

    def test_open_rejects_short_file(self, temp_disk):
        temp_disk.write(0, b"short")
        with pytest.raises(ValueError):
            PointFile.open(temp_disk)

    def test_multiple_appends_accumulate(self, temp_disk, rng):
        pf = PointFile.create(temp_disk, 2)
        a = rng.random((10, 2))
        b = rng.random((7, 2))
        pf.append(np.arange(10), a)
        pf.append(np.arange(10, 17), b)
        pf.close()
        ids, pts = pf.read_all()
        assert len(pf) == 17
        np.testing.assert_allclose(pts, np.vstack([a, b]))

    def test_read_range(self, temp_disk, rng):
        pts = rng.random((30, 2))
        pf = make_file(temp_disk, pts)
        ids, out = pf.read_range(10, 5)
        np.testing.assert_array_equal(ids, np.arange(10, 15))
        np.testing.assert_allclose(out, pts[10:15])

    def test_read_range_bounds_checked(self, temp_disk, rng):
        pf = make_file(temp_disk, rng.random((5, 2)))
        with pytest.raises(IndexError):
            pf.read_range(3, 5)
        with pytest.raises(IndexError):
            pf.read_range(-1, 2)

    def test_read_empty_range(self, temp_disk, rng):
        pf = make_file(temp_disk, rng.random((5, 2)))
        ids, pts = pf.read_range(2, 0)
        assert len(ids) == 0 and pts.shape == (0, 2)

    def test_iter_chunks_covers_everything(self, temp_disk, rng):
        pts = rng.random((23, 2))
        pf = make_file(temp_disk, pts)
        seen = [chunk for _ids, chunk in pf.iter_chunks(7)]
        assert [len(c) for c in seen] == [7, 7, 7, 2]
        np.testing.assert_allclose(np.vstack(seen), pts)

    def test_iter_chunks_rejects_non_positive(self, temp_disk, rng):
        pf = make_file(temp_disk, rng.random((3, 2)))
        with pytest.raises(ValueError):
            list(pf.iter_chunks(0))


class TestIOUnits:
    def test_every_record_belongs_to_exactly_one_unit(self, temp_disk, rng):
        pts = rng.random((40, 3))  # 32-byte records
        pf = make_file(temp_disk, pts)
        unit_bytes = 100  # deliberately not a record multiple
        collected = []
        for u in range(pf.num_units(unit_bytes)):
            first, last = pf.unit_record_range(u, unit_bytes)
            ids, _pts = pf.read_range(first, last - first)
            collected.extend(ids.tolist())
        assert sorted(collected) == list(range(40))
        assert len(collected) == len(set(collected))

    def test_unit_sizes_vary_by_at_most_one(self, temp_disk, rng):
        """Fragmentation makes record counts per unit vary by ±1 (§3.2)."""
        pts = rng.random((200, 7))  # 64-byte records
        pf = make_file(temp_disk, pts)
        unit_bytes = 1000
        counts = [pf.unit_record_range(u, unit_bytes)[1]
                  - pf.unit_record_range(u, unit_bytes)[0]
                  for u in range(pf.num_units(unit_bytes) - 1)]
        assert max(counts) - min(counts) <= 1

    def test_aligned_units_have_equal_counts(self, temp_disk, rng):
        pts = rng.random((64, 3))  # 32-byte records
        pf = make_file(temp_disk, pts)
        unit_bytes = 8 * 32
        counts = {pf.unit_record_range(u, unit_bytes)[1]
                  - pf.unit_record_range(u, unit_bytes)[0]
                  for u in range(pf.num_units(unit_bytes))}
        assert counts == {8}

    def test_unit_read_is_one_access(self, temp_disk, rng):
        pts = rng.random((50, 3))
        pf = make_file(temp_disk, pts)
        first, last = pf.unit_record_range(2, 300)
        temp_disk.reset_accounting()
        pf.read_range(first, last - first)
        assert temp_disk.counters.total_reads == 1

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=80),
           st.integers(min_value=17, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_unit_partition_property(self, dims, n, unit_bytes):
        rng = np.random.default_rng(n * 7 + dims)
        disk = SimulatedDisk()
        try:
            pf = make_file(disk, rng.random((n, dims)))
            seen = []
            for u in range(pf.num_units(unit_bytes)):
                first, last = pf.unit_record_range(u, unit_bytes)
                seen.extend(range(first, last))
            assert seen == list(range(n))
        finally:
            disk.close()


class TestSequentialWriter:
    def test_buffered_writes_flush_on_close(self, temp_disk, rng):
        pf = PointFile.create(temp_disk, 2)
        writer = SequentialWriter(pf, buffer_records=100)
        pts = rng.random((30, 2))
        for i in range(30):
            writer.write(np.array([i]), pts[i:i + 1])
        assert pf.count < 30  # still buffered
        writer.close()
        assert pf.count == 30
        _ids, out = pf.read_all()
        np.testing.assert_allclose(out, pts)

    def test_auto_flush_on_buffer_full(self, temp_disk, rng):
        pf = PointFile.create(temp_disk, 2)
        writer = SequentialWriter(pf, buffer_records=8)
        writer.write(np.arange(10), rng.random((10, 2)))
        assert pf.count == 10  # exceeded the buffer, flushed

    def test_batching_reduces_accesses(self, rng):
        pts = rng.random((64, 2))
        with SimulatedDisk() as d1, SimulatedDisk() as d2:
            pf1 = PointFile.create(d1, 2)
            w = SequentialWriter(pf1, buffer_records=64)
            for i in range(64):
                w.write(np.array([i]), pts[i:i + 1])
            w.close()
            pf2 = PointFile.create(d2, 2)
            for i in range(64):
                pf2.append(np.array([i]), pts[i:i + 1])
            pf2.close()
            assert d1.counters.total_writes < d2.counters.total_writes

    def test_rejects_non_positive_buffer(self, temp_disk):
        pf = PointFile.create(temp_disk, 2)
        with pytest.raises(ValueError):
            SequentialWriter(pf, buffer_records=0)


class TestSequentialReader:
    def test_pop_yields_records_in_order(self, temp_disk, rng):
        pts = rng.random((12, 2))
        pf = make_file(temp_disk, pts)
        reader = SequentialReader(pf, buffer_records=5)
        out = []
        while not reader.exhausted():
            rec_id, point = reader.pop()
            out.append((rec_id, point))
        assert [r[0] for r in out] == list(range(12))
        np.testing.assert_allclose(np.array([r[1] for r in out]), pts)

    def test_peek_does_not_consume(self, temp_disk, rng):
        pf = make_file(temp_disk, rng.random((3, 2)))
        reader = SequentialReader(pf)
        assert reader.peek()[0] == 0
        assert reader.peek()[0] == 0
        assert reader.pop()[0] == 0
        assert reader.peek()[0] == 1

    def test_subrange_reader(self, temp_disk, rng):
        pf = make_file(temp_disk, rng.random((20, 2)))
        reader = SequentialReader(pf, first=5, count=10)
        seen = []
        while not reader.exhausted():
            seen.append(reader.pop()[0])
        assert seen == list(range(5, 15))

    def test_next_batch_returns_remaining_buffer(self, temp_disk, rng):
        pf = make_file(temp_disk, rng.random((10, 2)))
        reader = SequentialReader(pf, buffer_records=4)
        ids, _ = reader.next_batch()
        assert ids.tolist() == [0, 1, 2, 3]

    def test_out_of_bounds_range_rejected(self, temp_disk, rng):
        pf = make_file(temp_disk, rng.random((5, 2)))
        with pytest.raises(IndexError):
            SequentialReader(pf, first=3, count=5)

    def test_exhausted_reader_raises_on_peek(self, temp_disk, rng):
        pf = make_file(temp_disk, rng.random((1, 2)))
        reader = SequentialReader(pf)
        reader.pop()
        with pytest.raises(StopIteration):
            reader.peek()
