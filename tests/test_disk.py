"""Tests for the simulated disk device and its accounting.

Every device of the storage layer is a :class:`SimulatedDisk`: timed
(the paper's cost model), untimed, or :class:`MemoryDisk` over an
in-memory buffer.  ``TestOneDiskProtocol`` checks that all three count
and store identically.
"""

import os

import numpy as np
import pytest

from repro.joins.lsh_join import BUCKET_DISKS, lsh_self_join_file
from repro.storage.disk import UNTIMED, DiskModel, SimulatedDisk

from conftest import make_file


class TestDiskModel:
    def test_sequential_charges_transfer_only(self):
        model = DiskModel(transfer_rate_bytes=1000, avg_access_time_s=0.01)
        assert model.access_time(500, sequential=True) == pytest.approx(0.5)

    def test_random_adds_positioning(self):
        model = DiskModel(transfer_rate_bytes=1000, avg_access_time_s=0.01)
        assert model.access_time(500, sequential=False) == pytest.approx(0.51)

    def test_paper_defaults(self):
        model = DiskModel()
        assert model.transfer_rate_bytes == pytest.approx(9.0 * 1024 * 1024)
        assert model.avg_access_time_s == pytest.approx(8.9e-3)


class TestReadWrite:
    def test_round_trip(self, temp_disk):
        temp_disk.write(0, b"hello world")
        assert temp_disk.read(0, 11) == b"hello world"

    def test_read_past_end_is_short(self, temp_disk):
        temp_disk.write(0, b"abc")
        assert temp_disk.read(0, 100) == b"abc"

    def test_read_negative_size_rejected(self, temp_disk):
        with pytest.raises(ValueError):
            temp_disk.read(0, -1)

    def test_read_negative_offset_rejected(self, temp_disk):
        with pytest.raises(ValueError):
            temp_disk.read(-1, 10)

    def test_write_negative_offset_rejected(self, temp_disk):
        with pytest.raises(ValueError):
            temp_disk.write(-5, b"x")

    def test_append_returns_offset(self, temp_disk):
        assert temp_disk.append(b"12345") == 0
        assert temp_disk.append(b"678") == 5
        assert temp_disk.size() == 8

    def test_truncate(self, temp_disk):
        temp_disk.write(0, b"0123456789")
        temp_disk.truncate(4)
        assert temp_disk.size() == 4
        assert temp_disk.read(0, 10) == b"0123"

    def test_overwrite_region(self, temp_disk):
        temp_disk.write(0, b"aaaaaaaa")
        temp_disk.write(2, b"bb")
        assert temp_disk.read(0, 8) == b"aabbaaaa"


class TestAccounting:
    def test_first_access_is_random(self, temp_disk):
        temp_disk.write(0, b"x" * 100)
        assert temp_disk.counters.random_writes == 1
        assert temp_disk.counters.sequential_writes == 0

    def test_contiguous_accesses_are_sequential(self, temp_disk):
        temp_disk.write(0, b"x" * 100)
        temp_disk.write(100, b"y" * 100)
        temp_disk.write(200, b"z" * 100)
        assert temp_disk.counters.sequential_writes == 2

    def test_backwards_seek_is_random(self, temp_disk):
        temp_disk.write(0, b"x" * 100)
        temp_disk.read(0, 50)
        assert temp_disk.counters.random_reads == 1

    def test_read_after_write_same_position_is_sequential(self, temp_disk):
        temp_disk.write(0, b"x" * 100)
        temp_disk.read(100, 0)  # zero-length read at the head position
        assert temp_disk.counters.sequential_reads == 1

    def test_read_past_eof_does_not_fake_sequential(self, temp_disk):
        # A zero-byte read at EOF transfers nothing; the next access at
        # that offset must not be misclassified as sequential.
        temp_disk.write(0, b"x" * 100)
        temp_disk.read(200, 50)  # entirely past EOF: empty
        temp_disk.read(200, 10)
        assert temp_disk.counters.random_reads == 2

    def test_short_read_at_eof_stays_sequential(self, temp_disk):
        # A *partial* read transferred real bytes; sequentiality is
        # judged from where the transfer actually ended.
        temp_disk.write(0, b"x" * 100)
        assert len(temp_disk.read(0, 150)) == 100
        temp_disk.read(100, 10)  # empty, from the true head position
        assert temp_disk.counters.sequential_reads == 1

    def test_bytes_counted(self, temp_disk):
        temp_disk.write(0, b"x" * 64)
        temp_disk.read(0, 64)
        assert temp_disk.counters.bytes_written == 64
        assert temp_disk.counters.bytes_read == 64

    def test_simulated_time_accumulates(self, temp_disk):
        before = temp_disk.simulated_time_s
        temp_disk.write(0, b"x" * 1024)
        assert temp_disk.simulated_time_s > before

    def test_sequential_cheaper_than_random(self):
        d1, d2 = SimulatedDisk(), SimulatedDisk()
        try:
            d1.write(0, b"a" * 1000)
            d1.write(1000, b"a" * 1000)
            d2.write(0, b"a" * 1000)
            d2.write(5000, b"a" * 1000)
            assert d1.simulated_time_s < d2.simulated_time_s
        finally:
            d1.close()
            d2.close()

    def test_reset_accounting(self, temp_disk):
        temp_disk.write(0, b"data")
        temp_disk.reset_accounting()
        assert temp_disk.counters.total_accesses == 0
        assert temp_disk.simulated_time_s == 0.0
        # After a reset the next access is random again.
        temp_disk.write(4, b"more")
        assert temp_disk.counters.random_writes == 1

    def test_total_access_properties(self, temp_disk):
        temp_disk.write(0, b"ab")
        temp_disk.read(0, 2)
        c = temp_disk.counters
        assert c.total_accesses == 2
        assert c.total_reads == 1
        assert c.total_writes == 1


class TestLifecycle:
    def test_anonymous_file_removed_on_close(self):
        disk = SimulatedDisk()
        path = disk.path
        assert os.path.exists(path)
        disk.close()
        assert not os.path.exists(path)

    def test_named_file_survives_close(self, tmp_path):
        path = str(tmp_path / "data.bin")
        disk = SimulatedDisk(path=path)
        disk.write(0, b"persist")
        disk.close()
        assert os.path.exists(path)
        reopened = SimulatedDisk(path=path)
        try:
            assert reopened.read(0, 7) == b"persist"
        finally:
            reopened.close()

    def test_context_manager(self):
        with SimulatedDisk() as disk:
            disk.write(0, b"ctx")
            assert disk.read(0, 3) == b"ctx"

    def test_double_close_is_safe(self):
        disk = SimulatedDisk()
        disk.close()
        disk.close()

    def test_del_removes_anonymous_file(self):
        # A pipeline that loses its last reference (e.g. an exception
        # escaping mid-join) must not leak the temp file.
        disk = SimulatedDisk()
        path = disk.path
        del disk
        import gc
        gc.collect()
        assert not os.path.exists(path)

    def test_del_safe_on_half_constructed_instance(self):
        disk = SimulatedDisk.__new__(SimulatedDisk)
        disk.__del__()  # no attributes set at all; must not raise

    def test_close_after_del_of_backing_file_attr(self):
        disk = SimulatedDisk()
        path = disk.path
        del disk._file  # simulate a partially torn-down instance
        disk.close()    # must not raise; still unlinks the temp file
        assert not os.path.exists(path)


@pytest.fixture(params=sorted(BUCKET_DISKS))
def any_disk(request):
    """A timed (``simulated``), untimed (``file``) or ``memory`` disk."""
    disk = BUCKET_DISKS[request.param]()
    yield disk
    disk.close()


class TestOneDiskProtocol:
    def test_same_bytes_and_counters(self, any_disk):
        payload = bytes(range(100))
        any_disk.write(0, payload)                     # random: first access
        assert any_disk.read(0, 50) == payload[:50]    # random: arm at 100
        assert any_disk.read(50, 50) == payload[50:]   # sequential
        assert any_disk.read(100, 10) == b""           # past EOF: arm lost
        assert any_disk.read(100, 10) == b""           # so this is random
        c = any_disk.counters
        assert (c.random_writes, c.sequential_writes) == (1, 0)
        assert (c.random_reads, c.sequential_reads) == (2, 2)
        assert (c.bytes_written, c.bytes_read) == (100, 100)
        assert any_disk.size() == 100
        assert any_disk.read(0, 200) == payload
        if any_disk.model is UNTIMED:
            assert any_disk.simulated_time_s == 0.0
        else:
            assert any_disk.simulated_time_s > 0.0

    def test_append_and_truncate_zero_extends(self, any_disk):
        assert any_disk.append(b"abc") == 0
        assert any_disk.append(b"de") == 3
        any_disk.truncate(8)
        assert any_disk.size() == 8
        assert any_disk.read(0, 8) == b"abcde\x00\x00\x00"
        any_disk.truncate(2)
        assert any_disk.read(0, 8) == b"ab"
        assert any_disk.append(b"z") == 2

    def test_untimed_file_removed_on_close(self):
        disk = SimulatedDisk(model=UNTIMED)
        path = disk.path
        disk.write(0, b"hello world")
        assert disk.read(6, 5) == b"world"
        disk.close()
        assert not os.path.exists(path)

    def test_lsh_bucket_disk_names(self, temp_disk, rng):
        assert set(BUCKET_DISKS) == {"simulated", "file", "memory"}
        pf = make_file(temp_disk, rng.random((20, 2)))
        with pytest.raises(ValueError, match="unknown storage backend"):
            lsh_self_join_file(pf, 0.1, backend="ramdisk")
