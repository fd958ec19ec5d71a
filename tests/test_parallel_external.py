"""Tests for the parallel unit-pair join in the external pipeline.

The parallel path must be *indistinguishable* from the serial one in
every observable: the pair stream, the durable result bytes, the
journal, the CPU counters and the schedule statistics.  Only wall-clock
time is allowed to differ.
"""

import json
import os

import numpy as np
import pytest

from repro.core.ego_join import ego_self_join_file
from repro.core.supervisor import SupervisedUnitJoiner
from repro.storage.disk import MemoryDisk, SimulatedDisk
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.integrity import CorruptPageError

from conftest import make_file

pytestmark = pytest.mark.faults

EPSILON = 0.25
UNIT_BYTES = 512
BUFFER_UNITS = 4


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(99).random((400, 4))


def run_join(pts, **kwargs):
    kwargs.setdefault("unit_bytes", UNIT_BYTES)
    kwargs.setdefault("buffer_units", BUFFER_UNITS)
    with SimulatedDisk() as disk:
        pf = make_file(disk, pts)
        return ego_self_join_file(pf, EPSILON, **kwargs)


def checkpoint_artifacts(ck):
    with open(os.path.join(ck, "result.prs"), "rb") as fh:
        result_bytes = fh.read()
    with open(os.path.join(ck, "journal.json")) as fh:
        journal = json.load(fh)
    return result_bytes, journal


class TestParallelMatchesSerial:
    def test_pair_stream_and_counters_identical(self, dataset):
        serial = run_join(dataset)
        parallel = run_join(dataset, workers=3)
        sa, sb = serial.result.pairs()
        pa, pb = parallel.result.pairs()
        # Byte-identical stream: same pairs in the same order.
        assert np.array_equal(sa, pa)
        assert np.array_equal(sb, pb)
        assert serial.cpu == parallel.cpu
        assert serial.schedule_stats == parallel.schedule_stats

    @pytest.mark.parametrize("workers", [2, 4])
    def test_checkpoint_bytes_identical(self, dataset, tmp_path, workers):
        ck_s = str(tmp_path / "serial")
        ck_p = str(tmp_path / f"parallel{workers}")
        serial = run_join(dataset, checkpoint_dir=ck_s)
        parallel = run_join(dataset, checkpoint_dir=ck_p,
                            workers=workers)
        assert serial.total_pairs == parallel.total_pairs
        bytes_s, journal_s = checkpoint_artifacts(ck_s)
        bytes_p, journal_p = checkpoint_artifacts(ck_p)
        assert bytes_s == bytes_p
        assert journal_s == journal_p

    def test_parallel_with_auto_engine(self, dataset):
        serial = run_join(dataset, engine="vector")
        parallel = run_join(dataset, workers=2, engine="auto",
                            minlen=64)
        assert serial.result.canonical_pair_set() \
            == parallel.result.canonical_pair_set()

    def test_empty_input_with_workers(self):
        report = run_join(np.empty((0, 3)), workers=2)
        assert report.total_pairs == 0

    def test_workers_must_be_positive(self, dataset):
        with pytest.raises(ValueError, match="workers"):
            run_join(dataset, workers=0)


class TestParallelCrashResume:
    def test_crash_then_parallel_resume(self, dataset, tmp_path):
        baseline_ck = str(tmp_path / "baseline")
        run_join(dataset, checkpoint_dir=baseline_ck)
        base_bytes, base_journal = checkpoint_artifacts(baseline_ck)

        ck = str(tmp_path / "ck")
        plan = FaultPlan(seed=1, crash_ops=[150])
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck, workers=3,
                     fault_plan=plan)
        report = run_join(dataset, checkpoint_dir=ck, resume=True,
                          workers=3, fault_plan=plan.without_crashes())
        assert report.resumed
        got_bytes, got_journal = checkpoint_artifacts(ck)
        assert got_bytes == base_bytes
        assert got_journal == base_journal

    def test_parallel_crash_serial_resume(self, dataset, tmp_path):
        # Worker count is not part of the durable state: a run started
        # with workers=4 can be finished with workers=1 and vice versa.
        baseline_ck = str(tmp_path / "baseline")
        run_join(dataset, checkpoint_dir=baseline_ck)
        base_bytes, _ = checkpoint_artifacts(baseline_ck)

        ck = str(tmp_path / "ck")
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck, workers=4,
                     fault_plan=FaultPlan(seed=1, crash_ops=[100]))
        report = run_join(dataset, checkpoint_dir=ck, resume=True)
        assert report.resumed
        got_bytes, _ = checkpoint_artifacts(ck)
        assert got_bytes == base_bytes


class TestWorkerReadIntegrity:
    def test_corruption_after_planning_is_caught(self, dataset, tmp_path,
                                                 monkeypatch):
        # Workers read the sorted file directly, not through the
        # parent's checksum layer; they must still verify its page CRCs.
        # Flip a byte of the sorted file after the schedule has read it
        # (when the joiner drains) but before any worker reads it.
        ck = str(tmp_path / "ck")
        drain = SupervisedUnitJoiner.drain

        def corrupt_then_drain(joiner):
            path = os.path.join(ck, "sorted.pts")
            with open(path, "r+b") as fh:
                fh.seek(os.path.getsize(path) // 2)
                byte = fh.read(1)
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte[0] ^ 0xFF]))
            drain(joiner)

        monkeypatch.setattr(SupervisedUnitJoiner, "drain",
                            corrupt_then_drain)
        with pytest.raises(CorruptPageError):
            run_join(dataset, workers=2, checksums=True, checkpoint_dir=ck)


class TestSortedFileOnMemory:
    """Workers read the sorted file's OS file; without one, workers > 1
    is refused before the sort or the schedule reads anything."""

    def test_assume_sorted_memory_input_refused(self, dataset):
        with MemoryDisk() as disk:
            pf = make_file(disk, dataset)
            before = disk.counters.bytes_read
            with pytest.raises(ValueError, match="OS file"):
                ego_self_join_file(pf, EPSILON, unit_bytes=UNIT_BYTES,
                                   buffer_units=BUFFER_UNITS, workers=2,
                                   assume_sorted=True)
            assert disk.counters.bytes_read == before
