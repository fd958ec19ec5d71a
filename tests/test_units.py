"""Tests for the I/O-unit source of the external join (repro.core.units).

Covers the Lemma-2 unit tests of :class:`UnitMeta`, the boundary-record
pass, and the picklable form workers reopen the sorted file from: equal
sequences for every unit, CRC verification of the reopened copy, and
refusal of a file with no OS file behind it.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core.ego_order import ego_sorted
from repro.core.units import SortedUnits, UnitMeta
from repro.storage.disk import MemoryDisk, SimulatedDisk
from repro.storage.integrity import ChecksummedDisk, CorruptPageError

from conftest import make_file

EPS = 0.2
UNIT_BYTES = 600


def meta(first, last):
    return UnitMeta(np.array(first), np.array(last))


class TestUnitMeta:
    def test_below_needs_a_cell_gap_of_two(self):
        unit = meta([0, 0], [1, 5])
        # last + [ε,…,ε] is cell (2, 6): only cells after it are out of
        # reach.
        assert unit.below(np.array([3, 0]))
        assert unit.below(np.array([2, 7]))
        assert not unit.below(np.array([2, 6]))
        assert not unit.below(np.array([1, 9]))

    def test_may_join_is_symmetric(self):
        low, high = meta([0, 0], [1, 5]), meta([3, 0], [4, 1])
        near = meta([2, 0], [2, 3])
        assert not low.may_join(high) and not high.may_join(low)
        assert low.may_join(near) and near.may_join(low)
        assert near.may_join(high) and high.may_join(near)


@pytest.fixture
def sorted_points(rng):
    return ego_sorted(rng.random((300, 3)), EPS)


def assert_same_sequence(got, want):
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.cells, want.cells)


class TestSortedUnits:
    def test_load_records_meta_once(self, sorted_points):
        ids, pts = sorted_points
        with SimulatedDisk() as disk:
            units = SortedUnits(make_file(disk, pts, ids), UNIT_BYTES, EPS)
            seq = units.load(1)
            assert len(seq) == units.records[1]
            first = units.meta[1]
            units.load(1)
            assert units.meta[1] is first
            assert np.array_equal(first.first_cells, seq.cells[0])
            assert np.array_equal(first.last_cells, seq.cells[-1])

    def test_boundary_pass_matches_loads(self, sorted_points):
        ids, pts = sorted_points
        with SimulatedDisk() as disk:
            pf = make_file(disk, pts, ids)
            scanned = SortedUnits(pf, UNIT_BYTES, EPS)
            assert scanned.read_boundaries() == 2 * len(scanned)
            loaded = SortedUnits(pf, UNIT_BYTES, EPS)
            for ordinal in range(len(loaded)):
                loaded.load(ordinal)
                assert np.array_equal(scanned.meta[ordinal].first_cells,
                                      loaded.meta[ordinal].first_cells)
                assert np.array_equal(scanned.meta[ordinal].last_cells,
                                      loaded.meta[ordinal].last_cells)


class TestPickledForm:
    def test_reopened_copy_loads_equal_sequences(self, sorted_points):
        ids, pts = sorted_points
        with SimulatedDisk() as disk:
            units = SortedUnits(make_file(disk, pts, ids), UNIT_BYTES, EPS)
            copy = pickle.loads(pickle.dumps(units.ref())).open()
            try:
                assert len(copy) == len(units) > 2
                for ordinal in range(len(units)):
                    assert_same_sequence(copy.load(ordinal),
                                         units.load(ordinal))
            finally:
                copy.close()
            # The copy read its own OS file: the parent's disk saw only
            # its own loads.
            assert disk.counters.bytes_read == pts.nbytes + ids.nbytes

    def test_flipped_byte_raises_in_the_copy(self, sorted_points, tmp_path):
        ids, pts = sorted_points
        path = str(tmp_path / "sorted.pts")
        with ChecksummedDisk(SimulatedDisk(path=path), page_bytes=512,
                             sidecar=False) as disk:
            units = SortedUnits(make_file(disk, pts, ids), UNIT_BYTES, EPS)
            ref = pickle.loads(pickle.dumps(units.ref()))
            assert ref.pages is not None
            with open(path, "r+b") as fh:
                fh.seek(units.point_file.data_start + 3 * UNIT_BYTES + 5)
                byte = fh.read(1)
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte[0] ^ 0x01]))
            copy = ref.open()
            try:
                copy.load(0)  # pages before the flip still verify
                with pytest.raises(CorruptPageError):
                    for ordinal in range(len(copy)):
                        copy.load(ordinal)
            finally:
                copy.close()

    def test_memory_file_has_no_pickled_form(self, sorted_points):
        ids, pts = sorted_points
        with MemoryDisk() as disk:
            units = SortedUnits(make_file(disk, pts, ids), UNIT_BYTES, EPS)
            with pytest.raises(ValueError, match="OS file"):
                units.ref()
