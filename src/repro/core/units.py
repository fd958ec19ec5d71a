"""The I/O units of an EGO-sorted file (Section 3.2).

:class:`SortedUnits` is the one place that knows the unit layout: which
units the schedule runs over, their record counts, how a unit is read
into a :class:`~repro.core.sequence.Sequence`, and the cell bounds
(:class:`UnitMeta`) by which Lemma 2 decides unit pairs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..storage.disk import SimulatedDisk
from ..storage.integrity import ChecksummedDisk, page_checksums
from ..storage.pagefile import PointFile
from ..storage.records import RecordCodec
from .ego_order import grid_cells, lex_less
from .sequence import Sequence


@dataclass
class UnitMeta:
    """Grid-cell bounds of one I/O unit: its first and last cell rows."""

    first_cells: np.ndarray
    last_cells: np.ndarray

    @classmethod
    def of(cls, seq: Sequence) -> "UnitMeta":
        """Bounds of a loaded unit, read from its first and last cell rows.

        The two rows are copied, so the metadata does not keep the
        unit's cell array alive after the buffer drops the unit.
        """
        return cls(*seq.cells[[0, -1]])

    @property
    def last_plus_eps_cells(self) -> np.ndarray:
        """Cells of ``last_point + [ε,…,ε]``: every coordinate shifts by one."""
        return self.last_cells + 1

    def below(self, cells: np.ndarray) -> bool:
        """Lemma 2: ``last + [ε,…,ε] <ego cells``, so no point of this
        unit joins a point in ``cells`` or in any later cell."""
        return lex_less(self.last_plus_eps_cells, cells)

    def may_join(self, other: "UnitMeta") -> bool:
        """False when either unit lies wholly below the other's first
        cell (the canceled region of Figure 2)."""
        return not (self.below(other.first_cells)
                    or other.below(self.first_cells))


class SortedUnits:
    """An EGO-sorted file cut into I/O units, cells at ``grid_epsilon``.

    Units are addressed by *ordinal*, their position in the schedule;
    only units in which a record starts take part (fragmentation leaves
    the trailing unit, and with units smaller than a record also
    interior ones, holding only fragments).  ``records[o]`` counts the
    records starting in unit ``o``; ``meta[o]`` is set once it is loaded.
    """

    def __init__(self, point_file: PointFile, unit_bytes: int,
                 grid_epsilon: float) -> None:
        self.point_file = point_file
        self.unit_bytes = unit_bytes
        self.grid_epsilon = grid_epsilon
        ranges = (point_file.unit_record_range(u, unit_bytes)
                  for u in range(point_file.num_units(unit_bytes)))
        self._ranges = [(lo, hi) for lo, hi in ranges if hi > lo]
        self.records = [hi - lo for lo, hi in self._ranges]
        self.meta: Dict[int, UnitMeta] = {}

    def __len__(self) -> int:
        return len(self._ranges)

    def load(self, ordinal: int) -> Sequence:
        """Read unit ``ordinal`` (one disk read) and compute its cells;
        the first load records its :class:`UnitMeta`."""
        lo, hi = self._ranges[ordinal]
        seq = Sequence(*self.point_file.read_range(lo, hi - lo),
                       self.grid_epsilon)
        if ordinal not in self.meta:
            self.meta[ordinal] = UnitMeta.of(seq)
        return seq

    def read_boundaries(self) -> int:
        """Record every unit's :class:`UnitMeta` from its first and last
        record alone, so a schedule can bound its windows before it loads
        any unit (the R ⋈ S metadata pass).  Returns the records read."""
        pf, eps = self.point_file, self.grid_epsilon
        for ordinal, (lo, hi) in enumerate(self._ranges):
            _i, first = pf.read_range(lo, 1)
            _i, last = pf.read_range(hi - 1, 1)
            self.meta[ordinal] = UnitMeta(grid_cells(first[0], eps),
                                          grid_cells(last[0], eps))
        return 2 * len(self)

    def ref(self) -> "UnitFileRef":
        """The picklable form, with the page CRCs the file's checksum
        layer holds now; raises :class:`ValueError` when no OS file is
        behind the file (:func:`require_file_backed`)."""
        pf = self.point_file
        return UnitFileRef(require_file_backed(pf.disk), pf.data_start,
                           pf.count, pf.dimensions, self.unit_bytes,
                           self.grid_epsilon, page_checksums(pf.disk))

    def close(self) -> None:
        """Close the file's disk (a copy from :meth:`UnitFileRef.open`)."""
        self.point_file.disk.close()


@dataclass(frozen=True)
class UnitFileRef:
    """What another process needs to reopen a :class:`SortedUnits`: the
    sorted OS file's path, data start and geometry, and its page-CRC
    table (``(page_bytes, table)``, or ``None`` without checksums)."""

    path: str
    data_start: int
    count: int
    dimensions: int
    unit_bytes: int
    grid_epsilon: float
    pages: Optional[Tuple[int, dict]]

    def open(self) -> SortedUnits:
        """Reopen the OS file, bypassing the opener's disk stack and its
        I/O accounting; with a CRC table every page read is verified
        (:class:`~repro.storage.integrity.CorruptPageError`)."""
        disk = SimulatedDisk(path=self.path)
        if self.pages is not None:
            disk = ChecksummedDisk(disk, self.pages[0], sidecar=False,
                                   pages=self.pages[1])
        return SortedUnits(
            PointFile(disk, RecordCodec(self.dimensions), self.count,
                      self.data_start),
            self.unit_bytes, self.grid_epsilon)


def require_file_backed(disk) -> str:
    """Path of the OS file behind ``disk``, which parallel workers read.

    Raises :class:`ValueError` for a disk with no backing file (a
    :class:`~repro.storage.disk.MemoryDisk`), so a run can refuse
    ``workers > 1`` before it sorts or schedules anything.
    """
    path = disk.path
    if not os.path.isfile(path):
        raise ValueError(f"workers > 1 needs the sorted file on an OS "
                         f"file; {path!r} is not a file")
    return path
