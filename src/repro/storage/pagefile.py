"""Point files: headered record files with I/O-unit access.

A :class:`PointFile` stores a header followed by fixed-width point records
(see :mod:`repro.storage.records`) on a :class:`~repro.storage.disk.SimulatedDisk`.

The EGO join reads the file in **I/O units**: byte windows of a fixed,
hardware-friendly size.  Because the unit size is independent of the
record size, records may straddle unit boundaries; following Section 3.2
of the paper, each record belongs to the unit in which it *starts*, and
the dangling tail fragment is covered by slightly extending the unit's
single contiguous read.  The number of records per unit therefore varies
by one, exactly as the paper notes.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

import numpy as np

from .disk import SimulatedDisk
from .records import RecordCodec

MAGIC = b"REPROPTS"
HEADER_SIZE = 32
_HEADER_STRUCT = struct.Struct("<8sIIQQ")
_VERSION = 1


class PointFile:
    """A file of point records on a simulated disk.

    Use :meth:`create` for a new file or :meth:`open` for an existing one.
    Appends are buffered per call; :meth:`flush_header` persists the record
    count (done automatically by :meth:`close`).
    """

    def __init__(self, disk: SimulatedDisk, codec: RecordCodec,
                 count: int, data_start: int = HEADER_SIZE) -> None:
        self.disk = disk
        self.codec = codec
        self.count = count
        self.data_start = data_start

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, disk: SimulatedDisk, dimensions: int) -> "PointFile":
        """Initialise ``disk`` with an empty point file of ``dimensions``."""
        pf = cls(disk, RecordCodec(dimensions), count=0)
        disk.truncate(0)
        pf.flush_header()
        return pf

    @classmethod
    def open(cls, disk: SimulatedDisk) -> "PointFile":
        """Open the point file already present on ``disk``."""
        raw = disk.read(0, HEADER_SIZE)
        if len(raw) < HEADER_SIZE:
            raise ValueError("file too short to contain a point-file header")
        magic, version, dims, count, _reserved = _HEADER_STRUCT.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a point file")
        if version != _VERSION:
            raise ValueError(f"unsupported point-file version {version}")
        return cls(disk, RecordCodec(dims), count=count)

    def flush_header(self) -> None:
        """Write the header (including the current record count) to disk."""
        header = _HEADER_STRUCT.pack(
            MAGIC, _VERSION, self.codec.dimensions, self.count, 0)
        self.disk.write(0, header)

    def close(self) -> None:
        """Persist the header; the underlying disk stays open."""
        self.flush_header()

    # -- basic properties -------------------------------------------------

    @property
    def dimensions(self) -> int:
        """Dimensionality of the stored points."""
        return self.codec.dimensions

    @property
    def record_bytes(self) -> int:
        """Width of one record in bytes."""
        return self.codec.record_bytes

    @property
    def data_bytes(self) -> int:
        """Total bytes of record data currently in the file."""
        return self.count * self.record_bytes

    def __len__(self) -> int:
        return self.count

    # -- record access ----------------------------------------------------

    def append(self, ids: np.ndarray, points: np.ndarray) -> None:
        """Append records for parallel ``ids``/``points`` arrays."""
        data = self.codec.encode(ids, points)
        offset = self.data_start + self.data_bytes
        self.disk.write(offset, data)
        self.count += len(ids)

    def read_range(self, first: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read ``n`` records starting at record index ``first``."""
        if first < 0 or n < 0 or first + n > self.count:
            raise IndexError(
                f"record range [{first}, {first + n}) out of bounds "
                f"for {self.count} records")
        if n == 0:
            return self.codec.decode(b"")
        offset = self.data_start + first * self.record_bytes
        data = self.disk.read(offset, n * self.record_bytes)
        return self.codec.decode(data)

    def read_all(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read every record in the file."""
        return self.read_range(0, self.count)

    def iter_chunks(self, chunk_records: int
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(ids, points)`` chunks of at most ``chunk_records``."""
        if chunk_records <= 0:
            raise ValueError("chunk_records must be positive")
        pos = 0
        while pos < self.count:
            n = min(chunk_records, self.count - pos)
            yield self.read_range(pos, n)
            pos += n

    def data_crc32(self, chunk_records: int = 8192) -> int:
        """CRC32 over the raw bytes of the data region.

        Recorded in the resume journal when a durable artifact (the
        sorted file) completes, and checked before a resumed run trusts
        it — a cheap whole-file complement to the per-page verification
        of :class:`~repro.storage.integrity.ChecksummedDisk`.
        """
        import zlib
        crc = 0
        pos = 0
        rec = self.record_bytes
        while pos < self.count:
            n = min(chunk_records, self.count - pos)
            raw = self.disk.read(self.data_start + pos * rec, n * rec)
            crc = zlib.crc32(raw, crc)
            pos += n
        return crc

    # -- I/O units ----------------------------------------------------------

    def num_units(self, unit_bytes: int) -> int:
        """Number of I/O units of ``unit_bytes`` covering the data region."""
        if unit_bytes <= 0:
            raise ValueError("unit_bytes must be positive")
        data = self.data_bytes
        return (data + unit_bytes - 1) // unit_bytes

    def unit_record_range(self, unit: int, unit_bytes: int) -> Tuple[int, int]:
        """Record index range ``[first, last)`` of records *starting* in unit."""
        rec = self.record_bytes
        lo_byte = unit * unit_bytes
        hi_byte = min((unit + 1) * unit_bytes, self.data_bytes)
        first = -(-lo_byte // rec)          # ceil division
        last = -(-hi_byte // rec)
        first = min(first, self.count)
        last = min(last, self.count)
        return first, last


class SequentialWriter:
    """Buffered append-only writer used by run generation and merging.

    Batches appended records into large sequential writes so the simulated
    disk sees the access pattern an external sort actually produces.
    """

    def __init__(self, point_file: PointFile, buffer_records: int = 8192) -> None:
        if buffer_records <= 0:
            raise ValueError("buffer_records must be positive")
        self.point_file = point_file
        self.buffer_records = buffer_records
        self._ids: list = []
        self._points: list = []
        self._pending = 0

    def write(self, ids: np.ndarray, points: np.ndarray) -> None:
        """Queue records for writing, flushing when the buffer fills."""
        self._ids.append(np.asarray(ids, dtype=np.int64))
        self._points.append(np.asarray(points, dtype=np.float64))
        self._pending += len(ids)
        if self._pending >= self.buffer_records:
            self.flush()

    def flush(self) -> None:
        """Write all queued records to the file."""
        if not self._pending:
            return
        ids = np.concatenate(self._ids)
        points = np.concatenate(self._points)
        self.point_file.append(ids, points)
        self._ids.clear()
        self._points.clear()
        self._pending = 0

    def __enter__(self) -> "SequentialWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush pending records and persist the file header."""
        self.flush()
        self.point_file.close()


class SequentialReader:
    """Buffered forward reader over a record range of a point file."""

    def __init__(self, point_file: PointFile, first: int = 0,
                 count: Optional[int] = None,
                 buffer_records: int = 8192) -> None:
        if buffer_records <= 0:
            raise ValueError("buffer_records must be positive")
        self.point_file = point_file
        self.position = first
        end = point_file.count if count is None else first + count
        if end > point_file.count:
            raise IndexError("reader range exceeds file length")
        self.end = end
        self.buffer_records = buffer_records
        self._ids = np.empty(0, dtype=np.int64)
        self._points = np.empty((0, point_file.dimensions), dtype=np.float64)
        self._cursor = 0

    def exhausted(self) -> bool:
        """True when no records remain."""
        return self._cursor >= len(self._ids) and self.position >= self.end

    def _refill(self) -> None:
        n = min(self.buffer_records, self.end - self.position)
        self._ids, self._points = self.point_file.read_range(self.position, n)
        self.position += n
        self._cursor = 0

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the next buffered batch of ``(ids, points)``."""
        if self._cursor >= len(self._ids):
            if self.position >= self.end:
                return (np.empty(0, dtype=np.int64),
                        np.empty((0, self.point_file.dimensions)))
            self._refill()
        ids = self._ids[self._cursor:]
        points = self._points[self._cursor:]
        self._cursor = len(self._ids)
        return ids, points

    def peek(self) -> Tuple[int, np.ndarray]:
        """Return the next record without consuming it."""
        if self._cursor >= len(self._ids):
            if self.position >= self.end:
                raise StopIteration("reader exhausted")
            self._refill()
        return int(self._ids[self._cursor]), self._points[self._cursor]

    def pop(self) -> Tuple[int, np.ndarray]:
        """Return the next record and advance past it."""
        record = self.peek()
        self._cursor += 1
        return record
