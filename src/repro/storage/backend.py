"""Pluggable storage backends for the LSH join's bucket files.

The external EGO pipeline always runs over
:class:`~repro.storage.disk.SimulatedDisk` — the simulated device is
what makes the paper's I/O accounting (and the byte-identity guarantees
of crash/resume and the parallel join) deterministic.  The bucket files
of the LSH join (:mod:`repro.joins.lsh_join`), however, may live
anywhere: on another simulated spindle, on a plain OS file, or entirely
in memory.  This module names that seam.

A :class:`Backend` is a small factory for disk objects implementing the
``SimulatedDisk`` duck-type protocol (``read`` / ``write`` / ``append``
/ ``truncate`` / ``size`` / ``close`` / ``reset_position`` /
``reset_accounting`` plus ``counters``, ``path`` and the clocks of
:class:`~repro.storage.stats.SimulatedClock`).  Three backends are
provided:

* :class:`SimulatedBackend` — a :class:`~repro.storage.disk.SimulatedDisk`:
  I/O is charged to the paper's cost model, so simulated I/O times are
  comparable with the EGO pipeline's.
* :class:`FileBackend` — a :class:`FileDisk`: a real temporary file with
  operation counting but **no** simulated time (only real wall-clock
  I/O), modelling commodity local storage.
* :class:`InMemoryBackend` — a :class:`MemoryDisk`: a ``bytearray``
  with the same protocol and zero simulated time, modelling a RAM disk
  (and the fastest option for tests).

The choice of backend never changes *what* is computed — only where the
data lives and what its I/O costs — so results are byte-identical
across backends.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, Optional

from .disk import SimulatedDisk
from .stats import IOCounters, SimulatedClock


class MemoryDisk(SimulatedClock):
    """A byte-addressed in-memory device with the disk protocol.

    Backed by a ``bytearray``; operations are counted in
    :class:`~repro.storage.stats.IOCounters` (with the same
    sequential/random classification as :class:`SimulatedDisk`) but no
    simulated time is charged — memory has no arm to move.
    """

    def __init__(self) -> None:
        self.counters = IOCounters()
        self.reset_clock()
        self._data = bytearray()
        self._last_end: Optional[int] = None

    @property
    def path(self) -> str:
        """Memory disks have no backing file."""
        return "<memory>"

    def __enter__(self) -> "MemoryDisk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the buffer (safe to call repeatedly)."""
        self._data = bytearray()

    def size(self) -> int:
        return len(self._data)

    def _account(self, offset: int, nbytes: int, is_write: bool) -> None:
        sequential = self._last_end == offset
        c = self.counters
        if is_write:
            if sequential:
                c.sequential_writes += 1
            else:
                c.random_writes += 1
            c.bytes_written += nbytes
        else:
            if sequential:
                c.sequential_reads += 1
            else:
                c.random_reads += 1
            c.bytes_read += nbytes
        self._last_end = offset + nbytes

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        data = bytes(self._data[offset:offset + nbytes])
        self._account(offset, len(data), is_write=False)
        if nbytes > 0 and not data:
            self._last_end = None
        return data

    def write(self, offset: int, data: bytes) -> int:
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        end = offset + len(data)
        if end > len(self._data):
            self._data.extend(b"\x00" * (end - len(self._data)))
        self._data[offset:end] = data
        self._account(offset, len(data), is_write=True)
        return len(data)

    def append(self, data: bytes) -> int:
        offset = len(self._data)
        self.write(offset, data)
        return offset

    def truncate(self, nbytes: int) -> None:
        if nbytes < len(self._data):
            del self._data[nbytes:]
        else:
            self._data.extend(b"\x00" * (nbytes - len(self._data)))
        self._last_end = None

    def reset_position(self) -> None:
        self._last_end = None

    def reset_accounting(self) -> None:
        self.counters.reset()
        self.reset_clock()
        self._last_end = None


class FileDisk(SimulatedClock):
    """A real temporary file with the disk protocol and op counting.

    Unlike :class:`SimulatedDisk`, no simulated time is charged: the
    caller pays actual OS I/O cost instead of the paper's cost model.
    The backing file is removed on :meth:`close` when anonymous.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.counters = IOCounters()
        self.reset_clock()
        self._owns_file = False
        self._closed = True
        if path is None:
            fd, self._path = tempfile.mkstemp(prefix="repro-shard-",
                                              suffix=".bin")
            self._owns_file = True
            self._file = os.fdopen(fd, "r+b")
        else:
            self._path = path
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._file = open(path, mode)
        self._last_end: Optional[int] = None
        self._closed = False

    @property
    def path(self) -> str:
        return self._path

    def __enter__(self) -> "FileDisk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if getattr(self, "_closed", True):
            return
        self._closed = True
        backing = getattr(self, "_file", None)
        if backing is not None:
            try:
                backing.close()
            except OSError:
                pass
        if self._owns_file:
            try:
                os.unlink(self._path)
            except OSError:
                pass

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def size(self) -> int:
        self._file.flush()
        return os.fstat(self._file.fileno()).st_size

    def _account(self, offset: int, nbytes: int, is_write: bool) -> None:
        sequential = self._last_end == offset
        c = self.counters
        if is_write:
            if sequential:
                c.sequential_writes += 1
            else:
                c.random_writes += 1
            c.bytes_written += nbytes
        else:
            if sequential:
                c.sequential_reads += 1
            else:
                c.random_reads += 1
            c.bytes_read += nbytes
        self._last_end = offset + nbytes

    def read(self, offset: int, nbytes: int) -> bytes:
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        self._file.seek(offset)
        data = self._file.read(nbytes)
        self._account(offset, len(data), is_write=False)
        if nbytes > 0 and not data:
            self._last_end = None
        return data

    def write(self, offset: int, data: bytes) -> int:
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        self._file.seek(offset)
        written = self._file.write(data)
        self._file.flush()
        self._account(offset, written, is_write=True)
        return written

    def append(self, data: bytes) -> int:
        offset = self.size()
        self.write(offset, data)
        return offset

    def truncate(self, nbytes: int) -> None:
        self._file.truncate(nbytes)
        self._last_end = None

    def reset_position(self) -> None:
        self._last_end = None

    def reset_accounting(self) -> None:
        self.counters.reset()
        self.reset_clock()
        self._last_end = None


class Backend:
    """Factory for disks; subclasses pick the device kind."""

    name = "backend"

    def create_disk(self):
        """Return a fresh disk implementing the disk protocol."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SimulatedBackend(Backend):
    """A simulated spindle per disk (the paper's cost model)."""

    name = "simulated"

    def create_disk(self) -> SimulatedDisk:
        return SimulatedDisk()


class FileBackend(Backend):
    """A real temporary file per disk (no simulated time)."""

    name = "file"

    def create_disk(self) -> FileDisk:
        return FileDisk()


class InMemoryBackend(Backend):
    """An in-memory buffer per disk (no simulated time)."""

    name = "memory"

    def create_disk(self) -> MemoryDisk:
        return MemoryDisk()


BACKENDS: Dict[str, type] = {
    SimulatedBackend.name: SimulatedBackend,
    FileBackend.name: FileBackend,
    InMemoryBackend.name: InMemoryBackend,
}


def get_backend(name: str) -> Backend:
    """Instantiate the named backend (``simulated``/``file``/``memory``)."""
    try:
        return BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown storage backend {name!r}; "
            f"choose from {sorted(BACKENDS)}") from None
