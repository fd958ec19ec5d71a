"""Simulated disk device over real files.

The paper ran on a Seagate ST310212A (about 9 MB/s sustained transfer,
8.9 ms average read access, 5.6 ms average latency) with unbuffered I/O on
raw devices.  This module substitutes that hardware with a byte-addressed
device backed by an ordinary file: every read and write goes through
:class:`SimulatedDisk`, which classifies it as *sequential* (it starts
exactly where the previous access on the same device ended) or *random*
and charges simulated time accordingly.

The substitution is documented in DESIGN.md: the paper's experimental
claims are about access schedules, so exact access counting plus the
published device constants reproduces the relative I/O behaviour without
a physical 1-GB testbed.

The same class serves the LSH join's other bucket-file kinds: with the
:data:`UNTIMED` model it is a plain counted file, and :class:`MemoryDisk`
is the same device over an in-memory buffer.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

from .stats import IOCounters, SimulatedClock


@dataclass(frozen=True)
class DiskModel:
    """Timing constants of the modelled disk device.

    The defaults are the figures the paper reports for its testbed disk.
    ``avg_access_time_s`` is the full random positioning cost (seek plus
    rotational latency); sequential accesses are charged transfer time
    only, which is how a sustained scan reaches ``transfer_rate_bytes``.
    """

    transfer_rate_bytes: float = 9.0 * 1024 * 1024
    avg_access_time_s: float = 8.9e-3
    avg_latency_s: float = 5.6e-3

    def access_time(self, nbytes: int, sequential: bool) -> float:
        """Simulated seconds to move ``nbytes``, with positioning if random."""
        transfer = nbytes / self.transfer_rate_bytes
        if sequential:
            return transfer
        return self.avg_access_time_s + transfer


#: A device that charges no simulated time: accesses are still counted
#: and classified, but ``simulated_time_s`` stays exactly ``0.0``.  The
#: LSH join's ``"file"`` and ``"memory"`` bucket disks use it.
UNTIMED = DiskModel(transfer_rate_bytes=math.inf, avg_access_time_s=0.0,
                    avg_latency_s=0.0)


class SimulatedDisk(SimulatedClock):
    """A byte-addressed storage device with access accounting.

    Data lives in a real file (so external sorting genuinely spills to
    disk), but all access goes through :meth:`read` / :meth:`write`, which
    maintain :class:`~repro.storage.stats.IOCounters` and a simulated
    clock.  One ``SimulatedDisk`` models one spindle: sequentiality is
    judged against the last access on this device regardless of which
    logical file region it touched, exactly like a physical disk arm.

    Parameters
    ----------
    path:
        Backing file path.  If ``None``, an anonymous temporary file is
        created and removed on :meth:`close`.
    model:
        Timing constants; defaults to the paper's device.
    """

    def __init__(self, path: Optional[str] = None,
                 model: Optional[DiskModel] = None) -> None:
        self.model = model if model is not None else DiskModel()
        self.counters = IOCounters()
        self.reset_clock()
        # Set lifecycle flags before any file is opened so close() (and
        # __del__ on a half-constructed instance) always sees them.
        self._owns_file = False
        self._closed = True
        if path is None:
            fd, self._path = tempfile.mkstemp(prefix="repro-disk-", suffix=".bin")
            self._owns_file = True
            self._closed = False
            self._file = os.fdopen(fd, "r+b")
        else:
            self._path = path
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._file = open(path, mode)
        self._last_end: Optional[int] = None
        self._closed = False

    @property
    def path(self) -> str:
        """Path of the backing file."""
        return self._path

    def __enter__(self) -> "SimulatedDisk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush and close the backing file (removing it if anonymous).

        Safe to call repeatedly and from ``__del__`` even when
        ``__init__`` did not finish (interpreter shutdown, construction
        failure): every attribute access is guarded.
        """
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
        # Last-resort cleanup so anonymous temp files cannot leak when an
        # exception escapes a pipeline before the owning close() runs.
        try:
            self.close()
        except Exception:
            pass

    def size(self) -> int:
        """Current size of the backing file in bytes."""
        self._file.flush()
        return os.fstat(self._file.fileno()).st_size

    def _account(self, offset: int, nbytes: int, is_write: bool) -> None:
        sequential = self._last_end == offset
        self.charge_time(self.model.access_time(nbytes, sequential))
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
        """Read ``nbytes`` starting at ``offset``; short at end of file."""
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        self._file.seek(offset)
        data = self._file.read(nbytes)
        self._account(offset, len(data), is_write=False)
        if nbytes > 0 and not data:
            # The request landed entirely past EOF: nothing was
            # transferred, so the head position is unknown territory —
            # do not let the next access pass as sequential.
            self._last_end = None
        return data

    def write(self, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``; returns the number of bytes written."""
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        self._file.seek(offset)
        written = self._file.write(data)
        self._file.flush()
        self._account(offset, written, is_write=True)
        return written

    def append(self, data: bytes) -> int:
        """Write ``data`` at the current end of file; returns its offset."""
        offset = self.size()
        self.write(offset, data)
        return offset

    def truncate(self, nbytes: int) -> None:
        """Shrink or extend the backing file to exactly ``nbytes``."""
        self._file.truncate(nbytes)
        self._last_end = None

    def reset_position(self) -> None:
        """Forget the arm position; the next access is charged as random.

        Counters and clock are untouched.  Run-scoped accounting
        (:class:`~repro.storage.stats.IOScope`) calls this at scope
        entry so back-to-back pipeline runs reusing one disk classify
        their first access the same way a fresh disk would, instead of
        inheriting wherever the previous run left the arm.
        """
        self._last_end = None

    def reset_accounting(self) -> None:
        """Zero the counters and the simulated clocks (data is untouched)."""
        self.counters.reset()
        self.reset_clock()
        self._last_end = None


class MemoryDisk(SimulatedDisk):
    """A :class:`SimulatedDisk` over an in-memory buffer (a RAM disk).

    Accesses are counted and classified exactly as on the file-backed
    disk, under the :data:`UNTIMED` model.  There is no OS file, so
    ``path`` is ``"<memory>"`` and parallel workers cannot read it.
    """

    def __init__(self) -> None:
        self.model = UNTIMED
        self.counters = IOCounters()
        self.reset_clock()
        self._owns_file = False
        self._path = "<memory>"
        self._file = io.BytesIO()
        self._last_end: Optional[int] = None
        self._closed = False

    def size(self) -> int:
        """Current size of the buffer in bytes."""
        return self._file.seek(0, io.SEEK_END)

    def truncate(self, nbytes: int) -> None:
        """Shrink or zero-extend the buffer to exactly ``nbytes``."""
        size = self.size()
        if nbytes > size:
            self._file.write(b"\x00" * (nbytes - size))
        else:
            self._file.truncate(nbytes)
        self._last_end = None
