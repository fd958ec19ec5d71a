"""Detection and recovery at the storage boundary: checksums and retries.

The fault layer (:mod:`repro.storage.faults`) makes reads lie and writes
tear; this module is the defence.  Two wrappers compose above any
disk-like object:

* :class:`ChecksummedDisk` maintains a CRC32 per fixed-size page,
  computed from the data the writer *intended* at write time and verified
  on every read, so silent corruption (a bit flip on the wire, a torn
  write discovered later) surfaces as a typed :class:`CorruptPageError`
  instead of wrong join results.  Reads are page-aligned — the wrapper
  widens each read to page boundaries, which is both what verification
  needs and how unbuffered raw-device I/O behaves anyway.
* :class:`RetryingDisk` applies a :class:`RetryPolicy` to reads: bounded
  attempts with exponential backoff, the backoff charged to the simulated
  clock, and fault/retry counters recorded in the shared
  :class:`~repro.storage.stats.IOCounters`.  Crashes
  (:class:`~repro.storage.faults.SimulatedCrash`) are deliberately never
  retried — they must escape like a real process death.

Page CRCs persist across simulated crashes in a sidecar file
(``<path>.crc32``, written atomically), standing in for the inline
per-page checksum words a production format would carry; either way the
checksum describes the *intended* page content, so a torn write fails
verification on the next read.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .faults import FaultPlan, FaultyDisk, TransientReadError

#: Default checksum-page size in bytes.
DEFAULT_PAGE_BYTES = 4096


class CorruptPageError(IOError):
    """A page's content does not match its recorded checksum."""

    def __init__(self, page: int, offset: int, detail: str = "") -> None:
        message = f"checksum mismatch on page {page} (byte offset {offset})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.page = page
        self.offset = offset
        self.detail = detail

    def __reduce__(self):
        # Picklable with its real constructor arguments, so a worker
        # process can hand the error back to the parent unchanged.
        return type(self), (self.page, self.offset, self.detail)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy with exponential backoff.

    ``max_attempts`` counts the initial try, so ``max_attempts=1`` means
    no retry at all.  The ``attempt``-th re-issue (0-based) waits
    ``initial_backoff_s * multiplier**attempt`` simulated seconds.
    """

    max_attempts: int = 4
    initial_backoff_s: float = 0.005
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.initial_backoff_s < 0:
            raise ValueError("initial_backoff_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")

    def backoff_s(self, attempt: int) -> float:
        """Simulated seconds to wait before re-issue number ``attempt``."""
        return self.initial_backoff_s * self.multiplier ** attempt


class ChecksummedDisk:
    """Verify-on-read CRC32 page layer over a disk-like object.

    Per page the layer keeps ``(covered_bytes, crc)``: a streaming CRC32
    of the page's written prefix.  Sequential writes (the dominant
    pattern of the external pipeline) extend the stream; a full rewrite
    of a page's prefix restarts it; any other overwrite or gap marks the
    page *uncheckable* (``crc = None``) — it is still readable, just no
    longer verified.  The header page of a point file, rewritten on every
    ``flush_header``, is the typical uncheckable page.
    """

    def __init__(self, inner, page_bytes: int = DEFAULT_PAGE_BYTES,
                 sidecar: bool = True,
                 pages: Optional[Dict[int, Tuple[int, Optional[int]]]]
                 = None) -> None:
        if page_bytes <= 0:
            raise ValueError(f"page_bytes must be positive, got {page_bytes}")
        self.inner = inner
        self.page_bytes = page_bytes
        self.sidecar = sidecar
        # page index -> (covered_bytes, crc32 | None); ``pages`` seeds
        # the table of a read-only view of another writer's file.
        self._pages: Dict[int, Tuple[int, Optional[int]]] = dict(pages or {})
        if sidecar:
            self._load_sidecar()

    def __getattr__(self, name):
        return getattr(self.__dict__["inner"], name)

    @property
    def simulated_time_s(self) -> float:
        return self.inner.simulated_time_s

    def __enter__(self) -> "ChecksummedDisk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sidecar persistence ------------------------------------------------

    @property
    def sidecar_path(self) -> str:
        """Path of the persisted checksum table."""
        return self.inner.path + ".crc32"

    def _load_sidecar(self) -> None:
        try:
            with open(self.sidecar_path, "r") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return
        if doc.get("page_bytes") != self.page_bytes:
            return
        self._pages = {int(p): (int(cov), None if crc is None else int(crc))
                       for p, (cov, crc) in doc.get("pages", {}).items()}

    def save_sidecar(self) -> None:
        """Atomically persist the checksum table next to the backing file."""
        doc = {"page_bytes": self.page_bytes,
               "pages": {str(p): list(state)
                         for p, state in self._pages.items()}}
        tmp = self.sidecar_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.sidecar_path)

    def close(self) -> None:
        if self.sidecar:
            try:
                self.save_sidecar()
            except OSError:
                pass
        self.inner.close()

    # -- checksum bookkeeping -----------------------------------------------

    def _record_write(self, offset: int, data: bytes) -> None:
        P = self.page_bytes
        end = offset + len(data)
        for page in range(offset // P, (end + P - 1) // P):
            page_start = page * P
            s = max(offset, page_start) - page_start
            e = min(end, page_start + P) - page_start
            chunk = data[page_start + s - offset:page_start + e - offset]
            cov, crc = self._pages.get(page, (0, 0))
            if s == 0 and e >= cov:
                # Full rewrite of the covered prefix: restart the stream.
                self._pages[page] = (e, zlib.crc32(chunk))
            elif s == cov and crc is not None:
                # Exact sequential extension: stream the CRC forward.
                self._pages[page] = (e, zlib.crc32(chunk, crc))
            else:
                # Gap or partial overwrite: readable but unverifiable.
                self._pages[page] = (max(cov, e), None)

    def _verify(self, lo: int, data: bytes) -> None:
        P = self.page_bytes
        for page in range(lo // P, (lo + len(data) + P - 1) // P):
            state = self._pages.get(page)
            if state is None:
                continue
            cov, crc = state
            if crc is None or cov == 0:
                continue
            start = page * P - lo
            if start < 0:
                continue  # partially before the read window; not verifiable
            page_data = data[start:start + cov]
            if len(page_data) < cov:
                self.counters.corrupt_pages += 1
                raise CorruptPageError(
                    page, page * P,
                    f"page covers {cov} bytes but only "
                    f"{len(page_data)} are readable (torn write?)")
            if zlib.crc32(page_data) != crc:
                self.counters.corrupt_pages += 1
                raise CorruptPageError(page, page * P)

    # -- data path ----------------------------------------------------------

    def read(self, offset: int, nbytes: int) -> bytes:
        """Page-aligned verified read of ``nbytes`` at ``offset``."""
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        P = self.page_bytes
        lo = (offset // P) * P
        hi = -(-(offset + nbytes) // P) * P
        data = self.inner.read(lo, hi - lo)
        self._verify(lo, data)
        return data[offset - lo:offset - lo + nbytes]

    def write(self, offset: int, data: bytes) -> int:
        self._record_write(offset, data)
        return self.inner.write(offset, data)

    def append(self, data: bytes) -> int:
        offset = self.size()
        self.write(offset, data)
        return offset

    def truncate(self, nbytes: int) -> None:
        P = self.page_bytes
        boundary = nbytes // P
        for page in list(self._pages):
            if page > boundary or (page == boundary and nbytes % P == 0):
                del self._pages[page]
        if nbytes % P and boundary in self._pages:
            cov, crc = self._pages[boundary]
            cut = nbytes - boundary * P
            if cov > cut:
                # The stream cannot be rewound; keep the page readable
                # but drop verification for it.
                self._pages[boundary] = (cut, None)
        self.inner.truncate(nbytes)

    def verify_file(self, chunk_pages: int = 256) -> int:
        """Re-read and verify every checkable page; returns pages checked.

        Used when resuming from a checkpoint to prove that artifacts that
        survived a crash are intact before trusting them.
        """
        P = self.page_bytes
        checked = 0
        pages = sorted(p for p, (cov, crc) in self._pages.items()
                       if crc is not None and cov > 0)
        i = 0
        while i < len(pages):
            first = pages[i]
            j = i
            while (j + 1 < len(pages) and pages[j + 1] == pages[j] + 1
                   and j + 1 - i < chunk_pages):
                j += 1
            span = (pages[j] - first + 1) * P
            self.read(first * P, span)  # raises CorruptPageError on mismatch
            checked += j - i + 1
            i = j + 1
        return checked


class RetryingDisk:
    """Read-retry layer applying a :class:`RetryPolicy`.

    Catches :class:`~repro.storage.faults.TransientReadError` and
    :class:`CorruptPageError`, charges the policy's backoff to the
    simulated clock, and re-issues the read.  Counters
    (``read_faults``, ``read_retries``, ``retry_backoff_s``) accumulate
    in the shared :class:`~repro.storage.stats.IOCounters` of the base
    disk.  Exhausting the policy re-raises the last error.
    """

    def __init__(self, inner, policy: Optional[RetryPolicy] = None) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()

    def __getattr__(self, name):
        return getattr(self.__dict__["inner"], name)

    @property
    def simulated_time_s(self) -> float:
        return self.inner.simulated_time_s

    def __enter__(self) -> "RetryingDisk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, offset: int, nbytes: int) -> bytes:
        attempt = 0
        while True:
            try:
                return self.inner.read(offset, nbytes)
            except (TransientReadError, CorruptPageError):
                c = self.counters
                c.read_faults += 1
                attempt += 1
                if attempt >= self.policy.max_attempts:
                    raise
                c.read_retries += 1
                backoff = self.policy.backoff_s(attempt - 1)
                c.retry_backoff_s += backoff
                self.charge_time(backoff)

    def write(self, offset: int, data: bytes) -> int:
        return self.inner.write(offset, data)

    def append(self, data: bytes) -> int:
        offset = self.size()
        self.write(offset, data)
        return offset


def page_checksums(disk) -> Optional[
        Tuple[int, Dict[int, Tuple[int, Optional[int]]]]]:
    """``(page_bytes, table)`` of the checksum layer under ``disk``, or None.

    Walks the wrapper stack (``inner`` links) down to the
    :class:`ChecksummedDisk`, so a reader that bypasses the stack — a
    worker process reading the backing file directly — can still verify
    every page against the CRCs the writer recorded.
    """
    while disk is not None:
        if isinstance(disk, ChecksummedDisk):
            return disk.page_bytes, dict(disk._pages)
        disk = vars(disk).get("inner")
    return None


def make_robust_disk(disk, plan: Optional[FaultPlan] = None,
                     checksums: bool = False,
                     page_bytes: int = DEFAULT_PAGE_BYTES,
                     retry: Optional[RetryPolicy] = None,
                     sidecar: bool = True):
    """Compose the standard robustness stack over ``disk``.

    Order (bottom-up): fault injection, then checksums, then retries —
    so injected corruption is caught by the checksum layer and surfaced
    to the retry layer, which re-reads through the (possibly again
    faulty) path below.  Every layer is optional; with all arguments at
    their defaults the disk is returned unchanged.
    """
    wrapped = disk
    if plan is not None:
        wrapped = FaultyDisk(wrapped, plan)
    if checksums:
        wrapped = ChecksummedDisk(wrapped, page_bytes=page_bytes,
                                  sidecar=sidecar)
    if retry is not None:
        wrapped = RetryingDisk(wrapped, retry)
    return wrapped
