"""External merge sort of point files (Section 5: "the sorting phase …
implemented as a mergesort algorithm on secondary storage").

The sort is parameterised by a vectorised key function mapping a batch of
points to integer key columns, so the same machinery sorts by the epsilon
grid order (EGO join), by Z-order (bulk-loading the R-tree competitors)
or by Hilbert value.

Phases:

1. **Run generation** — read the input in memory-sized chunks, sort each
   chunk with ``np.lexsort`` on its key columns (ties broken by point id)
   and write it as a sorted run to the scratch disk.
2. **Merging** — k-way merge with a heap, repeated in passes while more
   runs remain than the merge fan-in allows.

All reads and writes go through the simulated disks, so the sort's I/O
cost appears in the experiment accounting exactly like the paper's.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..obs.metrics import ensure_metrics
from ..obs.trace import ensure_tracer
from ..storage.disk import SimulatedDisk
from ..storage.journal import Journal
from ..storage.pagefile import (PointFile, SequentialReader, SequentialWriter)
from ..storage.records import RecordCodec

#: Maps a ``(n, d)`` point batch to ``(n, k)`` integer key columns whose
#: lexicographic row order defines the sort order.
KeyFunction = Callable[[np.ndarray], np.ndarray]


@dataclass
class SortStats:
    """Accounting of one external sort."""

    runs_generated: int = 0
    merge_passes: int = 0
    records_sorted: int = 0


class _Run:
    """One sorted run stored headerless inside the scratch disk."""

    def __init__(self, disk: SimulatedDisk, codec: RecordCodec,
                 start_byte: int) -> None:
        self.file = PointFile(disk, codec, count=0, data_start=start_byte)

    @property
    def count(self) -> int:
        """Records currently in the run."""
        return self.file.count

    @property
    def end_byte(self) -> int:
        """First byte after the run's data."""
        return self.file.data_start + self.file.data_bytes


def _sort_batch(ids: np.ndarray, points: np.ndarray,
                key_of_batch: KeyFunction
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Sort one in-memory batch by its keys (id as final tie-break)."""
    keys = key_of_batch(points)
    if keys.ndim == 1:
        keys = keys[:, None]
    columns = [keys[:, j] for j in range(keys.shape[1] - 1, -1, -1)]
    columns.insert(0, ids)
    order = np.lexsort(columns)
    return ids[order], points[order]


def _generate_runs(input_file: PointFile, scratch: SimulatedDisk,
                   key_of_batch: KeyFunction, memory_records: int,
                   stats: SortStats,
                   journal: Optional[Journal] = None) -> List[_Run]:
    """Sort one memory-load per run; with a journal, each completed run is
    recorded and a resumed sort reuses it from the scratch disk instead of
    re-reading and re-sorting its input chunk."""
    codec = input_file.codec
    runs: List[_Run] = []
    next_byte = 0
    total = input_file.count
    chunks = -(-total // memory_records) if total else 0
    for index in range(chunks):
        first = index * memory_records
        n = min(memory_records, total - first)
        recorded = journal.sort_run(index) if journal is not None else None
        if recorded is not None:
            start_byte, count = recorded
            run = _Run(scratch, codec, start_byte)
            run.file.count = count
        else:
            ids, points = input_file.read_range(first, n)
            ids, points = _sort_batch(ids, points, key_of_batch)
            run = _Run(scratch, codec, next_byte)
            writer = SequentialWriter(run.file, buffer_records=memory_records)
            writer.write(ids, points)
            writer.flush()
            if journal is not None:
                journal.record_sort_run(index, run.file.data_start,
                                        run.count)
        next_byte = run.end_byte
        runs.append(run)
        stats.runs_generated += 1
        stats.records_sorted += n
    return runs


class _MergeSource:
    """Buffered reader over one run with vectorised key computation."""

    def __init__(self, run_file: PointFile, key_of_batch: KeyFunction,
                 buffer_records: int) -> None:
        self.reader = SequentialReader(run_file,
                                       buffer_records=buffer_records)
        self.key_of_batch = key_of_batch
        self._ids = np.empty(0, dtype=np.int64)
        self._points = np.empty((0, run_file.dimensions))
        self._keys: List[Tuple[int, ...]] = []
        self._cursor = 0

    def _refill(self) -> bool:
        ids, points = self.reader.next_batch()
        if len(ids) == 0:
            return False
        self._ids, self._points = ids, points
        keys = self.key_of_batch(points)
        if keys.ndim == 1:
            keys = keys[:, None]
        self._keys = [tuple(row) for row in keys.tolist()]
        self._cursor = 0
        return True

    def pop(self):
        """Return ``(key, id, point)`` for the next record, or ``None``."""
        if self._cursor >= len(self._ids):
            if not self._refill():
                return None
        c = self._cursor
        self._cursor += 1
        return self._keys[c], int(self._ids[c]), self._points[c]


def _merge_runs(sources: List[_MergeSource], out: SequentialWriter,
                dimensions: int, batch_records: int) -> None:
    heap = []
    for idx, src in enumerate(sources):
        item = src.pop()
        if item is not None:
            key, rec_id, point = item
            heapq.heappush(heap, (key, rec_id, idx, point))
    ids_buf: List[int] = []
    pts_buf: List[np.ndarray] = []

    def flush() -> None:
        if ids_buf:
            out.write(np.array(ids_buf, dtype=np.int64), np.array(pts_buf))
            ids_buf.clear()
            pts_buf.clear()

    while heap:
        _key, rec_id, idx, point = heapq.heappop(heap)
        ids_buf.append(rec_id)
        pts_buf.append(point)
        if len(ids_buf) >= batch_records:
            flush()
        item = sources[idx].pop()
        if item is not None:
            nkey, nid, npoint = item
            heapq.heappush(heap, (nkey, nid, idx, npoint))
    flush()


class _ArraySource:
    """In-memory run speaking the :class:`_MergeSource` ``pop`` protocol."""

    def __init__(self, ids: np.ndarray, points: np.ndarray,
                 key_of_batch: KeyFunction) -> None:
        self._ids = np.asarray(ids, dtype=np.int64)
        self._points = np.asarray(points, dtype=np.float64)
        keys = key_of_batch(self._points)
        if keys.ndim == 1:
            keys = keys[:, None]
        self._keys = [tuple(row) for row in keys.tolist()]
        self._cursor = 0

    def pop(self):
        """Return ``(key, id, point)`` for the next record, or ``None``."""
        if self._cursor >= len(self._ids):
            return None
        c = self._cursor
        self._cursor += 1
        return self._keys[c], int(self._ids[c]), self._points[c]


class _ArraySink:
    """Writer-shaped collector for :func:`_merge_runs` output batches."""

    def __init__(self) -> None:
        self.id_chunks: List[np.ndarray] = []
        self.point_chunks: List[np.ndarray] = []

    def write(self, ids: np.ndarray, points: np.ndarray) -> None:
        self.id_chunks.append(ids)
        self.point_chunks.append(points)


def merge_sorted_arrays(runs: List[Tuple[np.ndarray, np.ndarray]],
                        key_of_batch: KeyFunction,
                        batch_records: int = 1024,
                        via_heap: bool = False
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """K-way merge of in-memory sorted ``(ids, points)`` runs.

    Each run must already be sorted by ``(key_of_batch(points), id)`` —
    the same invariant the disk-based merge relies on — and the output
    is one ``(ids, points)`` pair in that global order, identical to the
    external sort's heap merge (:func:`_merge_runs`) applied to the same
    runs.  :class:`repro.service.store.EGOStore` uses it to fold its
    delta buffer back into the resident EGO order during compaction
    without re-sorting the main run file.

    Records here are already resident arrays, so the merge permutation
    is computed with one vectorized lexsort over the concatenated runs
    instead of the per-record Python heap — on a 5 000-row main run that
    is ~20× cheaper per compaction, which dominates the store's
    amortized update cost.  ``via_heap=True`` forces the record-at-a-
    time path; the equivalence of the two is under test.
    """
    runs = [(ids, pts) for ids, pts in runs if len(ids)]
    if not runs:
        return (np.empty(0, dtype=np.int64), np.empty((0, 0)))
    if via_heap:
        dimensions = runs[0][1].shape[1]
        sources = [_ArraySource(ids, pts, key_of_batch)
                   for ids, pts in runs]
        sink = _ArraySink()
        _merge_runs(sources, sink, dimensions, batch_records)
        ids = np.concatenate(sink.id_chunks).astype(np.int64)
        points = np.ascontiguousarray(np.concatenate(sink.point_chunks))
        return ids, points
    ids = np.concatenate([r[0] for r in runs]).astype(np.int64)
    points = np.ascontiguousarray(
        np.concatenate([np.asarray(r[1], dtype=np.float64)
                        for r in runs]))
    keys = key_of_batch(points)
    if keys.ndim == 1:
        keys = keys[:, None]
    # np.lexsort sorts by the LAST key first; ids break key ties just
    # like the (key, rec_id, ...) heap entries do.
    columns = (ids,) + tuple(keys[:, c]
                             for c in range(keys.shape[1] - 1, -1, -1))
    order = np.lexsort(columns)
    return ids[order], np.ascontiguousarray(points[order])


def external_sort(input_file: PointFile, output_disk: SimulatedDisk,
                  scratch_disk: SimulatedDisk, key_of_batch: KeyFunction,
                  memory_records: int,
                  fanin: int = 16,
                  journal: Optional[Journal] = None,
                  trace=None, metrics=None
                  ) -> Tuple[PointFile, SortStats]:
    """Sort ``input_file`` into a new point file on ``output_disk``.

    Parameters
    ----------
    memory_records:
        In-memory working-set size in records; bounds both the run length
        and the total merge buffering.
    fanin:
        Maximum runs merged per pass.
    journal:
        Optional :class:`~repro.storage.journal.Journal` for crash-safe
        checkpointing: completed runs, merge passes and the finished
        output are recorded, and a sort re-invoked with the same journal
        (and the same file-backed disks) resumes after the last completed
        step instead of starting over.
    trace, metrics:
        Optional :class:`~repro.obs.trace.Tracer` /
        :class:`~repro.obs.metrics.MetricsRegistry`.  The sort emits
        ``run_generation`` and per-pass ``merge_pass`` spans and the
        ``ego_sort_*`` counters; ``None`` costs nothing.

    Returns the sorted :class:`PointFile` and the sort accounting.
    """
    if memory_records < 2:
        raise ValueError("memory_records must be at least 2")
    if fanin < 2:
        raise ValueError("fanin must be at least 2")
    codec = input_file.codec
    tracer = ensure_tracer(trace)
    registry = ensure_metrics(metrics)

    if journal is not None and journal.sort_complete is not None:
        done = journal.sort_complete
        output = PointFile.open(output_disk)
        if output.count == done["count"]:
            return output, SortStats(
                runs_generated=done["runs_generated"],
                merge_passes=done["merge_passes"],
                records_sorted=done["count"])
        # Inconsistent artifact (crash while finishing): fall through and
        # redo the final pass from the journaled runs.

    stats = SortStats()
    resuming = journal is not None and (
        journal.state.get("sort_runs") or journal.state.get("merge_passes"))
    if not resuming:
        scratch_disk.truncate(0)
    with tracer.span("run_generation", cat="sort"):
        runs = _generate_runs(input_file, scratch_disk, key_of_batch,
                              memory_records, stats, journal=journal)

    # Intermediate merge passes keep results on the scratch disk, the
    # final pass writes the output file.  With a journal, each completed
    # pass records the resulting run layout; a resumed sort reconstructs
    # the runs of the latest completed pass and continues from there.
    pass_no = 0
    if journal is not None:
        latest = journal.latest_merge_pass()
        if latest is not None:
            pass_no, layout = latest
            runs = []
            for start_byte, count in layout:
                run = _Run(scratch_disk, codec, start_byte)
                run.file.count = count
                runs.append(run)
            stats.merge_passes = pass_no
    while len(runs) > fanin:
        pass_no += 1
        stats.merge_passes += 1
        span_args = ({"pass": pass_no, "runs": len(runs)}
                     if tracer.enabled else None)
        with tracer.span("merge_pass", cat="sort", args=span_args):
            # New runs are appended after everything already on the
            # scratch disk; singleton groups may keep runs positioned
            # earlier, so the high-water mark is the max over all runs,
            # not the last one.
            next_byte = max(r.end_byte for r in runs)
            merged: List[_Run] = []
            for group_start in range(0, len(runs), fanin):
                group = runs[group_start:group_start + fanin]
                if len(group) == 1:
                    merged.append(group[0])
                    continue
                target = _Run(scratch_disk, codec, next_byte)
                writer = SequentialWriter(target.file,
                                          buffer_records=memory_records)
                buf = max(2, memory_records // (len(group) + 1))
                sources = [_MergeSource(r.file, key_of_batch, buf)
                           for r in group]
                _merge_runs(sources, writer, codec.dimensions, buf)
                writer.flush()
                next_byte = target.end_byte
                merged.append(target)
            runs = merged
        if journal is not None:
            journal.record_merge_pass(
                pass_no, [(r.file.data_start, r.count) for r in runs])

    output = PointFile.create(output_disk, codec.dimensions)
    writer = SequentialWriter(output, buffer_records=memory_records)
    if runs:
        stats.merge_passes += 1
        span_args = ({"pass": stats.merge_passes, "runs": len(runs),
                      "final": True} if tracer.enabled else None)
        with tracer.span("merge_pass", cat="sort", args=span_args):
            buf = max(2, memory_records // (len(runs) + 1))
            sources = [_MergeSource(r.file, key_of_batch, buf) for r in runs]
            _merge_runs(sources, writer, codec.dimensions, buf)
    writer.flush()
    output.close()
    if journal is not None:
        journal.mark_sort_complete(output.count, stats.runs_generated,
                                   stats.merge_passes)
    registry.counter(
        "ego_sort_runs_total", "Sorted runs generated by the external sort",
    ).inc(stats.runs_generated)
    registry.counter(
        "ego_sort_merge_passes_total", "Merge passes of the external sort",
    ).inc(stats.merge_passes)
    registry.counter(
        "ego_sort_records_total", "Records sorted by the external sort",
    ).inc(stats.records_sorted)
    return output, stats
