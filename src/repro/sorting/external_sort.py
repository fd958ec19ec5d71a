"""External merge sort of point files (Section 5: "the sorting phase …
implemented as a mergesort algorithm on secondary storage").

The sort is parameterised by a vectorised key function mapping a batch of
points to integer key columns, so the same machinery sorts by the epsilon
grid order (EGO join), by Z-order (bulk-loading the R-tree competitors)
or by Hilbert value.

Phases:

1. **Run generation** — read the input in memory-sized chunks, sort each
   chunk by its ``(key columns, id)`` order and write it as a sorted run
   to the scratch disk.
2. **Merging** — a block merge, repeated in passes while more runs
   remain than the merge fan-in allows.  Each round emits, with one
   sort, every buffered record that no unread record can precede, then
   refills the one run whose buffer ran dry.

One helper, :func:`_order_keys`, defines the ``(key columns, id)`` order
for run generation, the merge rounds and :func:`merge_sorted_arrays`,
the same merge over in-memory runs that the store's compaction uses.

All reads and writes go through the simulated disks, so the sort's I/O
cost appears in the experiment accounting exactly like the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..obs.metrics import ensure_metrics
from ..obs.trace import ensure_tracer
from ..storage.disk import SimulatedDisk
from ..storage.journal import Journal
from ..storage.pagefile import (PointFile, SequentialReader, SequentialWriter)
from ..storage.records import RecordCodec

#: Maps a ``(n, d)`` point batch to ``(n, k)`` integer key columns whose
#: lexicographic row order defines the sort order.  Columns must be of an
#: integer dtype with values in the int64 range; others raise
#: :class:`TypeError`.
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


def _order_keys(keys: np.ndarray, ids: np.ndarray,
                run: Optional[int] = None) -> np.ndarray:
    """The sort order of records as one array of comparable byte strings.

    Row ``i`` encodes ``(keys[i]…, ids[i])``, and ``run`` after them when
    given, as big-endian int64 values with the sign bit flipped.  Byte
    order then equals the lexicographic order of those integers, which
    is what ``np.lexsort`` over the same columns gives, and
    ``np.argsort(kind="stable")`` and ``np.searchsorted`` apply it
    directly.  Run generation, every merge round and the in-memory merge
    take the sort order from here.

    ``keys`` is the key function's output.  A column that is not integer
    would be silently truncated, so it raises :class:`TypeError`.
    """
    keys = np.asarray(keys)
    if keys.ndim == 1:
        keys = keys[:, None]
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError(f"key function returned {keys.dtype} columns; "
                        "sort keys must be integers")
    k = keys.shape[1]
    rows = np.empty((len(ids), k + 1 + (run is not None)), dtype=np.int64)
    rows[:, :k] = keys
    rows[:, k] = ids
    if run is not None:
        rows[:, -1] = run
    rows ^= np.iinfo(np.int64).min
    return rows.astype(">i8").view(f"S{8 * rows.shape[1]}").ravel()


def _sort_batch(ids: np.ndarray, points: np.ndarray,
                key_of_batch: KeyFunction
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Sort one in-memory batch by its keys (id as final tie-break)."""
    order = np.argsort(_order_keys(key_of_batch(points), ids), kind="stable")
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


def _merge(sources: List[Tuple[np.ndarray, np.ndarray,
                             Optional[SequentialReader]]],
           key_of_batch: KeyFunction
           ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield the records of sorted runs in order, one block per round.

    ``sources`` holds one ``(ids, points, reader)`` per run: its first
    buffer and the reader of its unread records, or ``None`` for a run
    held whole in memory.  The merge keeps every buffered record in one
    sorted pool.  No unread record sorts before the smallest last
    buffered order key among the runs with unread data, so each round
    yields the pool up to that key and then refills the run it came
    from.  The pool never holds more than one buffer per run.  Once no
    run has unread data the pool is the last block: in-memory runs
    merge in one round.

    The run index is the order keys' last column, so equal ``(key, id)``
    rows leave in run order and the rounds read and yield exactly what a
    record-at-a-time merge of the same buffers would.
    """
    readers = [reader for _, _, reader in sources]
    live = [run for run, reader in enumerate(readers)
            if reader is not None and not reader.exhausted()]
    tails: List[bytes] = []
    parts = []
    for run, (ids, points, _) in enumerate(sources):
        keys = _order_keys(key_of_batch(points), ids, run)
        tails.append(keys[-1] if run in live else b"")
        parts.append((keys, ids, points))
    keys, ids, points = _sorted_pool(parts)
    while live:
        dry = min(live, key=tails.__getitem__)
        n = int(np.searchsorted(keys, tails[dry], side="right"))
        yield ids[:n], points[:n]
        new_ids, new_points = readers[dry].next_batch()
        if readers[dry].exhausted():
            live.remove(dry)
        new_keys = _order_keys(key_of_batch(new_points), new_ids, dry)
        tails[dry] = new_keys[-1]
        keys, ids, points = _sorted_pool([(keys[n:], ids[n:], points[n:]),
                                          (new_keys, new_ids, new_points)])
    yield ids, points


def _sorted_pool(parts):
    """Concatenate ``(keys, ids, points)`` parts and sort them by key."""
    keys, ids, points = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(keys, kind="stable")
    return keys[order], ids[order], points[order]


def _merge_runs(runs: List[_Run], writer: SequentialWriter,
                key_of_batch: KeyFunction, memory_records: int) -> None:
    """Merge sorted on-disk runs into ``writer``.

    Memory is split into one read buffer per run plus one output chunk,
    and the writer gets the merged records in chunk-sized slices.
    """
    chunk = max(2, memory_records // (len(runs) + 1))
    readers = [SequentialReader(r.file, buffer_records=chunk) for r in runs]
    held_ids = np.empty(0, dtype=np.int64)
    held_points = np.empty((0, writer.point_file.dimensions))
    for ids, points in _merge([(*reader.next_batch(), reader)
                               for reader in readers], key_of_batch):
        ids = np.concatenate((held_ids, ids))
        points = np.concatenate((held_points, points))
        full = len(ids) - len(ids) % chunk
        for lo in range(0, full, chunk):
            writer.write(ids[lo:lo + chunk], points[lo:lo + chunk])
        held_ids, held_points = ids[full:], points[full:]
    writer.write(held_ids, held_points)


def merge_sorted_arrays(runs: List[Tuple[np.ndarray, np.ndarray]],
                        key_of_batch: KeyFunction
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Merge in-memory sorted ``(ids, points)`` runs.

    Each run must already be sorted by ``(key_of_batch(points), id)``,
    the invariant the external sort's runs keep, and the output is one
    ``(ids, points)`` pair in that global order.  It is the external
    sort's merge (:func:`_merge`) over runs with no unread data, so it
    finishes in one round: one sort of the concatenated runs.
    :class:`repro.service.store.EGOStore` uses it to fold its delta
    buffer into the resident EGO order during compaction without
    re-sorting the main run file.
    """
    sources = [(np.asarray(ids, dtype=np.int64),
                np.asarray(points, dtype=np.float64), None)
               for ids, points in runs if len(ids)]
    if not sources:
        return (np.empty(0, dtype=np.int64), np.empty((0, 0)))
    (ids, points), = _merge(sources, key_of_batch)
    return ids, points


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
                _merge_runs(group, writer, key_of_batch, memory_records)
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
            _merge_runs(runs, writer, key_of_batch, memory_records)
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
