"""I/O-efficient approximate ε-join via p-stable LSH bucket files.

The 13th join implementation — and the first *approximate* one.  In the
style of Pagh et al., *I/O-Efficient Similarity Join*, the join
materialises, for each of ``L`` hash tables, a **bucket file**: the
input points rewritten in bucket order through the ordinary
:mod:`repro.storage` page layer, so every byte moved is charged to the
same sequential/random accounting as the EGO pipeline (on a
:class:`~repro.storage.disk.SimulatedDisk`, timed or untimed, or a
:class:`~repro.storage.disk.MemoryDisk`; see :data:`BUCKET_DISKS`).
Each bucket is then scanned
once, sequentially, and its candidate pairs are **exactly re-verified**
through the :mod:`repro.core.kernels` distance engines.

The contract that makes the engine testable:

* **precision is always 1.0** — every reported pair passed an exact
  distance test, so the result is a *subset* of the exact join;
* **only recall is approximate** — a qualifying pair is missed iff no
  table put its two points in one bucket, which the p-stable collision
  model bounds: ``recall ≥ 1 − (1 − p1^k)^L`` at the worst-case
  distance ε (:mod:`repro.index.lsh`);
* **seeded and deterministic** — the result is a pure function of
  ``(points, ε, k, L, w_scale, seed)``; same-seed runs are
  bit-identical, and because table ``t`` depends only on ``(seed, t)``
  the reported pair set is monotone non-decreasing in ``L``.

``tables=None`` auto-sizes ``L`` from the collision-probability model
to meet ``recall_target`` — the recall-vs-cost knob named by the
roadmap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

import numpy as np

from ..core.distance import (natural_ordering, pairs_within_scalar,
                             pairs_within_vector)
from ..core.kernels import ScratchBuffers, pairs_within_matmul
from ..core.result import JoinResult
from ..index.lsh import (DEFAULT_K, DEFAULT_W_SCALE, PStableHashFamily,
                         sort_by_keys)
from ..obs import ensure_metrics, ensure_tracer
from ..storage.disk import UNTIMED, MemoryDisk, SimulatedDisk
from ..storage.pagefile import PointFile, SequentialWriter
from ..storage.stats import CPUCounters, IOCounters
from .base import DiskTracker, JoinReport

#: Records per buffered write/read while streaming bucket files.
BUCKET_CHUNK_RECORDS = 4096

#: Engines the verification pass accepts.  ``matmul`` decides every
#: bucket with the GEMM kernel; ``auto`` picks GEMM or ``vector`` per
#: bucket by :data:`GEMM_BUCKET_VOLUME`.  A bucket is a whole block
#: with no EGO order inside it, so there is no recursion to stop at a
#: tile, as the EGO ``auto`` engine does.
LSH_ENGINES = ("scalar", "vector", "matmul", "auto")

#: ``size·size·d`` volume from which ``auto`` verifies a bucket with
#: GEMM instead of the difference cube.  Calibrated with
#: ``benchmarks/bench_kernels.py``: the crossover sits near 64×64 points
#: at d = 8; below it the einsum/broadcast path wins on call overhead.
GEMM_BUCKET_VOLUME = 32768

#: Bucket-disk constructors by ``backend`` name.  Only ``"simulated"``
#: charges the paper's cost model; the other two count accesses but
#: charge no simulated time.  The choice never changes the result.
BUCKET_DISKS = {
    "simulated": SimulatedDisk,
    "file": lambda: SimulatedDisk(model=UNTIMED),
    "memory": MemoryDisk,
}


@dataclass
class LSHStats:
    """Shape and work accounting of one LSH join run."""

    k: int
    tables: int
    w: float
    seed: int
    backend: str
    engine: str
    recall_target: Optional[float]
    #: Model recall at the worst-case distance ε: 1 − (1 − p1^k)^L.
    model_recall: float = 0.0
    #: Non-singleton buckets scanned, over all tables.
    buckets: int = 0
    #: Largest bucket encountered (records).
    max_bucket_records: int = 0
    #: Candidate pairs generated (bucket-local, before verification).
    candidates: int = 0
    #: Candidates that passed the exact distance test (incl. duplicates
    #: re-found by later tables).
    verified: int = 0
    #: Verified pairs already reported by an earlier table.
    duplicates: int = 0


@dataclass
class LSHJoinReport(JoinReport):
    """A :class:`~repro.joins.base.JoinReport` plus LSH accounting."""

    lsh: LSHStats = field(default=None)  # filled in by the join


def bucket_engine(engine: str, size: int, dimensions: int) -> str:
    """The kernel that verifies one bucket of ``size`` points.

    ``auto`` resolves by volume (:data:`GEMM_BUCKET_VOLUME`); the other
    engine names pass through.
    """
    if engine != "auto":
        return engine
    if size * size * dimensions >= GEMM_BUCKET_VOLUME:
        return "matmul"
    return "vector"


def _verify_bucket(engine: str, pts: np.ndarray, eps_sq: float,
                   order: np.ndarray, cpu: CPUCounters,
                   scratch: ScratchBuffers, metrics=None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact upper-triangle pairs of one bucket block.

    ``metrics`` (a registry, or None) receives the GEMM kernel's
    re-verified count.
    """
    resolved = bucket_engine(engine, len(pts), pts.shape[1])
    if resolved == "scalar":
        return pairs_within_scalar(pts, pts, eps_sq, order, counters=cpu,
                                   upper_triangle=True)
    if resolved == "matmul":
        return pairs_within_matmul(pts, pts, eps_sq, order, counters=cpu,
                                   upper_triangle=True, scratch=scratch,
                                   metrics=metrics)
    return pairs_within_vector(pts, pts, eps_sq, order, counters=cpu,
                               upper_triangle=True)


def write_bucket_file(disk, ids: np.ndarray, points: np.ndarray,
                      order: np.ndarray,
                      chunk_records: int = BUCKET_CHUNK_RECORDS
                      ) -> PointFile:
    """Write points in bucket ``order`` to a fresh point file on ``disk``.

    The write is buffered and sequential — the layout (and therefore the
    bytes on the device) depends only on ``(ids, points, order)``, so a
    bucket file round-trips identically through every kind of
    :data:`BUCKET_DISKS`.
    """
    bucket_file = PointFile.create(disk, points.shape[1])
    with SequentialWriter(bucket_file,
                          buffer_records=chunk_records) as writer:
        for start in range(0, len(order), chunk_records):
            rows = order[start:start + chunk_records]
            writer.write(ids[rows], points[rows])
    return bucket_file


def lsh_self_join_file(point_file: PointFile, epsilon: float, *,
                       k: int = DEFAULT_K,
                       tables: Optional[int] = None,
                       recall_target: float = 0.95,
                       w_scale: float = DEFAULT_W_SCALE,
                       seed: int = 0,
                       engine: str = "auto",
                       backend: str = "simulated",
                       materialize: bool = True,
                       chunk_records: int = BUCKET_CHUNK_RECORDS,
                       trace=None, metrics=None) -> LSHJoinReport:
    """Approximate ε self-join of a point file via LSH bucket files.

    Parameters
    ----------
    point_file:
        The input on its (simulated) disk; it is read once,
        sequentially, in chunks.
    epsilon:
        Join threshold; reported pairs are exactly within ε.
    k, tables, w_scale, seed:
        Hash-family knobs (see :class:`~repro.index.lsh.PStableHashFamily`).
        ``tables=None`` auto-sizes ``L`` for ``recall_target``.
    recall_target:
        Model recall to hit at the worst-case distance ε when ``tables``
        is not given.
    engine:
        Verification kernel, one of :data:`LSH_ENGINES`.
    backend:
        Where the per-table bucket files live: a key of
        :data:`BUCKET_DISKS` (``simulated``/``file``/``memory``).
    """
    if epsilon <= 0 or not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be positive and finite, "
                         f"got {epsilon}")
    if engine not in LSH_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {LSH_ENGINES}")
    if backend not in BUCKET_DISKS:
        raise ValueError(f"unknown storage backend {backend!r}; "
                         f"choose from {sorted(BUCKET_DISKS)}")
    make_disk = BUCKET_DISKS[backend]

    tracer = ensure_tracer(trace)
    registry = ensure_metrics(metrics)
    start_wall = time.perf_counter()
    tracker = DiskTracker(point_file.disk)
    cpu = CPUCounters()
    result = JoinResult(materialize=materialize)

    dimensions = point_file.dimensions
    family = PStableHashFamily(dimensions, epsilon, k=k, w_scale=w_scale,
                               seed=seed)
    if tables is None:
        tables = family.tables_for_recall(recall_target)
    elif tables < 1:
        raise ValueError(f"tables must be at least 1, got {tables}")
    stats = LSHStats(k=family.k, tables=int(tables), w=family.w,
                     seed=family.seed, backend=backend,
                     engine=engine, recall_target=recall_target,
                     model_recall=family.recall_for_tables(tables))

    with tracer.span("lsh_self_join", cat="pipeline"):
        # One sequential pass over the input; the points stay resident
        # for hashing while all data *movement* below goes through the
        # bucket files.
        with tracer.span("lsh_read_input"):
            chunks = list(point_file.iter_chunks(chunk_records))
        if chunks:
            ids = np.concatenate([c[0] for c in chunks])
            pts = np.concatenate([c[1] for c in chunks])
        else:
            ids = np.empty(0, dtype=np.int64)
            pts = np.empty((0, dimensions), dtype=np.float64)

        eps_sq = float(epsilon) * float(epsilon)
        order_dims = natural_ordering(dimensions)
        scratch = ScratchBuffers()
        seen: Set[Tuple[int, int]] = set()
        bucket_io = IOCounters()
        bucket_time = 0.0

        for t in range(stats.tables):
            with tracer.span("lsh_table", args={"table": t}):
                keys = family.keys(pts, t)
                order, starts = sort_by_keys(keys)
                with make_disk() as disk:
                    with tracer.span("lsh_bucket_write"):
                        bucket_file = write_bucket_file(
                            disk, ids, pts, order,
                            chunk_records=chunk_records)
                    with tracer.span("lsh_bucket_join"):
                        _join_buckets(bucket_file, starts, eps_sq,
                                      engine, order_dims, cpu, scratch,
                                      seen, result, stats,
                                      registry if registry.enabled
                                      else None)
                    bucket_io = bucket_io + disk.counters
                    bucket_time += disk.simulated_time_s

    registry.counter("ego_lsh_tables_total",
                     "LSH hash tables probed").inc(stats.tables)
    registry.counter("ego_lsh_buckets_total",
                     "non-singleton LSH buckets scanned").inc(stats.buckets)
    registry.counter("ego_lsh_candidates_total",
                     "LSH candidate pairs generated").inc(stats.candidates)
    registry.counter("ego_lsh_reverified_total",
                     "LSH candidates exactly re-verified"
                     ).inc(stats.verified)
    registry.counter("ego_lsh_duplicate_pairs_total",
                     "verified pairs re-found by a later table"
                     ).inc(stats.duplicates)
    registry.gauge("ego_lsh_recall_estimate",
                   "model recall at the worst-case distance ε"
                   ).set(round(stats.model_recall, 6))

    return LSHJoinReport(
        algorithm="lsh", result=result,
        io=tracker.io_delta() + bucket_io, cpu=cpu,
        simulated_io_time_s=tracker.time_delta() + bucket_time,
        wall_time_s=time.perf_counter() - start_wall, lsh=stats)


def _join_buckets(bucket_file: PointFile, starts: np.ndarray,
                  eps_sq: float, engine: str, order_dims: np.ndarray,
                  cpu: CPUCounters, scratch: ScratchBuffers,
                  seen: Set[Tuple[int, int]], result: JoinResult,
                  stats: LSHStats, metrics=None) -> None:
    """Scan one table's bucket file and verify its candidates exactly.

    Buckets are consecutive record runs of the file, so the scan is one
    sequential sweep; singleton buckets contribute no candidates and are
    skipped without a read.
    """
    for i in range(len(starts) - 1):
        lo, hi = int(starts[i]), int(starts[i + 1])
        size = hi - lo
        if size < 2:
            continue
        stats.buckets += 1
        stats.max_bucket_records = max(stats.max_bucket_records, size)
        stats.candidates += size * (size - 1) // 2
        bucket_ids, bucket_pts = bucket_file.read_range(lo, size)
        ia, ib = _verify_bucket(engine, bucket_pts, eps_sq, order_dims,
                                cpu, scratch, metrics)
        if not len(ia):
            continue
        stats.verified += len(ia)
        out_a, out_b = [], []
        for a, b in zip(bucket_ids[ia], bucket_ids[ib]):
            key = (int(a), int(b)) if a <= b else (int(b), int(a))
            if key in seen:
                stats.duplicates += 1
                continue
            seen.add(key)
            out_a.append(key[0])
            out_b.append(key[1])
        if out_a:
            result.add_batch(np.asarray(out_a, dtype=np.int64),
                             np.asarray(out_b, dtype=np.int64))


def lsh_self_join(points: np.ndarray, epsilon: float,
                  ids: Optional[np.ndarray] = None,
                  **options) -> LSHJoinReport:
    """Array-input convenience wrapper around :func:`lsh_self_join_file`.

    The points are first written to a point file on a fresh simulated
    disk, so the input scan is charged exactly like the external EGO
    pipeline's and the reports stay comparable.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-d, got shape {pts.shape}")
    if ids is None:
        ids = np.arange(len(pts), dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
    with SimulatedDisk() as disk:
        pf = PointFile.create(disk, pts.shape[1])
        pf.append(ids, pts)
        pf.close()
        disk.reset_accounting()
        return lsh_self_join_file(pf, epsilon, **options)
