"""Oracle registry: every join implementation behind one interface.

The repository has many ways to compute the same ε self-join — the EGO
recursion with three leaf engines, the external pipeline with serial or
parallel unit joins and three storage wrappers, and the competitor
algorithms (brute force, grid hash, spatial hash, RSJ, MSJ, ε-kdB, MuX,
Z-order-RSJ).  The registry wraps each behind one signature::

    fn(points, epsilon, ids=None, **options) -> canonical (n, 2) array

so any two can be differentially compared on any workload, and the fuzz
driver can sweep configuration axes (``engine``, ``workers``,
``storage``) without knowing anything implementation-specific.

``differential_check`` runs a set of implementations against a
reference (brute force by default) and reports, per implementation, the
canonical-pair-set difference — empty everywhere iff all configurations
produced the identical pair set.

Implementations registered with ``approximate=True`` (the LSH join) are
held to a different contract: their pair set must be a **subset** of the
reference's (precision exactly 1.0 — every reported pair is exactly
re-verified) and its **recall** — the fraction of reference pairs found
— must meet a configurable floor (``recall_floor``, default 0.9, per
entry or per config).  Digest equality would reject every run of a
Monte-Carlo algorithm; the recall floor is the strongest check an
approximate join can honestly pass, and the precision half stays exact.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.ego_join import ego_join_files, ego_self_join, ego_self_join_file
from ..joins.brute import brute_force_self_join
from ..joins.epskdb_join import epskdb_self_join
from ..joins.grid_hash import grid_hash_self_join
from ..joins.msj_join import msj_self_join
from ..joins.mux_join import mux_self_join
from ..joins.rsj import rsj_self_join
from ..joins.spatial_hash import spatial_hash_self_join
from ..joins.zorder_rsj import zorder_rsj_self_join
from ..storage.disk import SimulatedDisk
from ..storage.faults import FaultPlan, SimulatedCrash
from ..storage.integrity import RetryPolicy
from ..storage.pagefile import PointFile
from ..storage.pairfile import PairFile
from ..storage.records import record_size
from .canonical import PairSetDiff, canonical_pairs, diff_pairs

OracleFn = Callable[..., np.ndarray]

#: Storage wrappers the external pipeline can run under.
STORAGE_MODES = ("plain", "checksummed", "crash_resume", "worker_faults")


@dataclass
class OracleEntry:
    """One registered join implementation."""

    name: str
    fn: OracleFn
    #: Option names the implementation accepts (for sweep generation).
    options: Sequence[str] = ()
    #: The implementation requires data in the unit hypercube (so
    #: translation metamorphic relations must not be applied to it).
    unit_cube_only: bool = False
    #: Runs the full external pipeline (slower; the fuzz driver caps n).
    external: bool = False
    #: The implementation is allowed to miss pairs (never to invent
    #: them): it is checked against the reference by recall floor
    #: instead of digest equality.
    approximate: bool = False
    #: Default recall floor for approximate implementations; a config
    #: may override it with a ``recall_floor`` option.
    recall_floor: float = 0.9


REGISTRY: Dict[str, OracleEntry] = {}


def register(name: str, options: Sequence[str] = (),
             unit_cube_only: bool = False, external: bool = False,
             approximate: bool = False, recall_floor: float = 0.9):
    """Decorator adding an implementation to the registry."""

    def wrap(fn: OracleFn) -> OracleFn:
        REGISTRY[name] = OracleEntry(name=name, fn=fn, options=options,
                                     unit_cube_only=unit_cube_only,
                                     external=external,
                                     approximate=approximate,
                                     recall_floor=recall_floor)
        return fn

    return wrap


def implementations(include_external: bool = True) -> List[str]:
    """Registered implementation names, stable order."""
    return [name for name, entry in REGISTRY.items()
            if include_external or not entry.external]


def run_impl(name: str, points: np.ndarray, epsilon: float,
             ids: Optional[np.ndarray] = None, **options) -> np.ndarray:
    """Run a registered implementation, returning canonical pairs."""
    if name not in REGISTRY:
        raise KeyError(
            f"unknown implementation {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name].fn(points, epsilon, ids=ids, **options)


# -- in-memory EGO variants -------------------------------------------------


@register("ego", options=("engine", "minlen", "split_strategy",
                          "order_dimensions", "sort_dims", "invariants"))
def _ego(points, epsilon, ids=None, *, engine="vector", minlen=None,
         split_strategy="half", order_dimensions=True, sort_dims=None,
         invariants=False) -> np.ndarray:
    kwargs = {} if minlen is None else {"minlen": minlen}
    res = ego_self_join(points, epsilon, ids=ids, engine=engine,
                        split_strategy=split_strategy,
                        order_dimensions=order_dimensions,
                        sort_dims=sort_dims, invariants=invariants,
                        **kwargs)
    return canonical_pairs(res)


# -- external EGO pipeline --------------------------------------------------


def _external_geometry(points: np.ndarray, unit_records: int,
                       buffer_units: int):
    rec = record_size(points.shape[1])
    return max(rec, unit_records * rec), max(2, buffer_units)


def _write_point_file(disk: SimulatedDisk, points: np.ndarray,
                      ids: Optional[np.ndarray]) -> PointFile:
    if ids is None:
        ids = np.arange(len(points), dtype=np.int64)
    pf = PointFile.create(disk, points.shape[1])
    pf.append(np.asarray(ids, dtype=np.int64),
              np.asarray(points, dtype=np.float64))
    pf.close()
    return pf


@register("ego_external",
          options=("engine", "workers", "storage", "unit_records",
                   "buffer_units", "crash_op", "invariants",
                   "fault_kind", "fault_seed"),
          external=True)
def _ego_external(points, epsilon, ids=None, *, engine="vector",
                  workers=1, storage="plain", unit_records=24,
                  buffer_units=4, crash_op=64, invariants=False,
                  fault_kind="mixed", fault_seed=13) -> np.ndarray:
    """The full external pipeline under a chosen storage wrapper.

    ``storage`` picks the wrapper: ``plain`` (bare simulated disk),
    ``checksummed`` (per-page CRC32 plus a bounded-retry policy),
    ``crash_resume`` (checkpointed run killed by a scheduled crash at
    global operation ``crash_op``, then resumed; the canonical pairs
    are read back from the durable pair file), ``worker_faults``
    (parallel join under a seeded
    :class:`~repro.storage.faults.WorkerFaultPlan` injecting worker
    crashes, corrupted task results and task errors that the supervisor
    must absorb without changing the result).
    """
    if storage not in STORAGE_MODES:
        raise ValueError(
            f"unknown storage mode {storage!r}; known: {STORAGE_MODES}")
    pts = np.asarray(points, dtype=np.float64)
    unit_bytes, buffer_units = _external_geometry(pts, unit_records,
                                                  buffer_units)
    common = dict(unit_bytes=unit_bytes, buffer_units=buffer_units,
                  engine=engine, workers=workers, invariants=invariants)
    with SimulatedDisk() as disk:
        pf = _write_point_file(disk, pts, ids)
        if storage == "plain":
            report = ego_self_join_file(pf, epsilon, **common)
            return canonical_pairs(report.result)
        if storage == "checksummed":
            report = ego_self_join_file(
                pf, epsilon, checksums=True,
                retry=RetryPolicy(max_attempts=3), **common)
            return canonical_pairs(report.result)
        if storage == "worker_faults":
            from ..core.supervisor import SupervisorPolicy
            from .workloads import worker_fault_plan
            common["workers"] = max(2, workers)
            report = ego_self_join_file(
                pf, epsilon,
                worker_fault_plan=worker_fault_plan(fault_kind,
                                                    fault_seed),
                supervisor_policy=SupervisorPolicy(
                    task_timeout=5.0, max_task_retries=2, degrade=True,
                    real_sleep=False),
                **common)
            return canonical_pairs(report.result)
        with tempfile.TemporaryDirectory(prefix="ego-verify-") as ck:
            plan = FaultPlan(seed=0, crash_ops=[crash_op])
            try:
                ego_self_join_file(pf, epsilon, checkpoint_dir=ck,
                                   fault_plan=plan, **common)
            except SimulatedCrash:
                ego_self_join_file(pf, epsilon, checkpoint_dir=ck,
                                   resume=True, **common)
            with SimulatedDisk(path=os.path.join(ck, "result.prs")) as rd:
                a, b, _ = PairFile.open(rd).read_all()
            return canonical_pairs((a, b))


@register("ego_rs_files", options=("engine", "unit_records",
                                   "buffer_units"), external=True)
def _ego_rs_files(points, epsilon, ids=None, *, engine="vector",
                  unit_records=24, buffer_units=4) -> np.ndarray:
    """R ⋈ S external join with R = S, reduced to self-join semantics.

    ``ego_join_files`` on the same data uses two-set semantics (mirrored
    pairs and the diagonal included); canonicalisation strips both, so
    the result is directly comparable with every self-join.
    """
    pts = np.asarray(points, dtype=np.float64)
    unit_bytes, buffer_units = _external_geometry(pts, unit_records,
                                                  buffer_units)
    with SimulatedDisk() as disk_r, SimulatedDisk() as disk_s:
        fr = _write_point_file(disk_r, pts, ids)
        fs = _write_point_file(disk_s, pts, ids)
        report = ego_join_files(fr, fs, epsilon, unit_bytes=unit_bytes,
                                buffer_units=buffer_units, engine=engine)
    return canonical_pairs(report.result)


# -- competitor algorithms --------------------------------------------------


@register("brute")
def _brute(points, epsilon, ids=None) -> np.ndarray:
    return canonical_pairs(brute_force_self_join(points, epsilon, ids=ids))


@register("grid_hash", options=("prefix_dims",))
def _grid_hash(points, epsilon, ids=None, *, prefix_dims=None) -> np.ndarray:
    return canonical_pairs(grid_hash_self_join(points, epsilon, ids=ids,
                                               prefix_dims=prefix_dims))


@register("spatial_hash", options=("bucket_capacity",))
def _spatial_hash(points, epsilon, ids=None, *,
                  bucket_capacity=None) -> np.ndarray:
    kwargs = {} if bucket_capacity is None \
        else {"bucket_capacity": bucket_capacity}
    report = spatial_hash_self_join(points, epsilon, **kwargs)
    return _with_ids(canonical_pairs(report.result), ids)


@register("msj", unit_cube_only=True)
def _msj(points, epsilon, ids=None) -> np.ndarray:
    report = msj_self_join(points, epsilon)
    return _with_ids(canonical_pairs(report.result), ids)


@register("epskdb", options=("node_capacity",))
def _epskdb(points, epsilon, ids=None, *, node_capacity=None) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(pts), dtype=np.int64)
    kwargs = {} if node_capacity is None \
        else {"node_capacity": node_capacity}
    report = epskdb_self_join(np.asarray(ids, dtype=np.int64), pts, epsilon,
                              cache_records=4 * max(1, len(pts)),
                              force=True, **kwargs)
    return canonical_pairs(report.result)


def _with_ids(canon: np.ndarray, ids: Optional[np.ndarray]) -> np.ndarray:
    """Map positional pair ids through an explicit id array."""
    if ids is None or len(canon) == 0:
        return canon
    ids = np.asarray(ids, dtype=np.int64)
    return canonical_pairs((ids[canon[:, 0]], ids[canon[:, 1]]))


def _rtree_join(points, epsilon, ids, joiner, page_records=16,
                pool_pages=8) -> np.ndarray:
    from ..index.rtree import RTree

    pts = np.asarray(points, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(pts), dtype=np.int64)
    with SimulatedDisk() as disk:
        tree = RTree.bulk_load(np.asarray(ids, dtype=np.int64), pts, disk,
                               page_records)
        report = joiner(tree, epsilon, pool_pages)
    return canonical_pairs(report.result)


@register("rsj", options=("page_records", "pool_pages"))
def _rsj(points, epsilon, ids=None, *, page_records=16,
         pool_pages=8) -> np.ndarray:
    return _rtree_join(points, epsilon, ids, rsj_self_join,
                       page_records, pool_pages)


@register("zorder_rsj", options=("page_records", "pool_pages"))
def _zorder_rsj(points, epsilon, ids=None, *, page_records=16,
                pool_pages=8) -> np.ndarray:
    return _rtree_join(points, epsilon, ids, zorder_rsj_self_join,
                       page_records, pool_pages)


@register("mux", options=("page_bytes", "bucket_records", "pool_pages"))
def _mux(points, epsilon, ids=None, *, page_bytes=2048, bucket_records=4,
         pool_pages=8) -> np.ndarray:
    from ..index.mux import MultipageIndex

    pts = np.asarray(points, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(pts), dtype=np.int64)
    with SimulatedDisk() as disk:
        index = MultipageIndex.bulk_load(np.asarray(ids, dtype=np.int64),
                                         pts, disk, page_bytes,
                                         bucket_records)
        report = mux_self_join(index, epsilon, pool_pages)
    return canonical_pairs(report.result)


# -- approximate (LSH) ------------------------------------------------------


@register("lsh", options=("k", "tables", "recall_target", "w_scale",
                          "seed", "engine", "backend"),
          approximate=True, recall_floor=0.9)
def _lsh(points, epsilon, ids=None, *, k=None, tables=None,
         recall_target=0.95, w_scale=None, seed=0, engine="auto",
         backend="simulated") -> np.ndarray:
    """The p-stable LSH join — the registry's only approximate entry.

    Candidates are exactly re-verified, so the result is always a
    subset of the reference's pair set; the recall floor (not digest
    equality) is what ``differential_check`` holds it to.
    """
    from ..index.lsh import DEFAULT_K, DEFAULT_W_SCALE
    from ..joins.lsh_join import lsh_self_join

    report = lsh_self_join(
        np.asarray(points, dtype=np.float64), epsilon, ids=ids,
        k=DEFAULT_K if k is None else k, tables=tables,
        recall_target=recall_target,
        w_scale=DEFAULT_W_SCALE if w_scale is None else w_scale,
        seed=seed, engine=engine, backend=backend)
    return canonical_pairs(report.result)


# -- incremental store ------------------------------------------------------


def _store_churn_index(n: int, seed: int) -> np.ndarray:
    """Deterministic quarter of ``range(n)`` to delete and re-insert."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=max(1, n // 4), replace=False))


@register("ego_store", options=("mode", "compact_threshold", "engine",
                                "batch", "seed"))
def _ego_store(points, epsilon, ids=None, *, mode="fresh",
               compact_threshold=64, engine="auto", batch=17,
               seed=5) -> np.ndarray:
    """The incremental :class:`~repro.service.EGOStore`.

    ``fresh`` builds the store from the batch and joins; ``churn``
    inserts in small batches, then deletes a deterministic quarter of
    the points and re-inserts it (same ids, same coordinates), so the
    delta buffer, dead main rows and compaction all participate in the
    final join.  Either way the live point set at join time is exactly
    ``points``, so the result must equal every batch oracle's.
    """
    from ..service import EGOStore

    pts = np.asarray(points, dtype=np.float64)
    uids = np.arange(len(pts), dtype=np.int64) if ids is None \
        else np.asarray(ids, dtype=np.int64)
    store = EGOStore(epsilon, engine=engine,
                     compact_threshold=compact_threshold)
    if mode == "fresh":
        if len(pts):
            store.insert(pts, ids=uids)
        store.compact()
    elif mode == "churn":
        for start in range(0, len(pts), batch):
            store.insert(pts[start:start + batch],
                         ids=uids[start:start + batch])
        if len(pts):
            idx = _store_churn_index(len(pts), seed)
            store.delete(uids[idx])
            store.insert(pts[idx], ids=uids[idx])
    else:
        raise ValueError(f"unknown store mode {mode!r}")
    return canonical_pairs(store.join())


@register("ego_store_replay", options=("compact_threshold", "crash_after",
                                       "seed"))
def _ego_store_replay(points, epsilon, ids=None, *, compact_threshold=48,
                      crash_after=None, seed=7) -> np.ndarray:
    """Crash + journal-replay variant of ``ego_store``.

    A store applies a churn op sequence with a journal attached; the op
    log is then truncated to ``crash_after`` entries (default: half) —
    the crash-mid-sequence shape — a second store is recovered from the
    truncated journal, and the lost tail is re-sent through the public
    API.  The recovered store must match the original's
    :meth:`~repro.service.EGOStore.state_digest` exactly; its join is
    returned.
    """
    from ..service import EGOStore
    from ..storage.journal import Journal

    pts = np.asarray(points, dtype=np.float64)
    uids = np.arange(len(pts), dtype=np.int64) if ids is None \
        else np.asarray(ids, dtype=np.int64)
    with tempfile.TemporaryDirectory(prefix="ego-store-") as td:
        jpath = os.path.join(td, "store.journal")
        store = EGOStore(epsilon, compact_threshold=compact_threshold,
                         journal=jpath)
        for start in range(0, len(pts), 13):
            store.insert(pts[start:start + 13],
                         ids=uids[start:start + 13])
        if len(pts):
            idx = _store_churn_index(len(pts), seed)
            store.delete(uids[idx])
            store.insert(pts[idx], ids=uids[idx])
        expected_digest = store.state_digest()

        jr = Journal(jpath)
        ops = jr.store_ops()
        cut = len(ops) // 2 if crash_after is None \
            else min(int(crash_after), len(ops))
        jr.state["store_ops"] = ops[:cut]
        jr.flush()
        recovered = EGOStore.recover(jr)
        for op in ops[cut:]:  # the client re-sends what the crash lost
            if op[0] == "insert":
                recovered.insert(np.asarray(op[2], dtype=np.float64),
                                 ids=np.asarray(op[1], dtype=np.int64))
            elif op[0] == "delete":
                recovered.delete(op[1])
            else:
                recovered.set_epsilon(float(op[1]))
        if recovered.state_digest() != expected_digest:
            raise AssertionError(
                "journal replay digest mismatch: recovered store differs "
                "from the store that wrote the log")
        return canonical_pairs(recovered.join())


# -- differential comparison ------------------------------------------------


@dataclass
class ImplOutcome:
    """One implementation's result in a differential check."""

    name: str
    options: Dict[str, object]
    diff: Optional[PairSetDiff] = None
    error: Optional[str] = None
    #: Filled for approximate implementations: measured recall against
    #: the reference and the floor it was held to.
    recall: Optional[float] = None
    recall_floor: Optional[float] = None
    #: Absolute misses always tolerated regardless of the floor — the
    #: small-sample allowance.  A relative floor alone is statistically
    #: unsound on tiny workloads: with three true pairs, one
    #: model-permitted miss (probability 1−recall_target per pair, by
    #: design) drops measured recall to 0.67 and "fails" a 0.9 floor.
    miss_allowance: int = 0

    @property
    def approximate(self) -> bool:
        """The outcome was judged by recall floor, not digest equality."""
        return self.recall_floor is not None

    @property
    def ok(self) -> bool:
        if self.error is not None or self.diff is None:
            return False
        if not self.approximate:
            return self.diff.ok
        # Precision stays exact even for approximate joins: extra pairs
        # are a hard failure; only missing pairs trade against the floor
        # (or the absolute small-sample allowance, whichever is looser).
        if len(self.diff.extra) != 0:
            return False
        return (self.recall >= self.recall_floor
                or len(self.diff.missing) <= self.miss_allowance)

    def describe(self) -> str:
        label = self.name
        if self.options:
            opts = ",".join(f"{k}={v}" for k, v in
                            sorted(self.options.items()))
            label = f"{label}[{opts}]"
        if self.error is not None:
            return f"{label}: ERROR {self.error}"
        if self.approximate:
            verdict = "ok" if self.ok else "FAIL"
            allowance = (f", allowance {self.miss_allowance}"
                         if self.miss_allowance else "")
            return (f"{label}: {verdict} recall={self.recall:.4f} "
                    f"(floor {self.recall_floor:g}{allowance}, "
                    f"extra {len(self.diff.extra)})")
        return f"{label}: {self.diff.summary()}"


@dataclass
class DifferentialReport:
    """Outcome of comparing implementations against a reference."""

    reference: str
    pair_count: int
    outcomes: List[ImplOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> List[ImplOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def describe(self) -> str:
        lines = [f"reference {self.reference}: {self.pair_count} pairs"]
        lines += ["  " + o.describe() for o in self.outcomes]
        return "\n".join(lines)


def differential_check(points: np.ndarray, epsilon: float,
                       configs: Sequence,
                       ids: Optional[np.ndarray] = None,
                       reference: str = "brute") -> DifferentialReport:
    """Run implementations against a reference and report differences.

    ``configs`` is a sequence of implementation names or ``(name,
    options)`` tuples.  An implementation raising an exception is
    reported as a failure rather than aborting the sweep.

    Implementations registered ``approximate=True`` are judged by the
    recall floor (entry default, overridable per config with a
    ``recall_floor`` option — consumed here, never passed to the
    implementation) instead of digest equality; extra pairs remain a
    hard failure for them too.  A per-config ``miss_allowance`` option
    (also consumed here; default 0) additionally tolerates that many
    absolute misses, making floor checks on tiny workloads — where one
    model-permitted miss swings recall from 1.0 to 0.0 — statistically
    sound.
    """
    expected = run_impl(reference, points, epsilon, ids=ids)
    report = DifferentialReport(reference=reference,
                                pair_count=len(expected))
    for config in configs:
        if isinstance(config, str):
            name, options = config, {}
        else:
            name, options = config[0], dict(config[1])
        outcome = ImplOutcome(name=name, options=options)
        entry = REGISTRY.get(name)
        run_options = dict(options)
        floor = None
        allowance = 0
        if entry is not None and entry.approximate:
            floor = float(run_options.pop("recall_floor",
                                          entry.recall_floor))
            allowance = int(run_options.pop("miss_allowance", 0))
        try:
            observed = run_impl(name, points, epsilon, ids=ids,
                                **run_options)
            outcome.diff = diff_pairs(expected, observed)
            if floor is not None:
                outcome.recall_floor = floor
                outcome.miss_allowance = allowance
                outcome.recall = 1.0 if len(expected) == 0 else \
                    1.0 - len(outcome.diff.missing) / len(expected)
        except Exception as exc:  # noqa: BLE001 - fuzzing must survive
            outcome.error = f"{type(exc).__name__}: {exc}"
        report.outcomes.append(outcome)
    return report
