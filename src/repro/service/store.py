"""Incrementally-maintained EGO similarity-join store.

The batch pipeline (``ego_self_join`` and the external variants) is
sort-once-join-once: every call pays the full EGO sort.  ``EGOStore``
keeps that investment resident across calls and maintains it under
updates, the shape *Dynamic Enumeration of Similarity Joins* argues for
and the ROADMAP's service north-star requires:

* **main run** — one EGO-sorted array of live (and lazily-dead) rows at
  a fixed *grid epsilon* (the construction-time ε), with resident
  per-unit ε-interval metadata (first-cell keys every ``unit_records``
  rows) so any query box maps to a contiguous main slice by bisection
  (Lemmata 2/3 of the paper applied to the stored order);
* **delta buffer** — updates land in a small unsorted buffer; joins
  add delta×delta and delta×main-slice with the ordinary sequence
  join, so results never lag the last write;
* **point queries** — ``range`` (and ``knn``, by doubling its radius)
  makes one exact distance pass over the main run's ε-interval and the
  delta, at any ε: the cell mapping is monotone, so the cells of
  ``q ± ε`` bound every mate's cells at any grid width;
* **compaction** — once the delta exceeds a threshold it is EGO-sorted
  and folded into the main run with the external sort's block merge
  (:func:`repro.sorting.external_sort.merge_sorted_arrays`), which over
  in-memory runs is one sort in the sort's ``(key, id)`` order; the
  main run itself is never re-sorted;
* **epsilon changes** — ``set_epsilon`` never re-sorts the resident
  order: a run sorted at grid width ``w`` serves any join at ε ≤ w
  directly (the pruning grid simply stays at ``w``, the
  ``grid_epsilon`` contract of ``JoinContext``).  A join at a *larger*
  ε cannot reuse the stored order — no coarser grid preserves
  lexicographic order, integer multiples of ``w`` included — so it
  runs on a lazily-built re-ordered *view* of the main run, cached per
  width until the next compaction;
* **durability** — every mutating op is journaled through
  :class:`repro.storage.journal.Journal`; replaying the journal rebuilds
  the store byte-identically (:meth:`EGOStore.state_digest`), which the
  ``ego_store_replay`` oracle entry checks under crash+resume;
* **caching** — join results are kept in a small LRU keyed on
  ``(epsilon, data version)``.  The version is bumped by every mutating
  op and double-checked on every hit (:class:`StaleCacheError`), so a
  stale result can never be served.

Internally every row gets a monotonically-increasing *rowid*; joins run
in rowid space and results are filtered against the dead-row set and
mapped to user ids at the end.  That makes delete + re-insert of the
same user id unambiguous even while the dead row still sits in the main
run awaiting compaction.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.ego_order import (ego_sort_order, ensure_finite, grid_cells,
                              validate_epsilon)
from ..core.result import JoinResult
from ..core.sequence import Sequence
from ..core.sequence_join import (DEFAULT_MINLEN, JoinContext,
                                  KernelConfig, join_sequences)
from ..obs.metrics import ensure_metrics
from ..obs.trace import ensure_tracer
from ..sorting.external_sort import merge_sorted_arrays
from ..storage.journal import Journal

#: Delta-buffer size at which an insert triggers compaction.
DEFAULT_COMPACT_THRESHOLD = 256

#: Main-run rows per resident interval-metadata entry.
DEFAULT_UNIT_RECORDS = 64

#: Join-result LRU entries kept.
DEFAULT_CACHE_SIZE = 32

#: Coarse main-run views (joins above the grid ε) kept per compaction.
MAX_COARSE_VIEWS = 4


@dataclass
class _MainView:
    """One ordering of the main run at a given grid width.

    The resident view (width = the store's grid ε) is maintained by
    compaction; coarser views are built on demand for joins at a
    larger ε and cached until the main run changes.
    """

    width: float
    rowids: np.ndarray
    points: np.ndarray
    cells: np.ndarray
    #: First-row cell key per ``unit_records`` rows — the resident
    #: per-unit ε-interval metadata that brackets interval bisection.
    unit_keys: List[Tuple[int, ...]]


class StaleCacheError(RuntimeError):
    """A cached join result survived a data-version bump.

    Raised by the internal consistency checks; seeing it means the
    version-keying of the LRU is broken, never that the caller did
    something wrong.
    """


@dataclass
class StoreStats:
    """Point-in-time accounting snapshot of one :class:`EGOStore`."""

    live_points: int
    main_rows: int
    dead_main_rows: int
    delta_rows: int
    data_version: int
    epsilon: float
    grid_epsilon: float
    inserts: int
    deletes: int
    epsilon_changes: int
    compactions: int
    queries: int
    cache_hits: int
    cache_misses: int

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class EGOStore:
    """A long-lived, incrementally-maintained ε self-join store.

    Parameters
    ----------
    epsilon:
        Initial (and default) join distance.  Also fixes the *grid
        epsilon* the main run stays sorted at for the store's lifetime.
    dimensions:
        Point dimensionality; may be left ``None`` and is then fixed by
        the first insert.
    engine, minlen:
        Leaf kernel and leaf size of the store's joins (see
        :class:`repro.core.sequence_join.KernelConfig`); ``range`` and
        ``knn`` run no join and use neither.
    compact_threshold:
        Delta-buffer row count at which a mutating op triggers
        compaction into the main run.
    cache_size:
        Join-result LRU capacity (0 disables caching).
    unit_records:
        Main-run rows per resident ε-interval metadata entry.
    journal:
        ``None``, a path, or a :class:`~repro.storage.journal.Journal`.
        When given, the store starts a fresh update log there (build
        parameters plus every mutating op); use :meth:`recover` to
        rebuild from an existing log.
    metrics, trace:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` /
        :class:`~repro.obs.trace.Tracer`; per-op counters, gauges and
        compaction/query spans are recorded through them.
    """

    def __init__(self, epsilon: float, *, dimensions: Optional[int] = None,
                 engine: str = "auto", minlen: int = DEFAULT_MINLEN,
                 compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 unit_records: int = DEFAULT_UNIT_RECORDS,
                 journal: Optional[object] = None,
                 journal_flush_every: int = 1,
                 metrics=None, trace=None) -> None:
        self._epsilon = validate_epsilon(epsilon)
        self.grid_epsilon = self._epsilon
        if compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be >= 1, got {compact_threshold}")
        if unit_records < 1:
            raise ValueError(
                f"unit_records must be >= 1, got {unit_records}")
        self._dims = None if dimensions is None else int(dimensions)
        self._kernel = KernelConfig(engine=engine, minlen=minlen)
        self._compact_threshold = int(compact_threshold)
        self._cache_size = int(cache_size)
        self._unit_records = int(unit_records)
        self._metrics = ensure_metrics(metrics)
        self._trace = ensure_tracer(trace)

        # Main run: EGO-sorted at grid_epsilon by (cells, rowid).
        d = self._dims if self._dims is not None else 0
        self._main_rowids = np.empty(0, dtype=np.int64)
        self._main_pts = np.empty((0, d))
        self._main_cells = np.empty((0, d), dtype=np.int64)
        self._unit_keys: List[Tuple[int, ...]] = []
        # The main run's bounding box; every main-run mate lies inside.
        self._main_min = self._main_max = np.empty(d)
        self._main_dead = 0
        # Lazily-built re-orderings of the main run for joins at
        # ε > grid ε, LRU-capped at MAX_COARSE_VIEWS, dropped on every
        # compaction.
        self._coarse_views: "OrderedDict[float, _MainView]" = OrderedDict()

        # Delta buffer (unsorted) + per-rowid tables.
        self._delta_rowids: List[int] = []
        self._delta_pts: List[np.ndarray] = []
        self._delta_pos: Dict[int, int] = {}
        self._row_user = np.empty(0, dtype=np.int64)
        self._row_dead = np.empty(0, dtype=bool)
        self._next_rowid = 0
        self._next_auto_id = 0
        self._id_rowid: Dict[int, int] = {}

        self._version = 0
        self._cache: "OrderedDict[tuple, Tuple[int, object]]" = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        self._counts = {"inserts": 0, "deletes": 0, "epsilon_changes": 0,
                        "compactions": 0, "queries": 0}

        self._replaying = False
        self._journal: Optional[Journal] = None
        if journal is not None:
            jr = journal if isinstance(journal, Journal) \
                else Journal(str(journal), flush_every=journal_flush_every)
            jr.reset()
            jr.record_store_meta(self._meta())
            self._journal = jr

    # -- construction / recovery --------------------------------------------

    def _meta(self) -> Dict:
        return {"epsilon": float(self._epsilon),
                "dimensions": self._dims,
                "engine": self._kernel.engine,
                "minlen": self._kernel.minlen,
                "compact_threshold": self._compact_threshold,
                "cache_size": self._cache_size,
                "unit_records": self._unit_records}

    @classmethod
    def from_points(cls, points: np.ndarray, epsilon: float,
                    ids: Optional[np.ndarray] = None,
                    **kwargs) -> "EGOStore":
        """Fresh store built from a batch: insert everything, compact."""
        store = cls(epsilon, **kwargs)
        if len(points):
            store.insert(points, ids=ids)
        store.compact()
        return store

    @classmethod
    def recover(cls, journal, *, journal_flush_every: int = 1,
                metrics=None, trace=None) -> "EGOStore":
        """Rebuild a store by replaying an update journal.

        The journal's build-parameter record plus its op list fully
        determine the store (compactions replay implicitly, at the same
        thresholds), so the result is byte-identical to the store that
        wrote the log — compare :meth:`state_digest`.  The journal stays
        attached: ops applied after recovery keep appending to it.
        """
        jr = journal if isinstance(journal, Journal) \
            else Journal(str(journal), flush_every=journal_flush_every)
        meta = jr.store_meta()
        if meta is None:
            raise ValueError(
                f"journal {jr.path!r} holds no store metadata")
        dims = meta.get("dimensions")
        store = cls(meta["epsilon"],
                    dimensions=None if dims is None else int(dims),
                    engine=meta.get("engine", "auto"),
                    minlen=int(meta.get("minlen", DEFAULT_MINLEN)),
                    compact_threshold=int(meta.get(
                        "compact_threshold", DEFAULT_COMPACT_THRESHOLD)),
                    cache_size=int(meta.get("cache_size",
                                            DEFAULT_CACHE_SIZE)),
                    unit_records=int(meta.get("unit_records",
                                              DEFAULT_UNIT_RECORDS)),
                    metrics=metrics, trace=trace)
        store._journal = jr
        store._replaying = True
        try:
            for op in jr.store_ops():
                store._apply_op(op)
        finally:
            store._replaying = False
        return store

    def _apply_op(self, op: List) -> None:
        kind = op[0]
        if kind == "insert":
            self.insert(np.asarray(op[2], dtype=np.float64),
                        ids=np.asarray(op[1], dtype=np.int64))
        elif kind == "delete":
            self.delete(op[1])
        elif kind == "set_epsilon":
            self.set_epsilon(float(op[1]))
        else:
            raise ValueError(f"unknown journaled store op {kind!r}")

    def _log_op(self, op: List) -> None:
        if self._journal is not None and not self._replaying:
            self._journal.record_store_op(op)

    # -- basic accessors -----------------------------------------------------

    @property
    def epsilon(self) -> float:
        """Current default join distance (change via :meth:`set_epsilon`)."""
        return self._epsilon

    @property
    def dimensions(self) -> Optional[int]:
        return self._dims

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped by every mutating operation."""
        return self._version

    def __len__(self) -> int:
        return len(self._id_rowid)

    def __contains__(self, user_id: int) -> bool:
        return int(user_id) in self._id_rowid

    def ids(self) -> np.ndarray:
        """All live user ids, ascending."""
        return np.sort(np.fromiter(self._id_rowid.keys(), dtype=np.int64,
                                   count=len(self._id_rowid)))

    def live_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, points)`` of every live row, sorted by user id.

        This is the store's *current point set* — the batch join of
        exactly these points is what :meth:`join` must reproduce, which
        is the differential check the oracle entries run.
        """
        rowids = np.fromiter(self._id_rowid.values(), dtype=np.int64,
                             count=len(self._id_rowid))
        ids = np.fromiter(self._id_rowid.keys(), dtype=np.int64,
                          count=len(self._id_rowid))
        pts = np.empty((len(rowids), self._dims or 0))
        if len(rowids):
            main_index = {int(r): i for i, r in
                          enumerate(self._main_rowids.tolist())}
            for out, rowid in enumerate(rowids.tolist()):
                pos = self._delta_pos.get(rowid)
                if pos is not None:
                    pts[out] = self._delta_pts[pos]
                else:
                    pts[out] = self._main_pts[main_index[rowid]]
        order = np.argsort(ids, kind="stable")
        return ids[order], pts[order]

    def stats(self) -> StoreStats:
        """Snapshot of the store's counters and sizes."""
        return StoreStats(
            live_points=len(self._id_rowid),
            main_rows=len(self._main_rowids),
            dead_main_rows=self._main_dead,
            delta_rows=len(self._delta_rowids),
            data_version=self._version,
            epsilon=self._epsilon,
            grid_epsilon=self.grid_epsilon,
            inserts=self._counts["inserts"],
            deletes=self._counts["deletes"],
            epsilon_changes=self._counts["epsilon_changes"],
            compactions=self._counts["compactions"],
            queries=self._counts["queries"],
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses)

    def state_digest(self) -> str:
        """SHA-256 over the complete logical state.

        Two stores that applied the same op sequence — directly, or via
        journal replay after a crash — must agree on this digest; the
        ``ego_store_replay`` oracle entry and the crash/resume tests
        assert exactly that.
        """
        h = hashlib.sha256()
        h.update(repr((float(self._epsilon), float(self.grid_epsilon),
                       self._dims, self._version, self._next_rowid,
                       self._next_auto_id, self._main_dead)).encode())
        h.update(self._main_rowids.tobytes())
        h.update(np.ascontiguousarray(self._main_pts).tobytes())
        h.update(np.asarray(self._delta_rowids, dtype=np.int64).tobytes())
        if self._delta_pts:
            h.update(np.asarray(self._delta_pts).tobytes())
        h.update(repr(sorted((int(k), int(v))
                             for k, v in self._id_rowid.items())).encode())
        dead = np.nonzero(self._row_dead[:self._next_rowid])[0]
        h.update(dead.astype(np.int64).tobytes())
        return h.hexdigest()

    # -- mutating operations -------------------------------------------------

    def insert(self, points: np.ndarray,
               ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Insert a point (``(d,)``) or batch (``(n, d)``); returns ids.

        Explicit ``ids`` must not collide with live ids; without them,
        fresh ids are assigned from a monotone counter.  The op is
        journaled (with the resolved ids, so replay is deterministic),
        the data version bumps, and the delta buffer compacts when it
        crosses the threshold.
        """
        pts = ensure_finite(np.asarray(points, dtype=np.float64))
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError(f"points must be (n, d), got {pts.shape}")
        if self._dims is None:
            self._set_dimensions(pts.shape[1])
        elif pts.shape[1] != self._dims:
            raise ValueError(f"expected {self._dims}-dimensional points, "
                             f"got {pts.shape[1]}")
        n = len(pts)
        if ids is None:
            ids = np.arange(self._next_auto_id, self._next_auto_id + n,
                            dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if len(ids) != n:
                raise ValueError(
                    f"{len(ids)} ids for {n} points")
            if len(np.unique(ids)) != n:
                raise ValueError("duplicate ids in one insert batch")
            for uid in ids.tolist():
                if uid in self._id_rowid:
                    raise ValueError(f"id {uid} is already live")
        op = ["insert", [int(u) for u in ids.tolist()],
              [[float(c) for c in row] for row in pts.tolist()]]
        self._log_op(op)
        self._grow_row_tables(n)
        for uid, row in zip(ids.tolist(), pts):
            rowid = self._next_rowid
            self._next_rowid += 1
            self._row_user[rowid] = uid
            self._id_rowid[uid] = rowid
            self._delta_pos[rowid] = len(self._delta_rowids)
            self._delta_rowids.append(rowid)
            self._delta_pts.append(np.array(row, dtype=np.float64))
        if len(ids):
            self._next_auto_id = max(self._next_auto_id,
                                     int(ids.max()) + 1)
        self._counts["inserts"] += n
        self._metrics.counter(
            "ego_store_inserts_total",
            "Points inserted into the store").inc(n)
        self._mutated()
        if len(self._delta_rowids) >= self._compact_threshold:
            self.compact()
        return ids

    def delete(self, ids) -> int:
        """Delete live points by user id; returns the count removed.

        Rows still in the delta buffer are removed physically; rows in
        the main run are only marked dead (joins filter them, the next
        compaction drops them).  Unknown ids raise ``KeyError``.
        """
        if np.isscalar(ids):
            ids = [ids]
        ids = [int(u) for u in np.asarray(ids, dtype=np.int64).tolist()]
        for uid in ids:
            if uid not in self._id_rowid:
                raise KeyError(f"id {uid} is not live")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ids in one delete batch")
        self._log_op(["delete", list(ids)])
        for uid in ids:
            rowid = self._id_rowid.pop(uid)
            self._row_dead[rowid] = True
            pos = self._delta_pos.pop(rowid, None)
            if pos is not None:
                last = len(self._delta_rowids) - 1
                if pos != last:
                    moved = self._delta_rowids[last]
                    self._delta_rowids[pos] = moved
                    self._delta_pts[pos] = self._delta_pts[last]
                    self._delta_pos[moved] = pos
                self._delta_rowids.pop()
                self._delta_pts.pop()
            else:
                self._main_dead += 1
        self._counts["deletes"] += len(ids)
        self._metrics.counter(
            "ego_store_deletes_total",
            "Points deleted from the store").inc(len(ids))
        self._mutated()
        return len(ids)

    def set_epsilon(self, epsilon: float) -> None:
        """Change the default join distance.

        A join at ε ≤ grid epsilon is served by the resident order
        directly (pruning keeps using the grid width); a join at a
        larger ε by a cached re-ordered view of the main run (see
        :meth:`_main_view`) — the resident order itself is never
        re-sorted.
        """
        eps = validate_epsilon(epsilon)
        self._log_op(["set_epsilon", float(eps)])
        self._epsilon = eps
        self._counts["epsilon_changes"] += 1
        self._metrics.counter(
            "ego_store_epsilon_changes_total",
            "set_epsilon calls").inc()
        self._mutated()

    def compact(self) -> None:
        """Fold the delta buffer into the main run; purge dead rows.

        The delta is EGO-sorted at the grid epsilon and merged with the
        live main rows through the external sort's block merge
        (:func:`~repro.sorting.external_sort.merge_sorted_arrays`) —
        the main run is consumed in order, never re-sorted.
        """
        if not self._delta_rowids and not self._main_dead:
            return
        args = {"delta": len(self._delta_rowids),
                "dead": self._main_dead,
                "main": len(self._main_rowids)}
        with self._trace.span("store_compaction", cat="store", args=args):
            runs = []
            if len(self._main_rowids):
                live = ~self._row_dead[self._main_rowids]
                runs.append((self._main_rowids[live],
                             self._main_pts[live]))
            if self._delta_rowids:
                d_ids = np.asarray(self._delta_rowids, dtype=np.int64)
                d_pts = np.asarray(self._delta_pts, dtype=np.float64)
                order = ego_sort_order(d_pts, self.grid_epsilon, d_ids)
                runs.append((d_ids[order],
                             np.ascontiguousarray(d_pts[order])))
            if runs:
                ids, pts = merge_sorted_arrays(
                    runs, lambda p: grid_cells(p, self.grid_epsilon))
            else:
                ids = np.empty(0, dtype=np.int64)
                pts = np.empty((0, self._dims or 0))
            self._set_main(ids, pts)
            self._delta_rowids = []
            self._delta_pts = []
            self._delta_pos = {}
            self._main_dead = 0
        self._counts["compactions"] += 1
        self._metrics.counter(
            "ego_store_compactions_total",
            "Delta-buffer compactions").inc()
        self._update_gauges()

    # -- queries -------------------------------------------------------------

    def join(self, epsilon: Optional[float] = None) -> np.ndarray:
        """The ε self-join of the live point set, canonical user-id pairs.

        Returns an ``(n, 2)`` int64 array with ``min < max`` per row,
        lexicographically sorted — the same canonical form the verify
        subsystem digests, directly comparable with any batch join of
        :meth:`live_points`.  Results are LRU-cached per
        ``(epsilon, data version)``.
        """
        eps = self._epsilon if epsilon is None \
            else validate_epsilon(epsilon)
        key = ("join", float(eps), self._version)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        with self._trace.span("store_join", cat="store",
                              args={"epsilon": eps}):
            result = self._join_rowids(eps, collect_distances=False)
            pairs = self._canonical_user_pairs(result)
        self._count_query("join")
        self._cache_put(key, pairs)
        return pairs

    def join_result(self, epsilon: Optional[float] = None,
                    collect_distances: bool = False) -> JoinResult:
        """The self-join as a :class:`JoinResult` in user-id space.

        The streaming shape the ``repro.apps`` clients consume;
        uncached (distances and chunk layout are not canonical).
        """
        eps = self._epsilon if epsilon is None \
            else validate_epsilon(epsilon)
        raw = self._join_rowids(eps, collect_distances=collect_distances)
        a, b = raw.pairs()
        live = ~(self._row_dead[a] | self._row_dead[b]) if len(a) else \
            np.empty(0, dtype=bool)
        out = JoinResult(collect_distances=collect_distances)
        if len(a):
            dists = raw.distances()[live] if collect_distances else None
            out.add_batch(self._row_user[a[live]],
                          self._row_user[b[live]], distances=dists)
        self._count_query("join")
        return out

    def range(self, query: np.ndarray,
              epsilon: Optional[float] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Live points within ε of ``query``: ``(ids, distances)``.

        One exact pass over the main run's ε-interval (Lemmata 2/3: every
        mate lies between the cells of ``q − ε`` and ``q + ε``, at any ε,
        because the cell mapping is monotone) and every delta row.  A row
        is a mate when ``Σ (p − q)² ≤ ε²`` — the GEMM leaf's exact
        re-verify, so distances are its bytes.  Sorted by (distance, id);
        includes exact matches at distance 0.
        """
        eps = self._epsilon if epsilon is None \
            else validate_epsilon(epsilon)
        q = ensure_finite(np.asarray(query, dtype=np.float64))
        if q.ndim != 1:
            raise ValueError(f"query must be (d,), got {q.shape}")
        if self._dims is None or not len(self._id_rowid):
            self._count_query("range")
            return np.empty(0, dtype=np.int64), np.empty(0)
        if len(q) != self._dims:
            raise ValueError(f"expected {self._dims}-dimensional queries, "
                             f"got {len(q)}")
        with self._trace.span("store_range", cat="store",
                              args={"epsilon": eps}):
            lo, hi = self._main_interval(self._main_view(self.grid_epsilon),
                                         q - eps, q + eps)
            rowids = self._main_rowids[lo:hi]
            pts = self._main_pts[lo:hi]
            if self._delta_rowids:
                rowids = np.concatenate(
                    [rowids, np.asarray(self._delta_rowids, dtype=np.int64)])
                pts = np.concatenate([pts, np.asarray(self._delta_pts)])
            diffs = pts - q
            d2 = np.einsum("ij,ij->i", diffs, diffs)
            hit = (d2 <= eps * eps) & ~self._row_dead[rowids]
            uids = self._row_user[rowids[hit]]
            dists = np.sqrt(d2[hit])
            order = np.lexsort((uids, dists))
        self._count_query("range")
        return uids[order], dists[order]

    def knn(self, query: np.ndarray, k: int
            ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest live points to ``query``.

        Iterated doubling-radius range queries starting from the store
        ε (the paper's join-based kNN recipe); ties broken by id.
        Returns ``(ids, distances)`` of ``min(k, len(store))`` rows.  The
        radius grows until it holds them: once ``ε²`` overflows, every
        finite distance passes.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        want = min(k, len(self._id_rowid))
        if want == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0))
        with self._trace.span("store_knn", cat="store", args={"k": k}):
            eps = self._epsilon
            ids, dists = self.range(query, eps)
            while len(ids) < want:
                eps *= 2.0
                ids, dists = self.range(query, eps)
        return ids[:want], dists[:want]

    # -- internals -----------------------------------------------------------

    def _set_dimensions(self, dims: int) -> None:
        self._dims = int(dims)
        self._main_pts = np.empty((0, self._dims))
        self._main_cells = np.empty((0, self._dims), dtype=np.int64)

    def _grow_row_tables(self, n: int) -> None:
        need = self._next_rowid + n
        if need <= len(self._row_user):
            return
        cap = max(need, 2 * len(self._row_user), 16)
        user = np.empty(cap, dtype=np.int64)
        dead = np.zeros(cap, dtype=bool)
        user[:len(self._row_user)] = self._row_user
        dead[:len(self._row_dead)] = self._row_dead
        self._row_user = user
        self._row_dead = dead

    def _unit_keys_of(self, cells: np.ndarray) -> List[Tuple[int, ...]]:
        # Resident per-unit ε-interval metadata: the first-row cell key
        # of every unit brackets any interval bisection to ≤ 2 units.
        return [tuple(cells[i].tolist())
                for i in range(0, len(cells), self._unit_records)]

    def _set_main(self, rowids: np.ndarray, pts: np.ndarray) -> None:
        self._main_rowids = rowids
        self._main_pts = np.ascontiguousarray(pts)
        if self._dims is not None and self._main_pts.size == 0:
            self._main_pts = self._main_pts.reshape(0, self._dims)
        self._main_cells = grid_cells(self._main_pts, self.grid_epsilon) \
            if len(self._main_pts) else \
            np.empty((0, self._dims or 0), dtype=np.int64)
        self._unit_keys = self._unit_keys_of(self._main_cells)
        if len(self._main_pts):
            self._main_min = self._main_pts.min(axis=0)
            self._main_max = self._main_pts.max(axis=0)
        self._coarse_views.clear()

    def _main_view(self, width: float) -> _MainView:
        """The main run ordered (with cells and unit keys) at ``width``.

        ``width == grid_epsilon`` is the resident order itself (no
        copy).  Coarser widths cannot reuse that order — lexicographic
        order does not survive cell coarsening — so they get a
        re-ordered view, built once and cached until the main run next
        changes.
        """
        if width == self.grid_epsilon:
            return _MainView(self.grid_epsilon, self._main_rowids,
                             self._main_pts, self._main_cells,
                             self._unit_keys)
        view = self._coarse_views.get(width)
        if view is not None:
            self._coarse_views.move_to_end(width)
            return view
        order = ego_sort_order(self._main_pts, width, self._main_rowids)
        pts = np.ascontiguousarray(self._main_pts[order])
        cells = grid_cells(pts, width) if len(pts) else \
            np.empty((0, self._dims or 0), dtype=np.int64)
        view = _MainView(width, self._main_rowids[order], pts, cells,
                         self._unit_keys_of(cells))
        self._coarse_views[width] = view
        while len(self._coarse_views) > MAX_COARSE_VIEWS:
            self._coarse_views.popitem(last=False)
        return view

    def _mutated(self) -> None:
        self._version += 1
        self._invalidate_cache()
        self._update_gauges()

    def _update_gauges(self) -> None:
        self._metrics.gauge("ego_store_live_points",
                            "Live points").set(len(self._id_rowid))
        self._metrics.gauge("ego_store_delta_points",
                            "Delta-buffer rows").set(
            len(self._delta_rowids))
        self._metrics.gauge("ego_store_data_version",
                            "Data version").set(self._version)

    def _count_query(self, kind: str) -> None:
        self._counts["queries"] += 1
        self._metrics.counter("ego_store_queries_total",
                              "Queries served",
                              labelnames=("kind",)).labels(kind).inc()

    # -- cache ---------------------------------------------------------------

    def _invalidate_cache(self) -> None:
        # The staleness guard: the version was bumped before this call,
        # so no surviving entry may be keyed at (or stamped with) the
        # new version — one would mean a query result written before
        # the mutation could be served after it.
        survivors = [key for key, (version, _value) in self._cache.items()
                     if version == self._version
                     or key[-1] == self._version]
        if survivors:
            raise StaleCacheError(
                f"cache entries {survivors!r} survived to data version "
                f"{self._version}")
        self._cache.clear()

    def _cache_get(self, key: tuple):
        entry = self._cache.get(key)
        if entry is None:
            self._cache_misses += 1
            self._metrics.counter("ego_store_cache_misses_total",
                                  "Join cache misses").inc()
            return None
        version, value = entry
        if version != self._version:
            # The key embeds the version, so this is unreachable unless
            # invalidation is broken — fail loudly, never serve stale.
            raise StaleCacheError(
                f"cache entry {key!r} written at version {version} "
                f"read at version {self._version}")
        self._cache.move_to_end(key)
        self._cache_hits += 1
        self._metrics.counter("ego_store_cache_hits_total",
                              "Join cache hits").inc()
        return value

    def _cache_put(self, key: tuple, value) -> None:
        if self._cache_size <= 0:
            return
        self._cache[key] = (self._version, value)
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    # -- join machinery ------------------------------------------------------

    def _join_grid(self, eps: float) -> float:
        """Grid width a join at ``eps`` runs on.

        ε up to the grid ε rides the resident order (the pruning grid
        stays at the sort width); anything larger gets its own width —
        and hence a re-ordered main view from :meth:`_main_view`.
        """
        if eps <= self.grid_epsilon + 1e-12:
            return self.grid_epsilon
        return float(eps)

    def _make_context(self, eps: float, result: JoinResult) -> JoinContext:
        return JoinContext(epsilon=eps, result=result, kernel=self._kernel,
                           grid_epsilon=self._join_grid(eps),
                           metrics=self._metrics, trace=self._trace)

    def _delta_sequence(self, width: float) -> Optional[Sequence]:
        if not self._delta_rowids:
            return None
        d_ids = np.asarray(self._delta_rowids, dtype=np.int64)
        d_pts = np.asarray(self._delta_pts, dtype=np.float64)
        order = ego_sort_order(d_pts, width, d_ids)
        return Sequence(d_ids[order], np.ascontiguousarray(d_pts[order]),
                        width)

    def _main_interval(self, view: _MainView, lo_pt: np.ndarray,
                       hi_pt: np.ndarray) -> Tuple[int, int]:
        """Main-view slice that can contain mates of box ``[lo, hi]``.

        Lemmata 2/3 on the stored order: rows whose cells are
        lexicographically below ``cells(lo)`` (or above ``cells(hi)``)
        cannot hold a point within the box, because the first differing
        cell already separates the coordinates by more than the box
        allows (``floor_cells`` guarantees ``c·w ≤ x < (c+1)·w``).  The
        bounds are widened one ulp so float rounding of ``p ± ε`` can
        never exclude an exact-boundary mate, then clipped to the main
        run's bounding box, which holds every mate, so a box far from
        the data never maps to cells beyond the int64 range.
        """
        if len(view.rowids) == 0:
            return 0, 0
        lo_pt = np.clip(np.nextafter(lo_pt, -np.inf), self._main_min,
                        self._main_max)
        hi_pt = np.clip(np.nextafter(hi_pt, np.inf), self._main_min,
                        self._main_max)
        lo_key = tuple(grid_cells(lo_pt, view.width).tolist())
        hi_key = tuple(grid_cells(hi_pt, view.width).tolist())
        lo = self._bisect_view(view, lo_key, "left")
        hi = self._bisect_view(view, hi_key, "right")
        return lo, hi

    def _bisect_view(self, view: _MainView, key: Tuple[int, ...],
                     side: str) -> int:
        """Row-index bisection, bracketed by the per-unit metadata."""
        n = len(view.rowids)
        u_lo = bisect.bisect_left(view.unit_keys, key)
        u_hi = bisect.bisect_right(view.unit_keys, key)
        lo = max(0, (u_lo - 1) * self._unit_records)
        hi = min(n, u_hi * self._unit_records)
        cells = view.cells
        while lo < hi:
            mid = (lo + hi) // 2
            row = tuple(cells[mid].tolist())
            if row < key or (side == "right" and row == key):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _join_rowids(self, eps: float,
                     collect_distances: bool) -> JoinResult:
        """Self-join in rowid space (dead rows included, filter after)."""
        result = JoinResult(collect_distances=collect_distances)
        if self._dims is None:
            return result
        ctx = self._make_context(eps, result)
        width = ctx.grid_epsilon
        view = self._main_view(width)
        if len(view.rowids):
            seq_main = Sequence(view.rowids, view.points, width,
                                view.cells)
            join_sequences(seq_main, seq_main, ctx)
        seq_delta = self._delta_sequence(width)
        if seq_delta is not None:
            join_sequences(seq_delta, seq_delta, ctx)
            if len(view.rowids):
                d_pts = seq_delta.points
                lo, hi = self._main_interval(view,
                                             d_pts.min(axis=0) - eps,
                                             d_pts.max(axis=0) + eps)
                if hi > lo:
                    seq_slice = Sequence(view.rowids[lo:hi],
                                         view.points[lo:hi], width,
                                         view.cells[lo:hi])
                    join_sequences(seq_slice, seq_delta, ctx)
        return result

    def _canonical_user_pairs(self, result: JoinResult) -> np.ndarray:
        a, b = result.pairs()
        if len(a) == 0:
            return np.empty((0, 2), dtype=np.int64)
        live = ~(self._row_dead[a] | self._row_dead[b])
        ua = self._row_user[a[live]]
        ub = self._row_user[b[live]]
        lo = np.minimum(ua, ub)
        hi = np.maximum(ua, ub)
        order = np.lexsort((hi, lo))
        return np.stack([lo[order], hi[order]], axis=1)
