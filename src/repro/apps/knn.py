"""k-nearest-neighbour graphs via similarity joins.

Nearest-neighbour methods are among the join-based algorithms the paper
motivates (nearest-neighbour clustering [HT 93], proximity analysis).
A kNN graph can be computed from similarity joins alone: run a
distance-collecting self-join at a radius estimated from the k-distance
heuristic, keep each point's k closest neighbours, and re-join with a
doubled radius while any point still has fewer than k — each round is
one join, no per-point range queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.ego_join import ego_self_join
from ..core.ego_order import validate_epsilon
from ..core.result import JoinResult
from ..data.synthetic import epsilon_for_average_neighbors
from .neighborhood import symmetric_csr


@dataclass
class KNNGraph:
    """The k nearest neighbours of every point.

    ``neighbors[i]`` and ``distances[i]`` hold point ``i``'s neighbours
    sorted by increasing distance; rows of points with fewer than ``k``
    neighbours available (tiny data sets) are padded with ``-1`` /
    ``inf``.
    """

    k: int
    neighbors: np.ndarray
    distances: np.ndarray
    rounds: int
    final_epsilon: float

    def __len__(self) -> int:
        return len(self.neighbors)

    def mean_knn_distance(self) -> float:
        """Mean distance to the k-th neighbour (density summary)."""
        kth = self.distances[:, -1]
        return float(kth[np.isfinite(kth)].mean())


def _collect(n: int, k: int, join: JoinResult
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    ids_a, ids_b = join.pairs()
    indptr, dst, dd = symmetric_csr(n, ids_a, ids_b, join.distances())
    counts = np.diff(indptr)
    neighbors = np.full((n, k), -1, dtype=np.int64)
    distances = np.full((n, k), np.inf)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        if hi == lo:
            continue
        cand_d = dd[lo:hi]
        cand_i = dst[lo:hi]
        take = min(k, hi - lo)
        sel = np.argpartition(cand_d, take - 1)[:take]
        sel = sel[np.argsort(cand_d[sel], kind="stable")]
        neighbors[i, :take] = cand_i[sel]
        distances[i, :take] = cand_d[sel]
    return neighbors, distances, counts


def knn_graph(points: np.ndarray, k: int,
              initial_epsilon: Optional[float] = None,
              max_rounds: int = 12,
              metric=None) -> KNNGraph:
    """Exact kNN graph of a point set via iterated similarity joins.

    Parameters
    ----------
    k:
        Neighbours per point (the point itself excluded).
    initial_epsilon:
        Starting join radius; defaults to the k-distance estimate.
    max_rounds:
        Safety bound on the doubling rounds.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if k < 1:
        raise ValueError("k must be at least 1")
    if n <= 1:
        return KNNGraph(k=k,
                        neighbors=np.full((n, k), -1, dtype=np.int64),
                        distances=np.full((n, k), np.inf),
                        rounds=0, final_epsilon=0.0)
    if initial_epsilon is None:
        target = min(k + 1, n - 1)
        initial_epsilon = epsilon_for_average_neighbors(
            pts, target_neighbors=target,
            sample=min(256, n))
    epsilon = validate_epsilon(initial_epsilon)

    want = min(k, n - 1)
    neighbors = distances = None
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        join = JoinResult(collect_distances=True)
        ego_self_join(pts, epsilon, result=join, metric=metric)
        neighbors, distances, counts = _collect(n, k, join)
        # A point's kNN list is final once its k-th candidate is within
        # the current radius (anything outside epsilon could still be
        # closer than a missing candidate, hence the check).
        if (counts >= want).all():
            break
        epsilon *= 2.0
    return KNNGraph(k=k, neighbors=neighbors, distances=distances,
                    rounds=rounds, final_epsilon=epsilon)


def knn_graph_from_store(store, k: int, max_rounds: int = 12
                         ) -> Tuple[np.ndarray, KNNGraph]:
    """kNN graph of an :class:`~repro.service.EGOStore`'s live points.

    The same doubling-radius recipe as :func:`knn_graph`, but every
    round is a store join — delta-aware and served from the resident
    order — starting at the store ε.  Returns ``(ids, graph)``; the
    graph's neighbour entries are *user ids* (padding stays ``-1``).
    """
    ids, _pts = store.live_points()
    n = len(ids)
    if k < 1:
        raise ValueError("k must be at least 1")
    if n <= 1:
        return ids, KNNGraph(
            k=k, neighbors=np.full((n, k), -1, dtype=np.int64),
            distances=np.full((n, k), np.inf), rounds=0,
            final_epsilon=0.0)
    lookup = {int(u): i for i, u in enumerate(ids.tolist())}
    epsilon = store.epsilon
    want = min(k, n - 1)
    neighbors = distances = None
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        join = store.join_result(epsilon, collect_distances=True)
        a, b = join.pairs()
        positional = JoinResult(collect_distances=True)
        if len(a):
            pa = np.fromiter((lookup[int(u)] for u in a.tolist()),
                             dtype=np.int64, count=len(a))
            pb = np.fromiter((lookup[int(u)] for u in b.tolist()),
                             dtype=np.int64, count=len(b))
            positional.add_batch(pa, pb, distances=join.distances())
        neighbors, distances, counts = _collect(n, k, positional)
        if (counts >= want).all():
            break
        epsilon *= 2.0
    mapped = np.where(neighbors >= 0, ids[np.clip(neighbors, 0, None)],
                      np.int64(-1))
    return ids, KNNGraph(k=k, neighbors=mapped, distances=distances,
                         rounds=rounds, final_epsilon=epsilon)
