"""OPTICS density ordering from one similarity join.

The paper lists OPTICS [ABKS 99] among the data-mining algorithms that
can run on top of the similarity join.  Everything OPTICS needs within
its generating distance ε — each point's ε-neighbours *with distances*
— is exactly the output of a distance-collecting similarity self-join,
so no range queries are issued at all.

Semantics follow [ABKS 99] with the same neighbourhood convention as
:mod:`repro.apps.dbscan` (a point belongs to its own ε-neighbourhood):

* the *core distance* of ``p`` is the distance to its ``min_pts``-th
  closest object (counting ``p`` itself), undefined when fewer than
  ``min_pts`` objects lie within ε;
* the *reachability distance* of ``q`` from ``p`` is
  ``max(core_distance(p), dist(p, q))``;
* the ordering greedily expands the point with the smallest current
  reachability, seeding a fresh start (reachability undefined) whenever
  the seed list runs dry.

``OPTICSResult.extract_dbscan`` yields the flat clustering of
[ABKS 99]'s ExtractDBSCAN for any ε′ ≤ ε, equivalent to DBSCAN(ε′) up
to the assignment of border points.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.ego_join import ego_self_join
from ..core.ego_order import validate_epsilon
from ..core.result import JoinResult
from .neighborhood import symmetric_csr

UNDEFINED = np.inf


@dataclass
class OPTICSResult:
    """Cluster-ordering output of one OPTICS run."""

    ordering: np.ndarray
    reachability: np.ndarray
    core_distance: np.ndarray
    epsilon: float
    min_pts: int

    def reachability_plot(self) -> np.ndarray:
        """Reachability values in visit order (the classic OPTICS plot)."""
        return self.reachability[self.ordering]

    def extract_dbscan(self, eps_prime: float) -> np.ndarray:
        """Flat DBSCAN-equivalent labels at a threshold ε′ ≤ ε.

        Returns a label per point (``-1`` = noise), per [ABKS 99]'s
        ExtractDBSCAN scan over the cluster ordering.
        """
        validate_epsilon(eps_prime)
        if eps_prime > self.epsilon:
            raise ValueError(
                f"eps_prime {eps_prime} exceeds the generating distance "
                f"{self.epsilon}")
        labels = np.full(len(self.ordering), -1, dtype=np.int64)
        cluster = -1
        for p in self.ordering:
            if self.reachability[p] > eps_prime:
                if self.core_distance[p] <= eps_prime:
                    cluster += 1
                    labels[p] = cluster
                # else: noise (stays -1)
            else:
                labels[p] = cluster
        return labels


def optics(points: np.ndarray, epsilon: float, min_pts: int,
           join_result: Optional[JoinResult] = None) -> OPTICSResult:
    """OPTICS cluster ordering via one EGO similarity self-join.

    ``join_result`` may supply precomputed pairs, but must then have
    been collected with ``collect_distances=True``.
    """
    eps = validate_epsilon(epsilon)
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if join_result is None:
        join_result = JoinResult(collect_distances=True)
        ego_self_join(pts, eps, result=join_result)
    if not join_result.collect_distances:
        raise ValueError("OPTICS needs a distance-collecting join result")
    ids_a, ids_b = join_result.pairs()
    indptr, neighbors, ndists = symmetric_csr(n, ids_a, ids_b,
                                              join_result.distances())

    # Core distances: p itself is the closest object, so the min_pts-th
    # closest object is the (min_pts - 1)-th nearest neighbour.
    core = np.full(n, UNDEFINED)
    for p in range(n):
        lo, hi = indptr[p], indptr[p + 1]
        if hi - lo + 1 >= min_pts:
            if min_pts == 1:
                core[p] = 0.0
            else:
                nd = np.partition(ndists[lo:hi], min_pts - 2)
                core[p] = nd[min_pts - 2]

    reach = np.full(n, UNDEFINED)
    processed = np.zeros(n, dtype=bool)
    ordering: List[int] = []
    seeds: List[Tuple[float, int]] = []   # lazy-delete heap

    def update_seeds(p: int) -> None:
        cd = core[p]
        lo, hi = indptr[p], indptr[p + 1]
        for q, d in zip(neighbors[lo:hi], ndists[lo:hi]):
            q = int(q)
            if processed[q]:
                continue
            new_reach = max(cd, d)
            if new_reach < reach[q]:
                reach[q] = new_reach
                heapq.heappush(seeds, (new_reach, q))

    for start in range(n):
        if processed[start]:
            continue
        processed[start] = True
        ordering.append(start)
        if core[start] < UNDEFINED:
            update_seeds(start)
        while seeds:
            r, q = heapq.heappop(seeds)
            if processed[q] or r > reach[q]:
                continue            # stale heap entry
            processed[q] = True
            ordering.append(q)
            if core[q] < UNDEFINED:
                update_seeds(q)

    return OPTICSResult(ordering=np.array(ordering, dtype=np.int64),
                        reachability=reach, core_distance=core,
                        epsilon=eps, min_pts=min_pts)
