"""A reusable EGO-sorted index for repeated queries and joins.

The epsilon grid order is a *sort order*, so once a data set is sorted
it can serve many operations without any further structure — the
property Section 3 of the paper emphasises ("no directory structure
needs to be constructed").  :class:`EGOIndex` materialises that idea as
an object: sort once, then

* run ε-range queries (Lemma 2/3 restrict candidates to one contiguous
  slice of the order, found by binary search),
* count neighbours,
* self-join, or join against another index built with the same ε,

all without re-sorting.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import numpy as np

from ..storage.stats import CPUCounters
from .ego_order import (ego_sorted, ensure_finite, grid_cells,
                        validate_epsilon)
from .metrics import get_metric
from .result import JoinResult
from .sequence import Sequence
from .sequence_join import DEFAULT_MINLEN, JoinContext, join_sequences


class EGOIndex:
    """An EGO-sorted point set supporting queries and joins at ε.

    Parameters
    ----------
    points:
        The data set (finite coordinates).
    epsilon:
        The grid cell length.  Range queries accept any radius up to
        ``epsilon`` (the candidate slice is only valid within it).
    ids:
        Optional external ids; defaults to input row positions.
    metric:
        Distance for refinement (default Euclidean).
    """

    def __init__(self, points: np.ndarray, epsilon: float,
                 ids: Optional[np.ndarray] = None,
                 metric=None) -> None:
        self.epsilon = validate_epsilon(epsilon)
        self.metric = get_metric(metric)
        pts = ensure_finite(points)
        if pts.ndim != 2:
            raise ValueError(
                f"points must be 2-dimensional, got {pts.shape}")
        self.ids, self.points = ego_sorted(pts, self.epsilon, ids)
        self._cells = grid_cells(self.points, self.epsilon)
        self._keys: Optional[List[Tuple[int, ...]]] = None

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dimensions(self) -> int:
        """Dimensionality of the indexed points."""
        return self.points.shape[1] if len(self.points) else 0

    def _key_list(self) -> List[Tuple[int, ...]]:
        if self._keys is None:
            self._keys = [tuple(row) for row in self._cells.tolist()]
        return self._keys

    def _candidate_slice(self, center: np.ndarray) -> Tuple[int, int]:
        """The ε-interval of ``center`` as a slice of the sorted order."""
        cells = grid_cells(center, self.epsilon)
        keys = self._key_list()
        lo = bisect.bisect_left(keys, tuple((cells - 1).tolist()))
        hi = bisect.bisect_right(keys, tuple((cells + 1).tolist()))
        return lo, hi

    def range_query(self, center: np.ndarray, radius: Optional[float] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ids and distances of all points within ``radius`` of ``center``.

        ``radius`` defaults to the index ε and must not exceed it.
        """
        c = ensure_finite(np.atleast_1d(np.asarray(center, dtype=float)))
        if c.shape != (self.dimensions,) and len(self.points):
            raise ValueError(
                f"center must have shape ({self.dimensions},), "
                f"got {c.shape}")
        r = self.epsilon if radius is None else float(radius)
        if r < 0:
            raise ValueError("radius must be non-negative")
        if r > self.epsilon:
            raise ValueError(
                f"radius {r} exceeds the index epsilon {self.epsilon}")
        if len(self.points) == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0))
        lo, hi = self._candidate_slice(c)
        block = self.points[lo:hi]
        if len(block) == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0))
        diffs = block - c
        contrib = self.metric.contributions(diffs)
        combined = contrib.max(axis=1) if self.metric.combine_max \
            else contrib.sum(axis=1)
        within = combined <= self.metric.threshold(r)
        dists = self.metric.finalize(combined[within])
        return self.ids[lo:hi][within], np.asarray(dists)

    def count_neighbors(self, center: np.ndarray,
                        radius: Optional[float] = None) -> int:
        """Number of indexed points within ``radius`` of ``center``."""
        ids, _ = self.range_query(center, radius)
        return len(ids)

    # -- joins -----------------------------------------------------------

    def _context(self, result: JoinResult, minlen: int,
                 cpu: Optional[CPUCounters],
                 epsilon: Optional[float] = None) -> JoinContext:
        eps_join = self.epsilon if epsilon is None else float(epsilon)
        if eps_join > self.epsilon + 1e-12:
            raise ValueError(
                f"join epsilon {eps_join} exceeds the index epsilon "
                f"{self.epsilon}")
        return JoinContext(epsilon=eps_join, result=result,
                           minlen=minlen, cpu=cpu, metric=self.metric,
                           grid_epsilon=self.epsilon)

    def self_join(self, minlen: int = DEFAULT_MINLEN,
                  result: Optional[JoinResult] = None,
                  cpu: Optional[CPUCounters] = None,
                  epsilon: Optional[float] = None) -> JoinResult:
        """Similarity self-join (no re-sorting).

        ``epsilon`` may be any value up to the index ε — a parameter
        sweep runs entirely on the one sorted array.
        """
        if result is None:
            result = JoinResult()
        if len(self.points) == 0:
            return result
        ctx = self._context(result, minlen, cpu, epsilon)
        seq = Sequence(self.ids, self.points, self.epsilon, self._cells)
        join_sequences(seq, seq, ctx)
        return result

    def join(self, other: "EGOIndex", minlen: int = DEFAULT_MINLEN,
             result: Optional[JoinResult] = None,
             cpu: Optional[CPUCounters] = None,
             epsilon: Optional[float] = None) -> JoinResult:
        """Similarity join against another index built with the same ε."""
        if abs(other.epsilon - self.epsilon) > 1e-12:
            raise ValueError(
                f"epsilon mismatch: {self.epsilon} vs {other.epsilon}")
        if other.dimensions != self.dimensions and len(self.points) \
                and len(other.points):
            raise ValueError(
                f"dimension mismatch: {self.dimensions} vs "
                f"{other.dimensions}")
        if result is None:
            result = JoinResult()
        if len(self.points) == 0 or len(other.points) == 0:
            return result
        ctx = self._context(result, minlen, cpu, epsilon)
        join_sequences(Sequence(self.ids, self.points, self.epsilon,
                                self._cells),
                       Sequence(other.ids, other.points, self.epsilon),
                       ctx)
        return result
