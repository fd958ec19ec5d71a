"""ε-neighborhood graphs built from a similarity join.

The paper's motivation (Section 1): many data-mining algorithms only
need, for every point, its neighbours within ε — which is exactly the
output of a similarity self-join.  This module turns the join's pair
list into the structures those algorithms consume: degree counts, a CSR
adjacency, connected components (single-link clustering cut at ε) via
union-find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.ego_order import validate_epsilon
from ..core.result import JoinResult
from ..core.ego_join import ego_self_join


def symmetric_csr(n: int, ids_a: np.ndarray, ids_b: np.ndarray,
                  values: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """CSR rows of the symmetric relation given by self-join pairs.

    Each unordered pair ``(a, b)`` is listed in row ``a`` and in row
    ``b``; within a row, neighbours keep pair order (a stable sort).
    ``values`` (e.g. the pair distances) ride along.  Returns
    ``(indptr, indices, row_values)``; ``row_values`` is ``None`` when
    ``values`` is.
    """
    src = np.concatenate([ids_a, ids_b])
    order = np.argsort(src, kind="stable")
    indices = np.concatenate([ids_b, ids_a])[order]
    row_values = (None if values is None
                  else np.concatenate([values, values])[order])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, indices, row_values


class UnionFind:
    """Disjoint-set forest with path halving and union by size."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        """Representative of ``x``'s set."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def labels(self) -> np.ndarray:
        """Compact 0-based component label per element."""
        roots = np.array([self.find(i) for i in range(len(self.parent))])
        _uniq, labels = np.unique(roots, return_inverse=True)
        return labels


@dataclass
class NeighborhoodGraph:
    """CSR adjacency of the ε-neighborhood relation on ``n`` points."""

    n: int
    epsilon: float
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_pairs(cls, n: int, epsilon: float, ids_a: np.ndarray,
                   ids_b: np.ndarray) -> "NeighborhoodGraph":
        """Build the graph from self-join pairs (each unordered pair once)."""
        validate_epsilon(epsilon)
        ids_a = np.asarray(ids_a, dtype=np.int64)
        ids_b = np.asarray(ids_b, dtype=np.int64)
        if len(ids_a) != len(ids_b):
            raise ValueError("pair arrays differ in length")
        indptr, indices, _ = symmetric_csr(n, ids_a, ids_b)
        return cls(n=n, epsilon=epsilon, indptr=indptr, indices=indices)

    @classmethod
    def build(cls, points: np.ndarray, epsilon: float,
              result: Optional[JoinResult] = None) -> "NeighborhoodGraph":
        """Build the graph of a point set, running an EGO self-join."""
        pts = np.asarray(points, dtype=np.float64)
        if result is None:
            result = ego_self_join(pts, epsilon)
        a, b = result.pairs()
        return cls.from_pairs(len(pts), epsilon, a, b)

    def degree(self) -> np.ndarray:
        """Number of ε-neighbours of every point (self excluded)."""
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        """Neighbour ids of point ``i``."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def connected_components(self) -> np.ndarray:
        """Component label per point (single-link clustering cut at ε)."""
        uf = UnionFind(self.n)
        starts = self.indptr[:-1]
        for i in range(self.n):
            for j in self.indices[starts[i]:self.indptr[i + 1]]:
                uf.union(i, int(j))
        return uf.labels()

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2


def epsilon_graph(points: np.ndarray, epsilon: float) -> NeighborhoodGraph:
    """Convenience: the ε-neighborhood graph of a point set via EGO join."""
    return NeighborhoodGraph.build(points, epsilon)
