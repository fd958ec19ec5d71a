"""The GEMM leaf kernel of the similarity join.

Section 4.2 observes that the final point-distance tests dominate the
CPU cost of the EGO join.  In this numpy reproduction the cost of a
small leaf is per-call overhead rather than arithmetic, and the
``vector`` engine in :mod:`repro.core.distance` materialises a full
``na × nb × d`` difference cube per leaf.  This module decides the
same pairs with the same exact distances by dense linear algebra:

* :func:`pairs_within_matmul` — squared Euclidean distances via the
  Gram identity ``‖p − q‖² = ‖p‖² + ‖q‖² − 2·(p·q)``, evaluated
  blockwise with GEMM so peak memory is one ``block × block`` tile
  instead of the full cube.  Borderline accepts (within a rounding
  slack of the threshold) are re-verified with exact differences, so
  the reported pair set and distances match the reference engines.
  It decides every leaf of the Figure-6 recursion under the ``auto``
  engine on Euclidean data — a leaf there is one tile of at most
  ``DEFAULT_BLOCK²`` pairs (:mod:`repro.core.sequence_join`) — and
  the LSH join verifies its large buckets with it
  (:mod:`repro.joins.lsh_join`).
* :func:`candidate_windows` — an EGO-sorted candidate-window prefilter:
  ``searchsorted`` on the grid cells of one monotone dimension bounds
  each point's candidate range to the ±1-cell band that can contain
  join mates.
* :class:`ScratchBuffers` — reusable scratch for the Gram tiles and
  norms, so steady-state GEMM calls allocate nothing proportional to
  ``block²``.

Counter semantics: the kernel has no early abort, so with ``counters``
it charges one distance calculation and ``d`` dimension evaluations per
candidate it evaluates (candidates excluded by the upper triangle are
never charged).  The scalar/vector engines reconstruct the
Figure-7 abort position instead; benchmarks that rely on abort
accounting should keep using those.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..storage.stats import CPUCounters
from .ego_order import floor_cells
from .metrics import Metric

#: Rows/columns of one GEMM tile.  256×256 tiles keep the Gram matrix,
#: the candidate mask and the distance tile inside the L2 cache while
#: still amortising the BLAS call overhead.
DEFAULT_BLOCK = 256


class ScratchBuffers:
    """Reusable scratch memory for the tiled GEMM kernel.

    One instance lives for a whole LSH join run, or for one sequence
    join context, so the Gram tile and norm buffers are allocated once
    and reused by every bucket or leaf — the kernel's steady-state
    allocation is only the (small) candidate index arrays it returns.
    """

    __slots__ = ("block", "_gram", "_norms_a", "_norms_b")

    def __init__(self, block: int = DEFAULT_BLOCK) -> None:
        if block < 1:
            raise ValueError(f"block must be positive, got {block}")
        self.block = block
        self._gram = np.empty((block, block), dtype=np.float64)
        self._norms_a = np.empty(block, dtype=np.float64)
        self._norms_b = np.empty(block, dtype=np.float64)

    def gram_tile(self, na: int, nb: int) -> np.ndarray:
        """A writable, C-contiguous ``na × nb`` view for one Gram tile."""
        if na * nb > self._gram.size:
            self._gram = np.empty((na, nb), dtype=np.float64)
        return self._gram.reshape(-1)[:na * nb].reshape(na, nb)

    def norms(self, points: np.ndarray, which: str) -> np.ndarray:
        """Squared row norms of ``points`` into a reused buffer.

        The returned view is valid until the *next* ``norms`` call with
        the same ``which``; the ``"a"`` and ``"b"`` slots are backed by
        separate buffers, so growing one never moves (or aliases) a view
        handed out for the other.  A stale view from a previous call
        with the same slot keeps its old backing memory alive — it stays
        readable but no longer tracks the buffer, which is why every
        kernel in this module takes both norms before touching either.
        """
        if which not in ("a", "b"):
            raise ValueError(f"which must be 'a' or 'b', got {which!r}")
        n = len(points)
        buf = self._norms_a if which == "a" else self._norms_b
        if n > len(buf):
            buf = np.empty(n, dtype=np.float64)
            if which == "a":
                self._norms_a = buf
            else:
                self._norms_b = buf
        out = buf[:n]
        np.einsum("ij,ij->i", points, points, out=out)
        return out


def candidate_windows(a: np.ndarray, b: np.ndarray, dim: int,
                      cell_width: float,
                      cells_a: Optional[np.ndarray] = None,
                      cells_b: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row candidate ranges ``[lo, hi)`` of ``a`` into ``b``.

    Requires the grid cells of ``b[:, dim]`` (width ``cell_width``) to
    be non-decreasing, which holds for any contiguous slice of an
    EGO-sorted array in its active dimension (every earlier dimension is
    cell-constant across the slice, so the lexicographic order sorts the
    slice by this dimension's cells).  A joining pair satisfies
    ``|p_dim − q_dim| ≤ ε ≤ cell_width``, so its cells differ by at most
    one: the candidates of a point in cell ``c`` are exactly the ``b``
    rows in cells ``c−1 … c+1``, located with two ``searchsorted`` calls.

    Cells come from the same rounding-safe
    :func:`~repro.core.ego_order.floor_cells` as the grid order itself
    (a raw ``np.floor(x / w)`` can place a boundary coordinate one cell
    high for negative or large-magnitude data, silently disagreeing with
    the cells the sort used).  Callers that already hold those cells
    (a :class:`~repro.core.sequence.Sequence` carries them) pass the
    ``dim`` columns as ``cells_a`` / ``cells_b``; only a missing side is
    computed here.
    """
    if cells_b is None:
        cells_b = floor_cells(b[:, dim], cell_width)
    if cells_a is None:
        cells_a = floor_cells(a[:, dim], cell_width)
    lo = np.searchsorted(cells_b, cells_a - 1, side="left")
    hi = np.searchsorted(cells_b, cells_a + 1, side="right")
    return lo.astype(np.intp), hi.astype(np.intp)


def _euclidean_slack(norms_a: np.ndarray, norms_b: np.ndarray,
                     dimensions: int) -> float:
    """Upper bound on the rounding error of the Gram-identity distances.

    The expansion ``‖p‖² + ‖q‖² − 2 p·q`` accumulates roundoff
    proportional to ``(‖p‖ + ‖q‖)²``; candidates within this slack of
    the threshold are re-verified exactly, so the bound only needs to be
    generous, not tight.  Callers feed *centered* norms (blocks shifted
    by their joint mean — distances are translation-invariant), so the
    scale here is the blocks' spread, not their distance from the
    origin; the margin also covers the rounding of the centering
    subtraction itself, which is of the same (centered) order.
    """
    max_a = float(norms_a.max()) if len(norms_a) else 0.0
    max_b = float(norms_b.max()) if len(norms_b) else 0.0
    scale = (np.sqrt(max_a) + np.sqrt(max_b)) ** 2
    eps = np.finfo(np.float64).eps
    return 64.0 * eps * max(dimensions, 1) * max(scale, 1e-300)


def pairs_within_matmul(a: np.ndarray, b: np.ndarray, eps_sq: float,
                        order: np.ndarray,
                        counters: Optional[CPUCounters] = None,
                        upper_triangle: bool = False,
                        return_sq_distances: bool = False,
                        metric: Optional[Metric] = None,
                        scratch: Optional[ScratchBuffers] = None,
                        block: int = DEFAULT_BLOCK,
                        metrics=None):
    """All index pairs within Euclidean distance, computed with GEMM.

    Drop-in replacement for
    :func:`~repro.core.distance.pairs_within_vector` returning the same
    pair set (and, with ``return_sq_distances``, the same exact squared
    distances — every accept within the rounding slack of the threshold
    is re-verified from exact differences).  ``order`` is accepted for
    interface parity (a dense kernel has no abort position, so the
    evaluation order is irrelevant).

    ``metrics`` is a metrics registry: it is charged the Gram-filter
    accepts re-checked from exact differences
    (``ego_gemm_reverified_total``).

    Non-Euclidean metrics delegate to the difference-cube engine: the
    Gram identity is specific to L2.
    """
    if metric is not None and metric.name != "euclidean":
        from .distance import pairs_within_vector
        return pairs_within_vector(
            a, b, eps_sq, order, counters=counters,
            upper_triangle=upper_triangle,
            return_sq_distances=return_sq_distances, metric=metric)
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        if return_sq_distances:
            return empty + (np.empty(0, dtype=np.float64),)
        return empty
    if scratch is None:
        scratch = ScratchBuffers(block)
    else:
        block = scratch.block

    # Center the block pair before the Gram expansion: distances are
    # translation-invariant, but the expansion's roundoff is not — for
    # data far from the origin the raw norms would force nearly every
    # candidate through exact re-verification.  The exact re-check below
    # still reads the *original* rows, so boundary decisions (and the
    # reported distances) stay bit-identical to the reference engines.
    a0, b0 = a, b
    center = 0.5 * (a.sum(axis=0) / na + b.sum(axis=0) / nb)
    a = a - center
    b = b - center

    norms_a = scratch.norms(a, "a")
    norms_b = scratch.norms(b, "b")
    slack = _euclidean_slack(norms_a, norms_b, a.shape[1])

    out_a, out_b, out_d = [], [], []
    candidates_evaluated = reverified = 0
    for i0 in range(0, na, block):
        i1 = min(i0 + block, na)
        j_start = i0 + 1 if upper_triangle else 0
        a_blk = a[i0:i1]
        for j0 in range(j_start, nb, block):
            j1 = min(j0 + block, nb)
            gram = scratch.gram_tile(i1 - i0, j1 - j0)
            np.matmul(a_blk, b[j0:j1].T, out=gram)
            # ‖p‖² + ‖q‖² − 2·p·q in place; the slack absorbs the order.
            gram *= -2.0
            gram += norms_a[i0:i1, None]
            gram += norms_b[None, j0:j1]
            ci, cj = np.divmod(np.flatnonzero(gram <= eps_sq + slack),
                               j1 - j0)
            ci += i0
            cj += j0
            # On a tile that reaches the diagonal each row's candidates
            # are the columns of the strict upper triangle, [start, j1).
            # Accepts outside them are dropped.
            if upper_triangle and j0 < i1:
                start = np.maximum(np.arange(i0 + 1, i1 + 1), j0)
                if counters is not None:
                    candidates_evaluated += int(
                        np.maximum(j1 - start, 0).sum())
                keep = cj >= start[ci - i0]
                ci, cj = ci[keep], cj[keep]
            elif counters is not None:
                candidates_evaluated += (i1 - i0) * (j1 - j0)
            reverified += len(ci)
            if len(ci) == 0:
                continue
            # Exact re-verification of the accepts: the Gram identity's
            # rounding must neither admit nor drop boundary pairs, so
            # the final decision (and the reported distance) comes from
            # exact differences of the original (uncentered) rows only.
            diffs = a0[ci] - b0[cj]
            exact = np.einsum("ij,ij->i", diffs, diffs)
            keep = exact <= eps_sq
            if not keep.any():
                continue
            out_a.append(ci[keep])
            out_b.append(cj[keep])
            if return_sq_distances:
                out_d.append(exact[keep])
    if counters is not None:
        counters.distance_calculations += candidates_evaluated
        counters.dimension_evaluations += candidates_evaluated * a.shape[1]
    if metrics is not None:
        metrics.counter(
            "ego_gemm_reverified_total",
            "Gram-filter accepts re-checked with exact differences"
        ).inc(reverified)
    if out_a:
        ia = np.concatenate(out_a)
        ib = np.concatenate(out_b)
    else:
        ia = np.empty(0, dtype=np.intp)
        ib = np.empty(0, dtype=np.intp)
    if return_sq_distances:
        dist = (np.concatenate(out_d) if out_d
                else np.empty(0, dtype=np.float64))
        return ia, ib, dist
    return ia, ib
