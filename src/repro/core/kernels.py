"""High-throughput leaf kernels for the similarity join.

Section 4.2 observes that the final point-distance tests dominate the
CPU cost of the EGO join.  The ``vector`` engine in
:mod:`repro.core.distance` materialises a full ``na × nb × d``
difference cube per leaf; for the leaf sizes where numpy batching pays
off, that cube is both the memory and the time bottleneck.  This module
provides a BLAS-bound alternative:

* :func:`pairs_within_matmul` — squared Euclidean distances via the
  Gram identity ``‖p − q‖² = ‖p‖² + ‖q‖² − 2·(p·q)``, evaluated
  blockwise with GEMM so peak memory is one ``block × block`` tile
  instead of the full cube.  Borderline accepts (within a rounding
  slack of the threshold) are re-verified with exact differences, so
  the reported pair set and distances match the reference engines.
* :func:`candidate_windows` — an EGO-sorted candidate-window prefilter:
  ``searchsorted`` on the grid cells of one monotone dimension bounds
  each point's candidate range to the ±1-cell band that can contain
  join mates, shrinking the GEMM tiles before any arithmetic happens.
* :class:`ScratchBuffers` — reusable per-join scratch for the Gram
  tiles, norms and masks, so steady-state leaf joins allocate nothing
  proportional to ``block²``.
* :func:`select_engine` — the ``"auto"`` heuristic mapping leaf shape
  and metric to the fastest engine.

Counter semantics: the dense kernel has no early abort, so with
``counters`` it charges one distance calculation and ``d`` dimension
evaluations per candidate it evaluates (candidates excluded by the
window prefilter are never charged).  The scalar/vector engines
reconstruct the Figure-7 abort position instead; benchmarks that rely
on abort accounting should keep using those.
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

#: ``na*nb*d`` volume above which "auto" switches from the difference-cube
#: ``vector`` engine to the GEMM engine.  Calibrated with
#: ``benchmarks/bench_kernels.py``: the crossover sits near 64×64 points
#: at d = 8; below it the einsum/broadcast path wins on call overhead.
AUTO_MATMUL_VOLUME = 32768

#: Flush a :class:`LeafBatch` once its stacked blocks hold this many rows.
#: Large enough that one flush amortises the per-leaf Python dispatch over
#: dozens of ``minlen``-sized leaves, small enough that the stacked tiles
#: and candidate masks stay cache-resident.
DEFAULT_BATCH_POINTS = 4096

#: ...or this many leaf pairs, whichever comes first.
DEFAULT_BATCH_LEAVES = 256

#: Engines a :class:`~repro.core.sequence_join.JoinContext` accepts.
ENGINES = ("scalar", "vector", "matmul", "batched", "auto")


def select_engine(engine: str, na: int, nb: int, dimensions: int,
                  metric: Optional[Metric] = None,
                  batching: bool = False) -> str:
    """Resolve the ``"auto"`` engine choice for one leaf.

    Explicit engine names pass through unchanged (``"matmul"`` with a
    non-Euclidean metric falls back to ``"vector"`` inside
    :func:`pairs_within_matmul` — the Gram identity only holds for L2,
    and ``"batched"`` resolves to ``"vector"`` for the same reason).
    ``"auto"`` picks GEMM for large Euclidean leaves and the
    difference-cube engine otherwise; when the caller can accumulate a
    :class:`LeafBatch` (``batching=True``) the small Euclidean leaves
    that used to fall back to ``"vector"`` go to ``"batched"`` instead —
    below the GEMM crossover the bottleneck is per-leaf dispatch, which
    is exactly what batching amortises.
    """
    if engine == "batched":
        if metric is not None and metric.name != "euclidean":
            return "vector"
        return "batched"
    if engine != "auto":
        return engine
    if metric is not None and metric.name != "euclidean":
        return "vector"
    if na * nb * dimensions >= AUTO_MATMUL_VOLUME:
        return "matmul"
    return "batched" if batching else "vector"


class ScratchBuffers:
    """Reusable scratch memory for the tiled GEMM kernel.

    One instance lives on the :class:`JoinContext` of a join run, so the
    Gram tile and norm buffers are allocated once and reused by every
    leaf — the kernel's steady-state allocation is only the (small)
    candidate index arrays it returns.
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
        """A writable ``na × nb`` view for one Gram tile."""
        if na > self._gram.shape[0] or nb > self._gram.shape[1]:
            self._gram = np.empty((max(na, self._gram.shape[0]),
                                   max(nb, self._gram.shape[1])),
                                  dtype=np.float64)
        return self._gram[:na, :nb]

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
                        windows: Optional[Tuple[np.ndarray,
                                                np.ndarray]] = None,
                        scratch: Optional[ScratchBuffers] = None,
                        block: int = DEFAULT_BLOCK,
                        metrics=None):
    """All index pairs within Euclidean distance, computed with GEMM.

    Drop-in replacement for
    :func:`~repro.core.distance.pairs_within_vector` returning the same
    pair set (and, with ``return_sq_distances``, the same exact squared
    distances — every accept within the rounding slack of the threshold
    is re-verified from exact differences).  ``windows`` is an optional
    ``(lo, hi)`` pair from :func:`candidate_windows` restricting each
    ``a`` row's candidates; ``order`` is accepted for interface parity
    (a dense kernel has no abort position, so the evaluation order is
    irrelevant).

    ``metrics`` is an optional :class:`~repro.obs.metrics.MetricsRegistry`
    counting GEMM tiles and exactly re-verified candidates; ``None``
    (the default) keeps this module free of any observability work.

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
    center = 0.5 * (a.mean(axis=0) + b.mean(axis=0))
    a = a - center
    b = b - center

    norms_a = scratch.norms(a, "a")
    norms_b = scratch.norms(b, "b")
    slack = _euclidean_slack(norms_a, norms_b, a.shape[1])
    lo = hi = None
    if windows is not None:
        lo, hi = windows

    out_a, out_b, out_d = [], [], []
    candidates_evaluated = 0
    gemm_tiles = 0
    reverified = 0
    for i0 in range(0, na, block):
        i1 = min(i0 + block, na)
        # The union of this row block's windows: windows are contiguous
        # in b, so the block only needs the covering range.  (The rows'
        # cells in the window dimension need not be monotone when a and
        # b are different slices, hence min/max over the block.)
        if lo is not None:
            j_start = int(lo[i0:i1].min())
            j_end = int(hi[i0:i1].max())
        else:
            j_start, j_end = 0, nb
        if upper_triangle:
            j_start = max(j_start, i0 + 1)
        if j_start >= j_end:
            continue
        a_blk = a[i0:i1]
        for j0 in range(j_start, j_end, block):
            j1 = min(j0 + block, j_end)
            b_blk = b[j0:j1]
            gram = scratch.gram_tile(i1 - i0, j1 - j0)
            gemm_tiles += 1
            np.matmul(a_blk, b_blk.T, out=gram)
            d2 = (norms_a[i0:i1, None] + norms_b[None, j0:j1]
                  - 2.0 * gram)
            mask = d2 <= eps_sq + slack
            if lo is not None:
                cols = np.arange(j0, j1, dtype=np.intp)
                in_window = ((cols[None, :] >= lo[i0:i1, None])
                             & (cols[None, :] < hi[i0:i1, None]))
                if counters is not None:
                    if upper_triangle:
                        rows = np.arange(i0, i1, dtype=np.intp)
                        candidates_evaluated += int(
                            (in_window
                             & (cols[None, :] > rows[:, None])).sum())
                    else:
                        candidates_evaluated += int(in_window.sum())
                mask &= in_window
            elif counters is not None:
                if upper_triangle:
                    rows = np.arange(i0, i1, dtype=np.intp)
                    cols = np.arange(j0, j1, dtype=np.intp)
                    candidates_evaluated += int(
                        (cols[None, :] > rows[:, None]).sum())
                else:
                    candidates_evaluated += (i1 - i0) * (j1 - j0)
            if upper_triangle:
                rows = np.arange(i0, i1, dtype=np.intp)
                cols = np.arange(j0, j1, dtype=np.intp)
                mask &= cols[None, :] > rows[:, None]
            ci, cj = np.nonzero(mask)
            if len(ci) == 0:
                continue
            # Exact re-verification of the accepts: the Gram identity's
            # rounding must neither admit nor drop boundary pairs, so
            # the final decision (and the reported distance) comes from
            # exact differences of the original (uncentered) rows only.
            diffs = a0[i0:i1][ci] - b0[j0:j1][cj]
            reverified += len(ci)
            exact = np.einsum("ij,ij->i", diffs, diffs)
            keep = exact <= eps_sq
            if not keep.any():
                continue
            out_a.append((ci[keep] + i0).astype(np.intp))
            out_b.append((cj[keep] + j0).astype(np.intp))
            if return_sq_distances:
                out_d.append(exact[keep])
    if counters is not None:
        counters.distance_calculations += candidates_evaluated
        counters.dimension_evaluations += candidates_evaluated * a.shape[1]
    if metrics is not None:
        metrics.counter(
            "ego_gemm_tiles_total",
            "GEMM tiles evaluated by the matmul leaf kernel").inc(gemm_tiles)
        metrics.counter(
            "ego_gemm_reverified_total",
            "Borderline GEMM accepts re-verified with exact differences",
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


class LeafBatch:
    """Accumulator of leaf-pair candidate blocks for the batched engine.

    The sequence join appends each leaf pair's point blocks (plus their
    candidate windows and triangle flag) instead of dispatching a kernel
    per pair; once :attr:`full`, :func:`pairs_within_batched` evaluates
    every accumulated pair with one fused, tiled GEMM over the stacked
    blocks.  The batch stores raw arrays and opaque ``payloads`` only —
    this stacked-block interface is the seam a CuPy/torch array-module
    backend plugs into.
    """

    __slots__ = ("max_points", "max_leaves", "blocks_a", "blocks_b",
                 "windows", "upper", "payloads", "points")

    def __init__(self, max_points: int = DEFAULT_BATCH_POINTS,
                 max_leaves: int = DEFAULT_BATCH_LEAVES) -> None:
        if max_points < 1:
            raise ValueError(f"max_points must be positive, got {max_points}")
        if max_leaves < 1:
            raise ValueError(f"max_leaves must be positive, got {max_leaves}")
        self.max_points = int(max_points)
        self.max_leaves = int(max_leaves)
        self.blocks_a = []
        self.blocks_b = []
        self.windows = []
        self.upper = []
        self.payloads = []
        self.points = 0

    def __len__(self) -> int:
        return len(self.blocks_a)

    @property
    def full(self) -> bool:
        """True once the batch should be flushed."""
        return (self.points >= self.max_points
                or len(self.blocks_a) >= self.max_leaves)

    def add(self, a: np.ndarray, b: np.ndarray,
            windows: Optional[Tuple[np.ndarray, np.ndarray]],
            upper_triangle: bool, payload=None) -> None:
        """Append one leaf pair's blocks (kept by reference, not copied)."""
        self.blocks_a.append(a)
        self.blocks_b.append(b)
        self.windows.append(windows)
        self.upper.append(bool(upper_triangle))
        self.payloads.append(payload)
        self.points += len(a) + len(b)

    def clear(self) -> None:
        """Drop all accumulated blocks."""
        self.blocks_a.clear()
        self.blocks_b.clear()
        self.windows.clear()
        self.upper.clear()
        self.payloads.clear()
        self.points = 0


def pairs_within_batched(batch: LeafBatch, eps_sq: float,
                         counters: Optional[CPUCounters] = None,
                         return_sq_distances: bool = False,
                         scratch: Optional[ScratchBuffers] = None,
                         block: int = DEFAULT_BLOCK,
                         metrics=None):
    """Evaluate every leaf pair in ``batch`` with one fused, tiled GEMM.

    The stacked ``a`` blocks form the row space and the stacked ``b``
    blocks the column space of a single Gram evaluation; each global
    ``a`` row carries a contiguous candidate range ``[low, high)`` into
    the stacked columns that simultaneously encodes which entry the row
    belongs to, its candidate window and (for self-pairs) the
    upper-triangle constraint, so the tile loop is structurally the one
    from :func:`pairs_within_matmul`.  All near-threshold accepts across
    the whole batch are re-verified in one vectorized pass from the
    original rows, then scattered back per leaf pair in deterministic
    row-major order — the per-pair results (and distances) are exactly
    those of the per-leaf engines.

    Returns a list with one ``(ia, ib)`` (or ``(ia, ib, sq_distances)``)
    tuple per batch entry, in insertion order.
    """
    entries = len(batch)
    if entries == 0:
        return []
    if scratch is None:
        scratch = ScratchBuffers(block)
    else:
        block = scratch.block

    na_sizes = np.array([len(blk) for blk in batch.blocks_a], dtype=np.intp)
    nb_sizes = np.array([len(blk) for blk in batch.blocks_b], dtype=np.intp)
    a_off = np.zeros(entries + 1, dtype=np.intp)
    b_off = np.zeros(entries + 1, dtype=np.intp)
    np.cumsum(na_sizes, out=a_off[1:])
    np.cumsum(nb_sizes, out=b_off[1:])
    total_a, total_b = int(a_off[-1]), int(b_off[-1])
    dims = batch.blocks_a[0].shape[1]

    def _empty():
        return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))

    if total_a == 0 or total_b == 0:
        out = []
        for _ in range(entries):
            ia, ib = _empty()
            out.append((ia, ib, np.empty(0, dtype=np.float64))
                       if return_sq_distances else (ia, ib))
        return out

    # Stack the blocks, centering each pair by its joint mean (see
    # pairs_within_matmul) so the slack reflects spread, not magnitude.
    # The original stacks feed the exact re-verification.
    stack_a0 = np.concatenate(batch.blocks_a) if entries > 1 \
        else np.asarray(batch.blocks_a[0])
    stack_b0 = np.concatenate(batch.blocks_b) if entries > 1 \
        else np.asarray(batch.blocks_b[0])
    stack_a = np.empty_like(stack_a0)
    stack_b = np.empty_like(stack_b0)
    low = np.empty(total_a, dtype=np.intp)
    high = np.empty(total_a, dtype=np.intp)
    for e in range(entries):
        blk_a, blk_b = batch.blocks_a[e], batch.blocks_b[e]
        sa, sb = a_off[e], b_off[e]
        if len(blk_a) and len(blk_b):
            center = 0.5 * (blk_a.mean(axis=0) + blk_b.mean(axis=0))
        else:
            center = 0.0
        stack_a[sa:sa + len(blk_a)] = blk_a - center
        stack_b[sb:sb + len(blk_b)] = blk_b - center
        win = batch.windows[e]
        if win is not None:
            low[sa:sa + len(blk_a)] = sb + win[0]
            high[sa:sa + len(blk_a)] = sb + win[1]
        else:
            low[sa:sa + len(blk_a)] = sb
            high[sa:sa + len(blk_a)] = sb + len(blk_b)
        if batch.upper[e]:
            np.maximum(low[sa:sa + len(blk_a)],
                       sb + np.arange(1, len(blk_a) + 1, dtype=np.intp),
                       out=low[sa:sa + len(blk_a)])

    norms_a = scratch.norms(stack_a, "a")
    norms_b = scratch.norms(stack_b, "b")
    slack = _euclidean_slack(norms_a, norms_b, dims)

    rows_out, cols_out = [], []
    candidates_evaluated = 0
    gemm_tiles = 0
    for i0 in range(0, total_a, block):
        i1 = min(i0 + block, total_a)
        j_start = int(low[i0:i1].min())
        j_end = int(high[i0:i1].max())
        if j_start >= j_end:
            continue
        a_blk = stack_a[i0:i1]
        lo_blk = low[i0:i1, None]
        hi_blk = high[i0:i1, None]
        for j0 in range(j_start, j_end, block):
            j1 = min(j0 + block, j_end)
            gram = scratch.gram_tile(i1 - i0, j1 - j0)
            gemm_tiles += 1
            np.matmul(a_blk, stack_b[j0:j1].T, out=gram)
            d2 = (norms_a[i0:i1, None] + norms_b[None, j0:j1]
                  - 2.0 * gram)
            cols = np.arange(j0, j1, dtype=np.intp)
            in_range = (cols[None, :] >= lo_blk) & (cols[None, :] < hi_blk)
            if counters is not None:
                candidates_evaluated += int(in_range.sum())
            mask = (d2 <= eps_sq + slack) & in_range
            ci, cj = np.nonzero(mask)
            if len(ci):
                rows_out.append((ci + i0).astype(np.intp))
                cols_out.append((cj + j0).astype(np.intp))

    if rows_out:
        rows = np.concatenate(rows_out)
        cols = np.concatenate(cols_out)
        # One deterministic row-major order across the batch: rows of an
        # entry are contiguous, so per-entry segments come out sorted
        # exactly like the per-leaf engines emit them.
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        # Single vectorized exact re-verification pass over all
        # near-threshold candidates, from the original (uncentered) rows.
        diffs = stack_a0[rows] - stack_b0[cols]
        exact = np.einsum("ij,ij->i", diffs, diffs)
        keep = exact <= eps_sq
        reverified = len(rows)
        rows, cols, exact = rows[keep], cols[keep], exact[keep]
    else:
        rows = cols = np.empty(0, dtype=np.intp)
        exact = np.empty(0, dtype=np.float64)
        reverified = 0

    if counters is not None:
        counters.distance_calculations += candidates_evaluated
        counters.dimension_evaluations += candidates_evaluated * dims
    if metrics is not None:
        metrics.counter(
            "ego_gemm_tiles_total",
            "GEMM tiles evaluated by the matmul leaf kernel").inc(gemm_tiles)
        metrics.counter(
            "ego_gemm_reverified_total",
            "Borderline GEMM accepts re-verified with exact differences",
        ).inc(reverified)
        metrics.counter(
            "ego_kernel_batches_total",
            "LeafBatch flushes evaluated by the batched engine").inc()
        metrics.histogram(
            "ego_kernel_batch_leaves",
            "Leaf pairs per batched-kernel flush").observe(entries)
        metrics.histogram(
            "ego_kernel_batch_points",
            "Stacked rows per batched-kernel flush").observe(batch.points)

    starts = np.searchsorted(rows, a_off[:-1], side="left")
    ends = np.searchsorted(rows, a_off[1:], side="left")
    results = []
    for e in range(entries):
        s, t = int(starts[e]), int(ends[e])
        ia = rows[s:t] - a_off[e]
        ib = cols[s:t] - b_off[e]
        if return_sq_distances:
            results.append((ia, ib, exact[s:t]))
        else:
            results.append((ia, ib))
    return results
