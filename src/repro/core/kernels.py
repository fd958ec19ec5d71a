"""High-throughput leaf kernels for the similarity join.

Section 4.2 observes that the final point-distance tests dominate the
CPU cost of the EGO join.  In this numpy reproduction the cost of a
small leaf is per-call overhead rather than arithmetic, and the
``vector`` engine in :mod:`repro.core.distance` materialises a full
``na × nb × d`` difference cube per leaf.  This module provides two
alternatives that decide the same pairs with the same exact distances:

* :class:`LeafBatch` and :func:`pairs_within_batched` — the Euclidean
  leaf path of the Figure-6 recursion (engine ``"auto"``).  The
  recursion records each leaf as index ranges into its two blocks; a
  flush finds every row's candidate window with one ``searchsorted``
  and decides every candidate with the exact sum of squared
  differences, gathered in fixed-size chunks.  The record is bounded
  at ``DEFAULT_BATCH_VOLUME`` candidate pairs and the gather's scratch
  at ``DEFAULT_GATHER_CHUNK × d`` floats per side.
* :func:`pairs_within_matmul` — one block pair at a time, squared
  Euclidean distances via the Gram identity
  ``‖p − q‖² = ‖p‖² + ‖q‖² − 2·(p·q)``, evaluated blockwise with GEMM
  so peak memory is one ``block × block`` tile instead of the full
  cube.  Borderline accepts (within a rounding slack of the threshold)
  are re-verified with exact differences, so the reported pair set and
  distances match the reference engines.  The LSH join verifies its
  large buckets with it (:mod:`repro.joins.lsh_join`).
* :func:`candidate_windows` — an EGO-sorted candidate-window prefilter:
  ``searchsorted`` on the grid cells of one monotone dimension bounds
  each point's candidate range to the ±1-cell band that can contain
  join mates (the rule the gather pass applies to a whole batch).
* :class:`ScratchBuffers` — reusable scratch for the Gram tiles and
  norms, so steady-state GEMM calls allocate nothing proportional to
  ``block²``.

Counter semantics: neither kernel has an early abort, so with
``counters`` each charges one distance calculation and ``d`` dimension
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

#: Flush a :class:`LeafBatch` once its leaves hold this many candidate
#: pairs (Σ |a|·|b|).  A flush then pays its fixed numpy calls for
#: dozens of ``minlen``-sized leaves, while the pairs it holds back
#: stay a small fraction of a join's memory.
DEFAULT_BATCH_VOLUME = 65536

#: Candidates expanded and decided per gather step of a flush.  Bounds
#: the flush's scratch to a few ``chunk × d`` float arrays, which at
#: d = 16 (512 KB each) stay in a 2 MB L2 cache: in a micro-benchmark
#: of the gather, 16,384-candidate chunks cost 3–5× more per candidate.
DEFAULT_GATHER_CHUNK = 4096

#: Bound on a flush's packed window keys (see :func:`pairs_within_batched`).
_KEY_ROOM = 1 << 62

#: Key gap between consecutive leaves.  A row's window bounds reach
#: three keys past its leaf's cells (two of clipping, one of the
#: window), so the cells of neighbouring leaves must be four apart.
_KEY_PAD = 4

#: Triangle shift of a leaf that is not a range joined with itself:
#: far below any window start, so it never moves one.
_NO_TRIANGLE = -(1 << 62)

class ScratchBuffers:
    """Reusable scratch memory for the tiled GEMM kernel.

    One instance lives for a whole LSH join run, so the Gram tile and
    norm buffers are allocated once and reused by every bucket — the
    kernel's steady-state allocation is only the (small) candidate
    index arrays it returns.
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
                        block: int = DEFAULT_BLOCK):
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
    """Leaf pairs of one sequence join, recorded as index ranges.

    The ``auto`` engine does not evaluate a Euclidean leaf when the
    recursion reaches it: it records the leaf's rows ``[a_lo, a_hi)`` of
    block ``a``, rows ``[b_lo, b_hi)`` of block ``b``, its triangle flag
    and the dimension its candidate window runs in.  Once :attr:`full`
    (or when the join returns), :func:`pairs_within_batched` decides
    every recorded leaf in one gather pass.  All leaves of a batch
    index the same two blocks, bound by :meth:`bind`.

    Memory: a leaf costs three small tuples.  A batch is full at
    ``max_volume`` candidate pairs (Σ |a|·|b| over its leaves), and a
    flush gathers ``chunk`` candidates at a time, so the deferral holds
    O(max_volume) result pairs and O(chunk · d) floats of scratch.
    """

    __slots__ = ("max_volume", "chunk", "points_a", "cells_a", "points_b",
                 "cells_b", "leaves", "row_keys", "col_keys", "n_rows",
                 "n_cols", "volume", "key_end", "_gathered")

    def __init__(self, max_volume: int = DEFAULT_BATCH_VOLUME,
                 chunk: int = DEFAULT_GATHER_CHUNK) -> None:
        if max_volume < 1:
            raise ValueError(f"max_volume must be positive, got {max_volume}")
        if chunk < 1:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.max_volume = int(max_volume)
        self.chunk = int(chunk)
        self.points_a = self.cells_a = self.points_b = self.cells_b = None
        self.leaves = []
        self.row_keys = []
        self.col_keys = []
        self._gathered = None
        self.clear()

    def bind(self, points_a: np.ndarray, cells_a: np.ndarray,
             points_b: np.ndarray, cells_b: np.ndarray) -> None:
        """Drop any recorded leaves and index these blocks from now on."""
        self.clear()
        self.points_a, self.cells_a = points_a, cells_a
        self.points_b, self.cells_b = points_b, cells_b

    def __len__(self) -> int:
        return len(self.leaves)

    @property
    def full(self) -> bool:
        """True once the batch should be flushed."""
        return (self.volume >= self.max_volume
                or self.key_end >= _KEY_ROOM // 2)

    def add(self, a_lo: int, a_hi: int, b_lo: int, b_hi: int,
            upper_triangle: bool = False,
            wdim: Optional[int] = None) -> None:
        """Record the leaf ``a[a_lo:a_hi] × b[b_lo:b_hi]``.

        ``wdim`` is the window dimension: the cells of ``b[b_lo:b_hi]``
        must be non-decreasing in it (true for the leaf's active
        dimension).  ``None`` makes every row of ``b`` a candidate.
        ``upper_triangle`` marks a range joined with itself.
        """
        base = last = pad = 0
        if b_hi <= b_lo:
            wdim = None
        if wdim is not None:
            base = int(self.cells_b[b_lo, wdim])
            last = int(self.cells_b[b_hi - 1, wdim])
            pad = 2
            if last - base >= _KEY_ROOM // 4:
                # Only cells beyond float64's exact range span this much.
                wdim, base, last, pad = None, 0, 0, 0
        room = last - base + _KEY_PAD
        if self.key_end + room > _KEY_ROOM:
            raise ValueError("window keys would overflow; flush first")
        # Per-leaf columns the flush repeats once per row and per column
        # of the leaf.  A windowless leaf clips every cell to 0, so all
        # its keys sit at its offset and its window is the whole leaf.
        # Row cells are clipped to two cells beyond the leaf's: a row
        # that far out has an empty window whether clipped or not, and
        # the clip keeps every key inside the leaf's room.
        wcol = 0 if wdim is None else wdim
        row_shift, col_shift = a_lo - self.n_rows, b_lo - self.n_cols
        tri = (self.n_cols - self.n_rows + 1 if upper_triangle
               else _NO_TRIANGLE)
        self.leaves.append((a_lo, a_hi, b_lo, b_hi, int(upper_triangle)))
        self.row_keys.append((row_shift, wcol, base, base - pad,
                              last + pad, self.key_end, tri, col_shift))
        self.col_keys.append((col_shift, wcol, base, base, last,
                              self.key_end))
        self.n_rows += a_hi - a_lo
        self.n_cols += b_hi - b_lo
        self.volume += (a_hi - a_lo) * (b_hi - b_lo)
        self.key_end += room

    def clear(self) -> None:
        """Drop all recorded leaves."""
        self.leaves.clear()
        self.row_keys.clear()
        self.col_keys.clear()
        self.n_rows = self.n_cols = self.volume = 0
        self.key_end = _KEY_PAD

    def gather_buffers(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Two reusable ``(n, d)`` arrays for gathered ``a`` and ``b`` rows.

        Reused across flushes: a fresh half-megabyte array per gather
        step is returned to the OS and faulted in again each time, which
        measured several times the cost of the gather itself.
        """
        like = self.points_a
        bufs = self._gathered
        if (bufs is None or len(bufs[0]) < n
                or bufs[0].shape[1:] != like.shape[1:]
                or bufs[0].dtype != like.dtype):
            size = max(n, self.chunk)
            bufs = self._gathered = (np.empty((size,) + like.shape[1:],
                                              dtype=like.dtype),
                                     np.empty((size,) + like.shape[1:],
                                              dtype=like.dtype))
        return bufs[0][:n], bufs[1][:n]


def _row_items(points: np.ndarray) -> np.ndarray:
    """``points`` as a 1-D array with one opaque item per row.

    Gathering whole rows as single items is faster than indexing the
    2-D array, and the bytes (hence every difference) are the same.
    """
    rows = np.ascontiguousarray(points)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))
                     ).reshape(-1)


def pairs_within_batched(batch: LeafBatch, eps_sq: float,
                         counters: Optional[CPUCounters] = None,
                         metrics=None):
    """Decide every leaf recorded in ``batch`` in one gather pass.

    Each row of each leaf gets its candidate window at once: the ``b``
    rows whose cells in the leaf's window dimension lie within one cell
    of the row's (the :func:`candidate_windows` rule), found with one
    ``searchsorted`` over the whole batch.  The keys pack a leaf and a
    cell as ``leaf offset + (cell − first cell of the leaf)``; offsets
    grow by the leaf's cell span, which :class:`LeafBatch` bounds, so no
    key overflows int64.  Candidates are then expanded ``batch.chunk``
    at a time and decided by the exact sum of squared differences — the
    ``einsum`` the GEMM kernel re-verifies its accepts with — so pairs
    and distances are those :func:`pairs_within_matmul` finds leaf by
    leaf.

    Returns ``(ia, ib, sq, offsets)``: row indices into
    ``batch.points_a`` / ``batch.points_b``, the squared distances, and
    ``len(batch) + 1`` offsets — leaf ``k``'s pairs are
    ``[offsets[k], offsets[k + 1])``.  Pairs come in recording order,
    row-major within a leaf.  ``counters`` are charged one distance
    calculation and ``d`` dimension evaluations per candidate.
    """
    n_leaves = len(batch)
    empty = np.empty(0, dtype=np.intp)
    if n_leaves == 0:
        return empty, empty, np.empty(0, dtype=np.float64), \
            np.zeros(1, dtype=np.int64)
    ranges = np.array(batch.leaves, dtype=np.int64)
    sizes_a = ranges[:, 1] - ranges[:, 0]
    # One row per row (column) of every leaf, carrying its leaf's
    # columns from ``LeafBatch.add``.
    per_row = np.repeat(np.array(batch.row_keys, dtype=np.int64), sizes_a,
                        axis=0)
    per_col = np.repeat(np.array(batch.col_keys, dtype=np.int64),
                        ranges[:, 3] - ranges[:, 2], axis=0)
    (row_shift, row_dim, row_base, row_low, row_high, row_key, row_tri,
     row_col_shift) = per_row.T
    col_shift, col_dim, col_base, col_low, col_high, col_key = per_col.T
    n_rows, n_cols = batch.n_rows, batch.n_cols
    iota = np.arange(n_rows)
    rows = iota + row_shift
    cols = np.arange(n_cols) + col_shift
    keys_b = batch.cells_b[cols, col_dim]
    np.maximum(keys_b, col_low, out=keys_b)
    np.minimum(keys_b, col_high, out=keys_b)
    keys_b -= col_base
    keys_b += col_key
    keys_a = batch.cells_a[rows, row_dim]
    np.maximum(keys_a, row_low, out=keys_a)
    np.minimum(keys_a, row_high, out=keys_a)
    keys_a -= row_base
    keys_a += row_key
    lo = np.searchsorted(keys_b, keys_a - 1, side="left")
    hi = np.searchsorted(keys_b, keys_a + 1, side="right")
    if metrics is not None:
        windowed = row_low != row_high
        metrics.histogram(
            "ego_candidate_window_rows",
            "Candidate-window heights from EGO-sorted windowing",
            unit="rows").observe_many((hi - lo)[windowed].tolist())
    # Upper-triangle leaves start each row's window past the diagonal.
    np.maximum(lo, iota + row_tri, out=lo)
    counts = hi - lo
    np.maximum(counts, 0, out=counts)
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if n_rows else 0
    # Root row of each window's first candidate: within a leaf the
    # concatenated columns are consecutive rows of ``b``.
    b_first = lo + row_col_shift

    dims = batch.points_a.shape[1]
    items_a = _row_items(batch.points_a)
    items_b = _row_items(batch.points_b)
    out_a, out_b, out_d, out_r = [], [], [], []
    r0 = 0
    while r0 < n_rows:
        r1 = max(int(np.searchsorted(ends, starts[r0] + batch.chunk,
                                     side="right")), r0 + 1)
        n = int(ends[r1 - 1] - starts[r0])
        if n:
            c = counts[r0:r1]
            which = np.repeat(np.arange(r0, r1), c)
            ia = rows[which]
            ib = np.arange(n) + np.repeat(
                b_first[r0:r1] - (starts[r0:r1] - starts[r0]), c)
            diffs, rows_b = batch.gather_buffers(n)
            # The indices are in range; "clip" skips the buffered bounds
            # check the default mode makes when ``out`` is given.
            np.take(items_a, ia, out=_row_items(diffs), mode="clip")
            np.take(items_b, ib, out=_row_items(rows_b), mode="clip")
            np.subtract(diffs, rows_b, out=diffs)
            sq = np.einsum("ij,ij->i", diffs, diffs)
            keep = sq <= eps_sq
            out_a.append(ia[keep])
            out_b.append(ib[keep])
            out_d.append(sq[keep])
            out_r.append(which[keep])
        r0 = r1

    if counters is not None:
        counters.distance_calculations += total
        counters.dimension_evaluations += total * dims
    if metrics is not None:
        metrics.counter(
            "ego_kernel_batches_total",
            "LeafBatch flushes decided by the gather pass").inc()
        metrics.histogram(
            "ego_kernel_batch_leaves",
            "Leaf pairs per batched-kernel flush").observe(n_leaves)
        metrics.histogram(
            "ego_kernel_batch_points",
            "Leaf rows (both sides) per batched-kernel flush").observe(
                n_rows + n_cols)
    if not out_a:
        return empty, empty, np.empty(0, dtype=np.float64), \
            np.zeros(n_leaves + 1, dtype=np.int64)
    ia = np.concatenate(out_a).astype(np.intp, copy=False)
    ib = np.concatenate(out_b).astype(np.intp, copy=False)
    row_start = np.zeros(n_leaves + 1, dtype=np.int64)
    np.cumsum(sizes_a, out=row_start[1:])
    offsets = np.searchsorted(np.concatenate(out_r), row_start, side="left")
    return ia, ib, np.concatenate(out_d), offsets
