"""The Epsilon Grid Order (Definition 1 of the paper).

A conceptual grid with cell length ε, anchored at the origin, is laid over
the data space; points are ordered by the lexicographic order of their
grid cells with dimension 0 carrying the highest weight.  The grid is
never materialised — a point's cell is just ``floor(p / ε)`` per
dimension, and the order is computed directly from coordinates.

This module provides the scalar comparator (used by the property tests to
validate everything else), vectorised cell/key computation, and the sort
permutation used by both the in-memory join and external sorting.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def validate_epsilon(epsilon: float) -> float:
    """Return ``epsilon`` as a float, rejecting non-positive or non-finite values."""
    eps = float(epsilon)
    if not np.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon!r}")
    return eps


def ensure_finite(points: np.ndarray) -> np.ndarray:
    """Reject points with NaN or infinite coordinates.

    The grid mapping (``floor(p / ε)``) is undefined for non-finite
    values; callers at the public API boundary validate once so the
    failure is a clear error instead of an integer-cast artifact.
    """
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        bad = int(np.argwhere(~np.isfinite(pts).all(axis=-1)).flat[0]) \
            if pts.ndim == 2 else -1
        raise ValueError(
            f"points contain non-finite coordinates (first bad row: "
            f"{bad})")
    return pts


#: Relative half-width of the boundary band (in units of the quotient)
#: inside which ``floor(x / w)`` may have been rounded across a cell
#: boundary and is re-derived in extended precision.  The quotient's
#: rounding error is at most half an ulp, so a 4-ulp band is generous.
_BOUNDARY_BAND = 4.0 * np.finfo(np.float64).eps


def floor_cells(values: np.ndarray, width: float) -> np.ndarray:
    """Rounding-safe ``floor(values / width)`` — the grid cell mapping.

    ``np.floor(x / w)`` computes the floor of the *correctly rounded*
    quotient, not of the real quotient: a coordinate sitting within half
    an ulp below a cell boundary (common for translated, negative or
    large-magnitude data, where boundary multiples ``k·w`` are not
    representable) has its quotient rounded up across the integer and
    lands one cell too high.  This is the single cell computation shared
    by the sort key, the sequence splitter and the kernel's candidate
    windows, so every layer sees identical cells.

    Only quotients within a few ulps of an integer can be affected;
    those are re-derived with extended-precision products so the result
    matches the real-arithmetic floor for ``|x / w| < 2**52`` (on
    platforms where ``np.longdouble`` is no wider than ``float64`` the
    correction still enforces ``c·w ≤ x < (c+1)·w`` under float
    products).  The mapping is monotone in ``x``.
    """
    vals = np.asarray(values, dtype=np.float64)
    flat = np.ascontiguousarray(vals).reshape(-1)
    ratio = flat / width
    cells = np.floor(ratio)
    near = np.abs(ratio - np.rint(ratio)) <= _BOUNDARY_BAND * np.abs(ratio)
    if np.any(near):
        idx = np.nonzero(near)[0]
        wide = np.longdouble(width)
        xs = flat[idx].astype(np.longdouble)
        c = cells[idx].astype(np.longdouble)
        c = np.where(c * wide > xs, c - 1.0, c)
        c = np.where((c + 1.0) * wide <= xs, c + 1.0, c)
        cells[idx] = c.astype(np.float64)
    return cells.astype(np.int64).reshape(vals.shape)


def grid_cells(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Map points to their ε-grid cell coordinates.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)`` (or ``(d,)`` for a single point).
    epsilon:
        Grid cell length.

    Returns
    -------
    Integer array of the same leading shape with ``floor(p / ε)`` per
    dimension.  Negative coordinates are handled by true floor division;
    coordinates within rounding distance of a cell boundary are placed
    by :func:`floor_cells`, so the cell is the real-arithmetic floor.
    """
    eps = validate_epsilon(epsilon)
    return floor_cells(points, eps)


def lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    """Strict lexicographic comparison of two integer cell vectors.

    This is the epsilon grid order expressed on precomputed cells:
    ``p <ego q  ⇔  lex_less(grid_cells(p, ε), grid_cells(q, ε))``.
    Both vectors have one entry per dimension; equal vectors are not
    less.  The comparison runs on Python int lists — one C-level list
    comparison instead of a loop over numpy scalars.
    """
    return a.tolist() < b.tolist()


def ego_compare(p: np.ndarray, q: np.ndarray, epsilon: float) -> int:
    """Three-way EGO comparison of two points.

    Returns ``-1`` if ``p <ego q``, ``1`` if ``q <ego p`` and ``0`` when
    both points fall into the same grid cell (the order is irreflexive, so
    same-cell points are mutually unordered).
    """
    cp = grid_cells(np.asarray(p, dtype=np.float64), epsilon)
    cq = grid_cells(np.asarray(q, dtype=np.float64), epsilon)
    for a, b in zip(cp, cq):
        if a < b:
            return -1
        if a > b:
            return 1
    return 0


def ego_less(p: np.ndarray, q: np.ndarray, epsilon: float) -> bool:
    """The predicate ``p <ego q`` of Definition 1."""
    return ego_compare(p, q, epsilon) < 0


def ego_key(point: np.ndarray, epsilon: float) -> Tuple[int, ...]:
    """Cell coordinates of one point as a comparable tuple.

    Tuples compare lexicographically with dimension 0 first, so sorting by
    this key realises the epsilon grid order.
    """
    return tuple(int(c) for c in grid_cells(point, epsilon))


def ego_sort_order(points: np.ndarray, epsilon: float,
                   ids: Optional[np.ndarray] = None) -> np.ndarray:
    """Permutation that sorts ``points`` into epsilon grid order.

    ``np.lexsort`` treats its *last* key as primary, so the cell columns
    are passed in reverse dimension order.  When ``ids`` is given it is
    used as the final tie-break inside a cell, which makes the permutation
    deterministic; otherwise ``lexsort``'s stability keeps the input order
    for same-cell points.
    """
    cells = grid_cells(points, epsilon)
    if cells.ndim != 2:
        raise ValueError(f"points must be 2-dimensional, got shape {points.shape}")
    keys = [cells[:, j] for j in range(cells.shape[1] - 1, -1, -1)]
    if ids is not None:
        keys.insert(0, np.asarray(ids))
    return np.lexsort(keys)


def ego_sorted(points: np.ndarray, epsilon: float,
               ids: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(ids, points)`` sorted into epsilon grid order.

    If ``ids`` is omitted, sequential indices ``0..n-1`` are assigned
    before sorting, so the returned ids refer to the input row positions.
    """
    pts = np.asarray(points, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(pts), dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
    order = ego_sort_order(pts, epsilon, ids)
    return ids[order], pts[order]


def is_ego_sorted(points: np.ndarray, epsilon: float) -> bool:
    """Check that consecutive points are in (non-strict) epsilon grid order."""
    cells = grid_cells(points, epsilon)
    if len(cells) < 2:
        return True
    prev, nxt = cells[:-1], cells[1:]
    diff = nxt - prev
    nz = diff != 0
    first_nz = np.argmax(nz, axis=1)
    any_nz = nz.any(axis=1)
    rows = np.arange(len(diff))
    leading = diff[rows, first_nz]
    return bool(np.all(~any_nz | (leading > 0)))


def epsilon_interval(point: np.ndarray, epsilon: float
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """The ε-interval bounds of Lemmata 2 and 3.

    All join mates of ``point`` lie, in epsilon grid order, between
    ``point − [ε,…,ε]`` and ``point + [ε,…,ε]``; anything strictly below
    the lower bound or strictly above the upper bound can be skipped.
    """
    eps = validate_epsilon(epsilon)
    p = np.asarray(point, dtype=np.float64)
    shift = np.full(p.shape, eps)
    return p - shift, p + shift


def outside_interval_low(q: np.ndarray, p: np.ndarray, epsilon: float) -> bool:
    """True when ``q <ego p − [ε,…,ε]`` (Lemma 2: q precedes p's ε-interval)."""
    low, _high = epsilon_interval(p, epsilon)
    return ego_less(q, low, epsilon)


def outside_interval_high(q: np.ndarray, p: np.ndarray, epsilon: float) -> bool:
    """True when ``p + [ε,…,ε] <ego q`` (Lemma 3: q follows p's ε-interval)."""
    _low, high = epsilon_interval(p, epsilon)
    return ego_less(high, q, epsilon)
