"""The root block of the Figure-6 join: EGO-sorted points and their cells.

A :class:`Sequence` is one EGO-sorted point block (a loaded I/O unit,
or a whole in-memory point set) with the grid cells of each point.  The
recursion of :func:`~repro.core.sequence_join.join_sequences` works on
index ranges ``[lo, hi)`` of it and builds no sub-sequence object: the
*active dimension* of a range (Definition 2: the first dimension in
which its first and last point fall into different grid cells; earlier
dimensions are *inactive*, later ones *unspecified*) is computed from
the two cell rows by ``sequence_join._active``, and the pruning, the
boundary split and the dimension order of Section 4.2 read the same
rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .ego_order import floor_cells, validate_epsilon
# Imported for its name only: the layer-attribution benchmark
# (``e2ebench/layers.py``) wraps the cell functions where each module
# looks them up.
from .ego_order import grid_cells  # noqa: F401


class Sequence:
    """An EGO-sorted point block with the grid cells of each point.

    ``cells`` holds ``floor_cells(points, epsilon)`` row for row.  The
    block computes it once when built (or takes it from a caller that
    already has it); the recursion of ``join_sequences`` reads the rows
    of its index ranges and never recomputes a cell.  The cell array is
    shaped like the block, not a directory of the grid: EGO still needs
    no search structure, and besides it the only overhead is the
    O(log n) recursion stack (Section 4.1).
    """

    __slots__ = ("ids", "points", "cells", "epsilon")

    def __init__(self, ids: np.ndarray, points: np.ndarray,
                 epsilon: float, cells: Optional[np.ndarray] = None) -> None:
        self.epsilon = validate_epsilon(epsilon)
        if len(ids) != len(points):
            raise ValueError(
                f"ids ({len(ids)}) and points ({len(points)}) differ in length")
        if len(points) == 0:
            raise ValueError("a Sequence must contain at least one point")
        if cells is None:
            cells = floor_cells(points, self.epsilon)
        elif cells.shape != points.shape:
            raise ValueError(
                f"cells {cells.shape} and points {points.shape} differ in "
                f"shape")
        self.ids = ids
        self.points = points
        self.cells = cells

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimensions(self) -> int:
        """Dimensionality of the points."""
        return self.points.shape[1]
