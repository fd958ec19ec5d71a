"""Sequences of epsilon-grid-ordered points (Definition 2 of the paper).

A :class:`Sequence` is a contiguous slice of an EGO-sorted point array.
Its *active dimension* is the first dimension in which the first and last
point fall into different grid cells; all earlier dimensions are
*inactive* (every point of the sequence shares the same cell coordinate
there), later ones are *unspecified*.  The recursive join of Figure 6
prunes sequence pairs using only the inactive dimensions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .ego_order import floor_cells, validate_epsilon
# Imported for its name only: the layer-attribution benchmark
# (``e2ebench/layers.py``) wraps the cell functions where each module
# looks them up.
from .ego_order import grid_cells  # noqa: F401


class Sequence:
    """A contiguous run of EGO-sorted points with the grid cells of each.

    ``cells`` holds ``floor_cells(points, epsilon)`` row for row.  A
    root sequence computes it once for its whole block (or takes it from
    a caller that already has it); slicing via :meth:`first_half` /
    :meth:`second_half` slices ``ids``, ``points`` and ``cells``
    together into views, so the recursion of ``join_sequences``
    allocates only small metadata objects and never recomputes a cell.
    The cell array is shaped like the block, not a directory of the
    grid: EGO still needs no search structure, and besides it the only
    overhead is the O(log n) recursion stack (Section 4.1).
    """

    __slots__ = ("ids", "points", "cells", "epsilon", "_active_dim")

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
        self._active_dim: int = -2        # -2 = not computed, -1 = none

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimensions(self) -> int:
        """Dimensionality of the points."""
        return self.points.shape[1]

    @property
    def first_point(self) -> np.ndarray:
        """First (EGO-least) point of the sequence."""
        return self.points[0]

    @property
    def last_point(self) -> np.ndarray:
        """Last (EGO-greatest) point of the sequence."""
        return self.points[-1]

    @property
    def first_cells(self) -> np.ndarray:
        """Grid cell coordinates of the first point."""
        return self.cells[0]

    @property
    def last_cells(self) -> np.ndarray:
        """Grid cell coordinates of the last point."""
        return self.cells[-1]

    def active_dimension(self) -> Optional[int]:
        """The active dimension per Definition 2, or ``None`` if all inactive.

        The active dimension is the first index where the first and last
        point have different cell coordinates.  Because the sequence is
        EGO-sorted, the first differing coordinate of the last point is
        necessarily larger, satisfying condition (1) of the definition.
        """
        if self._active_dim == -2:
            diff = self.cells[0] != self.cells[-1]
            idx = int(np.argmax(diff)) if diff.any() else -1
            self._active_dim = idx
        return None if self._active_dim == -1 else self._active_dim

    def inactive_count(self) -> int:
        """Number of leading inactive dimensions (``d`` when none is active)."""
        active = self.active_dimension()
        return self.dimensions if active is None else active

    def slice(self, start: int, stop: int,
              inactive: Optional[int] = None) -> "Sequence":
        """Sub-sequence view over ``[start, stop)``.

        The parent's invariants carry over to any non-empty slice, so
        the view is built without re-validating them.  A caller that
        already knows the slice's :meth:`inactive_count` passes it as
        ``inactive``, so the view does not compute it again.
        """
        sub = Sequence.__new__(Sequence)
        sub.ids = self.ids[start:stop]
        if len(sub.ids) == 0:
            raise ValueError("a Sequence must contain at least one point")
        sub.points = self.points[start:stop]
        sub.cells = self.cells[start:stop]
        sub.epsilon = self.epsilon
        if inactive is None:
            sub._active_dim = -2
        else:
            sub._active_dim = -1 if inactive == self.dimensions else inactive
        return sub

    def first_half(self) -> "Sequence":
        """First half of the sequence (the larger half for odd lengths)."""
        mid = (len(self) + 1) // 2
        return self.slice(0, mid)

    def second_half(self) -> "Sequence":
        """Second half of the sequence."""
        mid = (len(self) + 1) // 2
        return self.slice(mid, len(self))

    def boundary_split_point(self) -> int:
        """Split index on the active-dimension cell boundary nearest the
        middle (§4's recursion-scheme optimization).

        Within a sequence the dimensions before the active one are
        cell-constant, so the active-dimension cells are non-decreasing
        along the sequence; splitting *at a cell change* makes the halves
        cell-confined one dimension sooner, strengthening the
        inactive-dimension pruning.  Falls back to the middle when no
        interior boundary exists.
        """
        mid = (len(self) + 1) // 2
        active = self.active_dimension()
        if active is None or len(self) < 2:
            return mid
        cells = self.cells[:, active]
        c_mid = cells[min(mid, len(self) - 1)]
        left = int(np.searchsorted(cells, c_mid, side="left"))
        right = int(np.searchsorted(cells, c_mid, side="right"))
        candidates = [x for x in (left, right) if 0 < x < len(self)]
        if not candidates:
            return mid
        return min(candidates, key=lambda x: abs(x - mid))

    def split_at(self, index: int) -> "Tuple[Sequence, Sequence]":
        """The two sub-sequences around an interior split index."""
        if not 0 < index < len(self):
            raise ValueError(
                f"split index {index} not interior to a sequence of "
                f"length {len(self)}")
        return self.slice(0, index), self.slice(index, len(self))

    def same_storage(self, other: "Sequence") -> bool:
        """True when both sequences are the identical array slice.

        Used to detect the self-join of a sequence with itself, where the
        recursion must avoid generating both (a, b) and (b, a).
        """
        my_ptr = self.points.__array_interface__["data"][0]
        other_ptr = other.points.__array_interface__["data"][0]
        return my_ptr == other_ptr and self.points.shape == other.points.shape
