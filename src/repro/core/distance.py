"""Distance computations with early abort and dimension ordering.

Section 4.2 of the paper observes that the final point-to-point distance
tests dominate CPU cost, and that evaluating the per-dimension squared
differences in a suitable order lets the partial sum exceed ε² — and the
test abort — as early as possible.  The order is derived from the
*distinguishing potential* of each dimension for the sequence pair at
hand:

1. common inactive dimensions where the two sequences occupy
   **neighboring** cells (exclusion probability 50 %),
2. **unspecified** dimensions,
3. the **active** dimension(s) of the two sequences,
4. common inactive dimensions where the cells are **aligned**
   (essentially no distinguishing power).

Two engines implement the Figure 7 test: a scalar loop (the literal
algorithm) and a vectorised one.  Both return identical pair sets and
identical operation counts (the vectorised engine reconstructs the abort
position from prefix sums), which is property-tested.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..storage.stats import CPUCounters
from .metrics import Metric


def dimension_ordering(s_first, t_first, s_active: int,
                       t_active: int) -> np.ndarray:
    """Evaluation order of dimensions for joining sequences ``s`` and ``t``.

    ``s_first``/``t_first`` are the grid cell rows of the sequences'
    first points and ``s_active``/``t_active`` their active dimensions
    (Definition 2), ``d`` (the row length) meaning none is active; the
    Figure-6 recursion already holds all four at a leaf.  Returns a
    permutation of ``0..d-1`` sorted by decreasing distinguishing
    potential as described in Section 4.2.  Within each category the
    natural dimension order is kept, which makes the result
    deterministic.
    """
    d = len(s_first)
    neighboring = []
    aligned = []
    for i in range(min(s_active, t_active)):
        if s_first[i] == t_first[i]:
            aligned.append(i)
        else:
            neighboring.append(i)
    active = sorted({a for a in (s_active, t_active) if a < d})
    classified = set(neighboring) | set(aligned) | set(active)
    unspecified = [i for i in range(d) if i not in classified]
    return np.array(neighboring + unspecified + active + aligned,
                    dtype=np.intp)


def natural_ordering(dimensions: int) -> np.ndarray:
    """The identity dimension order ``0..d-1`` (ablation baseline)."""
    return np.arange(dimensions, dtype=np.intp)


def distance_below_eps(p: np.ndarray, q: np.ndarray, eps_sq: float,
                       order: np.ndarray,
                       counters: Optional[CPUCounters] = None,
                       metric: Optional[Metric] = None) -> bool:
    """Figure 7: early-abort distance test for one point pair.

    Accumulates per-dimension contributions in the given dimension
    ``order`` and returns ``False`` as soon as the partial value exceeds
    the threshold ``eps_sq`` (the squared ε for the default Euclidean
    metric; ``metric.threshold(ε)`` in general).  For L_∞ metrics the
    running value is the maximum contribution instead of the sum.
    """
    evaluated = 0
    below = True
    if metric is None or metric.name == "euclidean":
        acc = 0.0
        for j in order:
            evaluated += 1
            diff = p[j] - q[j]
            acc += diff * diff
            if acc > eps_sq:
                below = False
                break
    else:
        # Pure-float per-dimension contributions: boxing each scalar
        # difference into a numpy array made the L_p early-abort test
        # pay an allocation per dimension.
        acc = 0.0
        use_max = metric.combine_max
        power = metric.power
        for j in order:
            evaluated += 1
            diff = float(p[j] - q[j])
            if diff < 0.0:
                diff = -diff
            if power is None or power == 1.0:
                contrib = diff
            elif power == 2.0:
                contrib = diff * diff
            else:
                contrib = diff ** power
            acc = max(acc, contrib) if use_max else acc + contrib
            if acc > eps_sq:
                below = False
                break
    if counters is not None:
        counters.distance_calculations += 1
        counters.dimension_evaluations += evaluated
    return below


def pairs_within_scalar(a: np.ndarray, b: np.ndarray, eps_sq: float,
                        order: np.ndarray,
                        counters: Optional[CPUCounters] = None,
                        upper_triangle: bool = False,
                        return_sq_distances: bool = False,
                        metric: Optional[Metric] = None):
    """All index pairs within distance using the scalar Figure 7 loop.

    With ``upper_triangle`` only pairs ``(i, j)`` with ``i < j`` are
    tested, which is the self-join of a sequence with itself.  With
    ``return_sq_distances`` a third array with the combined distance
    values (squared for Euclidean) of the qualifying pairs is returned.
    """
    out_a, out_b, out_d = [], [], []
    for i in range(len(a)):
        start = i + 1 if upper_triangle else 0
        for j in range(start, len(b)):
            if distance_below_eps(a[i], b[j], eps_sq, order, counters,
                                  metric=metric):
                out_a.append(i)
                out_b.append(j)
                if return_sq_distances:
                    diff = a[i] - b[j]
                    if metric is None or metric.name == "euclidean":
                        out_d.append(float(np.dot(diff, diff)))
                    else:
                        contrib = metric.contributions(diff)
                        out_d.append(float(
                            contrib.max() if metric.combine_max
                            else contrib.sum()))
    ia = np.array(out_a, dtype=np.intp)
    ib = np.array(out_b, dtype=np.intp)
    if return_sq_distances:
        return ia, ib, np.array(out_d, dtype=np.float64)
    return ia, ib


def pairs_within_vector(a: np.ndarray, b: np.ndarray, eps_sq: float,
                        order: np.ndarray,
                        counters: Optional[CPUCounters] = None,
                        upper_triangle: bool = False,
                        return_sq_distances: bool = False,
                        metric: Optional[Metric] = None):
    """All index pairs within distance, computed with numpy.

    Produces exactly the pairs and operation counts of
    :func:`pairs_within_scalar`: the abort position of the scalar loop is
    reconstructed from the prefix sums of squared differences in the same
    dimension order.  Counter reconstruction is skipped when ``counters``
    is ``None``, saving the prefix-sum pass.  With
    ``return_sq_distances`` a third array carries the squared distances
    of the qualifying pairs.
    """
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        if return_sq_distances:
            return empty + (np.empty(0, dtype=np.float64),)
        return empty
    # i < j by index comparison — cheaper than np.triu of a ones
    # matrix, and built once for both the counter and the filter pass.
    triangle = (np.arange(na)[:, None] < np.arange(nb)[None, :]
                if upper_triangle else None)
    diffs = a[:, None, order] - b[None, :, order]
    if metric is None or metric.name == "euclidean":
        sq = diffs * diffs
        combine_max = False
    else:
        sq = metric.contributions(diffs)
        combine_max = metric.combine_max
    if counters is not None:
        if combine_max:
            prefix = np.maximum.accumulate(sq, axis=2)
        else:
            prefix = np.cumsum(sq, axis=2)
        total = prefix[:, :, -1]
        exceeded = prefix > eps_sq
        aborted = exceeded.any(axis=2)
        first_exceed = np.argmax(exceeded, axis=2)
        evals = np.where(aborted, first_exceed + 1, a.shape[1])
        if triangle is not None:
            counters.distance_calculations += int(triangle.sum())
            counters.dimension_evaluations += int(evals[triangle].sum())
        else:
            counters.distance_calculations += na * nb
            counters.dimension_evaluations += int(evals.sum())
    else:
        total = sq.max(axis=2) if combine_max else sq.sum(axis=2)
    within = total <= eps_sq
    if triangle is not None:
        within &= triangle
    ia, ib = np.nonzero(within)
    if return_sq_distances:
        return ia, ib, total[ia, ib]
    return ia, ib


def pairwise_sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix of squared Euclidean distances between two point sets."""
    diffs = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diffs, diffs)
