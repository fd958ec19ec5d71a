"""Unit-pair execution seam of the external EGO join.

The paper's conclusion names "a parallel version of the EGO join
algorithm" as future work.  The I/O schedule makes the parallelisation
natural: every unit pair it joins is an independent task.  This module
holds what every execution mode shares — the per-process join
parameters (:func:`_init_unit_worker`), the one kernel that joins a
loaded unit pair (:func:`_run_unit_pair`) and the inline reference
executor (:class:`SerialUnitJoiner`).  The process pool that runs unit
pairs in parallel, with its fault-tolerance ladder, is
:class:`~repro.core.supervisor.SupervisedUnitJoiner`; it calls the same
kernel, so every mode returns byte-identical batches.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..storage.stats import CPUCounters
from .result import JoinResult
from .sequence_join import JoinContext, join_point_blocks

#: Per-process join parameters for unit-pair workers.
_UNIT_STATE: dict = {}


def _init_unit_worker(epsilon: float, minlen: int, engine: str,
                      order_dimensions: bool, metric,
                      grid_epsilon: float, collect_distances: bool,
                      split_strategy: str,
                      collect_metrics: bool = False,
                      batch_points=None, batch_leaves=None) -> None:
    _UNIT_STATE.update(epsilon=epsilon, minlen=minlen, engine=engine,
                       order_dimensions=order_dimensions, metric=metric,
                       grid_epsilon=grid_epsilon,
                       collect_distances=collect_distances,
                       split_strategy=split_strategy,
                       collect_metrics=collect_metrics,
                       batch_points=batch_points,
                       batch_leaves=batch_leaves)


def _run_unit_pair(ids_a: np.ndarray, pts_a: np.ndarray,
                   ids_b: Optional[np.ndarray],
                   pts_b: Optional[np.ndarray]):
    """Join one loaded unit pair in a worker process.

    ``ids_b is None`` marks the self-join of one unit with itself.
    Returns the pair batch (in the deterministic recursion order of the
    serial join), optional distances, this task's CPU-counter deltas,
    and — when the parent collects metrics — a metrics snapshot, all
    for the parent to merge in submission order.
    """
    cpu = CPUCounters()
    metrics = None
    if _UNIT_STATE.get("collect_metrics"):
        from ..obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
    result = JoinResult(materialize=True,
                        collect_distances=_UNIT_STATE["collect_distances"])
    ctx = JoinContext(epsilon=_UNIT_STATE["epsilon"], result=result,
                      minlen=_UNIT_STATE["minlen"],
                      engine=_UNIT_STATE["engine"],
                      order_dimensions=_UNIT_STATE["order_dimensions"],
                      cpu=cpu, metric=_UNIT_STATE["metric"],
                      grid_epsilon=_UNIT_STATE["grid_epsilon"],
                      split_strategy=_UNIT_STATE["split_strategy"],
                      batch_points=_UNIT_STATE.get("batch_points"),
                      batch_leaves=_UNIT_STATE.get("batch_leaves"),
                      metrics=metrics)
    if ids_b is None:
        join_point_blocks(ids_a, pts_a, ids_a, pts_a, ctx,
                          same_block=True)
    else:
        join_point_blocks(ids_a, pts_a, ids_b, pts_b, ctx)
    out_a, out_b = result.pairs()
    dists = result.distances() if result.collect_distances else None
    metrics_data = metrics.collect() if metrics is not None else None
    return out_a, out_b, dists, cpu, metrics_data


class SerialUnitJoiner:
    """Inline unit-pair execution (the reference the pool must match)."""

    def __init__(self, ctx: JoinContext) -> None:
        self.ctx = ctx

    def __enter__(self) -> "SerialUnitJoiner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, ids_a: np.ndarray, pts_a: np.ndarray,
               ids_b: Optional[np.ndarray], pts_b: Optional[np.ndarray],
               on_complete: Optional[Callable[[], None]] = None,
               key: Optional[Tuple[int, int]] = None) -> None:
        """Join one unit pair immediately (``ids_b is None`` = self-pair)."""
        if ids_b is None:
            join_point_blocks(ids_a, pts_a, ids_a, pts_a, self.ctx,
                              same_block=True)
        else:
            join_point_blocks(ids_a, pts_a, ids_b, pts_b, self.ctx)
        if on_complete is not None:
            on_complete()

    def drain(self) -> None:
        """No queued work in the serial joiner."""

    def close(self) -> None:
        """Nothing to release."""
