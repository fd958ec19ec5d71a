"""Unit-pair execution seam of the external EGO join.

The paper's conclusion names "a parallel version of the EGO join
algorithm" as future work.  The I/O schedule makes the parallelisation
natural: every unit pair it joins is an independent task.  This module
holds what every execution mode shares — :class:`UnitJoinSpec`, the
one picklable description of how a unit pair is joined, whose
:meth:`~UnitJoinSpec.run` builds the context and extracts the results
for both pool workers and inline retries, and the inline reference
executor (:class:`SerialUnitJoiner`).  The process pool that runs unit
pairs in parallel, with its fault-tolerance ladder, is
:class:`~repro.core.supervisor.SupervisedUnitJoiner`; it joins through
the same spec, so every mode returns byte-identical batches.

Every mode receives a unit pair as two loaded
:class:`~repro.core.sequence.Sequence` objects, whose cells were
computed once when the unit was read; the same object twice is the
self-join of one unit.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, Optional, Tuple

from ..storage.stats import CPUCounters
# Looked up on the module at call time: ``e2ebench/layers.py`` wraps
# ``join_sequences`` in ``repro.core.sequence_join`` to time the joins.
from . import sequence_join
from .result import JoinResult
from .sequence import Sequence
from .sequence_join import JoinContext, KernelConfig


@dataclass(frozen=True)
class UnitJoinSpec:
    """How a run joins one unit pair — everything a worker needs.

    Built once from the parent's context and shipped whole to every
    pool worker, so the workers join with exactly the parent's
    :class:`~repro.core.sequence_join.KernelConfig`.
    ``collect_metrics`` asks workers to snapshot a metrics registry per
    unit pair for the parent to merge.
    """

    kernel: KernelConfig
    epsilon: float
    grid_epsilon: float
    collect_distances: bool
    collect_metrics: bool

    @classmethod
    def of(cls, ctx: JoinContext) -> "UnitJoinSpec":
        """The spec of the run ``ctx`` drives."""
        return cls(ctx.kernel, ctx.epsilon, ctx.grid_epsilon,
                   ctx.result.collect_distances, ctx.metrics.enabled)

    def run(self, seq_a: Sequence, seq_b: Sequence, metrics=None,
            invariants: bool = False):
        """Join one loaded unit pair into a fresh result.

        ``seq_b is seq_a`` marks the self-join of one unit with itself.
        Returns the pair batch ``(ids_a, ids_b, distances)`` in the
        deterministic recursion order of the serial join, and the CPU
        counters as a tuple.  ``metrics`` is the registry the join
        records into (a worker's snapshot, or the parent's own for an
        inline run); ``invariants`` runs it under the invariant monitor.
        """
        result = JoinResult(materialize=True,
                            collect_distances=self.collect_distances)
        cpu = CPUCounters()
        ctx = JoinContext(epsilon=self.epsilon, result=result,
                          kernel=self.kernel, cpu=cpu,
                          grid_epsilon=self.grid_epsilon,
                          invariants=invariants, metrics=metrics)
        sequence_join.join_sequences(seq_a, seq_b, ctx)
        out_a, out_b = result.pairs()
        dists = result.distances() if result.collect_distances else None
        return (out_a, out_b, dists), astuple(cpu)


class SerialUnitJoiner:
    """Inline unit-pair execution (the reference the pool must match)."""

    def __init__(self, ctx: JoinContext) -> None:
        self.ctx = ctx

    def __enter__(self) -> "SerialUnitJoiner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, seq_a: Sequence, seq_b: Sequence,
               on_complete: Optional[Callable[[], None]] = None,
               key: Optional[Tuple[int, int]] = None) -> None:
        """Join one unit pair immediately (``seq_b is seq_a`` = self-pair)."""
        sequence_join.join_sequences(seq_a, seq_b, self.ctx)
        if on_complete is not None:
            on_complete()

    def drain(self) -> None:
        """No queued work in the serial joiner."""

    def close(self) -> None:
        """Nothing to release."""
