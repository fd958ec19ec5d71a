"""Common infrastructure of the similarity-join implementations.

Every join produces a :class:`JoinReport` with the same accounting
(result pairs, I/O counters, CPU counters, simulated I/O time, wall
time), so the benchmark harness can compare algorithms uniformly, as the
paper's evaluation does.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..core.distance import natural_ordering, pairs_within_vector
from ..core.result import JoinResult
from ..storage.disk import SimulatedDisk
from ..storage.stats import CPUCounters, IOCounters


@dataclass
class JoinReport:
    """Uniform accounting of one similarity-join run."""

    algorithm: str
    result: JoinResult
    io: IOCounters = field(default_factory=IOCounters)
    cpu: CPUCounters = field(default_factory=CPUCounters)
    simulated_io_time_s: float = 0.0
    wall_time_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def pair_count(self) -> int:
        """Number of result pairs."""
        return self.result.count


class DiskTracker:
    """Captures the I/O a join performs on one or more simulated disks.

    Construction snapshots each disk's counters and restarts its scope
    clock (:class:`~repro.storage.stats.SimulatedClock`), so the join's
    simulated seconds are summed from zero: a reused disk reports them
    bit for bit as a fresh one does.
    """

    def __init__(self, *disks: SimulatedDisk) -> None:
        self.disks = disks
        self._io_before = [d.counters.snapshot() for d in disks]
        for d in disks:
            d.begin_time_scope()

    def io_delta(self) -> IOCounters:
        """I/O performed since construction, summed over the disks."""
        total = IOCounters()
        for disk, before in zip(self.disks, self._io_before):
            total = total + (disk.counters - before)
        return total

    def time_delta(self) -> float:
        """Simulated I/O seconds since construction."""
        return sum(d.scope_time_s for d in self.disks)


@contextmanager
def wall_clock(report: JoinReport):
    """Context manager recording wall time into a report."""
    start = time.perf_counter()
    try:
        yield report
    finally:
        report.wall_time_s = time.perf_counter() - start


def compare_blocks(ids_a: np.ndarray, points_a: np.ndarray,
                   ids_b: np.ndarray, points_b: np.ndarray,
                   eps_sq: float, result: JoinResult,
                   cpu: Optional[CPUCounters] = None,
                   upper_triangle: bool = False) -> None:
    """Compare two point blocks exhaustively and record qualifying pairs.

    This is the candidate-refinement step shared by all index-based
    joins; the early-abort accounting matches the scalar loop of
    Figure 7 under the natural dimension order.
    """
    if len(ids_a) == 0 or len(ids_b) == 0:
        return
    order = natural_ordering(points_a.shape[1])
    ia, ib = pairs_within_vector(points_a, points_b, eps_sq, order,
                                 counters=cpu,
                                 upper_triangle=upper_triangle)
    if len(ia):
        result.add_batch(ids_a[ia], ids_b[ib])
