"""I/O scheduling for the external R ⋈ S similarity join.

The paper presents its scheduling for the self-join (Figure 4); this
module generalises it to two EGO-sorted files.  The ε-interval property
(Lemmata 2 and 3) holds across files: the mates of an R unit form a
contiguous, monotonically advancing window of S units, bounded by the
cell comparisons ``s.last + [ε,…,ε] <ego r.first`` (S unit entirely
below the window) and ``r.last + [ε,…,ε] <ego s.first`` (entirely
above).

Two modes, mirroring gallop and crabstep:

* **sliding mode** — R units are streamed one at a time through a single
  frame while the S window is cached in the remaining frames; while the
  window fits, every unit of both files is loaded exactly once;
* **block mode** (outer-loop buffering) — when the S window outgrows the
  buffer, a group of R units is pinned (all frames but one) and their
  combined S window is streamed through the last frame, charging
  ``|S window|`` loads per R group instead of per R unit.

A metadata pass over both files (one sequential scan of the unit
boundary records) precedes the schedule so window bounds are known in
advance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple

from ..obs.metrics import ensure_metrics
from ..obs.trace import ensure_tracer
from ..storage.buffer import BufferPool
from .sequence import Sequence
from .sequence_join import JoinContext, join_sequences
from .units import SortedUnits


@dataclass
class RSScheduleStats:
    """Accounting of one two-file schedule."""

    r_loads: int = 0
    s_loads: int = 0
    meta_reads: int = 0
    block_phases: int = 0
    unit_pairs_joined: int = 0
    unit_pairs_skipped: int = 0

    @property
    def total_unit_loads(self) -> int:
        """Physical unit loads across both files (metadata pass excluded)."""
        return self.r_loads + self.s_loads


class TwoFileScheduler:
    """Schedules unit loads for an external R ⋈ S similarity join.

    Both inputs must already be sorted in epsilon grid order; ``units_r``
    and ``units_s`` are their I/O units.  Result pairs are emitted as
    ``(r_id, s_id)``.  Each physical load reads a unit into a
    :class:`~repro.core.sequence.Sequence` through
    :meth:`~repro.core.units.SortedUnits.load`, so a unit's cells are
    computed once per load and the buffer pools hold them beside its
    points.
    """

    def __init__(self, units_r: SortedUnits, units_s: SortedUnits,
                 ctx: JoinContext, buffer_units: int) -> None:
        if buffer_units < 2:
            raise ValueError(
                f"the scheduler needs at least 2 buffer frames, "
                f"got {buffer_units}")
        dims_r = units_r.point_file.dimensions
        dims_s = units_s.point_file.dimensions
        if dims_r != dims_s:
            raise ValueError(f"dimension mismatch: {dims_r} vs {dims_s}")
        self.units_r = units_r
        self.units_s = units_s
        self.ctx = ctx
        self.buffer_units = buffer_units
        self.stats = RSScheduleStats()
        self.n_r = len(units_r)
        self.n_s = len(units_s)
        metrics = ensure_metrics(getattr(ctx, "metrics", None))
        self._tracer = ensure_tracer(getattr(ctx, "trace", None))
        reads = metrics.counter(
            "ego_rs_unit_reads_total",
            "Physical unit reads of the two-file schedule, by side",
            labelnames=("side",))
        self._m_read_r = reads.labels("r")
        self._m_read_s = reads.labels("s")
        self._m_meta_reads = metrics.counter(
            "ego_rs_meta_reads_total",
            "Boundary-record reads of the S/R metadata pass")
        self._m_block_phases = metrics.counter(
            "ego_rs_block_phases_total",
            "Outer-loop (block mode) phases of the two-file schedule")
        pairs = metrics.counter(
            "ego_rs_unit_pairs_total",
            "Unit pairs considered by the two-file schedule, by outcome",
            labelnames=("outcome",))
        self._m_pair_joined = pairs.labels("joined")
        self._m_pair_skipped = pairs.labels("skipped")
        self._pool_r = self._pool("r", 1)
        self._pool_s = self._pool("s", max(1, buffer_units - 1))

    # -- loading -----------------------------------------------------------

    def _pool(self, side: str, capacity: int) -> BufferPool[int, Sequence]:
        return BufferPool(capacity, partial(self._load, side))

    def _load(self, side: str, ordinal: int) -> Sequence:
        if side == "r":
            units = self.units_r
            self.stats.r_loads += 1
            self._m_read_r.inc()
        else:
            units = self.units_s
            self.stats.s_loads += 1
            self._m_read_s.inc()
        span_args = ({"side": side, "unit": ordinal}
                     if self._tracer.enabled else None)
        with self._tracer.span("load", cat="io", args=span_args):
            return units.load(ordinal)

    # -- window geometry ----------------------------------------------------

    def _window_of(self, r_lo: int, r_hi: int) -> Tuple[int, int]:
        """S unit range ``[lo, hi)`` joinable with R units ``[r_lo, r_hi]``.

        Monotone in the R range, so callers advance ``lo`` with a
        resumable pointer; here it is computed directly.
        """
        meta_s = self.units_s.meta
        r_first = self.units_r.meta[r_lo].first_cells
        r_last = self.units_r.meta[r_hi]
        lo = 0
        while lo < self.n_s and meta_s[lo].below(r_first):
            lo += 1
        hi = lo
        while hi < self.n_s and not r_last.below(meta_s[hi].first_cells):
            hi += 1
        return lo, hi

    def _join_units(self, r_unit: int, s_unit: int) -> None:
        if not self.units_r.meta[r_unit].may_join(
                self.units_s.meta[s_unit]):
            self.stats.unit_pairs_skipped += 1
            self._m_pair_skipped.inc()
            if self._tracer.enabled:
                self._tracer.instant("skip", args={"r": r_unit,
                                                   "s": s_unit})
            return
        seq_r = self._pool_r.get(r_unit)
        seq_s = self._pool_s.get(s_unit)
        self.stats.unit_pairs_joined += 1
        self._m_pair_joined.inc()
        span_args = ({"r": r_unit, "s": s_unit}
                     if self._tracer.enabled else None)
        with self._tracer.span("unit_pair", args=span_args):
            join_sequences(seq_r, seq_s, self.ctx)

    # -- the schedule ---------------------------------------------------------

    def run(self) -> RSScheduleStats:
        """Execute the schedule; returns the accounting."""
        if self.n_r == 0 or self.n_s == 0:
            return self.stats
        for units in (self.units_r, self.units_s):
            reads = units.read_boundaries()
            self.stats.meta_reads += reads
            self._m_meta_reads.inc(reads)
        s_pool_size = self._pool_s.capacity
        i = 0
        while i < self.n_r:
            lo, hi = self._window_of(i, i)
            if hi - lo <= s_pool_size:
                # Sliding mode: the window fits; stream this R unit
                # against the cached S window.
                for s in range(lo, hi):
                    self._join_units(i, s)
                i += 1
                continue
            # Block mode: pin a group of R units in all frames but one
            # and stream their combined S window through that frame.
            self.stats.block_phases += 1
            self._m_block_phases.inc()
            group_size = max(1, self.buffer_units - 1)
            group_hi = min(self.n_r - 1, i + group_size - 1)
            g_lo, g_hi = self._window_of(i, group_hi)
            self._pool_r = self._pool("r", group_size)
            self._pool_s = self._pool("s", 1)
            for r in range(i, group_hi + 1):
                self._pool_r.get(r, pin=True)
            for s in range(g_lo, g_hi):
                for r in range(i, group_hi + 1):
                    self._join_units(r, s)
            self._pool_r = self._pool("r", 1)
            self._pool_s = self._pool("s", s_pool_size)
            i = group_hi + 1
        return self.stats
