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

A metadata pass over S (one sequential scan of the unit boundary
records) precedes the schedule so window bounds are known in advance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..obs.metrics import ensure_metrics
from ..obs.trace import ensure_tracer
from ..storage.buffer import BufferPool
from ..storage.pagefile import PointFile
from .ego_order import grid_cells, lex_less
from .scheduler import UnitMeta, schedule_units
from .sequence import Sequence
from .sequence_join import JoinContext, join_sequences


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

    Both inputs must already be sorted in epsilon grid order.  Result
    pairs are emitted as ``(r_id, s_id)``.  Each physical load reads a
    unit into a :class:`~repro.core.sequence.Sequence` at
    ``ctx.grid_epsilon``, so a unit's cells are computed once per load
    and the buffer pools hold them beside its points.
    """

    def __init__(self, file_r: PointFile, file_s: PointFile,
                 ctx: JoinContext, unit_bytes: int,
                 buffer_units: int) -> None:
        if buffer_units < 2:
            raise ValueError(
                f"the scheduler needs at least 2 buffer frames, "
                f"got {buffer_units}")
        if file_r.dimensions != file_s.dimensions:
            raise ValueError(
                f"dimension mismatch: {file_r.dimensions} vs "
                f"{file_s.dimensions}")
        self.file_r = file_r
        self.file_s = file_s
        self.ctx = ctx
        self.unit_bytes = unit_bytes
        self.buffer_units = buffer_units
        self.stats = RSScheduleStats()
        self.units_r = schedule_units(file_r, unit_bytes)
        self.units_s = schedule_units(file_s, unit_bytes)
        self.n_r = len(self.units_r)
        self.n_s = len(self.units_s)
        self.meta_r: List[UnitMeta] = []
        self.meta_s: List[UnitMeta] = []
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
        self._pool_r: BufferPool[int, Sequence] = BufferPool(
            1, self._load_r)
        self._pool_s: BufferPool[int, Sequence] = BufferPool(
            max(1, buffer_units - 1), self._load_s)

    # -- loading -----------------------------------------------------------

    def _load_r(self, ordinal: int) -> Sequence:
        self.stats.r_loads += 1
        self._m_read_r.inc()
        span_args = ({"side": "r", "unit": ordinal}
                     if self._tracer.enabled else None)
        with self._tracer.span("load", cat="io", args=span_args):
            return Sequence(*self.file_r.read_unit(
                int(self.units_r[ordinal]), self.unit_bytes),
                self.ctx.grid_epsilon)

    def _load_s(self, ordinal: int) -> Sequence:
        self.stats.s_loads += 1
        self._m_read_s.inc()
        span_args = ({"side": "s", "unit": ordinal}
                     if self._tracer.enabled else None)
        with self._tracer.span("load", cat="io", args=span_args):
            return Sequence(*self.file_s.read_unit(
                int(self.units_s[ordinal]), self.unit_bytes),
                self.ctx.grid_epsilon)

    def _collect_meta(self, point_file: PointFile,
                      unit_ids: np.ndarray) -> List[UnitMeta]:
        metas = []
        eps = self.ctx.grid_epsilon
        for unit in unit_ids:
            first, last = point_file.unit_record_range(int(unit),
                                                       self.unit_bytes)
            _i, first_pt = point_file.read_range(first, 1)
            _i, last_pt = point_file.read_range(last - 1, 1)
            self.stats.meta_reads += 2
            self._m_meta_reads.inc(2)
            metas.append(UnitMeta(first_cells=grid_cells(first_pt[0], eps),
                                  last_cells=grid_cells(last_pt[0], eps)))
        return metas

    # -- window geometry ----------------------------------------------------

    def _window_of(self, r_lo: int, r_hi: int) -> Tuple[int, int]:
        """S unit range ``[lo, hi)`` joinable with R units ``[r_lo, r_hi]``.

        Monotone in the R range, so callers advance ``lo`` with a
        resumable pointer; here it is computed directly.
        """
        r_first = self.meta_r[r_lo].first_cells
        r_last_plus = self.meta_r[r_hi].last_plus_eps_cells
        lo = 0
        while lo < self.n_s and lex_less(
                self.meta_s[lo].last_plus_eps_cells, r_first):
            lo += 1
        hi = lo
        while hi < self.n_s and not lex_less(
                r_last_plus, self.meta_s[hi].first_cells):
            hi += 1
        return lo, hi

    def _join_units(self, r_unit: int, s_unit: int) -> None:
        mr, ms = self.meta_r[r_unit], self.meta_s[s_unit]
        if lex_less(mr.last_plus_eps_cells, ms.first_cells) or \
                lex_less(ms.last_plus_eps_cells, mr.first_cells):
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
        self.meta_r = self._collect_meta(self.file_r, self.units_r)
        self.meta_s = self._collect_meta(self.file_s, self.units_s)
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
            self._pool_r = BufferPool(group_size, self._load_r)
            self._pool_s = BufferPool(1, self._load_s)
            for r in range(i, group_hi + 1):
                self._pool_r.get(r, pin=True)
            for s in range(g_lo, g_hi):
                for r in range(i, group_hi + 1):
                    self._join_units(r, s)
            self._pool_r = BufferPool(1, self._load_r)
            self._pool_s = BufferPool(s_pool_size, self._load_s)
            i = group_hi + 1
        return self.stats
