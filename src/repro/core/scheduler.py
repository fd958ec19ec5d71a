"""I/O scheduling over an EGO-sorted file (Section 3.2, Figure 4).

The file is processed as a series of fixed-size I/O units.  Lemmata 2
and 3 bound the join mates of every point to its ε-interval, so a unit
only ever needs to be joined with the units inside that interval.

Two modes are used, switching on demand:

* **gallop mode** — while the ε-interval fits in the buffer, each unit is
  loaded exactly once, joined against all resident units, and units whose
  interval has passed are evicted (the cleanup step between marks 1 and 2
  of Figure 4);
* **crabstep mode** — when the buffer fills while the interval is still
  open, the scheduler pins a window of new units (all buffer frames but
  one), joins them among each other, then iterates the single remaining
  frame over the earlier units that are still inside the window's
  ε-interval, joining each against the pinned window (outer-loop
  buffering, marks 3–4 of Figure 4).

The published pseudocode is, as the paper notes, simplified: it derives
the crabstep reload range from the oldest *resident* buffer, which can
drop pairs when consecutive crabsteps overlap.  This implementation keeps
per-unit boundary metadata (first/last cell of every unit seen so far)
and recomputes the reload range from the Lemma-2 test itself, which is
the behaviour the figure-3 accounting describes.

A ``allow_crabstep=False`` switch degrades the scheduler to pure gallop
with LRU replacement, reproducing the thrashing behaviour of Figure 3b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from ..obs.metrics import ensure_metrics
from ..obs.trace import ensure_tracer
from ..storage.buffer import BufferPool
# Imported for its name only: the layer-attribution benchmark
# (``e2ebench/layers.py``) wraps the cell functions where each module
# looks them up.
from .ego_order import grid_cells  # noqa: F401
from .sequence import Sequence
from .sequence_join import JoinContext
from .units import SortedUnits


@dataclass
class ScheduleStats:
    """Accounting of one scheduler run."""

    gallop_loads: int = 0
    crabstep_pins: int = 0
    crabstep_reloads: int = 0
    crabstep_phases: int = 0
    unit_pairs_joined: int = 0
    unit_pairs_skipped: int = 0
    evictions: int = 0
    pressure_shrinks: int = 0
    pairs_resumed: int = 0

    @property
    def total_unit_loads(self) -> int:
        """Physical unit loads issued by the schedule (buffer hits excluded)."""
        return self.gallop_loads + self.crabstep_pins + self.crabstep_reloads


class _BufferObs:
    """Counter-handle bundle mirroring buffer-pool events into metrics.

    Matches the ``metrics`` protocol of
    :class:`~repro.storage.buffer.BufferPool` (attribute per event, each
    with ``inc()``), so the storage layer stays free of observability
    imports.
    """

    __slots__ = ("hits", "misses", "evictions", "pins", "unpins")

    def __init__(self, metrics) -> None:
        events = metrics.counter(
            "ego_buffer_events_total",
            "Buffer pool events in the scheduler's unit pool",
            labelnames=("event",))
        self.hits = events.labels("hit")
        self.misses = events.labels("miss")
        self.evictions = events.labels("evict")
        self.pins = events.labels("pin")
        self.unpins = events.labels("unpin")


class EGOScheduler:
    """Schedules unit loads and unit-pair joins for an EGO self-join.

    Parameters
    ----------
    units:
        The I/O units of the EGO-sorted input file; each physical load
        reads one through :meth:`~repro.core.units.SortedUnits.load`,
        which computes its cells and records its bounds.
    ctx:
        Join parameters; unit pairs are joined with
        :func:`~repro.core.sequence_join.join_sequences`.
    buffer_units:
        Number of unit frames available (must be at least 2).
    allow_crabstep:
        When ``False``, stay in gallop mode and let LRU replacement cause
        the thrashing of Figure 3b (used by the scheduling benchmark).
    pair_done, pair_complete:
        Checkpoint hooks.  Before joining a unit pair ``(a, b)`` the
        scheduler asks ``pair_done(a, b)``; a ``True`` answer means the
        pair's results are already durable (a resumed run) and it is
        skipped.  ``pair_complete(a, b)`` fires after the pair's join
        finishes, letting the caller flush spilled results and record the
        pair in a :class:`~repro.storage.journal.Journal`.
    unit_joiner:
        Execution backend for the unit-pair joins.  ``None`` joins each
        pair inline; a
        :class:`~repro.core.supervisor.SupervisedUnitJoiner` records the
        submitted pairs and joins them on a process pool when the
        schedule drains, merging results (and firing ``pair_complete``)
        in submission order so the output stream is identical to the
        inline run.

    The scheduler also degrades gracefully under storage pressure: when
    the file's disk exposes a true ``under_pressure`` attribute (see
    :class:`~repro.storage.faults.FaultyDisk`), the buffer pool is shrunk
    one frame at a time (never below 2) — pushing the schedule from
    gallop into crabstep mode — and grown back once the pressure clears.
    """

    def __init__(self, units: SortedUnits, ctx: JoinContext,
                 buffer_units: int,
                 allow_crabstep: bool = True,
                 pair_done: Optional[Callable[[int, int], bool]] = None,
                 pair_complete: Optional[Callable[[int, int], None]] = None,
                 unit_joiner=None) -> None:
        if buffer_units < 2:
            raise ValueError(
                f"the scheduler needs at least 2 buffer frames, "
                f"got {buffer_units}")
        self.units = units
        self.num_units = len(units)
        self.ctx = ctx
        self.allow_crabstep = allow_crabstep
        self.pair_done = pair_done
        self.pair_complete = pair_complete
        if unit_joiner is None:
            from .parallel import SerialUnitJoiner
            unit_joiner = SerialUnitJoiner(ctx)
        self.unit_joiner = unit_joiner
        self.stats = ScheduleStats()
        # The invariant monitor (ctx.invariants) watches gallop loads,
        # joined unit pairs and buffer pins.  The thrashing variant
        # (allow_crabstep=False) deliberately violates read-once, so the
        # hooks only engage on the sound schedule.
        self.monitor = getattr(ctx, "monitor", None) \
            if allow_crabstep else None
        # Pre-resolved metric handles: one attribute lookup + method call
        # per event in the schedule loop (no-ops on the null registry).
        metrics = ensure_metrics(getattr(ctx, "metrics", None))
        self._tracer = ensure_tracer(getattr(ctx, "trace", None))
        reads = metrics.counter(
            "ego_unit_reads_total",
            "Physical unit reads issued by the schedule, by mode",
            labelnames=("mode",))
        self._m_read_gallop = reads.labels("gallop")
        self._m_read_pin = reads.labels("crabstep_pin")
        self._m_read_reload = reads.labels("crabstep_reload")
        pairs = metrics.counter(
            "ego_unit_pairs_total",
            "Unit pairs considered by the schedule, by outcome",
            labelnames=("outcome",))
        self._m_pair_joined = pairs.labels("joined")
        self._m_pair_skipped = pairs.labels("skipped")
        self._m_pair_resumed = pairs.labels("resumed")
        transitions = metrics.counter(
            "ego_mode_transitions_total",
            "Schedule mode switches (the run starts in gallop mode)",
            labelnames=("to",))
        self._m_to_crabstep = transitions.labels("crabstep")
        self._m_to_gallop = transitions.labels("gallop")
        self._m_crabstep_phases = metrics.counter(
            "ego_crabstep_phases_total",
            "Crabstep windows executed (Figure 4, marks 3-4)")
        self._m_interval_discards = metrics.counter(
            "ego_interval_discards_total",
            "Resident units dropped after their eps-interval passed")
        self._m_shrinks = metrics.counter(
            "ego_pressure_shrinks_total",
            "Buffer shrinks forced by storage pressure")
        self._mode = "gallop"
        self.pool: BufferPool[int, Sequence] = BufferPool(
            buffer_units, self._load_unit,
            observer=(self.monitor.buffer_observer()
                      if self.monitor is not None else None),
            metrics=_BufferObs(metrics) if metrics.enabled else None)

    # -- unit loading and metadata ------------------------------------------

    def _load_unit(self, ordinal: int) -> Sequence:
        span_args = ({"unit": ordinal, "mode": self._mode}
                     if self._tracer.enabled else None)
        with self._tracer.span("load", cat="io", args=span_args):
            return self.units.load(ordinal)

    def _needed(self, unit: int, frontier: int) -> bool:
        """Lemma-2 test: can ``unit`` contain mates of ``frontier`` or later?

        ``unit`` is obsolete once ``unit.last + [ε,…,ε] <ego
        frontier.last`` — then no point of ``unit`` can join any point of
        ``frontier`` or of any unit after it.
        """
        meta = self.units.meta
        return not meta[unit].below(meta[frontier].last_cells)

    def _join_units(self, a: int, b: int) -> None:
        """Join the resident units ``a`` and ``b`` (``a == b`` is a self-join)."""
        if self.pair_done is not None and self.pair_done(a, b):
            # Completed (and made durable) before a crash; skip the work
            # but keep the schedule otherwise identical.
            self.stats.pairs_resumed += 1
            self._m_pair_resumed.inc()
            if self.monitor is not None:
                self.monitor.note_unit_pair(a, b)
            return
        meta = self.units.meta
        if a != b and not meta[a].may_join(meta[b]):
            self.stats.unit_pairs_skipped += 1
            self._m_pair_skipped.inc()
            if self._tracer.enabled:
                self._tracer.instant("skip", args={"a": min(a, b),
                                                   "b": max(a, b)})
            return
        self.stats.unit_pairs_joined += 1
        self._m_pair_joined.inc()
        if self.monitor is not None:
            self.monitor.note_unit_pair(a, b)
        on_complete = None
        if self.pair_complete is not None:
            on_complete = partial(self.pair_complete, a, b)
        seq_a = self.pool.peek(a).value
        seq_b = seq_a if a == b else self.pool.peek(b).value
        span_args = ({"a": min(a, b), "b": max(a, b)}
                     if self._tracer.enabled else None)
        # With a parallel joiner the span covers only the submission;
        # the compute happens in worker processes when the schedule
        # drains, and workers do not trace.
        with self._tracer.span("unit_pair", args=span_args):
            self.unit_joiner.submit(seq_a, seq_b, on_complete,
                                    key=(min(a, b), max(a, b)))

    # -- the schedule ---------------------------------------------------------

    def run(self) -> ScheduleStats:
        """Execute the full schedule; returns the accounting."""
        if self.num_units == 0:
            return self.stats
        base_capacity = self.pool.capacity
        self.pool.get(0)
        self.stats.gallop_loads += 1
        self._m_read_gallop.inc()
        if self.monitor is not None:
            self.monitor.note_gallop_load(0)
        self._join_units(0, 0)
        i = 1
        while i < self.num_units:
            frontier = i - 1
            self._cleanup(frontier)
            self._adapt_to_pressure(base_capacity)
            if not self.allow_crabstep:
                i = self._gallop_step(i)
            elif self.pool.has_empty_frame() and self._gallop_sound(frontier):
                i = self._gallop_step(i)
            else:
                i = self._crabstep(i)
        # All loads issued; a parallel joiner now joins the unit pairs
        # it recorded (inline joiners have nothing queued).
        self.unit_joiner.drain()
        if self.monitor is not None:
            self.monitor.check_interval_coverage(self.units.meta,
                                                 self.num_units)
            self.monitor.assert_pin_balance()
        return self.stats

    def _gallop_sound(self, frontier: int) -> bool:
        """Is the gallop invariant intact — every unit that may still join
        a future unit resident?

        With a fixed-size pool this follows from the empty-frame test
        alone, but dynamic resizing under pressure can open a frame right
        after a crabstep discarded still-needed units; galloping then
        would silently drop their pairs.  Residency is checked against
        the Lemma-2 test directly: the unit just below the oldest
        resident must be obsolete (unit last-cells are non-decreasing, so
        everything below it is then obsolete too).
        """
        low = min(self.pool.resident_keys)
        return low == 0 or not self._needed(low - 1, frontier)

    def _adapt_to_pressure(self, base_capacity: int) -> None:
        """Shrink the buffer one frame per step under pressure, regrow after.

        Pressure is read from the file's disk (``under_pressure``, set by
        the fault layer); the pool never shrinks below 2 frames, the
        minimum the schedule needs, so the join completes — more slowly,
        in crabstep mode — rather than aborting.
        """
        under_pressure = bool(getattr(self.units.point_file.disk,
                                      "under_pressure", False))
        if under_pressure and self.pool.capacity > 2:
            # Never evict here: after cleanup every resident frame is one
            # the gallop invariant still needs (its ε-interval is open),
            # so the shrink only consumes free frames.  Once the smaller
            # pool fills, the ordinary full-buffer test pushes the
            # schedule into crabstep, which re-reads from disk and is
            # safe under any residency.
            target = max(2, len(self.pool), self.pool.capacity - 1)
            if target < self.pool.capacity:
                self.pool.set_capacity(target)
                self.stats.pressure_shrinks += 1
                self._m_shrinks.inc()
        elif not under_pressure and self.pool.capacity < base_capacity:
            self.pool.set_capacity(self.pool.capacity + 1)

    def _cleanup(self, frontier: int) -> None:
        """Figure 4, mark 1: drop buffers whose ε-interval has passed."""
        for key in list(self.pool.resident_keys):
            if key != frontier and not self._needed(key, frontier):
                self.pool.discard(key)
                self.stats.evictions += 1
                self._m_interval_discards.inc()

    def _gallop_step(self, i: int) -> int:
        """Figure 4, mark 2: load the next unit and join it with the buffer.

        Without crabstep permission this may evict under LRU, which is
        exactly the I/O thrashing the paper's Figure 3b illustrates; the
        evicted partners are then reloaded one by one.
        """
        if self.allow_crabstep:
            if self._mode != "gallop":
                self._mode = "gallop"
                self._m_to_gallop.inc()
            partners = list(self.pool.resident_keys)
            self.pool.get(i)
            self.stats.gallop_loads += 1
            self._m_read_gallop.inc()
            if self.monitor is not None:
                self.monitor.note_gallop_load(i)
            for b in partners:
                self._join_units(b, i)
            self._join_units(i, i)
            return i + 1
        # Thrashing variant: the new unit is pinned while every partner in
        # its ε-interval is faulted through the LRU pool.
        misses_before = self.pool.stats.misses
        self.pool.get(i, pin=True)
        low = self._interval_low(i)
        for b in range(low, i):
            self.pool.get(b)
            self._join_units(b, i)
        self._join_units(i, i)
        self.pool.unpin(i)
        loads = self.pool.stats.misses - misses_before
        self.stats.gallop_loads += loads
        self._m_read_gallop.inc(loads)
        return i + 1

    def _interval_low(self, unit: int) -> int:
        """Smallest unit index that may contain mates of ``unit`` or later.

        Unit ``j`` is out of the interval once ``j.last + [ε,…,ε] <ego
        unit.first`` (Lemma 2 in cell arithmetic); the last cells of the
        EGO-sorted units are non-decreasing, so the needed units form a
        contiguous range ending at ``unit``.
        """
        meta = self.units.meta
        target_first = meta[unit].first_cells
        low = unit
        while low > 0 and not meta[low - 1].below(target_first):
            low -= 1
        return low

    def _crabstep(self, i: int) -> int:
        """Figure 4, marks 3–4: outer-loop buffering over a pinned window."""
        self.stats.crabstep_phases += 1
        self._m_crabstep_phases.inc()
        if self._mode != "crabstep":
            self._mode = "crabstep"
            self._m_to_crabstep.inc()
        window_start = i
        # Phase 1: discard the stale frames and fill all but one frame
        # with new, pinned units, joining them among each other.
        for key in list(self.pool.resident_keys):
            self.pool.discard(key)
        window: List[int] = []
        while len(window) < self.pool.capacity - 1 and i < self.num_units:
            self.pool.get(i, pin=True)
            self.stats.crabstep_pins += 1
            self._m_read_pin.inc()
            for b in window:
                self._join_units(b, i)
            self._join_units(i, i)
            window.append(i)
            i += 1
        # Phase 2: iterate the remaining frame over the earlier units that
        # are still inside the window's ε-interval (judged against the
        # first point of the window, its EGO-least element).
        reload_low = self._interval_low(window[0])
        for j in range(reload_low, window_start):
            self.pool.get(j)
            self.stats.crabstep_reloads += 1
            self._m_read_reload.inc()
            for b in window:
                self._join_units(j, b)
        self.pool.unpin_all()
        return i

