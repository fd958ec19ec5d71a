"""The parallel executor of the external join, with its fault ladder.

:class:`SupervisedUnitJoiner` is the one way the external EGO join runs
in parallel.  The scheduler submits unit pairs exactly as it would to
the inline :class:`~repro.core.parallel.SerialUnitJoiner`; the joiner
only *records* each one as an ordered event ``(seq, a, b)``.  When the
schedule drains, the events are cut into contiguous unit-range shards
(:func:`~repro.core.shard.plan_shards`, one cost-balanced target per
worker), each shard runs as one task on a process pool, and the workers
reopen the sorted file from its picklable form
(:class:`~repro.core.units.UnitFileRef`) and load their units through
it, as :class:`~repro.core.sequence.Sequence` objects at the run's grid
ε — no arrays are shipped.
Results are merged strictly in schedule order, so the pair stream,
durable pair file, journal and metrics are byte-identical to the serial
join.

A shard is only the transport.  Every fault decision is keyed by the
**unit pair**, so a shard task is a batch of independent unit-pair
tasks, each with its own attempt counter:

* **bounded retries with deterministic backoff** — a failed unit pair
  is re-run (in its shard's next task) up to ``max_task_retries``
  times; the backoff before each retry is a pure function of
  ``(seed, unit pair, attempt)``, so recorded backoff totals contain no
  wall-clock;
* **a progress deadline** — each shard task advances a shared counter
  per finished unit pair; when no unit pair of a running task finishes
  for ``task_timeout`` seconds, the pair it is stuck on is blamed, the
  pool (which still holds the hung worker) is killed and recycled, and
  unfinished pairs are resubmitted;
* **result digests** — every unit pair's batch carries a CRC digest
  recomputed by the parent; a mismatch (bit-flip in transit, a
  mis-merged buffer) is a fault of that pair, never merged;
* **poisoned-task quarantine** — a unit pair that keeps failing is
  retried once *inline* in the parent under the runtime invariant
  monitor (:mod:`repro.verify.invariants`).  Success means the failures
  were environment faults and the join continues; failure means the
  pair itself is bad (a data bug) and :class:`TaskPoisonedError` aborts
  the run;
* **graceful degradation** — when pool recycles exceed
  ``max_pool_recycles`` the supervisor stops trusting process pools and
  runs every remaining unit pair inline, serially.  The join
  *completes*, exactly, with ``stats.degraded`` set.

Workers verify every page they read against the CRCs the parent's
checksum layer recorded, so ``checksums=True`` protects them as it
protects the serial join; a mismatch raises
:class:`~repro.storage.integrity.CorruptPageError` from the join, as
the serial run would.

Decisions are applied to the stats, metrics and ``decision_hook`` when
their unit pair is merged — in schedule order, not in the order the
pool happened to report failures — so the ledger of a given
:class:`~repro.storage.faults.WorkerFaultPlan` replays identically
(wall-clock is used only to *detect* hangs, never recorded).  The one
timing-dependent input is which pair a worker was on when the pool
broke, read for crashes beyond a pair's first attempt or with no fault
plan.  The crash/resume journal replays the decisions of completed
unit pairs: a resumed run seeds its counters from the journal,
re-executes only unfinished pairs (whose faults re-fire identically),
and ends with the same totals as an uninterrupted run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import zlib
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                CancelledError, ProcessPoolExecutor, wait)
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..storage.buffer import BufferPool
from ..storage.faults import (InjectedTaskError, WorkerFaultPlan,
                              stable_fraction)
from ..storage.integrity import CorruptPageError
from ..storage.stats import CPUCounters
from .parallel import UnitJoinSpec
from .sequence import Sequence
from .sequence_join import JoinContext
from .shard import ShardSpec, UnitPairEvent, plan_shards
from .units import SortedUnits, UnitFileRef, require_file_backed


class SupervisorError(RuntimeError):
    """Base class of unrecoverable supervisor failures."""


class TaskPoisonedError(SupervisorError):
    """A task failed its quarantine retry: the task itself is bad.

    The inline retry runs in the parent process under the invariant
    monitor, so an environment fault (dead worker, bad pool) cannot
    cause it — a failure here reproduces with no pool involved at all,
    which is the signature of a data/algorithm bug.  Retrying further
    would loop forever on the same bug, so the join aborts.
    """

    def __init__(self, key: Tuple[int, int], cause: BaseException) -> None:
        super().__init__(
            f"unit pair {key} failed its inline quarantine retry "
            f"({type(cause).__name__}: {cause}); this reproduces without "
            f"a worker pool, so it is a task bug, not an environment "
            f"fault")
        self.key = key
        self.cause = cause


class PoolFailureError(SupervisorError):
    """The worker pool kept failing and degradation was disabled."""


#: Backoff before retry ``k`` of a unit pair is
#: ``BACKOFF_BASE_S · BACKOFF_FACTOR^(k-1) · (0.5 + u)`` with ``u`` a
#: stable hash of ``(BACKOFF_SEED, key, k)`` — deterministic jitter, no
#: RNG state.  A real sleep is capped at ``MAX_SLEEP_S``.
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_SEED = 0
MAX_SLEEP_S = 1.0


@dataclass
class SupervisorPolicy:
    """Tunable fault-tolerance policy of a :class:`SupervisedUnitJoiner`.

    ``task_timeout`` is the progress deadline in *real* seconds: a
    worker that finishes no unit pair for this long is declared hung.
    A shard of many fast unit pairs may run far longer in total.  It is
    the only wall-clock quantity in the supervisor, used for detection
    only — nothing derived from it is recorded.  ``None`` disables hang
    detection (a genuinely hung worker then blocks forever).

    The *simulated* backoff total (:func:`backoff_for`) is always
    recorded; ``real_sleep`` controls whether the parent also sleeps it
    (capped at :data:`MAX_SLEEP_S`), which production wants and tests
    turn off.
    """

    task_timeout: Optional[float] = None
    max_task_retries: int = 2
    max_pool_recycles: int = 3
    degrade: bool = True
    real_sleep: bool = True

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0.0:
            raise ValueError(
                f"task_timeout must be positive or None, "
                f"got {self.task_timeout}")
        if self.max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, "
                f"got {self.max_task_retries}")
        if self.max_pool_recycles < 0:
            raise ValueError(
                f"max_pool_recycles must be >= 0, "
                f"got {self.max_pool_recycles}")


def backoff_for(key: Tuple[int, int], attempt: int) -> float:
    """Deterministic backoff (simulated seconds) before retry ``attempt``."""
    attempt = max(1, int(attempt))
    base = BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1)
    jitter = stable_fraction(BACKOFF_SEED, "backoff",
                             key[0], key[1], attempt)
    return base * (0.5 + jitter)


#: Decision kinds journaled per event.  ``error``/``corrupt``/
#: ``timeout``/``crash`` are blamed-task retries (each adds one retry
#: plus its cause counter plus backoff); the rest are one-shot markers.
RETRY_KINDS: Tuple[str, ...] = ("error", "corrupt", "timeout", "crash")
EVENT_KINDS: Tuple[str, ...] = RETRY_KINDS + (
    "pool_recycle", "quarantine", "degrade", "inline")

_RETRY_STAT = {"error": "task_errors", "corrupt": "corrupt_results",
               "timeout": "timeouts", "crash": "crashes_detected"}


@dataclass
class SupervisorStats:
    """Deterministic accounting of one supervised join run.

    Every field is a pure function of the workload and the fault plan —
    wall-clock never enters (``backoff_simulated_s`` is the *scheduled*
    backoff, not time slept) — so two runs of the same seeded plan, or
    a crashed run plus its resume, report identical stats.
    """

    retries: int = 0
    task_errors: int = 0
    corrupt_results: int = 0
    timeouts: int = 0
    crashes_detected: int = 0
    pool_recycles: int = 0
    quarantined: int = 0
    inline_tasks: int = 0
    degraded: bool = False
    backoff_simulated_s: float = 0.0

    @property
    def faults_survived(self) -> int:
        """Total blamed-task failures the run recovered from."""
        return self.retries

    def apply_event(self, kind: str, key: Tuple[int, int],
                    attempt: int) -> None:
        """Fold one journaled decision event into the counters."""
        if kind in RETRY_KINDS:
            self.retries += 1
            setattr(self, _RETRY_STAT[kind],
                    getattr(self, _RETRY_STAT[kind]) + 1)
            self.backoff_simulated_s += backoff_for(key, attempt)
        elif kind == "pool_recycle":
            self.pool_recycles += 1
        elif kind == "quarantine":
            self.quarantined += 1
        elif kind == "degrade":
            self.degraded = True
        elif kind == "inline":
            self.inline_tasks += 1
        else:
            raise ValueError(f"unknown supervisor event kind {kind!r}")


def replay_stats(
        events: Iterable[Tuple[str, int, int, int]]) -> SupervisorStats:
    """Reconstruct :class:`SupervisorStats` from journaled events."""
    stats = SupervisorStats()
    for kind, a, b, attempt in events:
        stats.apply_event(kind, (a, b), attempt)
    return stats


# -- worker side ------------------------------------------------------------


def _result_digest(batch: Optional[tuple]) -> int:
    """CRC32 digest of one unit pair's ``(ids_a, ids_b, dists)`` batch.

    Order-sensitive; an empty batch travels as ``None`` and digests to 0.
    """
    h = 0
    for array in batch or ():
        if array is not None:
            h = zlib.crc32(np.ascontiguousarray(array).tobytes(), h)
    return h


def _load_pair(pool: BufferPool, a: int, b: int
               ) -> Tuple[Sequence, Sequence]:
    """Units ``(a, b)`` through ``pool``; one object twice for a self
    pair, as :meth:`~repro.core.parallel.UnitJoinSpec.run` expects."""
    seq_a = pool.get(a)
    return seq_a, seq_a if a == b else pool.get(b)


#: Per-process state of a pool worker, set by its initialiser.
_UNIT_STATE: dict = {}


def _init_supervised_worker(spec: UnitJoinSpec,
                            worker_plan: Optional[WorkerFaultPlan],
                            progress, ref: UnitFileRef,
                            buffer_units: int) -> None:
    # An LRU of the schedule's own frame budget serves the ε-interval
    # partners a shard's consecutive unit pairs share.
    _UNIT_STATE.update(spec=spec, worker_plan=worker_plan,
                       progress=progress,
                       pool=BufferPool(buffer_units, ref.open().load))


def _run_shard(slot: int, events: List[Tuple[int, int, int, int]]):
    """Worker entry point: one shard task, fault-adjudicated per unit pair.

    ``events`` are ``(seq, a, b, attempt)``.  Returns ``(seq, result)``
    per event, where ``result`` is ``(batch, cpu, metrics_data, digest)``
    — the pair batch ``(ids_a, ids_b, dists)`` or ``None`` when empty,
    the CPU-counter deltas as a tuple — or ``None`` when the unit pair
    failed.  Most unit pairs of a join yield no pairs, so the compact
    form keeps shard results small.  The digest is computed *before*
    any injected corruption, so a corrupted batch always mismatches in
    the parent.  ``progress[slot]`` counts finished unit pairs — the
    heartbeat the parent's deadline and crash blame read.
    """
    spec: UnitJoinSpec = _UNIT_STATE["spec"]
    plan: Optional[WorkerFaultPlan] = _UNIT_STATE["worker_plan"]
    pool: BufferPool = _UNIT_STATE["pool"]
    progress = _UNIT_STATE["progress"]
    outcomes = []
    for seq, a, b, attempt in events:
        key = (a, b)
        fault = plan.decide(key, attempt) if plan is not None else None
        if fault == "crash":
            # A hard exit, not an exception: the parent must see a broken
            # pool, exactly as a real segfault/OOM kill would present.
            os._exit(17)
        if fault == "stall":
            time.sleep(plan.stall_seconds)
        # Storage errors (CorruptPageError) escape the task: they are
        # data faults, raised by the join exactly as in the serial run.
        pair = _load_pair(pool, a, b)
        try:
            if fault == "error":
                raise InjectedTaskError(
                    f"injected task error for unit pair {key} "
                    f"attempt {attempt}")
            metrics = MetricsRegistry() if spec.collect_metrics else None
            (out_a, out_b, dists), cpu = spec.run(*pair, metrics=metrics)
        except Exception:
            outcomes.append((seq, None))
        else:
            batch = (out_a, out_b, dists) if out_a.size else None
            digest = _result_digest(batch)
            if fault == "corrupt":
                if batch is not None:
                    out_a = out_a.copy()
                    view = out_a.view(np.uint8)
                    pos = int(stable_fraction(plan.seed, "pos", *key)
                              * len(view)) % len(view)
                    view[pos] ^= 1 << int(
                        stable_fraction(plan.seed, "bit", *key) * 8) % 8
                    batch = (out_a, out_b, dists)
                else:
                    digest ^= 1  # empty batch: corrupt the digest itself
            metrics_data = metrics.collect() if metrics is not None else None
            outcomes.append((seq, (batch, cpu, metrics_data, digest)))
        progress[slot] += 1
    return outcomes


# -- parent side ------------------------------------------------------------


class _Task:
    """Ledger entry of one unit pair: the unit of retry, blame and quarantine.

    ``decisions`` collects the supervisor decisions charged to this pair
    as they happen; they are applied to the stats, metrics and journal
    when the pair merges, so the ledger's order is the schedule's.
    """

    __slots__ = ("seq", "key", "on_complete", "attempt", "quarantined",
                 "decisions", "out")

    def __init__(self, seq: int, key: Tuple[int, int],
                 on_complete: Optional[Callable[[], None]]) -> None:
        self.seq = seq
        self.key = key
        self.on_complete = on_complete
        self.attempt = 0
        self.quarantined = False
        self.decisions: Tuple[Tuple[str, int], ...] = ()
        self.out = None


class _Flight:
    """One shard task on the pool, with its deadline bookkeeping."""

    __slots__ = ("spec", "batch", "future", "base", "seen", "since")

    def __init__(self, spec: ShardSpec, batch: List[_Task], future,
                 base: int) -> None:
        self.spec = spec
        self.batch = batch
        self.future = future
        self.base = base  # progress counter at submission
        self.seen = base
        self.since = time.monotonic()

    def current(self, progress) -> _Task:
        """The unit pair the worker is on (or was on when it died)."""
        done = progress[self.spec.index] - self.base
        return self.batch[min(done, len(self.batch) - 1)]


class SupervisedUnitJoiner:
    """The parallel unit-pair executor of the external join.

    Drop-in execution backend for
    :class:`~repro.core.scheduler.EGOScheduler`: same ``submit`` /
    ``drain`` / ``close`` protocol and byte-identical output as the
    inline joiner, plus the per-unit-pair fault ladder described in the
    module docstring.

    Parameters
    ----------
    ctx:
        The parent join context results are merged into.
    workers:
        Pool size, and the number of shards the plan targets.
    units, buffer_units:
        The I/O units the scheduler runs over and its frame budget;
        workers reopen the units' file, which must be an OS file
        (:func:`~repro.core.units.require_file_backed`).
    policy:
        :class:`SupervisorPolicy` (defaults are production-safe).
    worker_plan:
        Optional :class:`~repro.storage.faults.WorkerFaultPlan` shipped
        to every worker; also consulted in the parent to attribute pool
        breakage to the unit pairs that crashed it.
    decision_hook:
        ``hook(kind, key, attempt)`` called for every live supervisor
        decision — the journal wiring that makes resume replay exact.
    replay_events:
        Journaled ``(kind, a, b, attempt)`` events of *completed* unit
        pairs from a previous incarnation; folded into the stats (and
        metrics) before any new work, so a resumed run's totals match
        the uninterrupted run.  A replayed ``degrade`` event starts the
        joiner in degraded (serial) mode.
    """

    def __init__(self, ctx: JoinContext, workers: int,
                 units: SortedUnits, buffer_units: int,
                 policy: Optional[SupervisorPolicy] = None,
                 worker_plan: Optional[WorkerFaultPlan] = None,
                 decision_hook: Optional[
                     Callable[[str, Tuple[int, int], int], None]] = None,
                 replay_events: Iterable[
                     Tuple[str, int, int, int]] = ()) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.ctx = ctx
        self.workers = workers
        require_file_backed(units.point_file.disk)
        self.units = units
        self.buffer_units = buffer_units
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.worker_plan = worker_plan
        self.stats = SupervisorStats()
        self._decision_hook = decision_hook
        self._metrics = ctx.metrics
        self._m_events = None  # registered lazily: a fault-free run's
        self._m_degraded = None  # metrics dump must match the serial one
        self._spec = UnitJoinSpec.of(ctx)
        self._tasks: List[_Task] = []
        self._next_emit = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._ref: Optional[UnitFileRef] = None
        # The parent's copy of the file for inline joins, and its LRU.
        self._inline_units: Optional[SortedUnits] = None
        self._inline_pool: Optional[BufferPool] = None
        self._progress = None
        self._queue: deque = deque()
        self._inflight: Dict[int, _Flight] = {}
        self._degraded = False
        for kind, a, b, attempt in replay_events:
            self._record(kind, (a, b), attempt, replay=True)
        self._recycles = self.stats.pool_recycles

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "SupervisedUnitJoiner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_supervised_worker,
                initargs=(self._spec, self.worker_plan, self._progress,
                          self._ref, self.buffer_units))
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on (possibly hung) workers."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Terminate worker processes first: shutdown() never kills, and
        # the interpreter's atexit hook would otherwise join a stalled
        # worker for the full length of its hang.
        for proc in list((getattr(pool, "_processes", None) or {})
                         .values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Release the pool; never blocks on hung or abandoned workers."""
        if self._m_events is not None:
            # Events fired: publish the run's backoff total.  Registered
            # lazily like the event counter, so a fault-free run's
            # metrics dump stays byte-identical to the serial one.
            self._metrics.gauge(
                "ego_supervisor_backoff_simulated_seconds",
                "Deterministic (scheduled) retry backoff total",
                unit="s").set(round(self.stats.backoff_simulated_s, 9))
        # Only an exception leaves a pool behind (drain shuts it down),
        # and then tasks may still be in flight: kill, don't wait — a
        # hung worker must not turn an error into a deadlock.
        self._kill_pool()
        if self._inline_units is not None:
            self._inline_units.close()
            self._inline_units = self._inline_pool = None

    # -- bookkeeping --------------------------------------------------------

    def _metric_events(self):
        if self._m_events is None:
            self._m_events = self._metrics.counter(
                "ego_supervisor_events_total",
                "Supervisor fault-handling decisions, by kind",
                labelnames=("event",))
        return self._m_events

    def _record(self, kind: str, key: Tuple[int, int], attempt: int,
                replay: bool = False) -> None:
        """Apply one decision: stats, metrics, journal, mode flips."""
        self.stats.apply_event(kind, key, attempt)
        self._metric_events().labels(kind).inc()
        if kind == "degrade":
            self._degraded = True
            if self._m_degraded is None:
                self._m_degraded = self._metrics.gauge(
                    "ego_supervisor_degraded",
                    "1 when the run finished in degraded (serial) mode")
            self._m_degraded.set(1)
        if not replay and self._decision_hook is not None:
            self._decision_hook(kind, key, attempt)

    def _bump(self, task: _Task, kind: str) -> None:
        """Blame ``task`` for one failure of ``kind`` and plan its retry."""
        task.attempt += 1
        if self.worker_plan is not None:
            self.worker_plan.record(
                {"error": "error", "corrupt": "corrupt",
                 "timeout": "stall", "crash": "crash"}[kind])
        task.decisions += ((kind, task.attempt),)
        if task.attempt > self.policy.max_task_retries:
            task.quarantined = True
            task.decisions += (("quarantine", task.attempt),)
            return
        if self.policy.real_sleep:
            time.sleep(min(backoff_for(task.key, task.attempt), MAX_SLEEP_S))

    def _pending(self, task: _Task) -> bool:
        """Still to be run on the pool (not merged, done or quarantined)."""
        return (task.seq >= self._next_emit and task.out is None
                and not task.quarantined)

    # -- submission ---------------------------------------------------------

    def submit(self, seq_a: Sequence, seq_b: Sequence,
               on_complete: Optional[Callable[[], None]] = None,
               key: Optional[Tuple[int, int]] = None) -> None:
        """Record one unit pair; it is joined when the schedule drains.

        ``key`` is the pair's unit ordinals ``(a, b)`` with ``a ≤ b``
        (the scheduler passes the lower ordinal's sequence first); it
        keys the worker's reads, fault decisions, backoff jitter and the
        journal's decision log.  The sequences are not kept: workers load
        the units again from the file.
        """
        self._tasks.append(_Task(len(self._tasks),
                                 (int(key[0]), int(key[1])), on_complete))

    @property
    def events(self) -> List[UnitPairEvent]:
        """Every recorded unit pair, in submission (= merge) order."""
        return [UnitPairEvent(t.seq, *t.key) for t in self._tasks]

    # -- draining -----------------------------------------------------------

    def drain(self) -> None:
        """Join every recorded unit pair and merge them in schedule order."""
        if self._next_emit == len(self._tasks):
            return
        specs = self._plan()
        # One heartbeat slot per shard, indexed by the shard's plan index.
        self._progress = multiprocessing.RawArray("q", specs[-1].index + 1)
        self._queue = deque(specs)
        while self._next_emit < len(self._tasks):
            if not self._degraded:
                self._dispatch()
                if self._inflight:
                    self._collect()
            self._advance()
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True)

    def _plan(self) -> List[ShardSpec]:
        """Shard the unmerged unit pairs, one balanced target per worker."""
        units = self.units
        self._ref = units.ref()
        specs = plan_shards(len(units), self.events[self._next_emit:],
                            dict(enumerate(units.records)),
                            self.workers, units.meta)
        return [s for s in specs if s.events]

    def _dispatch(self) -> None:
        """Start queued shard tasks while a worker is free."""
        while self._queue and len(self._inflight) < self.workers:
            spec = self._queue.popleft()
            batch = [self._tasks[ev.seq] for ev in spec.events
                     if self._pending(self._tasks[ev.seq])]
            if not batch:
                continue
            # Read the heartbeat before the worker can advance it.
            base = self._progress[spec.index]
            try:
                future = self._ensure_pool().submit(
                    _run_shard, spec.index,
                    [(t.seq, t.key[0], t.key[1], t.attempt) for t in batch])
            except BrokenExecutor:
                # A crash landed between tasks; the ladder runs on it.
                self._queue.appendleft(spec)
                self._on_broken_pool()
                return
            self._inflight[spec.index] = _Flight(spec, batch, future, base)

    def _collect(self) -> None:
        """Wait for shard results (or a poll tick) and run the ladder."""
        timeout = self.policy.task_timeout
        wait([f.future for f in self._inflight.values()],
             timeout=None if timeout is None else timeout / 4,
             return_when=FIRST_COMPLETED)
        broken = False
        for index in sorted(self._inflight):
            flight = self._inflight[index]
            if not flight.future.done():
                continue
            try:
                outcomes = flight.future.result()
            except (BrokenExecutor, CancelledError):
                broken = True
                continue
            except CorruptPageError:
                raise
            except Exception:  # the task itself failed, outside a pair
                outcomes = []
                self._bump(flight.current(self._progress), "error")
            del self._inflight[index]
            for seq, out in outcomes:
                task = self._tasks[seq]
                if out is None:
                    self._bump(task, "error")
                elif _result_digest(out[0]) != out[-1]:
                    self._bump(task, "corrupt")
                else:
                    task.out = out[:-1]
            if any(self._pending(t) for t in flight.batch):
                self._queue.appendleft(flight.spec)
        if broken:
            self._on_broken_pool()
        elif timeout is not None:
            self._check_deadlines(timeout)

    def _check_deadlines(self, timeout: float) -> None:
        """Blame the unit pair of a task that made no progress in time."""
        now = time.monotonic()
        for index in sorted(self._inflight):
            flight = self._inflight[index]
            count = self._progress[index]
            if count != flight.seen:
                flight.seen, flight.since = count, now
            elif now - flight.since > timeout:
                stalled = flight.current(self._progress)
                self._bump(stalled, "timeout")
                self._recycle(stalled)
                return

    def _on_broken_pool(self) -> None:
        """The pool died under us; blame the crashing pair(s) and recycle.

        Each running task's heartbeat names the unit pair its worker was
        on.  With a fault plan the blame is exact (the plan is a pure
        function both sides agree on), and covers every pending pair —
        running or still queued — whose plan decides ``crash`` on its
        first attempt, so one pool failure absorbs all first-attempt
        crashes.  A pair that crashes again on a retry pays only when a
        worker is seen on it, so repeated crashes spend the pool budget
        and degrade the run.  Without a plan, the pair the oldest
        running task was on pays — or, with nothing running, the oldest
        pending pair.
        """
        current = [flight.current(self._progress)
                   for _i, flight in sorted(self._inflight.items())]
        pending = [t for t in self._tasks[self._next_emit:]
                   if self._pending(t)]
        blamed = [t for t in pending if self.worker_plan is not None
                  and (t.attempt == 0 or t in current)
                  and self.worker_plan.decide(t.key, t.attempt) == "crash"]
        if not blamed:
            blamed = current[:1] or pending[:1]
        for task in blamed:
            self._bump(task, "crash")
        self._recycle(blamed[0])

    def _recycle(self, blamed: _Task) -> None:
        """Replace the pool, or give up on pools entirely (degrade)."""
        self._kill_pool()
        for index in sorted(self._inflight, reverse=True):
            self._queue.appendleft(self._inflight[index].spec)
        self._inflight.clear()
        self._recycles += 1
        blamed.decisions += (("pool_recycle", blamed.attempt),)
        if self._recycles > self.policy.max_pool_recycles:
            if self.policy.degrade:
                blamed.decisions += (("degrade", blamed.attempt),)
                self._degraded = True
                return
            raise PoolFailureError(
                f"worker pool failed {self._recycles} times "
                f"(limit {self.policy.max_pool_recycles}) and degradation "
                f"is disabled")

    # -- merging and inline execution ---------------------------------------

    def _advance(self) -> None:
        """Merge finished unit pairs, oldest first.

        Only the head of the schedule order is ever merged — that is
        what keeps the stream deterministic.  Quarantined pairs, and
        every pair once the joiner is degraded, run inline when they
        reach the head.
        """
        while self._next_emit < len(self._tasks):
            task = self._tasks[self._next_emit]
            if self._degraded or task.quarantined:
                out = self._finish_inline(task)
            elif task.out is not None:
                out = task.out
            else:
                return
            task.out = None
            self._next_emit += 1
            self._merge(task, out)

    def _run_task_inline(self, task: _Task, pair, invariants: bool):
        """Join one unit pair in the parent, shaped like a worker result."""
        if self.worker_plan is not None \
                and self.worker_plan.decide(task.key, task.attempt) \
                == "error":
            # Only the "error" kind models a fault in the task itself;
            # crash/stall/corrupt are environment faults a pool-free
            # retry deliberately escapes.
            raise InjectedTaskError(
                f"injected task error for unit pair {task.key} "
                f"attempt {task.attempt} (inline)")
        # Metrics are recorded straight into the parent registry (we
        # are at the head of the merge order, so the ordering matches
        # the serial joiner); no snapshot to merge.
        batch, cpu = self._spec.run(*pair, metrics=self.ctx.metrics,
                                    invariants=invariants)
        return batch, cpu, None

    def _finish_inline(self, task: _Task):
        """Join one unit pair in the parent: the bottom of the ladder.

        Quarantined pairs run under the invariant monitor and are the
        last word: success clears them (environment fault), any failure
        is a :class:`TaskPoisonedError`.  Degraded-mode pairs retry
        through the same blame ladder until they succeed or quarantine.
        """
        if self._inline_units is None:
            self._inline_units = self._ref.open()
            self._inline_pool = BufferPool(self.buffer_units,
                                           self._inline_units.load)
        pair = _load_pair(self._inline_pool, *task.key)
        while True:
            if task.quarantined:
                try:
                    return self._run_task_inline(task, pair,
                                                 invariants=True)
                except Exception as exc:
                    raise TaskPoisonedError(task.key, exc) from exc
            try:
                out = self._run_task_inline(task, pair, invariants=False)
            except Exception:
                self._bump(task, "error")
                continue
            task.decisions += (("inline", task.attempt),)
            return out

    def _merge(self, task: _Task, out) -> None:
        for kind, attempt in task.decisions:
            self._record(kind, task.key, attempt)
        batch, cpu, metrics_data = out
        if self.ctx.cpu is not None:
            for f, delta in zip(dataclass_fields(CPUCounters), cpu):
                setattr(self.ctx.cpu, f.name,
                        getattr(self.ctx.cpu, f.name) + delta)
        # Worker metric deltas fold in schedule order, the same order the
        # serial joiner records them inline — counters and histograms are
        # additive, so the merged registry is identical whichever worker
        # computed the deltas.
        if metrics_data:
            self.ctx.metrics.merge(metrics_data)
        if batch is not None:
            self.ctx.result.add_batch(*batch)
        if task.on_complete is not None:
            task.on_complete()
