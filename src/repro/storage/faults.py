"""Deterministic fault injection for the simulated storage stack.

Production-scale similarity joins run for hours over external storage, so
transient read errors, torn writes, silent corruption and outright crashes
are inputs the pipeline must expect, not exceptional conditions.  This
module makes every one of those failure modes *reproducible*: a
:class:`FaultPlan` is seeded and consumed in operation order, so a given
plan injects exactly the same faults at exactly the same operations on
every run — which is what lets tests and benchmarks assert recovery
behaviour instead of merely hoping for it.

The plan drives a :class:`FaultyDisk` wrapper that sits directly above a
:class:`~repro.storage.disk.SimulatedDisk`.  Detection and recovery live
one layer up, in :mod:`repro.storage.integrity` (checksums and retries)
and :mod:`repro.storage.journal` (checkpoint/resume); the usual stack is::

    RetryingDisk(ChecksummedDisk(FaultyDisk(SimulatedDisk, plan)))

Fault kinds
-----------

* **transient read errors** — the read raises :class:`TransientReadError`;
  a re-issued read normally succeeds (each attempt is sampled
  independently), modelling bus glitches and recoverable device errors;
* **bit-flip corruption** — the read succeeds but one byte of the
  returned data is flipped, modelling silent media corruption (only a
  checksum layer can catch this);
* **torn writes** — a write persists only a prefix of its payload while
  reporting full success, modelling a power cut mid-sector;
* **crash points** — at a scheduled global operation index the device
  raises :class:`SimulatedCrash`; a crash during a write optionally tears
  it first, so the on-disk state is exactly what a real interrupted write
  leaves behind;
* **pressure windows** — operation-index ranges during which the device
  reports memory/IO pressure via :attr:`FaultyDisk.under_pressure`; the
  EGO scheduler reacts by shrinking its buffer instead of aborting.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple


def stable_fraction(seed: int, *parts) -> float:
    """A deterministic value in [0, 1) from a seed and arbitrary parts.

    Unlike a stateful RNG, the value depends only on its inputs — not on
    how many decisions came before — which is what lets the parent
    process, every worker process, and a resumed run all agree on the
    same fault decision for the same task.
    """
    text = ":".join(str(p) for p in (seed,) + parts)
    return zlib.crc32(text.encode("utf-8")) / 2.0 ** 32


class FaultInjectionError(IOError):
    """Base class of every error raised by the fault layer."""


class TransientReadError(FaultInjectionError):
    """A read failed transiently; re-issuing it normally succeeds."""


class InjectedTaskError(FaultInjectionError):
    """A unit-pair join task failed by injection (worker fault plan)."""


class SimulatedCrash(RuntimeError):
    """The process 'crashed' at a scheduled operation.

    Deliberately *not* an :class:`IOError`: retry layers must never
    swallow a crash — it has to escape the whole pipeline, exactly like
    a real process death.
    """

    def __init__(self, op_index: int) -> None:
        super().__init__(f"simulated crash at storage operation {op_index}")
        self.op_index = op_index


@dataclass
class FaultLog:
    """Counts of the faults a plan actually injected."""

    transient_read_errors: int = 0
    corrupted_reads: int = 0
    torn_writes: int = 0
    crashes: int = 0

    @property
    def total(self) -> int:
        """Total number of injected faults of any kind."""
        return (self.transient_read_errors + self.corrupted_reads
                + self.torn_writes + self.crashes)

    def reset(self) -> None:
        """Zero every counter in place."""
        self.transient_read_errors = 0
        self.corrupted_reads = 0
        self.torn_writes = 0
        self.crashes = 0


class FaultPlan:
    """A seeded, deterministic schedule of storage faults.

    One plan instance is shared by every :class:`FaultyDisk` of a
    pipeline, so the operation index is global across devices and a crash
    point identifies one specific operation of the whole run.

    Parameters
    ----------
    seed:
        Seed of the private RNG; two plans with equal parameters inject
        identical faults.
    read_error_rate:
        Probability that a read attempt raises :class:`TransientReadError`.
    corrupt_rate:
        Probability that a successful read has one byte bit-flipped.
    torn_write_rate:
        Probability that a write silently persists only a prefix.
    crash_ops:
        Global operation indices (0-based, reads and writes both count) at
        which :class:`SimulatedCrash` is raised.  Each fires at most once.
    tear_on_crash:
        When a crash lands on a write, persist a random prefix first
        (the realistic torn state a power cut leaves).
    pressure_ranges:
        ``(start, end)`` half-open operation-index ranges during which
        :meth:`under_pressure` reports ``True``.
    """

    def __init__(self, seed: int = 0,
                 read_error_rate: float = 0.0,
                 corrupt_rate: float = 0.0,
                 torn_write_rate: float = 0.0,
                 crash_ops: Iterable[int] = (),
                 tear_on_crash: bool = True,
                 pressure_ranges: Sequence[Tuple[int, int]] = ()) -> None:
        for name, rate in (("read_error_rate", read_error_rate),
                           ("corrupt_rate", corrupt_rate),
                           ("torn_write_rate", torn_write_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.seed = seed
        self.read_error_rate = read_error_rate
        self.corrupt_rate = corrupt_rate
        self.torn_write_rate = torn_write_rate
        self.crash_ops = set(int(op) for op in crash_ops)
        self.tear_on_crash = tear_on_crash
        self.pressure_ranges = [(int(a), int(b)) for a, b in pressure_ranges]
        self.injected = FaultLog()
        self._rng = random.Random(seed)
        self._op = 0
        self._pressure_base = 0

    # -- derived plans ------------------------------------------------------

    def without_crashes(self) -> "FaultPlan":
        """A fresh copy of this plan with every crash point removed.

        This is the plan a resumed run uses: the same background fault
        rates keep applying, but the scheduled crash already happened.
        """
        return FaultPlan(seed=self.seed,
                         read_error_rate=self.read_error_rate,
                         corrupt_rate=self.corrupt_rate,
                         torn_write_rate=self.torn_write_rate,
                         crash_ops=(),
                         tear_on_crash=self.tear_on_crash,
                         pressure_ranges=self.pressure_ranges)

    # -- state --------------------------------------------------------------

    @property
    def op_index(self) -> int:
        """Number of operations the plan has adjudicated so far."""
        return self._op

    def under_pressure(self) -> bool:
        """True while the current operation index is in a pressure window.

        The index is taken relative to the last
        :meth:`begin_pressure_scope` call, so pressure windows describe
        positions *within a run* rather than absolute positions in the
        plan's lifetime — without the re-basing, a plan reused for
        back-to-back runs (or shared across concurrent per-shard pools)
        would leak one run's window into the next.
        """
        op = self._op - self._pressure_base
        return any(a <= op < b for a, b in self.pressure_ranges)

    def begin_pressure_scope(self) -> None:
        """Re-base the pressure windows at the current operation index.

        Called at run entry (see :class:`~repro.storage.stats.IOScope`),
        the same pattern that run-scopes the I/O counters: each run sees
        the plan's pressure ranges relative to its own first operation.
        """
        self._pressure_base = self._op

    def _next_op(self) -> int:
        op = self._op
        self._op += 1
        if op in self.crash_ops:
            self.crash_ops.discard(op)
            self.injected.crashes += 1
            raise SimulatedCrash(op)
        return op

    # -- hooks used by FaultyDisk -------------------------------------------

    def on_read(self) -> None:
        """Adjudicate one read attempt; may raise crash or transient error."""
        self._next_op()
        if self.read_error_rate and self._rng.random() < self.read_error_rate:
            self.injected.transient_read_errors += 1
            raise TransientReadError(
                f"injected transient read error at operation {self._op - 1}")

    def mangle_read(self, data: bytes) -> bytes:
        """Possibly flip one byte of read data (silent corruption)."""
        if not data or not self.corrupt_rate:
            return data
        if self._rng.random() >= self.corrupt_rate:
            return data
        self.injected.corrupted_reads += 1
        pos = self._rng.randrange(len(data))
        bit = 1 << self._rng.randrange(8)
        mangled = bytearray(data)
        mangled[pos] ^= bit
        return bytes(mangled)

    def on_write(self, data: bytes) -> Tuple[bytes, Optional[SimulatedCrash]]:
        """Adjudicate one write.

        Returns ``(payload, crash)``: the possibly-torn payload to persist
        and, if the operation is a crash point, the crash to raise *after*
        persisting it.
        """
        try:
            self._next_op()
        except SimulatedCrash as crash:
            if self.tear_on_crash and len(data) > 1:
                self.injected.torn_writes += 1
                return data[:self._rng.randrange(1, len(data))], crash
            return b"", crash
        if (self.torn_write_rate and len(data) > 1
                and self._rng.random() < self.torn_write_rate):
            self.injected.torn_writes += 1
            return data[:self._rng.randrange(1, len(data))], None
        return data, None


class FaultyDisk:
    """A disk wrapper that injects the faults of a :class:`FaultPlan`.

    Exposes the full :class:`~repro.storage.disk.SimulatedDisk` interface;
    accounting (counters, simulated clock) stays on the wrapped disk so
    the whole wrapper stack shares one set of books.  A torn write still
    reports the full requested length — the tear is *silent*, exactly the
    property that makes checksums necessary.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def __getattr__(self, name):
        return getattr(self.__dict__["inner"], name)

    @property
    def simulated_time_s(self) -> float:
        return self.inner.simulated_time_s

    @property
    def under_pressure(self) -> bool:
        """True while the plan's current op index is in a pressure window."""
        return self.plan.under_pressure()

    def __enter__(self) -> "FaultyDisk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def begin_pressure_scope(self) -> None:
        """Re-base the plan's pressure windows at the current op index."""
        self.plan.begin_pressure_scope()

    # -- faulting data path -------------------------------------------------

    def read(self, offset: int, nbytes: int) -> bytes:
        self.plan.on_read()
        return self.plan.mangle_read(self.inner.read(offset, nbytes))

    def write(self, offset: int, data: bytes) -> int:
        payload, crash = self.plan.on_write(data)
        if payload:
            self.inner.write(offset, payload)
        if crash is not None:
            raise crash
        # A torn write is silent: report the full requested length.
        return len(data)

    def append(self, data: bytes) -> int:
        offset = self.size()
        self.write(offset, data)
        return offset


# -- process-level worker faults --------------------------------------------


@dataclass
class WorkerFaultLog:
    """Counts of the worker faults a plan's supervisor actually observed.

    The log lives in the *parent* process: a crashed worker cannot report
    its own death, so the supervisor records each fault as it detects it
    (broken pool, merge-deadline timeout, digest mismatch, task error).
    """

    crashes: int = 0
    stalls: int = 0
    corrupted_results: int = 0
    task_errors: int = 0

    @property
    def total(self) -> int:
        """Total number of observed worker faults of any kind."""
        return (self.crashes + self.stalls + self.corrupted_results
                + self.task_errors)


class WorkerFaultPlan:
    """A seeded, deterministic schedule of process-level task faults.

    Where :class:`FaultPlan` injects faults into the storage data path,
    this plan injects them into the *execution* of unit-pair join tasks
    on the worker pool (see
    :class:`~repro.core.supervisor.SupervisedUnitJoiner`).  Decisions are
    keyed by the unit-pair key ``(a, b)`` and the attempt number, and are
    pure functions of the plan parameters (:func:`stable_fraction`, no
    RNG state) — so the parent, every worker process, and a resumed run
    all adjudicate identically, regardless of scheduling order.

    Fault kinds (precedence ``crash > stall > corrupt > error`` when one
    key matches several):

    * **crash** — the worker process exits hard (``os._exit``), breaking
      the whole pool: every pending task fails and the supervisor must
      recycle the executor;
    * **stall** — the worker sleeps ``stall_seconds`` before computing,
      modelling a hung worker; only a per-task deadline can catch it;
    * **corrupt** — the task computes correctly but one byte of the
      returned pair batch is flipped after the result digest is taken,
      modelling IPC/serialisation corruption (detected by the digest);
    * **error** — the task raises :class:`InjectedTaskError`, modelling a
      transient in-process failure (OOM kill handler, lost future).

    Parameters
    ----------
    seed:
        Seed folded into every decision hash.
    crash_pairs, stall_pairs, corrupt_pairs, error_pairs:
        Explicit unit-pair keys ``(a, b)`` to fault (order-normalised).
    crash_rate, stall_rate, corrupt_rate, error_rate:
        Per-pair probabilities, adjudicated by stable hash of
        ``(seed, kind, key)`` — independent of execution order.
    stall_seconds:
        How long a stalled worker sleeps.  Make this much larger than
        the supervisor's task deadline or the stall may complete
        undetected.
    max_attempt:
        Faults fire only while ``attempt <= max_attempt`` (default 0:
        first attempt only, so one retry recovers).  ``None`` makes the
        fault permanent — it fires on *every* attempt, including the
        quarantine's inline retry, which is how a poisoned task (a data
        bug rather than an environment fault) is modelled.
    """

    KINDS: Tuple[str, ...] = ("crash", "stall", "corrupt", "error")

    def __init__(self, seed: int = 0,
                 crash_pairs: Iterable[Tuple[int, int]] = (),
                 stall_pairs: Iterable[Tuple[int, int]] = (),
                 corrupt_pairs: Iterable[Tuple[int, int]] = (),
                 error_pairs: Iterable[Tuple[int, int]] = (),
                 crash_rate: float = 0.0,
                 stall_rate: float = 0.0,
                 corrupt_rate: float = 0.0,
                 error_rate: float = 0.0,
                 stall_seconds: float = 30.0,
                 max_attempt: Optional[int] = 0) -> None:
        self.seed = int(seed)
        self.pairs = {
            "crash": self._normalise(crash_pairs),
            "stall": self._normalise(stall_pairs),
            "corrupt": self._normalise(corrupt_pairs),
            "error": self._normalise(error_pairs),
        }
        self.rates = {"crash": crash_rate, "stall": stall_rate,
                      "corrupt": corrupt_rate, "error": error_rate}
        for kind, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{kind}_rate must be in [0, 1], got {rate}")
        if stall_seconds <= 0.0:
            raise ValueError(
                f"stall_seconds must be positive, got {stall_seconds}")
        self.stall_seconds = float(stall_seconds)
        if max_attempt is not None and max_attempt < 0:
            raise ValueError(
                f"max_attempt must be >= 0 or None, got {max_attempt}")
        self.max_attempt = max_attempt
        self.injected = WorkerFaultLog()

    @staticmethod
    def _normalise(pairs: Iterable[Tuple[int, int]]) -> frozenset:
        return frozenset((min(int(a), int(b)), max(int(a), int(b)))
                         for a, b in pairs)

    @property
    def any_faults(self) -> bool:
        """True when the plan can inject at least one fault."""
        return (any(self.pairs.values())
                or any(rate > 0.0 for rate in self.rates.values()))

    def decide(self, key: Tuple[int, int],
               attempt: int) -> Optional[str]:
        """The fault kind to inject for ``key`` at ``attempt``, or None.

        Pure function of the plan parameters: callable anywhere (parent,
        worker, resumed run) with the same answer.
        """
        if self.max_attempt is not None and attempt > self.max_attempt:
            return None
        key = (min(int(key[0]), int(key[1])),
               max(int(key[0]), int(key[1])))
        for kind in self.KINDS:
            if key in self.pairs[kind]:
                return kind
            rate = self.rates[kind]
            if rate and stable_fraction(self.seed, kind, *key) < rate:
                return kind
        return None

    def record(self, kind: str) -> None:
        """Count one observed fault (called by the supervising parent)."""
        attr = {"crash": "crashes", "stall": "stalls",
                "corrupt": "corrupted_results",
                "error": "task_errors"}[kind]
        setattr(self.injected, attr, getattr(self.injected, attr) + 1)
