"""Operation counters shared by the storage and join layers.

The paper evaluates algorithms on a real disk; this reproduction replaces
wall-clock measurement with exact operation counting (random/sequential
disk accesses, bytes moved, distance computations) which the cost model in
:mod:`repro.analysis.costmodel` converts into simulated seconds using the
device constants published in Section 5 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class IOCounters:
    """Counts of physical I/O operations performed against one disk.

    The fault/retry fields are filled in by the robustness layers of
    :mod:`repro.storage.integrity`: ``read_faults`` counts reads that
    failed detectably (transient error or checksum mismatch),
    ``read_retries`` the re-issues a :class:`RetryPolicy` performed,
    ``corrupt_pages`` the checksum mismatches detected, and
    ``retry_backoff_s`` the simulated seconds spent backing off.
    """

    random_reads: int = 0
    sequential_reads: int = 0
    random_writes: int = 0
    sequential_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_faults: int = 0
    read_retries: int = 0
    corrupt_pages: int = 0
    retry_backoff_s: float = 0.0

    @property
    def total_accesses(self) -> int:
        """Total number of physical accesses (reads and writes)."""
        return (self.random_reads + self.sequential_reads
                + self.random_writes + self.sequential_writes)

    @property
    def total_reads(self) -> int:
        """Total number of read accesses, random plus sequential."""
        return self.random_reads + self.sequential_reads

    @property
    def total_writes(self) -> int:
        """Total number of write accesses, random plus sequential."""
        return self.random_writes + self.sequential_writes

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> "IOCounters":
        """Return an independent copy of the current counts."""
        return IOCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def __add__(self, other: "IOCounters") -> "IOCounters":
        return IOCounters(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    def __sub__(self, other: "IOCounters") -> "IOCounters":
        return IOCounters(**{
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)
        })


@dataclass
class CPUCounters:
    """Counts of the CPU operations that dominate join cost.

    ``distance_calculations`` counts invocations of the point-to-point
    distance test; ``dimension_evaluations`` counts how many per-dimension
    squared differences were actually accumulated before the early abort of
    Figure 7 fired (or the full dimension count when it did not).
    ``sequence_pairs`` counts recursive sequence-pair inspections in
    ``join_sequences`` and ``sequence_exclusions`` how many of those were
    pruned by the inactive-dimension rule.
    """

    distance_calculations: int = 0
    dimension_evaluations: int = 0
    sequence_pairs: int = 0
    sequence_exclusions: int = 0
    key_comparisons: int = 0
    mbr_tests: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> "CPUCounters":
        """Return an independent copy of the current counts."""
        return CPUCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def __add__(self, other: "CPUCounters") -> "CPUCounters":
        return CPUCounters(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    def __sub__(self, other: "CPUCounters") -> "CPUCounters":
        return CPUCounters(**{
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)
        })


class SimulatedClock:
    """Simulated seconds a device has charged: in total and per scope.

    ``simulated_time_s`` grows over the device's whole life;
    ``scope_time_s`` restarts from zero at every
    :meth:`begin_time_scope`.  A run's seconds are therefore summed from
    zero, in the order they were charged, whatever the device did
    before — subtracting two readings of the ever-growing total instead
    would leave the result off in its last bits once the total is large.
    Every disk of the storage layer mixes this in; wrappers delegate to
    the disk they wrap.
    """

    simulated_time_s: float
    scope_time_s: float

    def reset_clock(self) -> None:
        """Zero both clocks."""
        self.simulated_time_s = 0.0
        self.scope_time_s = 0.0

    def charge_time(self, seconds: float) -> None:
        """Add ``seconds`` to both clocks."""
        self.simulated_time_s += seconds
        self.scope_time_s += seconds

    def begin_time_scope(self) -> None:
        """Restart the scope clock at zero (the total is untouched)."""
        self.scope_time_s = 0.0


class IOScope:
    """Run-local I/O accounting over disks shared between runs.

    A :class:`~repro.storage.disk.SimulatedDisk` keeps cumulative
    counters, a cumulative simulated clock and the arm position of the
    last access.  When one disk serves several pipeline runs
    (e.g. repeated ``ego_self_join_file`` calls against the same input),
    the counters are handled by delta arithmetic — but the arm position
    used to leak silently from run to run, so the first access of run
    N+1 could be classified sequential or random depending on where run
    N happened to finish, making identical runs report different
    random/sequential splits and simulated times.

    Entering the scope (``begin()``, or use it as a context manager)
    resets each disk's arm to the unknown position, snapshots its
    counters and restarts its scope clock (:class:`SimulatedClock`);
    ``io_delta()`` / ``time_delta()`` then return exactly this run's
    I/O, bit for bit what a fresh disk would report.  A disk takes part
    in one open scope at a time: entering a scope restarts the clock of
    any earlier one, as it already resets the arm.  ``None`` entries
    and duplicate disk objects are tolerated (duplicates are counted
    once).
    """

    def __init__(self, *disks) -> None:
        unique = []
        seen = set()
        for disk in disks:
            if disk is None or id(disk) in seen:
                continue
            seen.add(id(disk))
            unique.append(disk)
        self.disks = unique
        self._io0 = None

    def begin(self) -> "IOScope":
        """Reset arm positions, snapshot counters, restart scope clocks."""
        for disk in self.disks:
            reset = getattr(disk, "reset_position", None)
            if reset is not None:
                reset()
            # Fault layers carry run-relative pressure windows; re-base
            # them here so a plan reused across back-to-back runs (or
            # shared by per-shard pools) scopes its windows to this run.
            pressure = getattr(disk, "begin_pressure_scope", None)
            if pressure is not None:
                pressure()
            clock = getattr(disk, "begin_time_scope", None)
            if clock is not None:
                clock()
        self._io0 = [disk.counters.snapshot() for disk in self.disks]
        return self

    def __enter__(self) -> "IOScope":
        return self.begin()

    def __exit__(self, *exc) -> None:
        pass

    def io_delta(self) -> IOCounters:
        """This scope's I/O, summed over its disks."""
        if self._io0 is None:
            raise RuntimeError("IOScope.begin() was never called")
        total = IOCounters()
        for disk, base in zip(self.disks, self._io0):
            total = total + (disk.counters - base)
        return total

    def time_delta(self) -> float:
        """This scope's simulated seconds, summed over its disks."""
        if self._io0 is None:
            raise RuntimeError("IOScope.begin() was never called")
        return sum(disk.scope_time_s for disk in self.disks)


@dataclass
class OperationStats:
    """Bundle of I/O and CPU counters describing one algorithm run."""

    io: IOCounters = field(default_factory=IOCounters)
    cpu: CPUCounters = field(default_factory=CPUCounters)

    def reset(self) -> None:
        """Zero both counter groups."""
        self.io.reset()
        self.cpu.reset()

    def snapshot(self) -> "OperationStats":
        """Return an independent copy of the current counts."""
        return OperationStats(io=self.io.snapshot(), cpu=self.cpu.snapshot())

    def __add__(self, other: "OperationStats") -> "OperationStats":
        return OperationStats(io=self.io + other.io, cpu=self.cpu + other.cpu)

    def __sub__(self, other: "OperationStats") -> "OperationStats":
        return OperationStats(io=self.io - other.io, cpu=self.cpu - other.cpu)
