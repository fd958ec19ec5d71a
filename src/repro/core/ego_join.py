"""Top-level EGO similarity join.

Four entry points:

* :func:`ego_self_join` — in-memory self-join of a point array.  The
  whole EGO-sorted data set is one sequence; the recursion of Figure 6
  does all the work (no I/O scheduling needed when everything fits).
* :func:`ego_join` — in-memory R ⋈ S join of two point arrays.
* :func:`ego_self_join_file` — the full external pipeline of the paper:
  external merge sort by epsilon grid order, then the gallop/crabstep
  I/O schedule of Figure 4 over fixed-size I/O units with a bounded
  buffer.
* :func:`ego_join_files` — the external R ⋈ S join of two point files
  (both sorted, then the two-file schedule of
  :class:`~repro.core.rs_scheduler.TwoFileScheduler`).

The external self-join returns an :class:`ExternalJoinReport` (the
R ⋈ S join an :class:`ExternalRSJoinReport`) with the complete
operation accounting (sort runs, unit loads, distance
computations, simulated I/O time) that the benchmark harness feeds into
the cost model.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..obs.metrics import ensure_metrics
from ..obs.trace import ensure_tracer
from ..sorting.external_sort import SortStats, external_sort
from ..storage.disk import SimulatedDisk
from ..storage.faults import (FaultLog, FaultPlan, WorkerFaultLog,
                              WorkerFaultPlan)
from ..storage.integrity import RetryPolicy, make_robust_disk
from ..storage.journal import Journal
from ..storage.pagefile import PointFile
from ..storage.pairfile import PairFile, SpillingCollector
from ..storage.stats import CPUCounters, IOCounters, IOScope
from .ego_order import (ego_sorted, ensure_finite, grid_cells,
                        validate_epsilon)
from .preprocess import resolve_dimension_order
from .result import JoinResult
from .scheduler import EGOScheduler, ScheduleStats
from .sequence import Sequence
from .sequence_join import (JoinContext, KernelConfig, check_engine,
                            join_sequences)
from .supervisor import (SupervisedUnitJoiner, SupervisorPolicy,
                         SupervisorStats, replay_stats)
from .units import SortedUnits, require_file_backed


def ego_self_join(points: np.ndarray, epsilon: float,
                  ids: Optional[np.ndarray] = None,
                  cpu: Optional[CPUCounters] = None,
                  result: Optional[JoinResult] = None,
                  sort_dims=None, invariants: bool = False,
                  **kernel) -> JoinResult:
    """In-memory EGO similarity self-join.

    Returns every unordered pair of distinct points at distance at most
    ``epsilon``, reported once.  Pair ids refer to ``ids`` when given,
    otherwise to input row positions.  ``**kernel`` are the
    :class:`~repro.core.sequence_join.KernelConfig` knobs (``engine``,
    ``minlen``, ``metric``, ``order_dimensions``, ``split_strategy``).
    ``sort_dims`` re-weighs the grid order's dimensions before sorting
    ("natural", "spread", "variance" or an explicit permutation — §4's
    sort-order modification); results are permutation-invariant, only
    pruning changes.  ``invariants`` turns on the runtime invariant
    hooks of :mod:`repro.verify.invariants` (used by the verification
    tests).
    """
    validate_epsilon(epsilon)
    config = KernelConfig(**kernel)
    pts = ensure_finite(points)
    if result is None:
        result = JoinResult()
    if len(pts) == 0:
        return result
    perm = resolve_dimension_order(pts, epsilon, sort_dims)
    if not np.array_equal(perm, np.arange(pts.shape[1])):
        pts = np.ascontiguousarray(pts[:, perm])
    sorted_ids, sorted_pts = ego_sorted(pts, epsilon, ids)
    ctx = JoinContext(epsilon=epsilon, result=result, kernel=config,
                      cpu=cpu, invariants=invariants)
    seq = Sequence(sorted_ids, sorted_pts, epsilon)
    join_sequences(seq, seq, ctx)
    return result


def ego_join(points_r: np.ndarray, points_s: np.ndarray, epsilon: float,
             ids_r: Optional[np.ndarray] = None,
             ids_s: Optional[np.ndarray] = None,
             cpu: Optional[CPUCounters] = None,
             result: Optional[JoinResult] = None,
             sort_dims=None, invariants: bool = False,
             **kernel) -> JoinResult:
    """In-memory EGO similarity join of two point sets.

    Returns all pairs ``(r, s)`` with ``‖r − s‖ ≤ ε``; the first id of
    each pair refers to ``points_r``, the second to ``points_s``.
    ``sort_dims`` (see :func:`ego_self_join`) is resolved on the union
    of both sets so one permutation applies to both sides.
    """
    validate_epsilon(epsilon)
    config = KernelConfig(**kernel)
    r = ensure_finite(points_r)
    s = ensure_finite(points_s)
    if result is None:
        result = JoinResult()
    if len(r) == 0 or len(s) == 0:
        return result
    if r.shape[1] != s.shape[1]:
        raise ValueError(
            f"dimension mismatch: {r.shape[1]} vs {s.shape[1]}")
    perm = resolve_dimension_order(np.vstack([r, s]), epsilon, sort_dims)
    if not np.array_equal(perm, np.arange(r.shape[1])):
        r = np.ascontiguousarray(r[:, perm])
        s = np.ascontiguousarray(s[:, perm])
    rid, rpts = ego_sorted(r, epsilon, ids_r)
    sid, spts = ego_sorted(s, epsilon, ids_s)
    ctx = JoinContext(epsilon=epsilon, result=result, kernel=config,
                      cpu=cpu, invariants=invariants)
    join_sequences(Sequence(rid, rpts, epsilon),
                   Sequence(sid, spts, epsilon), ctx)
    return result


@dataclass
class ExternalJoinReport:
    """Full accounting of one external EGO self-join run.

    The robustness fields are filled in when the pipeline runs with a
    fault plan and/or a checkpoint: ``faults`` is the injection log,
    ``resumed`` marks a run continued from a journal, ``result_path`` is
    the durable pair file of a checkpointed run, and ``total_pairs`` is
    the complete join cardinality — on a resumed run this covers pairs
    produced *before* the crash as well, which ``result`` does not.
    ``supervisor`` is the fault-handling ledger of a parallel run
    (:class:`~repro.core.supervisor.SupervisorStats`; cumulative across
    crash/resume), and ``worker_faults`` the injection log of a
    :class:`~repro.storage.faults.WorkerFaultPlan`.
    """

    result: JoinResult
    sort_stats: SortStats
    schedule_stats: ScheduleStats
    cpu: CPUCounters
    io: IOCounters
    simulated_io_time_s: float
    sort_io_time_s: float
    join_io_time_s: float
    faults: Optional[FaultLog] = None
    resumed: bool = False
    result_path: Optional[str] = None
    total_pairs: Optional[int] = None
    supervisor: Optional["SupervisorStats"] = None
    worker_faults: Optional["WorkerFaultLog"] = None


def _record_io_metrics(registry, io: IOCounters,
                       simulated_io_time_s: float) -> None:
    """Publish end-of-run I/O gauges (a no-op on the null registry).

    Every value is derived from the deterministic simulated disks, so —
    like all metrics — the gauges are byte-identical across repeated
    runs and across worker counts (the workers never touch a disk).
    """
    if not registry.enabled:
        return
    ops = registry.gauge("ego_io_operations",
                         "End-of-run physical I/O operation counts",
                         labelnames=("op",))
    ops.labels("random_reads").set(io.random_reads)
    ops.labels("sequential_reads").set(io.sequential_reads)
    ops.labels("random_writes").set(io.random_writes)
    ops.labels("sequential_writes").set(io.sequential_writes)
    ops.labels("read_faults").set(io.read_faults)
    ops.labels("read_retries").set(io.read_retries)
    ops.labels("corrupt_pages").set(io.corrupt_pages)
    registry.gauge("ego_io_bytes_read",
                   "Bytes read across the run's disks",
                   unit="bytes").set(io.bytes_read)
    registry.gauge("ego_io_bytes_written",
                   "Bytes written across the run's disks",
                   unit="bytes").set(io.bytes_written)
    registry.gauge("ego_simulated_io_seconds",
                   "Simulated I/O seconds (cost-model clock, deterministic)",
                   unit="s").set(simulated_io_time_s)


def sort_memory_records(record_bytes: int, unit_bytes: int,
                        buffer_units: int) -> int:
    """Working memory of the external sort, in records: the join's
    budget of ``buffer_units`` units worth of records."""
    return max(2, buffer_units * max(1, unit_bytes // record_bytes))


def ego_key_function(epsilon: float):
    """Key function for the external sort: the ε-grid cell coordinates.

    Every unsorted record of the file pipeline passes through this key
    during run generation, so this is where non-finite coordinates are
    rejected (:class:`ValueError`): the grid cell of NaN or ±inf is
    undefined and would otherwise be cast to a garbage integer.
    """
    eps = validate_epsilon(epsilon)

    def key_of_batch(points: np.ndarray) -> np.ndarray:
        return grid_cells(ensure_finite(points), eps)

    return key_of_batch


@dataclass
class ExternalRSJoinReport:
    """Full accounting of one external R ⋈ S EGO join run."""

    result: JoinResult
    sort_stats_r: SortStats
    sort_stats_s: SortStats
    schedule_stats: "RSScheduleStats"
    cpu: CPUCounters
    io: IOCounters
    simulated_io_time_s: float
    sort_io_time_s: float
    join_io_time_s: float


def ego_join_files(file_r: PointFile, file_s: PointFile, epsilon: float,
                   unit_bytes: int, buffer_units: int,
                   materialize: bool = True,
                   invariants: bool = False,
                   trace=None, metrics=None,
                   **kernel) -> ExternalRSJoinReport:
    """External EGO join of two point files (R ⋈ S).

    Both files are externally sorted into epsilon grid order, then the
    two-file generalisation of the paper's schedule
    (:class:`~repro.core.rs_scheduler.TwoFileScheduler`) forms all unit
    pairs within the cross-file ε-interval.  Result pairs are
    ``(r_id, s_id)``; if the same physical file is passed for both
    sides, reflexive and mirrored pairs are included (two-set
    semantics, like :func:`ego_join`).

    The sort works in the join's memory budget, ``buffer_units`` units
    worth of records.  ``**kernel`` are the
    :class:`~repro.core.sequence_join.KernelConfig` knobs.  ``trace`` /
    ``metrics`` attach the observability recorders of :mod:`repro.obs`
    (see :func:`ego_self_join_file`); the trace's root span is
    ``external_rs_join``.
    """
    from .rs_scheduler import RSScheduleStats, TwoFileScheduler

    validate_epsilon(epsilon)
    config = KernelConfig(**kernel)
    tracer = ensure_tracer(trace)
    registry = ensure_metrics(metrics)
    if file_r.dimensions != file_s.dimensions:
        raise ValueError(
            f"dimension mismatch: {file_r.dimensions} vs "
            f"{file_s.dimensions}")
    sort_memory = sort_memory_records(file_r.record_bytes, unit_bytes,
                                      buffer_units)
    key = ego_key_function(epsilon)
    disks = [SimulatedDisk() for _ in range(3)]
    sorted_r_disk, sorted_s_disk, scratch = disks
    root_span = tracer.span("external_rs_join", cat="pipeline")
    root_span.__enter__()
    try:
        # Run-local scope: dedups a shared R/S disk, resets arm
        # positions so repeated runs on the same disks account
        # identically, and provides this run's I/O deltas.
        scope = IOScope(file_r.disk, file_s.disk, sorted_r_disk,
                        sorted_s_disk, scratch).begin()
        with tracer.span("sort", cat="pipeline"):
            sorted_r, sort_r = external_sort(file_r, sorted_r_disk, scratch,
                                             key, sort_memory,
                                             trace=tracer, metrics=registry)
            sorted_s, sort_s = external_sort(file_s, sorted_s_disk, scratch,
                                             key, sort_memory,
                                             trace=tracer, metrics=registry)
        sort_io_time = scope.time_delta()

        cpu = CPUCounters()
        result = JoinResult(materialize=materialize)
        ctx = JoinContext(epsilon=epsilon, result=result, kernel=config,
                          cpu=cpu, invariants=invariants,
                          trace=tracer, metrics=registry)
        join_before = (sorted_r_disk.scope_time_s
                       + sorted_s_disk.scope_time_s)
        scheduler = TwoFileScheduler(
            SortedUnits(sorted_r, unit_bytes, ctx.grid_epsilon),
            SortedUnits(sorted_s, unit_bytes, ctx.grid_epsilon),
            ctx, buffer_units)
        with tracer.span("schedule", cat="pipeline"):
            schedule_stats = scheduler.run()
        join_io_time = (sorted_r_disk.scope_time_s
                        + sorted_s_disk.scope_time_s) - join_before

        io_total = scope.io_delta()
        _record_io_metrics(registry, io_total, sort_io_time + join_io_time)
        return ExternalRSJoinReport(
            result=result, sort_stats_r=sort_r, sort_stats_s=sort_s,
            schedule_stats=schedule_stats, cpu=cpu, io=io_total,
            simulated_io_time_s=sort_io_time + join_io_time,
            sort_io_time_s=sort_io_time, join_io_time_s=join_io_time)
    finally:
        root_span.__exit__(None, None, None)
        for disk in disks:
            disk.close()


def ego_self_join_file(input_file: PointFile, epsilon: float,
                       unit_bytes: int, buffer_units: int,
                       allow_crabstep: bool = True,
                       materialize: bool = True,
                       assume_sorted: bool = False,
                       sorted_epsilon: Optional[float] = None,
                       fault_plan: Optional[FaultPlan] = None,
                       retry: Optional[RetryPolicy] = None,
                       checksums: bool = False,
                       checkpoint_dir: Optional[str] = None,
                       resume: bool = False,
                       workers: int = 1,
                       worker_fault_plan: Optional[WorkerFaultPlan] = None,
                       supervisor_policy: Optional[SupervisorPolicy] = None,
                       invariants: bool = False,
                       trace=None, metrics=None,
                       **kernel) -> ExternalJoinReport:
    """External EGO self-join of a point file (the paper's full pipeline).

    Parameters
    ----------
    input_file:
        The unsorted input on its simulated disk.  A record with a NaN
        or infinite coordinate is rejected with :class:`ValueError`
        while the sort generates its runs.
    unit_bytes, buffer_units:
        I/O unit size and the number of unit frames the join may buffer.
        The external sort works in the same budget (``buffer_units``
        units worth of records), so both phases respect one memory
        limit.  The sorted output and the sort runs go to anonymous
        temporary disks, or to file-backed disks under
        ``checkpoint_dir`` when checkpointing.
    allow_crabstep:
        Forwarded to the scheduler; ``False`` reproduces gallop-mode
        thrashing (Figure 3b).
    assume_sorted, sorted_epsilon:
        Skip the external sort: ``input_file`` is already in epsilon
        grid order for ``sorted_epsilon`` (default: ``epsilon``).  A
        file sorted at εs serves any join epsilon ≤ εs directly (the
        pruning grid stays at εs — see ``grid_epsilon`` in
        :class:`~repro.core.sequence_join.JoinContext`), which is how a
        parameter sweep reuses one sort.  A *larger* ε falls back to
        re-sorting: no coarser width preserves the stored
        lexicographic order, integer multiples of εs included.
    fault_plan:
        Seeded :class:`~repro.storage.faults.FaultPlan`; every disk the
        pipeline touches is wrapped in a fault-injecting layer sharing
        this plan (one global operation order), so failures — including
        a :class:`~repro.storage.faults.SimulatedCrash` escaping this
        call — are deterministic and reproducible.
    retry, checksums:
        Detection and recovery at the storage boundary: per-page CRC32
        verification (turning silent corruption into
        :class:`~repro.storage.integrity.CorruptPageError`) and a
        bounded-retry policy with backoff charged to the simulated clock.
    checkpoint_dir, resume:
        Crash-safe checkpointing.  With ``checkpoint_dir`` set, the
        sorted file, sort scratch, a durable result pair file and a
        progress journal live under that directory, every completed sort
        run / merge pass / joined unit pair is journaled, and result
        appends are idempotent (truncated back to the journal watermark
        on resume).  After a crash, calling again with ``resume=True``
        (same directory, same parameters) skips completed work and
        produces a result file byte-identical to an uninterrupted run.
        The journal records the run's configuration when it starts (ε,
        sorted ε, unit and buffer geometry, sort memory, the input's
        size and dimensionality, and the kernel knobs); resuming with a
        different configuration raises :class:`ValueError` before any
        work or result is touched.  ``workers`` is not part of it: the
        output is byte-identical across worker counts.
    workers:
        Unit-pair join parallelism.  With ``workers > 1`` the parent
        runs the ordinary I/O schedule — so its I/O counters, simulated
        clock and schedule stats are the serial run's — while
        :class:`~repro.core.supervisor.SupervisedUnitJoiner` records
        the scheduled unit pairs.  They are then cut into ``workers``
        cost-balanced shards of contiguous units
        (:mod:`repro.core.shard`), joined on a process pool whose
        workers read their units straight from the sorted file (page
        CRCs verified when ``checksums`` is set), and merged in
        schedule order, so the result stream — including a
        checkpointed run's durable pair file and journal — is
        byte-identical to the serial run.  The sorted file must
        therefore be an OS file: the input with ``assume_sorted`` on a
        :class:`~repro.storage.disk.MemoryDisk` is refused with
        :class:`ValueError` before anything runs.  Each shard's whole
        result set is held in memory — in its worker, then in the
        parent — until it merges, so peak memory grows with the result
        size; the serial join streams every unit pair's results
        straight to a checkpoint's pair file.
    worker_fault_plan, supervisor_policy:
        Fault tolerance of the parallel join (workers > 1; see
        :mod:`repro.core.supervisor`).  Failed unit pairs — injected by
        a seeded :class:`~repro.storage.faults.WorkerFaultPlan` or real
        — are retried with deterministic backoff, a worker that stops
        finishing unit pairs is declared hung, and repeated pool failure
        degrades the run to serial in-process execution or aborts, all
        as the :class:`~repro.core.supervisor.SupervisorPolicy` says
        (default: ``SupervisorPolicy()``).  Supervisor decisions are
        journaled under ``checkpoint_dir`` so a resumed run reports
        cumulative counters identical to an uninterrupted one.
    invariants:
        Enable the runtime invariant hooks
        (:mod:`repro.verify.invariants`): ε-interval coverage of the
        schedule, gallop read-once, buffer pin balance, and pruning /
        leaf checks in the recursion.  With ``workers > 1`` the
        recursion-level checks run only for pairs joined in-process;
        the schedule-level checks always run in the parent.
    trace, metrics:
        Observability recorders (:mod:`repro.obs`).  ``trace`` — a
        :class:`~repro.obs.trace.Tracer` collecting the span hierarchy
        (``external_self_join`` → ``sort``/``schedule`` → ``load`` /
        ``unit_pair`` → ``leaf``, plus a ``skip`` instant per
        interval-skipped unit pair) for Chrome
        ``trace_event`` export; the ``pipeline``-category spans
        (``external_self_join``, ``sort``, ``schedule``) are the run's
        per-phase wall times.  ``metrics`` — a
        :class:`~repro.obs.metrics.MetricsRegistry` of structural
        counters (unit reads by mode, prunes by reason, buffer events,
        …) whose dumps are byte-identical across runs and worker
        counts; with ``workers > 1`` the worker deltas are merged in
        schedule order.  Both default to shared null recorders that
        record nothing and allocate nothing.
    **kernel:
        The :class:`~repro.core.sequence_join.KernelConfig` knobs
        (``engine``, ``minlen``, ``metric``, ``order_dimensions``,
        ``split_strategy``).
    """
    validate_epsilon(epsilon)
    config = KernelConfig(**kernel)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if supervisor_policy is None:
        supervisor_policy = SupervisorPolicy()
    tracer = ensure_tracer(trace)
    registry = ensure_metrics(metrics)
    sort_memory = sort_memory_records(input_file.record_bytes, unit_bytes,
                                      buffer_units)
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")

    grid_epsilon = float(epsilon)
    if assume_sorted:
        eps_s = float(epsilon) if sorted_epsilon is None \
            else validate_epsilon(sorted_epsilon)
        if epsilon <= eps_s + 1e-12:
            grid_epsilon = eps_s
        else:
            # A file sorted at εs is NOT in epsilon grid order for any
            # larger width — not even integer multiples k·εs.  Coarse
            # cells are a per-dimension monotone function of the fine
            # cells, but a lexicographic order does not survive such a
            # map: two points equal in the coarse leading dimension can
            # appear in either fine order, so the coarse order they'd
            # need is lost and the interval scheduling silently drops
            # pairs (an earlier revision shipped the k·εs shortcut and
            # did exactly that).  Fall back to re-sorting at ε.
            assume_sorted = False

    if workers > 1 and assume_sorted:
        # Workers read the sorted file's OS file; refuse before anything
        # runs.  The pipeline's own sorted file is always an OS file.
        require_file_backed(input_file.disk)

    journal: Optional[Journal] = None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        journal = Journal(os.path.join(checkpoint_dir, "journal.json"))
        if not resume:
            journal.reset()
        recorded = journal.state.get("config")
        if recorded is not None:
            # A checkpoint of a removed engine cannot be resumed: say
            # so, rather than report a configuration mismatch.
            check_engine(recorded.get("kernel", {}).get("engine",
                                                        config.engine))
        journal.check_config({
            "epsilon": float(epsilon), "sorted_epsilon": grid_epsilon,
            "unit_bytes": int(unit_bytes), "buffer_units": int(buffer_units),
            "sort_memory_records": int(sort_memory),
            "count": input_file.count, "dimensions": input_file.dimensions,
            "kernel": asdict(config)})

    def wrap(disk, sidecar: bool = False):
        return make_robust_disk(disk, plan=fault_plan, checksums=checksums,
                                retry=retry, sidecar=sidecar)

    # Every disk this call creates is closed in the finally block even
    # when a later construction step throws; file-backed checkpoint
    # disks survive their close, anonymous ones are removed.
    own_disks = []
    root_span = tracer.span("external_self_join", cat="pipeline")
    root_span.__enter__()
    try:
        sorted_disk = scratch_disk = None
        if not assume_sorted:
            for name in ("sorted.pts", "scratch.bin"):
                own_disks.append(
                    SimulatedDisk(path=os.path.join(checkpoint_dir, name))
                    if checkpoint_dir is not None else SimulatedDisk())
            sorted_disk, scratch_disk = own_disks

        robust = (fault_plan is not None or checksums
                  or retry is not None)
        input_disk = wrap(input_file.disk) if robust else input_file.disk
        if robust:
            input_file = PointFile(input_disk, input_file.codec,
                                   input_file.count,
                                   data_start=input_file.data_start)
        sidecars = checkpoint_dir is not None
        sorted_io = (wrap(sorted_disk, sidecar=sidecars)
                     if robust and sorted_disk is not None else sorted_disk)
        scratch_io = (wrap(scratch_disk, sidecar=sidecars)
                      if robust and scratch_disk is not None
                      else scratch_disk)

        # Durable result file + spilling collector (checkpoint mode).
        pair_file = None
        collector = None
        result_path = None
        if checkpoint_dir is not None:
            result_path = os.path.join(checkpoint_dir, "result.prs")
            result_disk = SimulatedDisk(path=result_path)
            own_disks.append(result_disk)
            watermark = journal.pair_watermark
            if resume and os.path.getsize(result_path) > 0:
                PairFile.open(result_disk)  # validate magic/version
                pair_file = PairFile(result_disk, count=watermark,
                                     with_distances=False)
                pair_file.truncate_to(watermark)
            else:
                if watermark:
                    raise RuntimeError(
                        f"journal records {watermark} durable pairs but "
                        f"{result_path} is missing or empty")
                pair_file = PairFile.create(result_disk)
            collector = SpillingCollector(pair_file)

        if journal is not None and journal.join_complete is not None:
            # The previous incarnation finished everything; nothing to
            # do — but replay its journaled supervisor decisions so the
            # report still carries the run's cumulative fault ledger.
            total = journal.join_complete["pairs"]
            events = journal.supervisor_events()
            return ExternalJoinReport(
                result=JoinResult(materialize=False),
                sort_stats=SortStats(), schedule_stats=ScheduleStats(),
                cpu=CPUCounters(), io=IOCounters(),
                simulated_io_time_s=0.0, sort_io_time_s=0.0,
                join_io_time_s=0.0,
                faults=fault_plan.injected if fault_plan else None,
                resumed=True, result_path=result_path, total_pairs=total,
                supervisor=replay_stats(events) if events else None,
                worker_faults=(worker_fault_plan.injected
                               if worker_fault_plan else None))

        # Run-local I/O scope: snapshots counters, resets arm positions
        # and restarts the scope clocks, so back-to-back runs reusing the
        # same input disk account identically (see IOScope).
        if assume_sorted:
            sorted_file = input_file
            sorted_disk_obj = input_disk
            io_scope = IOScope(input_disk).begin()
            sort_stats = SortStats()
            sort_io_time = 0.0
        else:
            sorted_disk_obj = sorted_io
            io_scope = IOScope(input_disk, sorted_io, scratch_io).begin()

            with tracer.span("sort", cat="pipeline"):
                sorted_file, sort_stats = external_sort(
                    input_file, sorted_io, scratch_io,
                    ego_key_function(epsilon), sort_memory,
                    journal=journal, trace=tracer, metrics=registry)
            sort_io_time = io_scope.time_delta()

        cpu = CPUCounters()
        result = JoinResult(materialize=materialize, callback=collector)
        ctx = JoinContext(epsilon=epsilon, result=result, kernel=config,
                          cpu=cpu, grid_epsilon=grid_epsilon,
                          invariants=invariants,
                          trace=tracer, metrics=registry)

        pair_done = None
        pair_complete = None
        if journal is not None:
            pair_done = journal.pair_done

            def pair_complete(a: int, b: int) -> None:
                # Make the pair's results durable, then journal the pair
                # with the result watermark; a crash between the two
                # merely redoes this one pair after truncation.
                collector.flush()
                journal.record_unit_pair(a, b, pair_file.count)

        units = SortedUnits(sorted_file, unit_bytes, grid_epsilon)
        join_time_before = sorted_disk_obj.scope_time_s
        supervisor_stats = None
        if workers > 1:
            decision_hook = None
            replay_events = ()
            if journal is not None:
                decision_hook = (lambda kind, key, attempt:
                                 journal.record_supervisor_event(
                                     kind, key[0], key[1], attempt))
                if resume:
                    replay_events = journal.replay_supervisor_events()
            unit_joiner = SupervisedUnitJoiner(
                ctx, workers, units, buffer_units,
                policy=supervisor_policy,
                worker_plan=worker_fault_plan,
                decision_hook=decision_hook,
                replay_events=replay_events)
            supervisor_stats = unit_joiner.stats
        else:
            from .parallel import SerialUnitJoiner
            unit_joiner = SerialUnitJoiner(ctx)
        # The context manager shuts the pool down on *every* exit path —
        # a fault escaping the schedule must not leak worker processes.
        with unit_joiner:
            scheduler = EGOScheduler(units, ctx, buffer_units,
                                     allow_crabstep=allow_crabstep,
                                     pair_done=pair_done,
                                     pair_complete=pair_complete,
                                     unit_joiner=unit_joiner)
            with tracer.span("schedule", cat="pipeline"):
                schedule_stats = scheduler.run()
        join_io_time = sorted_disk_obj.scope_time_s - join_time_before

        total_pairs = result.count
        if collector is not None:
            collector.close()
            total_pairs = pair_file.count
            journal.mark_join_complete(total_pairs)

        io_total = io_scope.io_delta()
        if pair_file is not None:
            io_total = io_total + pair_file.disk.counters
        _record_io_metrics(registry, io_total, sort_io_time + join_io_time)
        return ExternalJoinReport(
            result=result,
            sort_stats=sort_stats,
            schedule_stats=schedule_stats,
            cpu=cpu,
            io=io_total,
            simulated_io_time_s=sort_io_time + join_io_time,
            sort_io_time_s=sort_io_time,
            join_io_time_s=join_io_time,
            faults=fault_plan.injected if fault_plan else None,
            resumed=resume,
            result_path=result_path,
            total_pairs=total_pairs,
            supervisor=supervisor_stats,
            worker_faults=(worker_fault_plan.injected
                           if worker_fault_plan else None),
        )
    finally:
        root_span.__exit__(None, None, None)
        for disk in reversed(own_disks):
            disk.close()
