"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the typical workflow on point files:

* ``generate`` — write a synthetic workload (uniform / clusters / cad)
  to a point file;
* ``info`` — show a point file's header and basic statistics;
* ``join`` — external EGO similarity self-join of a point file;
* ``join-two`` — external EGO R ⋈ S join of two point files;
* ``dbscan`` — density clustering via one similarity join;
* ``outliers`` — DB(p, D) distance-based outlier detection;
* ``knn`` — exact k-nearest-neighbour graph via iterated joins;
* ``optics`` — OPTICS cluster ordering via one join;
* ``estimate`` — the query-optimizer cost model (add ``--file`` to
  also predict the result cardinality from a data sample);
* ``serve`` — a long-lived :class:`~repro.service.EGOStore` session
  driven by a seeded op script, every join differentially checked
  against the batch pipeline; ``--journal`` makes it crash-safe and
  ``--recover`` rebuilds a store from an existing journal;
* ``verify`` — seeded differential fuzzing of every join
  implementation (see ``docs/TESTING.md``), with failure shrinking,
  replayable artifacts and the engine × workers × storage acceptance
  matrix.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .analysis.optimizer import (budget_geometry, choose_unit_size,
                                 estimate_ego_join)
from .analysis.reporting import format_table, robustness_summary
from .apps.dbscan import dbscan
from .apps.outliers import distance_based_outliers
from .core.ego_join import ego_join_files, ego_self_join_file
from .core.supervisor import SupervisorError, SupervisorPolicy
from .obs import MetricsRegistry, Tracer
from .data.loader import load_points, save_points
from .data.synthetic import cad_like, gaussian_clusters, uniform
from .storage.disk import SimulatedDisk
from .storage.faults import FaultPlan, SimulatedCrash, WorkerFaultPlan
from .storage.integrity import CorruptPageError, RetryPolicy
from .storage.pagefile import PointFile


def cmd_generate(args) -> int:
    """Handle ``repro generate``."""
    if args.kind == "uniform":
        pts = uniform(args.n, args.dims, seed=args.seed)
    elif args.kind == "clusters":
        pts = gaussian_clusters(args.n, args.dims,
                                clusters=args.clusters, seed=args.seed)
    else:
        pts = cad_like(args.n, args.dims, seed=args.seed)
    save_points(args.out, pts)
    print(f"wrote {args.n} {args.dims}-d {args.kind} points to {args.out}")
    return 0


def cmd_info(args) -> int:
    """Handle ``repro info``."""
    with SimulatedDisk(path=args.file) as disk:
        pf = PointFile.open(disk)
        ids, pts = pf.read_all()
    print(f"file        : {args.file}")
    print(f"points      : {pf.count}")
    print(f"dimensions  : {pf.dimensions}")
    print(f"record bytes: {pf.record_bytes}")
    print(f"data bytes  : {pf.data_bytes}")
    if len(pts):
        print(f"bounds      : min {pts.min(axis=0).round(4).tolist()}")
        print(f"              max {pts.max(axis=0).round(4).tolist()}")
        print(f"id range    : [{ids.min()}, {ids.max()}]")
    return 0


def _print_pairs(result, limit: int) -> None:
    a, b = result.pairs()
    shown = min(limit, len(a)) if limit >= 0 else len(a)
    for i in range(shown):
        print(f"{a[i]},{b[i]}")
    if shown < len(a):
        print(f"... ({len(a) - shown} more pairs)", file=sys.stderr)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Build a :class:`FaultPlan` from a ``key=value`` comma list.

    Keys: ``seed``, ``read-errors`` (rate), ``corrupt`` (rate), ``torn``
    (rate), ``crash`` (operation index, repeatable), ``pressure``
    (``START-END`` op-index range, repeatable).  Example::

        --faults seed=7,read-errors=0.01,crash=2000,pressure=100-900
    """
    kwargs = {"seed": 0, "read_error_rate": 0.0, "corrupt_rate": 0.0,
              "torn_write_rate": 0.0}
    crash_ops, pressure = [], []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"fault spec item {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key == "seed":
            kwargs["seed"] = int(value)
        elif key == "read-errors":
            kwargs["read_error_rate"] = float(value)
        elif key == "corrupt":
            kwargs["corrupt_rate"] = float(value)
        elif key == "torn":
            kwargs["torn_write_rate"] = float(value)
        elif key == "crash":
            crash_ops.append(int(value))
        elif key == "pressure":
            lo, sep, hi = value.partition("-")
            if not sep or not lo or not hi:
                raise ValueError(
                    f"pressure range {value!r} is not START-END")
            pressure.append((int(lo), int(hi)))
        else:
            raise ValueError(f"unknown fault spec key {key!r}")
    return FaultPlan(crash_ops=crash_ops, pressure_ranges=pressure,
                     **kwargs)


def parse_worker_fault_spec(spec: str) -> WorkerFaultPlan:
    """Build a :class:`WorkerFaultPlan` from a ``key=value`` comma list.

    Keys: ``seed``, ``crash``/``stall``/``corrupt``/``error`` (a unit
    pair ``A:B``, repeatable), ``crash-rate``/``stall-rate``/
    ``corrupt-rate``/``error-rate`` (per-pair probabilities),
    ``stall-seconds``, ``max-attempt`` (``none`` = permanent faults).
    Example::

        --worker-faults seed=7,crash=3:3,stall-rate=0.05,error-rate=0.1
    """
    kwargs = {"seed": 0, "stall_seconds": 30.0, "max_attempt": 0}
    pair_keys = {"crash": "crash_pairs", "stall": "stall_pairs",
                 "corrupt": "corrupt_pairs", "error": "error_pairs"}
    rate_keys = {"crash-rate": "crash_rate", "stall-rate": "stall_rate",
                 "corrupt-rate": "corrupt_rate", "error-rate": "error_rate"}
    pairs = {name: [] for name in pair_keys.values()}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"worker fault spec item {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key == "seed":
            kwargs["seed"] = int(value)
        elif key == "stall-seconds":
            kwargs["stall_seconds"] = float(value)
        elif key == "max-attempt":
            kwargs["max_attempt"] = (None if value.strip().lower()
                                     in ("none", "inf") else int(value))
        elif key in pair_keys:
            a, sep, b = value.partition(":")
            if not sep or not a or not b:
                raise ValueError(f"unit pair {value!r} is not A:B")
            pairs[pair_keys[key]].append((int(a), int(b)))
        elif key in rate_keys:
            kwargs[rate_keys[key]] = float(value)
        else:
            raise ValueError(f"unknown worker fault spec key {key!r}")
    return WorkerFaultPlan(**pairs, **kwargs)


def _build_obs(args):
    """Observability recorders requested by ``--trace/--metrics``.

    Returns ``(tracer, registry)`` — each ``None`` when its flag is
    absent, so the pipeline falls back to the null recorders.
    """
    tracer = Tracer() if getattr(args, "trace", None) else None
    registry = MetricsRegistry() if getattr(args, "metrics", None) else None
    return tracer, registry


def _dump_obs(args, tracer, registry) -> None:
    """Write the requested observability outputs after a run.

    A traced run also prints the wall seconds of each ``pipeline`` span
    (the root, ``sort``, ``schedule``) — the run's per-phase times.
    """
    if tracer is not None:
        tracer.dump(args.trace)
        print(f"trace: {args.trace} ({len(tracer.events)} events)",
              file=sys.stderr)
        for name, wall_s in tracer.wall_seconds().items():
            print(f"phase {name}: {wall_s:.3f}s wall", file=sys.stderr)
    if registry is not None:
        registry.dump(args.metrics)
        print(f"metrics: {args.metrics}", file=sys.stderr)


def cmd_join(args) -> int:
    """Handle ``repro join``.

    Exit codes: ``0`` clean completion, ``1`` crash or unmasked data
    corruption (resumable with ``--checkpoint``), ``2`` usage error,
    ``3`` join completed but in degraded (serial) mode after repeated
    worker-pool failure, ``4`` unrecoverable worker fault (poisoned
    task, or pool failure with ``--no-degrade``).
    """
    try:
        fault_plan = parse_fault_spec(args.faults) if args.faults else None
        worker_faults = (parse_worker_fault_spec(args.worker_faults)
                         if args.worker_faults else None)
        if args.resume and not args.checkpoint:
            raise ValueError("--resume requires --checkpoint DIR")
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
        policy = SupervisorPolicy(
            task_timeout=(args.task_timeout if args.task_timeout
                          and args.task_timeout > 0 else None),
            max_task_retries=args.task_retries, degrade=args.degrade)
        if args.impl in ("lsh", "auto") and args.metric != "euclidean":
            raise ValueError(
                "--impl lsh/auto requires the euclidean metric "
                "(p-stable projections model L2 distances)")
        if not 0.0 < args.recall_target < 1.0:
            raise ValueError("--recall-target must be in (0, 1)")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fault_plan is not None and args.resume:
        # The scheduled crash already happened in the interrupted run.
        fault_plan = fault_plan.without_crashes()
    retry = RetryPolicy(max_attempts=args.retries) if args.retries else None
    tracer, registry = _build_obs(args)
    with SimulatedDisk(path=args.file) as disk:
        pf = PointFile.open(disk)
        _budget, unit_bytes, buffer_units = budget_geometry(
            pf.count, pf.dimensions, args.buffer_fraction)
        impl = args.impl
        if impl == "auto":
            from .analysis.optimizer import choose_join_impl
            impl, ego_est, lsh_est = choose_join_impl(
                pf.count, pf.dimensions, args.epsilon, unit_bytes,
                buffer_units, recall_target=args.recall_target)
            detail = f"predicted ego {ego_est.predicted_io_time_s:.3f}s"
            if lsh_est is not None:
                detail += (f" vs lsh {lsh_est.predicted_total_s:.3f}s "
                           f"(L={lsh_est.tables}, model recall "
                           f"{lsh_est.model_recall:.3f})")
            print(f"impl auto -> {impl} ({detail})", file=sys.stderr)
        if impl == "lsh":
            return _run_lsh_join(args, pf, tracer, registry)
        try:
            report = ego_self_join_file(pf, args.epsilon,
                                        unit_bytes=unit_bytes,
                                        buffer_units=buffer_units,
                                        materialize=not args.count_only,
                                        engine=args.engine,
                                        workers=args.workers,
                                        metric=args.metric,
                                        fault_plan=fault_plan,
                                        retry=retry,
                                        checksums=args.checksums,
                                        checkpoint_dir=args.checkpoint,
                                        resume=args.resume,
                                        worker_fault_plan=worker_faults,
                                        supervisor_policy=policy,
                                        trace=tracer, metrics=registry)
        except SimulatedCrash as exc:
            print(f"crashed: {exc}", file=sys.stderr)
            if args.checkpoint:
                print(f"progress saved; rerun with --checkpoint "
                      f"{args.checkpoint} --resume to continue",
                      file=sys.stderr)
            return 1
        except CorruptPageError as exc:
            print(f"data corruption: {exc}", file=sys.stderr)
            print("rerun with --retries N to mask transient corruption",
                  file=sys.stderr)
            return 1
        except SupervisorError as exc:
            print(f"unrecoverable worker fault: {exc}", file=sys.stderr)
            return 4
        except ValueError as exc:
            # Bad input data (non-finite coordinates) or a --resume at a
            # configuration other than the checkpoint's.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    _dump_obs(args, tracer, registry)
    pairs = report.total_pairs
    if pairs is None:
        pairs = report.result.count
    print(f"pairs: {pairs}", file=sys.stderr)
    s = report.schedule_stats
    print(f"unit loads: {s.total_unit_loads} "
          f"(crabstep phases: {s.crabstep_phases}); "
          f"simulated I/O: {report.simulated_io_time_s:.3f}s",
          file=sys.stderr)
    if fault_plan is not None or args.checksums or retry is not None \
            or args.checkpoint or worker_faults is not None \
            or report.supervisor is not None:
        print(format_table(robustness_summary(report),
                           title="robustness"), file=sys.stderr)
    if args.checkpoint:
        print(f"durable result: {report.result_path}", file=sys.stderr)
    if not args.count_only and report.result.materialize:
        _print_pairs(report.result, args.limit)
    sup = report.supervisor
    if sup is not None and sup.degraded:
        print(f"degraded: worker pool failed {sup.pool_recycles} times; "
              f"{sup.inline_tasks} task(s) drained serially in-process "
              f"({sup.retries} retries, {sup.timeouts} timeouts, "
              f"{sup.crashes_detected} worker crashes) — results are "
              f"complete and exact", file=sys.stderr)
        return 3
    return 0


def _run_lsh_join(args, pf, tracer, registry) -> int:
    """Run the approximate LSH join branch of ``repro join``."""
    from .index.lsh import DEFAULT_K, DEFAULT_W_SCALE
    from .joins.lsh_join import lsh_self_join_file

    try:
        report = lsh_self_join_file(
            pf, args.epsilon,
            k=args.lsh_k if args.lsh_k is not None else DEFAULT_K,
            tables=args.lsh_tables,
            recall_target=args.recall_target,
            w_scale=(args.lsh_width if args.lsh_width is not None
                     else DEFAULT_W_SCALE),
            seed=args.lsh_seed, engine=args.engine,
            backend=args.backend, materialize=not args.count_only,
            trace=tracer, metrics=registry)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _dump_obs(args, tracer, registry)
    stats = report.lsh
    print(f"pairs: {report.result.count} (approximate: model recall "
          f"{stats.model_recall:.4f} at ε, precision exact)",
          file=sys.stderr)
    print(f"lsh: k={stats.k} L={stats.tables} w={stats.w:g} "
          f"seed={stats.seed} backend={stats.backend}; "
          f"{stats.buckets} buckets, {stats.candidates} candidates, "
          f"{stats.verified} verified; "
          f"simulated I/O: {report.simulated_io_time_s:.3f}s",
          file=sys.stderr)
    print(format_table(robustness_summary(report), title="lsh"),
          file=sys.stderr)
    if not args.count_only and report.result.materialize:
        _print_pairs(report.result, args.limit)
    return 0


def cmd_join_two(args) -> int:
    """Handle ``repro join-two``."""
    tracer, registry = _build_obs(args)
    with SimulatedDisk(path=args.file_r) as disk_r, \
            SimulatedDisk(path=args.file_s) as disk_s:
        fr = PointFile.open(disk_r)
        fs = PointFile.open(disk_s)
        _budget, unit_bytes, buffer_units = budget_geometry(
            fr.count + fs.count, fr.dimensions, args.buffer_fraction)
        report = ego_join_files(fr, fs, args.epsilon,
                                unit_bytes=unit_bytes,
                                buffer_units=buffer_units,
                                materialize=not args.count_only,
                                engine=args.engine,
                                metric=args.metric,
                                trace=tracer, metrics=registry)
    _dump_obs(args, tracer, registry)
    print(f"pairs: {report.result.count}", file=sys.stderr)
    if not args.count_only:
        _print_pairs(report.result, args.limit)
    return 0


def cmd_dbscan(args) -> int:
    """Handle ``repro dbscan``."""
    _ids, pts = load_points(args.file)
    result = dbscan(pts, args.epsilon, args.min_pts)
    print(f"clusters: {result.num_clusters}", file=sys.stderr)
    print(f"noise: {int(result.noise_mask.sum())}", file=sys.stderr)
    for label in result.labels:
        print(int(label))
    return 0


def cmd_outliers(args) -> int:
    """Handle ``repro outliers``."""
    _ids, pts = load_points(args.file)
    result = distance_based_outliers(pts, args.distance,
                                     fraction=args.fraction)
    print(f"outliers: {result.num_outliers}", file=sys.stderr)
    for idx in result.outlier_ids:
        print(int(idx))
    return 0


def cmd_knn(args) -> int:
    """Handle ``repro knn``."""
    from .apps.knn import knn_graph
    _ids, pts = load_points(args.file)
    graph = knn_graph(pts, args.k)
    print(f"rounds: {graph.rounds}, final epsilon: "
          f"{graph.final_epsilon:.6g}", file=sys.stderr)
    print(f"mean {args.k}-NN distance: "
          f"{graph.mean_knn_distance():.6g}", file=sys.stderr)
    limit = args.limit if args.limit >= 0 else len(graph)
    for i in range(min(limit, len(graph))):
        neigh = ",".join(str(int(x)) for x in graph.neighbors[i]
                         if x >= 0)
        print(f"{i}:{neigh}")
    return 0


def cmd_optics(args) -> int:
    """Handle ``repro optics``."""
    from .apps.optics import optics
    _ids, pts = load_points(args.file)
    result = optics(pts, args.epsilon, args.min_pts)
    print(f"ordering computed for {len(pts)} points", file=sys.stderr)
    plot = result.reachability_plot()
    for p, reach in zip(result.ordering, plot):
        value = "undefined" if np.isinf(reach) else f"{reach:.6g}"
        print(f"{int(p)} {value}")
    return 0


def cmd_estimate(args) -> int:
    """Handle ``repro estimate``."""
    if args.budget_bytes:
        est = choose_unit_size(args.n, args.dims, args.epsilon,
                               args.budget_bytes)
        print(f"recommended unit size : {est.unit_bytes} bytes "
              f"({est.buffer_units} buffer frames)")
    else:
        est = estimate_ego_join(args.n, args.dims, args.epsilon,
                                args.unit_bytes, args.buffer_units)
    print(f"units                 : {est.units}")
    print(f"interval (units)      : {est.interval_units:.1f}")
    print(f"mode                  : "
          f"{'gallop' if est.gallop else 'crabstep'}")
    print(f"predicted unit loads  : {est.predicted_unit_loads:.0f}")
    print(f"sort runs / passes    : {est.sort_runs} / {est.sort_passes}")
    print(f"predicted I/O seconds : {est.predicted_io_time_s:.3f}")
    if args.file:
        from .analysis.selectivity import (grid_selectivity,
                                           sample_selectivity)
        _ids, pts = load_points(args.file)
        by_sample = sample_selectivity(pts, args.epsilon, args.n)
        by_grid = grid_selectivity(pts, args.epsilon, args.n)
        print(f"predicted result pairs: {by_sample:.0f} (sampling) / "
              f"{by_grid:.0f} (grid histogram)")
    return 0


def cmd_serve(args) -> int:
    """Handle ``repro serve``.

    The stand-in for a network daemon: one long-lived store, a scripted
    driver.  A seeded mixed op sequence (inserts, deletes, epsilon
    changes, range queries) runs against the store; every join the
    script issues — plus one final join — is differentially checked
    against the batch EGO join of the store's live point set, and every
    range answer against a brute-force scan of it.  Exit code ``1``
    flags any divergence, ``0`` a fully-verified session.
    """
    from .core.ego_join import ego_self_join
    from .service import EGOStore
    from .verify.canonical import canonical_pairs, diff_pairs

    tracer, registry = _build_obs(args)
    try:
        if args.recover:
            if not args.journal:
                raise ValueError("--recover requires --journal PATH")
            store = EGOStore.recover(args.journal, metrics=registry,
                                     trace=tracer)
            print(f"recovered from {args.journal}: {len(store)} live "
                  f"points at data version {store.data_version}",
                  file=sys.stderr)
        else:
            store = EGOStore(args.epsilon,
                             compact_threshold=args.compact_threshold,
                             journal=args.journal, metrics=registry,
                             trace=tracer)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def check_join(step: str) -> bool:
        ids, pts = store.live_points()
        got = store.join()
        if len(pts) < 2:
            return len(got) == 0
        want = canonical_pairs(
            ego_self_join(pts, store.epsilon, ids=ids))
        diff = diff_pairs(want, got)
        if not diff.ok:
            print(f"{step}: JOIN DIVERGED from batch pipeline — "
                  f"{diff.summary()}", file=sys.stderr)
        return diff.ok

    def check_range(step: str, q: np.ndarray) -> bool:
        got_ids, got_dists = store.range(q)
        ids, pts = store.live_points()
        diffs = pts - q
        d2 = np.einsum("ij,ij->i", diffs, diffs)
        hit = d2 <= store.epsilon * store.epsilon
        ids, dists = ids[hit], np.sqrt(d2[hit])
        order = np.lexsort((ids, dists))
        ok = (np.array_equal(got_ids, ids[order])
              and got_dists.tobytes() == dists[order].tobytes())
        if not ok:
            print(f"{step}: RANGE DIVERGED from brute force — "
                  f"{len(got_ids)} ids, want {len(ids)}", file=sys.stderr)
        return ok

    rng = np.random.default_rng(args.seed)
    dims = args.dims
    failures = 0
    checks = 0
    range_failures = 0
    range_checks = 0
    for step in range(args.selftest_ops):
        kind = int(rng.integers(0, 6))
        if store.dimensions is not None:
            dims = store.dimensions
        if kind in (0, 1) or len(store) < 4:
            store.insert(rng.random((int(rng.integers(1, 16)), dims)))
        elif kind == 2:
            ids = store.ids()
            take = min(int(rng.integers(1, 4)), len(ids))
            store.delete(rng.choice(ids, size=take, replace=False))
        elif kind == 3:
            store.set_epsilon(
                float(rng.uniform(0.5, 1.5)) * store.epsilon)
        elif kind == 4:
            range_checks += 1
            if not check_range(f"step {step}", rng.random(dims)):
                range_failures += 1
        else:
            checks += 1
            if not check_join(f"step {step}"):
                failures += 1
    checks += 1
    if not check_join("final"):
        failures += 1

    _dump_obs(args, tracer, registry)
    s = store.stats()
    print(f"ops: {s.inserts} inserts, {s.deletes} deletes, "
          f"{s.epsilon_changes} epsilon changes, {s.compactions} "
          f"compactions", file=sys.stderr)
    print(f"queries: {s.queries} served, cache hit ratio "
          f"{s.cache_hit_ratio:.2f}", file=sys.stderr)
    print(f"store: {s.live_points} live points, {s.main_rows} main rows "
          f"({s.dead_main_rows} dead), {s.delta_rows} delta rows, "
          f"ε={s.epsilon:g} (grid {s.grid_epsilon:g})", file=sys.stderr)
    print(f"digest: {store.state_digest()}")
    print(f"selftest: {checks - failures}/{checks} join checks "
          f"identical to the batch pipeline")
    print(f"selftest: {range_checks - range_failures}/{range_checks} "
          f"range checks identical to a brute-force scan")
    return 1 if failures or range_failures else 0


def cmd_verify(args) -> int:
    """Handle ``repro verify``."""
    from .verify import fuzz as fuzz_mod
    from .verify.fuzz import (acceptance_matrix, parse_budget,
                              replay_artifact, run_fuzz)
    from .verify.workloads import generate_workload

    if args.replay:
        still_fails, detail = replay_artifact(args.replay)
        if still_fails:
            print(f"artifact still fails: {detail}", file=sys.stderr)
            return 1
        print(f"artifact no longer fails: {detail}")
        return 0

    try:
        budget = parse_budget(args.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    configs = fuzz_mod.DEFAULT_CONFIGS
    if args.impls:
        wanted = {name.strip() for name in args.impls.split(",")}
        configs = [c for c in configs
                   if (c if isinstance(c, str) else c[0]) in wanted]
        if not configs:
            print(f"error: no known implementation in {args.impls!r}",
                  file=sys.stderr)
            return 2

    exit_code = 0
    if args.matrix:
        w = generate_workload("clusters", args.matrix_points, args.dims,
                              0.15, args.seed)
        ok, digests = acceptance_matrix(w.points, w.epsilon)
        for label, digest in sorted(digests.items()):
            print(f"{digest[:16]}  {label}", file=sys.stderr)
        print(f"acceptance matrix: "
              f"{'identical' if ok else 'DIVERGED'} "
              f"({len(digests)} configurations)", file=sys.stderr)
        if not ok:
            exit_code = 1

    report = run_fuzz(seed=args.seed, budget_s=budget,
                      dimensions=args.dims, max_points=args.max_points,
                      configs=configs, artifact_dir=args.out,
                      log=(lambda line: print(line, file=sys.stderr))
                      if args.verbose else None)
    print(report.describe())
    return 1 if (exit_code or not report.ok) else 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Epsilon Grid Order similarity join (SIGMOD 2001 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic point file")
    g.add_argument("--kind", choices=["uniform", "clusters", "cad"],
                   default="uniform")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--dims", type=int, default=8)
    g.add_argument("--clusters", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    i = sub.add_parser("info", help="describe a point file")
    i.add_argument("file")
    i.set_defaults(func=cmd_info)

    j = sub.add_parser("join", help="external EGO self-join")
    j.add_argument("file")
    j.add_argument("--epsilon", type=float, required=True)
    j.add_argument("--buffer-fraction", type=float, default=0.10)
    j.add_argument("--count-only", action="store_true")
    j.add_argument("--limit", type=int, default=20,
                   help="max pairs printed (-1 for all)")
    j.add_argument("--metric", default="euclidean",
                   help="euclidean | manhattan | chebyshev")
    j.add_argument("--engine", default="auto",
                   choices=["auto", "vector", "scalar"],
                   help="leaf distance kernel (auto: GEMM tile leaves on "
                        "euclidean data, vector otherwise)")
    j.add_argument("--impl", default="ego",
                   choices=["ego", "lsh", "auto"],
                   help="join algorithm: exact external EGO (default), "
                        "approximate LSH (precision 1.0, recall bounded "
                        "below by the collision model), or auto (the "
                        "cost model picks; LSH wins in high-d/large-ε "
                        "regimes)")
    j.add_argument("--recall-target", type=float, default=0.95,
                   metavar="R",
                   help="LSH: auto-size the table count so model recall "
                        "at distance ε meets R (default 0.95; ignored "
                        "with --lsh-tables)")
    j.add_argument("--lsh-k", type=int, default=None, metavar="K",
                   help="LSH: projections concatenated per table "
                        "(default 2)")
    j.add_argument("--lsh-tables", type=int, default=None, metavar="L",
                   help="LSH: explicit table count (overrides "
                        "--recall-target)")
    j.add_argument("--lsh-width", type=float, default=None, metavar="W",
                   help="LSH: projection width in units of ε "
                        "(default 4.0)")
    j.add_argument("--lsh-seed", type=int, default=0, metavar="N",
                   help="LSH: hash-family seed (same seed, same result)")
    j.add_argument("--workers", type=int, default=1, metavar="N",
                   help="join scheduled unit pairs on N processes, in N "
                        "cost-balanced shards of contiguous units "
                        "(results are identical to the serial run)")
    j.add_argument("--backend", default="simulated",
                   choices=["simulated", "file", "memory"],
                   help="LSH: storage backend for the bucket files "
                        "(default simulated)")
    j.add_argument("--task-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="declare a worker hung when it finishes no unit "
                        "pair for SECONDS; its pool is recycled and the "
                        "pair retried (0 disables; default 30)")
    j.add_argument("--task-retries", type=int, default=2, metavar="N",
                   help="retry a failed/hung/corrupted worker task up to "
                        "N times before quarantining it (default 2)")
    j.add_argument("--degrade", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="on repeated worker-pool failure, finish the "
                        "remaining tasks serially in-process instead of "
                        "aborting (exit code 3 marks a degraded run)")
    j.add_argument("--worker-faults", default=None, metavar="SPEC",
                   help="inject worker faults (testing): comma list of "
                        "seed=N, crash=A:B, stall=A:B, corrupt=A:B, "
                        "error=A:B (repeatable), crash-rate=R, "
                        "stall-rate=R, corrupt-rate=R, error-rate=R, "
                        "stall-seconds=S, max-attempt=N|none")
    j.add_argument("--faults", default=None, metavar="SPEC",
                   help="inject storage faults: comma list of seed=N, "
                        "read-errors=RATE, corrupt=RATE, torn=RATE, "
                        "crash=OP (repeatable), pressure=START-END")
    j.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry failed reads up to N attempts "
                        "(0 disables the retry layer)")
    j.add_argument("--checksums", action="store_true",
                   help="verify per-page CRC32 checksums on every read")
    j.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="journal progress under DIR for crash-safe "
                        "resume; the result pair file is durable there")
    j.add_argument("--resume", action="store_true",
                   help="continue from the journal in --checkpoint "
                        "after an interrupted run")
    j.add_argument("--trace", default=None, metavar="OUT.json",
                   help="write a Chrome trace_event JSON of the run "
                        "(open in chrome://tracing or Perfetto) and "
                        "print each phase's wall seconds")
    j.add_argument("--metrics", default=None, metavar="OUT",
                   help="dump run metrics; .json extension selects JSON, "
                        "anything else Prometheus text format")
    j.set_defaults(func=cmd_join)

    j2 = sub.add_parser("join-two", help="external EGO R ⋈ S join")
    j2.add_argument("file_r")
    j2.add_argument("file_s")
    j2.add_argument("--epsilon", type=float, required=True)
    j2.add_argument("--buffer-fraction", type=float, default=0.10)
    j2.add_argument("--count-only", action="store_true")
    j2.add_argument("--limit", type=int, default=20)
    j2.add_argument("--metric", default="euclidean",
                    help="euclidean | manhattan | chebyshev")
    j2.add_argument("--engine", default="auto",
                    choices=["auto", "vector", "scalar"],
                    help="leaf distance kernel")
    j2.add_argument("--trace", default=None, metavar="OUT.json",
                    help="write a Chrome trace_event JSON of the run "
                         "and print each phase's wall seconds")
    j2.add_argument("--metrics", default=None, metavar="OUT",
                    help="dump run metrics (.json → JSON, else "
                         "Prometheus text)")
    j2.set_defaults(func=cmd_join_two)

    d = sub.add_parser("dbscan", help="join-based DBSCAN clustering")
    d.add_argument("file")
    d.add_argument("--epsilon", type=float, required=True)
    d.add_argument("--min-pts", type=int, default=5)
    d.set_defaults(func=cmd_dbscan)

    o = sub.add_parser("outliers", help="DB(p, D) outlier detection")
    o.add_argument("file")
    o.add_argument("--distance", type=float, required=True)
    o.add_argument("--fraction", type=float, default=0.95)
    o.set_defaults(func=cmd_outliers)

    kn = sub.add_parser("knn", help="exact kNN graph via iterated joins")
    kn.add_argument("file")
    kn.add_argument("--k", type=int, default=5)
    kn.add_argument("--limit", type=int, default=20,
                    help="rows printed (-1 for all)")
    kn.set_defaults(func=cmd_knn)

    op = sub.add_parser("optics",
                        help="OPTICS cluster ordering via one join")
    op.add_argument("file")
    op.add_argument("--epsilon", type=float, required=True)
    op.add_argument("--min-pts", type=int, default=5)
    op.set_defaults(func=cmd_optics)

    e = sub.add_parser("estimate",
                       help="query-optimizer cost model (no data needed)")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--dims", type=int, default=8)
    e.add_argument("--epsilon", type=float, required=True)
    e.add_argument("--unit-bytes", type=int, default=65536)
    e.add_argument("--buffer-units", type=int, default=8)
    e.add_argument("--budget-bytes", type=int, default=0,
                   help="optimise the unit size under this buffer budget")
    e.add_argument("--file", default=None,
                   help="sample this point file to also predict the "
                        "result cardinality")
    e.set_defaults(func=cmd_estimate)

    sv = sub.add_parser("serve",
                        help="long-lived EGOStore session with a "
                             "scripted, self-verifying op driver")
    sv.add_argument("--epsilon", type=float, default=0.2,
                    help="store ε (also the resident grid ε)")
    sv.add_argument("--dims", type=int, default=3,
                    help="point dimensionality of the scripted inserts")
    sv.add_argument("--seed", type=int, default=0,
                    help="seed of the scripted op sequence")
    sv.add_argument("--selftest-ops", type=int, default=40, metavar="N",
                    help="scripted ops to run (default 40)")
    sv.add_argument("--compact-threshold", type=int, default=64,
                    metavar="N",
                    help="delta rows that trigger compaction")
    sv.add_argument("--journal", default=None, metavar="PATH",
                    help="journal every mutating op to PATH (crash-safe; "
                         "replay with --recover)")
    sv.add_argument("--recover", action="store_true",
                    help="rebuild the store from --journal instead of "
                         "starting fresh, then continue the script")
    sv.add_argument("--trace", default=None, metavar="OUT.json",
                    help="write a Chrome trace_event JSON of the "
                         "session")
    sv.add_argument("--metrics", default=None, metavar="OUT",
                    help="dump store metrics (.json → JSON, else "
                         "Prometheus text)")
    sv.set_defaults(func=cmd_serve)

    v = sub.add_parser("verify",
                       help="seeded differential fuzzing of the joins")
    v.add_argument("--seed", type=int, default=0,
                   help="fuzz seed (trial i of a seed is deterministic)")
    v.add_argument("--budget", default="60s", metavar="TIME",
                   help="time budget, e.g. 30s, 2m (default 60s)")
    v.add_argument("--dims", type=int, default=5,
                   help="max dimensionality of fuzzed workloads")
    v.add_argument("--max-points", type=int, default=120,
                   help="max points per fuzzed workload")
    v.add_argument("--impls", default=None, metavar="NAMES",
                   help="comma list restricting the swept "
                        "implementations (default: all)")
    v.add_argument("--out", default=None, metavar="DIR",
                   help="write replayable failure artifacts under DIR")
    v.add_argument("--replay", default=None, metavar="ARTIFACT.json",
                   help="re-run one dumped failure artifact and exit")
    v.add_argument("--matrix", action="store_true",
                   help="also run the engine × workers × storage "
                        "acceptance matrix before fuzzing")
    v.add_argument("--matrix-points", type=int, default=200,
                   help="workload size for --matrix")
    v.add_argument("--verbose", action="store_true",
                   help="log every fuzz trial to stderr")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
