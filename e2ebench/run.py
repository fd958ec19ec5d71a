"""End-to-end EGO benchmark: one command, four workloads, every output checked.

Run from anywhere inside a checkout::

    python3 e2ebench/run.py --workload ego-cad16 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload with tracing off and reports the
end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1`` runs the
separate layer-attributed pass and reports the per-layer metrics.
A readable report goes to standard error; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run, with the
environment it ran in, is written under ``.bench_out/results/``.

Exit status: 0 when every output checked out, 1 when any check failed,
2 on a usage error or when the repository's sources are missing.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread per process, fixed before numpy is first
# imported: with workers=2 on two cores that means two busy threads, not
# two pools of threads competing for them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

#: Set-ups timed per run (``setup_s`` is their median): at least
#: ``SETUP_REPEATS``, and more until they add up to ``SETUP_MIN_S``, so
#: that the millisecond set-ups of ``ego-skewed8-w2`` and
#: ``lsh-uniform16`` are timed hundreds of times.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0

#: Traced passes per traced run; their counts must be identical.
TRACED_PASSES = 2


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        # The ceiling stops git from finding a repository above a
        # checkout that is not one itself.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "git_sha": sha,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped worker, in MB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def _steal_s():
    """CPU seconds the hypervisor has taken from this VM, if Linux says.

    A rise during the timed passes means other guests took CPU away: the
    timings of that run are the host's, not the program's.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _percentile_ms(samples_ns, q: float) -> float:
    return statistics.quantiles(samples_ns, n=100, method="inclusive"
                                )[q - 1] / 1e6


def _timed_pass(workload, state, metrics=None):
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    raw = workload.run(state, metrics=metrics)
    wall = time.perf_counter() - t0
    return raw, wall, _cpu_s() - cpu0


def _registry_count(registry, name: str, label: str = None) -> int:
    family = registry.get(name)
    if family is None:
        return 0
    return family.value_of(label) if label is not None else family.total()


#: Count keys every workload reports (zero where a layer is not used).
COUNT_KEYS = (
    "sorting.runs", "sorting.merge_passes", "storage.reads",
    "storage.random_reads", "storage.bytes_read", "storage.bytes_written",
    "core.scheduler.unit_loads", "core.scheduler.crabstep_reloads",
    "core.scheduler.unit_pairs", "core.supervisor.retries",
    "core.kernels.distance_calcs", "joins.lsh_join.candidates",
    "joins.lsh_join.tables", "service.store.compactions",
    "service.store.cache_hits", "service.store.cache_misses")


def _layer_counts(workload, state, raw, registry, rec) -> dict:
    """Every structural count of one traced pass (deterministic)."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counts.update(workload.layer_counts(state, raw))
    counts["sorting.runs"] += rec.counts.get("sorting.merged_runs", 0)
    counts["sorting.merge_passes"] += rec.call_count(
        "repro.service.store.merge_sorted_arrays")
    counts["storage.buffer_hits"] = _registry_count(
        registry, "ego_buffer_events_total", "hit")
    counts["storage.buffer_misses"] = _registry_count(
        registry, "ego_buffer_events_total", "miss")
    counts["core.supervisor.tasks"] = rec.call_count(
        "repro.core.supervisor.SupervisedUnitJoiner.submit")
    counts["core.sequence_join.sequence_pairs"] = _registry_count(
        registry, "ego_seq_pairs_total")
    counts["core.sequence_join.prunes"] = _registry_count(
        registry, "ego_seq_prunes_total")
    counts["core.sequence_join.leaf_joins"] = _registry_count(
        registry, "ego_leaf_joins_total")
    counts["core.ego_order.floor_cells_calls"] = rec.call_count(
        "repro.core.ego_order.floor_cells", "repro.core.sequence.floor_cells",
        "repro.core.kernels.floor_cells")
    counts["core.kernels.reverifies"] = _registry_count(
        registry, "ego_gemm_reverified_total")
    counts["core.result.pairs"] = rec.counts.get("core.result.pairs", 0)
    counts["service.store.delta_rows_peak"] = rec.counts.get(
        "service.store.delta_rows_peak", 0)
    counts["calls"] = dict(sorted(rec.calls.items()))
    counts["registry"] = registry.to_prometheus_text()
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(counts: dict, times: dict) -> dict:
    """Per-layer metric values from one traced pass's counts and times."""
    m = {k: v for k, v in counts.items()
         if isinstance(v, (int, float)) and not k.startswith(
             "service.store.cache_")}
    m.update(times)
    m["core.sequence_join.prune_ratio"] = _ratio(
        counts["core.sequence_join.prunes"],
        counts["core.sequence_join.sequence_pairs"])
    m["core.kernels.hit_ratio"] = _ratio(counts["core.result.pairs"],
                                         counts["core.kernels.distance_calcs"])
    m["joins.lsh_join.precision_ratio"] = _ratio(
        counts["core.result.pairs"], counts["joins.lsh_join.candidates"])
    m["service.store.cache_hit_ratio"] = _ratio(
        counts["service.store.cache_hits"],
        counts["service.store.cache_hits"]
        + counts["service.store.cache_misses"])
    return m


def _layer_times(rec, worker_cpu_s: float) -> dict:
    from layers import LSH_VERIFY_NAMES

    return {
        "sorting.self_s": rec.self_s("sorting"),
        "sorting.merge_s": rec.total_s(
            "repro.service.store.merge_sorted_arrays"),
        "core.scheduler.self_s": rec.self_s("core.scheduler"),
        "core.supervisor.wait_s": rec.self_s("core.supervisor"),
        "core.supervisor.worker_cpu_s": worker_cpu_s,
        "core.sequence_join.self_s": rec.self_s("core.sequence_join"),
        "core.ego_order.self_s": rec.self_s("core.ego_order"),
        "core.kernels.self_s": rec.self_s("core.kernels"),
        "core.distance.self_s": rec.self_s("core.distance"),
        "core.result.self_s": rec.self_s("core.result"),
        "service.store.compact_s": rec.total_s(
            "repro.service.store.EGOStore.compact"),
        "index.lsh.hash_s": rec.total_s(
            "repro.index.lsh.PStableHashFamily.keys"),
        "joins.lsh_join.bucket_write_s": rec.total_s(
            "repro.joins.lsh_join.write_bucket_file"),
        "joins.lsh_join.verify_s": rec.total_s(*LSH_VERIFY_NAMES),
        "bench.unattributed_s": rec.self_s("bench"),
    }


def _shape_metrics(workload, output) -> dict:
    """Cost-model seconds and the store's latency percentiles."""
    m = {"model_s": getattr(output, "model_s", 0.0),
         "sim_io_s": getattr(output, "sim_io_s", 0.0)}
    for kind in ("write", "query"):
        samples = getattr(output, f"{kind}_ns", None)
        m[f"{kind}_p50_ms"] = _percentile_ms(samples, 50) if samples else 0.0
        m[f"{kind}_p99_ms"] = _percentile_ms(samples, 99) if samples else 0.0
    return m


def measure(workload, seed: int, seconds: float, trace: bool,
            refs, trace_path=None) -> dict:
    """Set up, warm up, measure and check one workload; returns a record."""
    from layers import SpanRecorder, instrument
    from repro.obs.metrics import MetricsRegistry
    from workloads import make_workload

    setup_times = []
    state = None
    while len(setup_times) < SETUP_REPEATS or \
            sum(setup_times) < SETUP_MIN_S:
        if state is not None:
            state.close()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)

    # Warm-up: the tiny instance of the same workload takes the same code
    # paths (imports, first BLAS calls, pool start-up) at a fraction of
    # the cost; it is neither timed nor checked.
    tiny = make_workload(workload.name, "tiny")
    tiny_state = tiny.setup(seed)
    tiny.run(tiny_state)
    tiny_state.close()

    outputs, walls, cpus = [], [], []
    metrics: dict = {}
    differing = []
    steal0 = _steal_s()
    start = time.perf_counter()
    while not walls or (not trace and (
            time.perf_counter() - start < seconds
            or len(walls) < workload.min_passes)):
        if workload.fresh_state and walls:
            state.close()
            t0 = time.perf_counter()
            state = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
        raw, wall, cpu = _timed_pass(workload, state)
        if not walls:
            # Read before the kept outputs of later passes can add to it.
            peak_rss_mb = _peak_rss_mb()
        walls.append(wall)
        cpus.append(cpu)
        outputs.append(workload.reduce(state, raw))
    untraced_wall = statistics.median(walls)
    steal1 = _steal_s()
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    if not trace:
        metrics.update(wall_s=untraced_wall, cpu_s=statistics.median(cpus),
                       peak_rss_mb=peak_rss_mb,
                       setup_s=statistics.median(setup_times))
    else:
        passes = []
        for k in range(TRACED_PASSES):
            # Each traced pass starts from a fresh set-up: the simulated
            # disks' clocks accumulate, and a reused input file shifts
            # the last bits of the end-of-run I/O-seconds gauge.
            registry = MetricsRegistry()
            state.close()
            state = workload.setup(seed, metrics=registry)
            rec = SpanRecorder()
            kids0 = _children_cpu_s()
            with instrument(rec):
                with rec.span("bench", workload.name):
                    raw, wall, _cpu = _timed_pass(workload, state, registry)
            worker_cpu = _children_cpu_s() - kids0
            counts = _layer_counts(workload, state, raw, registry, rec)
            passes.append((wall, counts, _layer_times(rec, worker_cpu)))
            outputs.append(workload.reduce(state, raw))
            if k == 0 and trace_path is not None:
                rec.dump(trace_path)
        differing = sorted({key for p in passes[1:] for key in p[1]
                            if p[1][key] != passes[0][1][key]})
        times = {key: statistics.median(p[2][key] for p in passes)
                 for key in passes[0][2]}
        metrics.update(_layer_metrics(passes[0][1], times))
        metrics["trace.overhead_frac"] = statistics.median(
            p[0] for p in passes) / untraced_wall - 1.0
        metrics.update(_shape_metrics(workload, outputs[0]))

    check = workload.check(state, outputs, refs)
    state.close()
    if differing:
        check.fail("structural counts differ between the two traced "
                   f"passes: {', '.join(differing)}")
    metrics["recall"] = check.recall
    metrics["boundary_pairs"] = check.boundary_pairs
    metrics["failed_frac"] = check.failed / max(1, check.attempted)
    return {"check": check, "metrics": metrics, "pass_wall_s": walls,
            "pass_cpu_s": cpus, "setup_times_s": setup_times,
            "host_steal_s": steal}


def result_line(spec: dict, trace: bool, record: dict) -> dict:
    """The run's verdict and its metrics, with names and units from ``spec``."""
    check, values = record["check"], record["metrics"]
    kind = "per_layer" if trace else "end_to_end"
    return {"correct": check.failed == 0, "attempted": check.attempted,
            "failed": check.failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in spec[kind]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="how long the timed passes run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {ROOT}/src; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)}", file=sys.stderr)
        return 2

    # Every file the program creates (its simulated disks are temporary
    # files) stays inside the checkout.
    tmp_dir = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    tempfile.tempdir = tmp_dir
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "benchmarks"),
                    os.path.dirname(os.path.abspath(__file__))]

    from workloads import ReferenceCache, make_workload

    env = _environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    record = measure(make_workload(args.workload), args.seed, args.seconds,
                     bool(args.trace), ReferenceCache(
                         os.path.join(OUT_DIR, "ref")),
                     trace_path=os.path.join(OUT_DIR, "results",
                                             stem + ".trace.json"))
    check, values = record["check"], record["metrics"]
    result = result_line(spec, bool(args.trace), record)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(record['pass_wall_s'])} timed pass(es), "
          f"{len(record['setup_times_s'])} set-ups; "
          f"host steal during the passes {record['host_steal_s']} s; "
          f"nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} "
          f"git={env['git_sha'][:12]}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    units.update(failed_frac="ratio", boundary_pairs="count",
                 **{"bench.unattributed_s": "s"})
    for name in sorted(values):
        print(f"  {name:40s} {values[name]:>14.6g} {units.get(name, '')}",
              file=sys.stderr)
    for problem in check.problems[:20]:
        print(f"  FAILED: {problem}", file=sys.stderr)
    with open(os.path.join(OUT_DIR, "results", stem + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "result": result,
                   "all_metrics": values, "problems": check.problems,
                   **{k: record[k] for k in ("pass_wall_s", "pass_cpu_s",
                                             "setup_times_s",
                                             "host_steal_s")}},
                  fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
