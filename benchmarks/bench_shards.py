"""Experiment SHARD-1 — the parallel external join against the serial one.

``ego_self_join_file(..., workers=k)`` runs the serial I/O schedule in
the parent, cuts its unit pairs into ``k`` cost-balanced unit-range
shards (``repro.core.shard``) and joins each shard in a worker process
(``repro.core.supervisor``).  This benchmark times serial against
``workers=2`` end to end — external sort, schedule, join and merge — on
clustered, skewed and uniform data at n = 6000 (d = 8), plus skewed data
at n = 20000, the regime where one heavy cluster dominates the join.

Every parallel run is digest-checked against the serial pair stream —
the byte-identity contract is re-verified at benchmark sizes, not just
unit-test sizes.  Wall-clock depends on the cores actually present, so
each record carries the core count; on a single core the worker pool is
pure overhead.

Usage: ``python benchmarks/bench_shards.py [--tiny]`` appends one
record to ``results/BENCH_shards.json`` (record_kernels.py style).
"""

import os

# One BLAS/OpenMP thread per process, fixed before numpy is imported:
# with two workers on two cores that means two busy threads, not two
# pools of threads competing for them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.ego_join import ego_self_join_file  # noqa: E402
from repro.data.loader import make_point_file  # noqa: E402
from repro.data.synthetic import cad_like  # noqa: E402
from repro.verify.workloads import generate_workload  # noqa: E402

from _harness import RESULTS_DIR, BudgetedSetup, emit  # noqa: E402

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_shards.json")

EPSILON = 0.15
DIMENSIONS = 8
WORKERS = 2


def pair_digest(result) -> int:
    a, b = result.pairs()
    h = zlib.crc32(np.ascontiguousarray(a).tobytes())
    return zlib.crc32(np.ascontiguousarray(b).tobytes(), h)


def datasets(tiny: bool):
    """``(workload, points)`` rows: three kinds at one size, plus big skew."""
    n, big = (1200, 3000) if tiny else (6000, 20000)
    rng = np.random.default_rng(17)
    return [
        ("clustered", cad_like(n, seed=300 + n)[:, :DIMENSIONS]),
        ("skewed", generate_workload("skewed", n, DIMENSIONS, EPSILON,
                                     seed=41).points),
        ("uniform", rng.random((n, DIMENSIONS))),
        ("skewed", generate_workload("skewed", big, DIMENSIONS, EPSILON,
                                     seed=41).points),
    ]


def run_modes(points: np.ndarray, epsilon: float) -> dict:
    """One workload serial and with ``WORKERS``; returns the row."""
    setup = BudgetedSetup.for_dataset(len(points), points.shape[1])

    def run(workers):
        disk, pf = make_point_file(points)
        try:
            t0 = time.perf_counter()
            report = ego_self_join_file(pf, epsilon,
                                        unit_bytes=setup.unit_bytes,
                                        buffer_units=setup.buffer_units,
                                        workers=workers)
            return report, time.perf_counter() - t0
        finally:
            disk.close()

    serial, t_serial = run(1)
    parallel, t_parallel = run(WORKERS)
    if pair_digest(parallel.result) != pair_digest(serial.result):
        raise AssertionError(
            f"workers={WORKERS} diverged from the serial join")
    return {
        "n": len(points),
        "pairs": serial.result.count,
        "unit_pairs": serial.schedule_stats.unit_pairs_joined,
        "serial_s": round(t_serial, 3),
        "workers_s": round(t_parallel, 3),
        "speedup": round(t_serial / t_parallel, 3),
    }


def run_suite(tiny: bool = False):
    rows = []
    for kind, points in datasets(tiny):
        row = {"workload": kind}
        row.update(run_modes(points, EPSILON))
        rows.append(row)
    return rows


def append_record(rows, mode, path=JSON_PATH):
    history = []
    if os.path.exists(path):
        with open(path) as fh:
            history = json.load(fh)
    history.append({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": mode,
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "workers": WORKERS,
        "epsilon": EPSILON,
        "dimensions": DIMENSIONS,
        "rows": rows,
    })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")
    return path


TITLE = (f"Parallel external join: serial vs workers={WORKERS}, "
         f"wall seconds (d={DIMENSIONS}, eps={EPSILON}, "
         f"{os.cpu_count()} cores)")


def test_shards(benchmark):
    rows = run_suite(tiny=True)
    emit("bench_shards", TITLE, rows)
    pts = datasets(tiny=True)[1][1]
    benchmark(lambda: run_modes(pts, EPSILON))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke configuration (small datasets)")
    args = parser.parse_args()
    rows = run_suite(tiny=args.tiny)
    emit("bench_shards", TITLE, rows)
    path = append_record(rows, "tiny" if args.tiny else "full")
    print(f"appended to {path}")


if __name__ == "__main__":
    main()
