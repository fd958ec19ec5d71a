"""Micro-benchmark of the leaf distance kernels (engine sweep).

Sweeps engine × leaf size × dimensionality over EGO-sorted leaf blocks
and reports wall-clock seconds per call:

* ``scalar``  — the Figure-7 reference loop (small leaves only; it is
  three orders of magnitude off the pace at 256+ points),
* ``vector``  — the ``na × nb × d`` difference-cube engine,
* ``matmul``  — the tiled GEMM kernel of :mod:`repro.core.kernels`.

Also measures the external self-join wall clock at ``workers`` 1 vs 4
on a Figure-9-style workload, so the parallel unit-pair join's benefit
(or, on a single-core machine, its overhead) is recorded honestly, and
whole in-memory self-joins per engine, where ``auto``'s GEMM tile
leaves compete with the per-leaf ``vector`` engine.

Run as a script for the committed tables, ``--tiny`` for the CI smoke
configuration; results land in ``results/bench_kernels.txt`` and are
appended to ``results/BENCH_kernels.json`` by :mod:`record_kernels`.
"""

import argparse
import os
import time

import numpy as np

from repro.core.distance import (natural_ordering, pairs_within_scalar,
                                 pairs_within_vector)
from repro.core.ego_join import ego_self_join_file
from repro.core.ego_order import ego_sorted
from repro.core.kernels import ScratchBuffers, pairs_within_matmul
from repro.data.loader import make_point_file
from repro.data.synthetic import cad_like, uniform

from _harness import BudgetedSetup, emit

TINY = bool(int(os.environ.get("REPRO_BENCH_TINY", "0")))

#: Leaf sizes × dimensionalities of the full sweep.
LEAF_SIZES = [64, 128, 256, 512, 1024]
DIMENSIONS = [4, 8, 16, 32]
SCALAR_MAX_LEAF = 128  # the scalar loop is too slow beyond this

TINY_LEAF_SIZES = [32, 64]
TINY_DIMENSIONS = [4, 8]

EPSILON = 0.25

#: Figure-9-style end-to-end points for the auto-vs-vector comparison:
#: ``(n, d, eps, minlen)``.  Small ``minlen`` is the regime the tile
#: leaves target — many small ``vector`` leaves whose per-leaf dispatch
#: ``auto`` replaces with one GEMM per tile.
BATCHED_POINTS = [(3000, 8, 0.3, 16), (3000, 8, 0.3, 32),
                  (2000, 16, 0.5, 16)]
TINY_BATCHED_POINTS = [(800, 8, 0.3, 16)]


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def sweep(leaf_sizes, dimensions, repeats=5, seed=1234):
    """One row per (leaf, d): seconds per engine + result cardinality."""
    rows = []
    for d in dimensions:
        for leaf in leaf_sizes:
            pts = uniform(leaf, d, seed=seed + leaf * 37 + d)
            _ids, pts = ego_sorted(pts, EPSILON)
            order = natural_ordering(d)
            eps_sq = EPSILON * EPSILON
            scratch = ScratchBuffers()

            ref = pairs_within_vector(pts, pts, eps_sq, order,
                                      upper_triangle=True)
            pairs = len(ref[0])
            row = {"d": d, "leaf": leaf, "pairs": pairs,
                   "scalar": None}
            if leaf <= SCALAR_MAX_LEAF:
                row["scalar"] = _best_of(
                    lambda: pairs_within_scalar(pts, pts, eps_sq, order,
                                                upper_triangle=True),
                    repeats)
            row["vector"] = _best_of(
                lambda: pairs_within_vector(pts, pts, eps_sq, order,
                                            upper_triangle=True),
                repeats)
            row["matmul"] = _best_of(
                lambda: pairs_within_matmul(pts, pts, eps_sq, order,
                                            upper_triangle=True,
                                            scratch=scratch),
                repeats)
            got = pairs_within_matmul(pts, pts, eps_sq, order,
                                      upper_triangle=True)
            assert len(got[0]) == pairs, "engines disagree on pair count"
            rows.append(row)
    return rows


def measure_workers(n=6000, worker_counts=(1, 4), repeats=1, seed=777):
    """External self-join wall clock per worker count (honest numbers:
    on a single-core host the parallel path can only add overhead)."""
    pts = cad_like(n, seed=seed)
    setup = BudgetedSetup.for_dataset(n, pts.shape[1])
    eps = 0.12
    rows = []
    for workers in worker_counts:
        def run():
            disk, pf = make_point_file(pts)
            try:
                return ego_self_join_file(
                    pf, eps, unit_bytes=setup.unit_bytes,
                    buffer_units=setup.buffer_units,
                    engine="auto", workers=workers, materialize=False)
            finally:
                disk.close()
        secs = _best_of(lambda: run(), repeats)
        rows.append({"workers": workers, "wall_s": secs,
                     "pairs": run().result.count,
                     "cores": os.cpu_count()})
    return rows


def measure_batched_e2e(points_list, repeats=2, seed=99):
    """End-to-end in-memory self-join: the per-leaf ``vector`` engine vs
    ``auto``'s GEMM tile leaves, one row per Figure-9-style point."""
    from repro.core.ego_join import ego_self_join
    rows = []
    for n, d, eps, minlen in points_list:
        pts = uniform(n, d, seed=seed + n + d)
        counts = {}

        def run(engine):
            res = ego_self_join(pts, eps, engine=engine, minlen=minlen)
            counts[engine] = res.count

        row = {"n": n, "d": d, "eps": eps, "minlen": minlen}
        for engine in ("vector", "auto"):
            row[engine] = _best_of(lambda: run(engine), repeats)
        assert len(set(counts.values())) == 1, "engines disagree on pairs"
        row["pairs"] = counts["auto"]
        rows.append(row)
    return rows


def run_suite(tiny=False):
    if tiny:
        kernel_rows = sweep(TINY_LEAF_SIZES, TINY_DIMENSIONS, repeats=2)
        worker_rows = measure_workers(n=800, worker_counts=(1, 2))
        batched_rows = measure_batched_e2e(TINY_BATCHED_POINTS)
    else:
        kernel_rows = sweep(LEAF_SIZES, DIMENSIONS)
        worker_rows = measure_workers()
        batched_rows = measure_batched_e2e(BATCHED_POINTS)
    emit("bench_kernels",
         "Leaf kernel sweep: seconds per self-join leaf "
         f"(eps={EPSILON}, upper triangle)",
         kernel_rows,
         time_columns=["scalar", "vector", "matmul"],
         reference="matmul")
    emit("bench_kernels_workers",
         "External self-join wall clock vs worker count "
         f"(cad_like, engine=auto, {os.cpu_count()} core(s))",
         worker_rows)
    emit("bench_kernels_batched",
         "End-to-end self-join wall clock: the per-leaf vector engine "
         "vs auto's GEMM tile leaves",
         batched_rows,
         time_columns=["vector", "auto"],
         reference="auto")
    return kernel_rows, worker_rows, batched_rows


def test_kernel_sweep(benchmark):
    tiny = TINY
    kernel_rows, _, batched_rows = run_suite(tiny=tiny)
    # Acceptance bar for the tile leaves: auto beats the per-leaf
    # vector engine end-to-end on at least one Figure-9-style point.
    assert any(r["auto"] < r["vector"] for r in batched_rows), \
        batched_rows
    for row in kernel_rows:
        if row["scalar"] is not None:
            assert row["vector"] < row["scalar"]
    if not tiny:
        # Acceptance bar: GEMM ≥ 3× over the difference cube on big
        # high-dimensional leaves.
        big = [r for r in kernel_rows
               if r["leaf"] >= 256 and r["d"] >= 16]
        assert big
        for row in big:
            assert row["matmul"] * 3.0 <= row["vector"], row

    pts = uniform(512, 16, seed=5)
    _ids, spts = ego_sorted(pts, EPSILON)
    order = natural_ordering(16)
    scratch = ScratchBuffers()
    benchmark(lambda: pairs_within_matmul(spts, spts, EPSILON ** 2,
                                          order, upper_triangle=True,
                                          scratch=scratch))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke configuration (small sweep)")
    args = parser.parse_args()
    run_suite(tiny=args.tiny or TINY)
