"""Shared benchmark harness.

Runs every join algorithm of the paper's evaluation on one dataset under
the Section 5 rules — all algorithms get the same buffer budget (10 % of
the database size by default), index-based competitors get their indexes
preconstructed for free — and reports *model seconds* (simulated I/O
plus calibrated CPU, see ``repro.analysis.costmodel``).

Each ``bench_*`` module sweeps one experiment of DESIGN.md's index,
prints the series the corresponding paper figure plots and saves it
under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.costmodel import (ego_total_time, join_total_time,
                                      nested_loop_estimate)
from repro.analysis.optimizer import budget_geometry
from repro.analysis.reporting import format_table, speedup_summary
from repro.core.ego_join import ExternalJoinReport, ego_self_join_file
from repro.data.loader import make_point_file
from repro.index.mux import MultipageIndex
from repro.index.rtree import RTree
from repro.joins.mux_join import mux_self_join
from repro.joins.rsj import rsj_self_join
from repro.joins.zorder_rsj import zorder_rsj_self_join
from repro.storage.disk import SimulatedDisk
from repro.storage.records import record_size

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Fraction of the database size every algorithm may buffer (Section 5).
BUFFER_FRACTION = 0.10

#: Leaf page capacity of the R-tree competitors (records).
RTREE_PAGE_RECORDS = 64

#: CPU-optimised bucket capacity of the Multipage Index (records).
MUX_BUCKET_RECORDS = 16


@dataclass
class BudgetedSetup:
    """Derived memory/unit geometry for one dataset size."""

    n: int
    dimensions: int
    budget_bytes: int
    unit_bytes: int
    buffer_units: int
    pool_pages: int

    @classmethod
    def for_dataset(cls, n: int, dimensions: int,
                    fraction: float = BUFFER_FRACTION) -> "BudgetedSetup":
        budget_bytes, unit_bytes, buffer_units = budget_geometry(
            n, dimensions, fraction)
        pool_pages = max(2, budget_bytes
                         // (RTREE_PAGE_RECORDS * record_size(dimensions)))
        return cls(n=n, dimensions=dimensions, budget_bytes=budget_bytes,
                   unit_bytes=unit_bytes, buffer_units=buffer_units,
                   pool_pages=pool_pages)


def run_ego(points: np.ndarray, epsilon: float,
            setup: Optional[BudgetedSetup] = None) -> ExternalJoinReport:
    """External EGO self-join under the budget; returns its report."""
    pts = np.asarray(points, dtype=np.float64)
    if setup is None:
        setup = BudgetedSetup.for_dataset(len(pts), pts.shape[1])
    disk, pf = make_point_file(pts)
    try:
        return ego_self_join_file(pf, epsilon,
                                  unit_bytes=setup.unit_bytes,
                                  buffer_units=setup.buffer_units,
                                  materialize=False)
    finally:
        disk.close()


def run_all_algorithms(points: np.ndarray, epsilon: float,
                       algorithms: Optional[List[str]] = None
                       ) -> Dict[str, float]:
    """Model seconds of every requested algorithm on one dataset.

    ``algorithms`` defaults to the paper's line-up: ``ego``, ``mux``,
    ``zorder-rsj``, ``rsj`` and the calculated ``nested-loop``.
    Returns a dict of model seconds plus an ``ego_pairs`` entry with the
    result cardinality (identical across algorithms; asserted in tests,
    not here).
    """
    pts = np.asarray(points, dtype=np.float64)
    n, d = pts.shape
    setup = BudgetedSetup.for_dataset(n, d)
    if algorithms is None:
        algorithms = ["ego", "mux", "zorder-rsj", "rsj", "nested-loop"]
    ids = np.arange(n, dtype=np.int64)
    times: Dict[str, float] = {}

    if "ego" in algorithms:
        report = run_ego(pts, epsilon, setup)
        times["ego"] = ego_total_time(report, d)
        times["ego_pairs"] = report.result.count

    needs_rtree = {"rsj", "zorder-rsj"} & set(algorithms)
    if needs_rtree:
        with SimulatedDisk() as disk:
            tree = RTree.bulk_load(ids, pts, disk, RTREE_PAGE_RECORDS)
            if "rsj" in algorithms:
                report = rsj_self_join(tree, epsilon, setup.pool_pages,
                                       materialize=False)
                times["rsj"] = join_total_time(report, d)
            if "zorder-rsj" in algorithms:
                report = zorder_rsj_self_join(tree, epsilon,
                                              setup.pool_pages,
                                              materialize=False)
                times["zorder-rsj"] = join_total_time(report, d)

    if "mux" in algorithms:
        with SimulatedDisk() as disk:
            mux = MultipageIndex.bulk_load(
                ids, pts, disk, page_bytes=setup.unit_bytes,
                bucket_records=MUX_BUCKET_RECORDS)
            report = mux_self_join(
                mux, epsilon,
                max(2, setup.budget_bytes // setup.unit_bytes),
                materialize=False)
            times["mux"] = join_total_time(report, d)

    if "nested-loop" in algorithms:
        est = nested_loop_estimate(
            n, d, buffer_records=max(2, int(n * BUFFER_FRACTION)))
        times["nested-loop"] = est.total_time_s
    return times


def emit(experiment_id: str, title: str, rows: List[dict],
         time_columns: Optional[List[str]] = None,
         reference: str = "ego") -> str:
    """Print an experiment table (+ speedups) and save it to results/."""
    text = format_table(rows, title=title)
    if time_columns:
        series = {}
        for col in time_columns:
            values = [row[col] for row in rows if row.get(col) is not None]
            if values and len(values) == sum(
                    1 for row in rows if row.get(reference) is not None):
                series[col] = values
        if reference in series and len(series) > 1:
            ref_rows = [row for row in rows
                        if row.get(reference) is not None]
            aligned = {
                col: [row[col] for row in ref_rows
                      if row.get(col) is not None]
                for col in time_columns
                if all(row.get(col) is not None for row in ref_rows)}
            if reference in aligned and len(aligned) > 1:
                factors = speedup_summary(aligned, reference)
                text += "\n\nspeedup of {} over:".format(reference)
                for name, fac in factors.items():
                    text += f"\n  {name:12s} {fac}"
    print()
    print(f"=== {experiment_id} ===")
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment_id}.txt")
    with open(path, "w") as fh:
        fh.write(f"=== {experiment_id} ===\n{text}\n")
    return text
