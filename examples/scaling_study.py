#!/usr/bin/env python3
"""Scaling study: how the external EGO join behaves as the data grows.

A compact version of the paper's Figure 10 experiment you can run and
modify: sweeps the database size with a fixed 10 % buffer budget and
prints, per size, the scheduling behaviour (gallop vs crabstep), the
exact I/O accounting on the paper's disk model, and the model time.

Also demonstrates graceful degradation: the same join at 10 %, 5 % and
2 % buffer gives identical results at a smoothly increasing re-read
factor — the property that lets EGO scale where the grid competitors
of Section 2.2 simply stop fitting in memory.

Run:  python examples/scaling_study.py
"""

from repro import uniform
from repro.analysis.costmodel import ego_total_time
from repro.analysis.optimizer import budget_geometry
from repro.analysis.reporting import format_table
from repro.core.ego_join import ego_self_join_file
from repro.data.loader import make_point_file

DIMENSIONS = 8
EPSILON = 0.25


def run(points, buffer_fraction):
    _budget, unit_bytes, buffer_units = budget_geometry(
        len(points), DIMENSIONS, buffer_fraction)
    disk, pf = make_point_file(points)
    try:
        return ego_self_join_file(pf, EPSILON, unit_bytes=unit_bytes,
                                  buffer_units=buffer_units,
                                  materialize=False)
    finally:
        disk.close()


def main() -> None:
    rows = []
    for n in (4_000, 8_000, 16_000, 32_000, 64_000):
        report = run(uniform(n, DIMENSIONS, seed=n), 0.10)
        s = report.schedule_stats
        rows.append({
            "n": n,
            "pairs": report.result.count,
            "sort_runs": report.sort_stats.runs_generated,
            "unit_loads": s.total_unit_loads,
            "crabsteps": s.crabstep_phases,
            "io_s": round(report.simulated_io_time_s, 3),
            "model_s": round(ego_total_time(report, DIMENSIONS), 3),
        })
    print(format_table(
        rows, title=f"external EGO self-join, 8-d uniform, "
                    f"eps={EPSILON}, buffer=10%"))

    print()
    pts = uniform(16_000, DIMENSIONS, seed=16_000)
    rows = []
    for fraction in (0.10, 0.05, 0.02):
        report = run(pts, fraction)
        s = report.schedule_stats
        units = s.gallop_loads + s.crabstep_pins
        rows.append({
            "buffer": f"{fraction:.0%}",
            "pairs": report.result.count,
            "unit_loads": s.total_unit_loads,
            "reread_factor": round(s.total_unit_loads / units, 2),
            "io_s": round(report.simulated_io_time_s, 3),
        })
    print(format_table(
        rows, title="same join, shrinking buffer "
                    "(identical results, graceful I/O growth)"))


if __name__ == "__main__":
    main()
