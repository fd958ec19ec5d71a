#!/usr/bin/env python3
"""Parameter sweeps on one sort: sorted-file reuse.

A practical property of the epsilon grid order this library exploits:
a file sorted at ε is usable for *any* join distance ε′ ≤ ε (the ε-grid
pruning stays sound on the coarser grid).  Parameter tuning — the
k-distance plot, a DBSCAN ε sweep — therefore pays for one external
sort, not one per candidate value.  (A larger ε′ needs a new sort: no
coarser grid, integer multiples included, preserves the order.)

This example sweeps ε over a clustered data set twice — re-sorting
every time vs one sorted file — and compares the simulated I/O.  The
in-memory counterpart is :class:`repro.service.EGOStore`, whose
``join(epsilon=…)`` serves any ε′ up to its grid ε from the resident
order.

Run:  python examples/parameter_sweep.py
"""

from repro import gaussian_clusters
from repro.analysis.reporting import format_table
from repro.core.ego_join import ego_key_function, ego_self_join_file
from repro.data.loader import make_point_file
from repro.sorting.external_sort import external_sort
from repro.storage.disk import SimulatedDisk

N, DIMS = 12_000, 6
EPS_MAX = 0.08
SWEEP = [0.01, 0.02, 0.04, 0.08]
UNIT_BYTES, BUFFER_UNITS = 8192, 6


def main() -> None:
    points = gaussian_clusters(N, DIMS, clusters=9, std=0.015,
                               noise_fraction=0.05, seed=5)

    # --- external: re-sort per epsilon --------------------------------
    naive_io = 0.0
    disk, pf = make_point_file(points)
    for eps in SWEEP:
        report = ego_self_join_file(pf, eps, unit_bytes=UNIT_BYTES,
                                    buffer_units=BUFFER_UNITS,
                                    materialize=False)
        naive_io += report.simulated_io_time_s
    disk.close()

    # --- external: sort once at EPS_MAX, sweep on the sorted file -----
    disk, pf = make_point_file(points)
    with SimulatedDisk() as sorted_disk, SimulatedDisk() as scratch:
        sorted_file, _ = external_sort(pf, sorted_disk, scratch,
                                       ego_key_function(EPS_MAX),
                                       BUFFER_UNITS * 100)
        sort_once_io = (pf.disk.simulated_time_s
                        + sorted_disk.simulated_time_s
                        + scratch.simulated_time_s)
        rows = []
        for eps in SWEEP:
            report = ego_self_join_file(
                sorted_file, eps, unit_bytes=UNIT_BYTES,
                buffer_units=BUFFER_UNITS, assume_sorted=True,
                sorted_epsilon=EPS_MAX, materialize=False)
            sort_once_io += report.join_io_time_s
            rows.append({"epsilon": eps, "pairs": report.result.count,
                         "join_io_s": round(report.join_io_time_s, 3)})
    disk.close()

    print(format_table(rows, title=f"sweep on one sorted file "
                                   f"(n={N:,}, sorted at {EPS_MAX})"))
    print(f"\nsimulated I/O, re-sorting per epsilon : {naive_io:.2f} s")
    print(f"simulated I/O, one sort + sweep       : {sort_once_io:.2f} s "
          f"({naive_io / sort_once_io:.1f}x less)")


if __name__ == "__main__":
    main()
