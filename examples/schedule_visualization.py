#!/usr/bin/env python3
"""Visualising the I/O schedule: the paper's Figure 2, from a real run.

Figure 2 of the paper shows the matrix of I/O-unit pairs: the lower
triangle cancelled by symmetry, a large upper-right region cancelled by
the ε-interval (Lemma 2/3), and the band near the diagonal that the
gallop/crabstep schedule must cover.

This example runs the EGO schedule with a :class:`~repro.obs.Tracer`
attached and renders the actual unit-pair matrix from its ``unit_pair``
spans and ``skip`` events, plus the per-unit load counts
under three buffer sizes — making the paper's Figures 2 and 3 visible
on live data.

Run:  python examples/schedule_visualization.py
"""

from collections import Counter

import numpy as np

from repro import uniform
from repro.core.result import JoinResult
from repro.core.scheduler import EGOScheduler
from repro.core.sequence_join import JoinContext, KernelConfig
from repro.core.units import SortedUnits
from repro.core.ego_order import ego_sorted
from repro.data.loader import make_point_file
from repro.obs import Tracer

EPSILON = 0.22
UNIT_BYTES = 1400


def traced_run(points, buffer_units):
    ids, spts = ego_sorted(points, EPSILON)
    disk, pf = make_point_file(spts, ids=ids)
    try:
        tracer = Tracer()
        ctx = JoinContext(epsilon=EPSILON,
                          result=JoinResult(materialize=False),
                          kernel=KernelConfig(minlen=16), trace=tracer)
        sched = EGOScheduler(SortedUnits(pf, UNIT_BYTES, EPSILON), ctx,
                             buffer_units)
        stats = sched.run()
        return tracer, stats, sched.num_units
    finally:
        disk.close()


def render_matrix(tracer, n_units):
    """The Figure-2 matrix: '#' joined, '.' interval-skipped, ' ' never formed."""
    grid = [[" "] * n_units for _ in range(n_units)]
    for event in tracer.events:
        if event["name"] == "unit_pair":
            grid[event["args"]["a"]][event["args"]["b"]] = "#"
        elif event["name"] == "skip":
            a, b = event["args"]["a"], event["args"]["b"]
            if grid[a][b] == " ":
                grid[a][b] = "."
    lines = ["    " + "".join(f"{j % 10}" for j in range(n_units))]
    for i in range(n_units):
        lines.append(f"{i:>3} " + "".join(grid[i]))
    return "\n".join(lines)


def main() -> None:
    points = uniform(1200, 2, seed=33)

    tracer, stats, n_units = traced_run(points, buffer_units=6)
    print(f"unit-pair matrix ({n_units} units, eps={EPSILON}, "
          f"buffer=6):  '#' joined, '.' skipped by the eps-interval\n")
    print(render_matrix(tracer, n_units))
    print(f"\npairs joined: {stats.unit_pairs_joined}, "
          f"skipped: {stats.unit_pairs_skipped} "
          f"(the cancelled region of Figure 2)")

    print("\nloads per unit as the buffer shrinks (Figure 3):")
    header = "unit:      " + "".join(f"{u % 10}" for u in range(n_units))
    print(header)
    for buffer_units in (32, 6, 2):
        tracer, stats, _ = traced_run(points, buffer_units)
        loads = Counter(e["args"]["unit"] for e in tracer.spans("load"))
        row = "".join(str(min(9, loads.get(u, 0)))
                      for u in range(n_units))
        print(f"buffer={buffer_units:>3}: {row}   "
              f"total={stats.total_unit_loads} "
              f"crabsteps={stats.crabstep_phases}")


if __name__ == "__main__":
    main()
