"""The range recursion and its gather pass against per-leaf GEMM.

``join_sequences`` runs Figure 6 on index ranges, and the ``auto``
engine decides every Euclidean leaf one flush at a time with the exact
sum of squared differences.  The reference re-decides each leaf on its
own: a recording invariant monitor hands every leaf the recursion
reaches to ``pairs_within_matmul``, which re-verifies its accepts with
the same expression.  On every input below the two must agree leaf by
leaf on the index arrays (order included) and on the work counters;
the reported distances must be the ``einsum`` of differences
recomputed per pair; and the ``vector`` engine must find the same pair
set through the same recursion (every structural count of the
Prometheus dump).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import natural_ordering
from repro.core.ego_join import ego_self_join_file
from repro.core.ego_order import ego_sorted
from repro.core.kernels import candidate_windows, pairs_within_matmul
from repro.core.result import JoinResult
from repro.core.sequence import Sequence
from repro.core.sequence_join import (JoinContext, KernelConfig, _active,
                                      join_sequences)
from repro.obs.metrics import MetricsRegistry
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import CPUCounters
from repro.verify.invariants import InvariantMonitor

from conftest import brute_truth, make_file

#: Metric families whose values depend on how leaves are evaluated.
PER_LEAF_FAMILIES = ("ego_candidate_window_rows", "ego_kernel_batch")


class GemmReference(InvariantMonitor):
    """Records each leaf's emitted pairs next to ``pairs_within_matmul``'s.

    The reference windows each leaf in its active dimension, as the
    gather pass does, and charges its own counters, so the two must
    also agree on the distance calculations.
    """

    def __init__(self) -> None:
        super().__init__()
        self.got, self.want = [], []
        self.cpu = CPUCounters()

    def check_leaf(self, s, a_lo, a_hi, t, b_lo, b_hi, ia, ib, ctx,
                   upper_triangle) -> None:
        extra = {}
        a, b = s.points[a_lo:a_hi], t.points[b_lo:b_hi]
        cells_a, cells_b = s.cells[a_lo:a_hi], t.cells[b_lo:b_hi]
        wdim = _active(cells_b[0].tolist(), cells_b[-1].tolist())
        if wdim < t.dimensions:
            extra["windows"] = candidate_windows(
                a, b, wdim, t.epsilon,
                cells_a=cells_a[:, wdim], cells_b=cells_b[:, wdim])
        ra, rb = pairs_within_matmul(
            a, b, ctx.threshold, natural_ordering(s.dimensions),
            counters=self.cpu, upper_triangle=upper_triangle, **extra)
        self.got.append((np.asarray(ia).tolist(), np.asarray(ib).tolist()))
        self.want.append((ra.tolist(), rb.tolist()))


def structural_dump(registry: MetricsRegistry) -> str:
    """The Prometheus dump without the per-leaf families, with the leaf
    count summed over leaf kernels."""
    leaves = registry.get("ego_leaf_joins_total")
    total = sum(v for _k, v in leaves.to_data()["samples"]) if leaves else 0
    lines = [f"leaf_joins {total}"]
    for line in registry.to_prometheus_text().splitlines():
        name = line.split()[2] if line.startswith("#") else line
        if name.startswith(PER_LEAF_FAMILIES + ("ego_leaf_joins_total",)):
            continue
        lines.append(line)
    return "\n".join(lines)


def run(points, eps, other=None, grid_epsilon=None, monitor=None, **kernel):
    """Join EGO-sorted blocks with ``join_sequences``; everything the
    comparison looks at."""
    grid = grid_epsilon or eps
    registry, cpu = MetricsRegistry(), CPUCounters()
    result = JoinResult(collect_distances=True)
    ctx = JoinContext(epsilon=eps, result=result,
                      kernel=KernelConfig(**kernel), cpu=cpu,
                      grid_epsilon=grid_epsilon, metrics=registry,
                      monitor=monitor)
    ids, pts = ego_sorted(points, grid)
    seq = Sequence(ids, pts, grid)
    if other is None:
        join_sequences(seq, seq, ctx)
    else:
        ids_b, pts_b = ego_sorted(other, grid)
        join_sequences(seq, Sequence(ids_b, pts_b, grid), ctx)
    ia, ib = result.pairs()
    return {"stream": list(zip(ia.tolist(), ib.tolist())),
            "distances": result.distances().tobytes(),
            "cpu": cpu, "dump": structural_dump(registry),
            "registry": registry}


def check_auto(points, eps, other=None, engine="auto", **kwargs):
    """Run ``engine`` (``auto``) under the GEMM reference and ``vector``
    beside it; assert every agreement the module docstring lists."""
    ref = GemmReference()
    got = run(points, eps, other, engine=engine, monitor=ref, **kwargs)
    assert got["stream"]
    assert ref.got == ref.want
    assert sum(len(a) for a, _b in ref.got) == len(got["stream"])
    assert got["cpu"].distance_calculations == ref.cpu.distance_calculations
    assert got["cpu"].dimension_evaluations == ref.cpu.dimension_evaluations

    ia, ib = (np.array(c, dtype=np.intp) for c in zip(*got["stream"]))
    b = points if other is None else other
    diffs = points[ia] - b[ib]
    assert got["distances"] == np.sqrt(
        np.einsum("ij,ij->i", diffs, diffs)).tobytes()

    want = run(points, eps, other, engine="vector", **kwargs)
    assert set(got["stream"]) == set(want["stream"])
    assert got["dump"] == want["dump"]
    for field in ("sequence_pairs", "sequence_exclusions"):
        assert getattr(got["cpu"], field) == getattr(want["cpu"], field)
    leaves = got["registry"].get("ego_leaf_joins_total")
    assert [k for k, _v in leaves.to_data()["samples"]] == [["batched"]]
    return got


def boundary_points(rng, n, d, eps, offset):
    """Points on cell boundaries around ``offset``, one ulp either side
    of them, or inside a cell."""
    pts = (np.rint(offset / eps) + rng.integers(0, 12, size=(n, d))) * eps
    kind = rng.integers(0, 4, size=(n, d))
    pts = np.where(kind == 1, np.nextafter(pts, np.inf), pts)
    pts = np.where(kind == 2, np.nextafter(pts, -np.inf), pts)
    return np.where(kind == 3, pts + rng.uniform(0, eps, size=(n, d)), pts)


@pytest.fixture(scope="module")
def clustered():
    rng = np.random.default_rng(18)
    centres = rng.random((6, 5))
    return np.concatenate([c + rng.normal(0, 0.05, size=(90, 5))
                           for c in centres])


class TestAgainstPerLeafGemm:
    @pytest.mark.parametrize("engine", ["auto"])
    @pytest.mark.parametrize("minlen", [1, 8, 32, 200])
    def test_self_join(self, clustered, engine, minlen):
        check_auto(clustered, 0.08, engine=engine, minlen=minlen)

    @pytest.mark.parametrize("minlen", [1, 8, 32, 200])
    def test_rs_join(self, clustered, minlen):
        check_auto(clustered, 0.08, clustered[::2] + 0.01, minlen=minlen)

    @pytest.mark.parametrize("other", [False, True])
    def test_coarser_grid(self, clustered, other):
        """The store's query grid: cells wider than the join distance."""
        b = clustered[1::3] if other else None
        check_auto(clustered, 0.05, b, grid_epsilon=0.12)

    @pytest.mark.parametrize("minlen", [8, 32])
    def test_boundary_split(self, clustered, minlen):
        check_auto(clustered, 0.08, minlen=minlen, split_strategy="boundary")

    def test_l1_falls_back_to_vector(self, clustered):
        want = run(clustered, 0.1, engine="vector", metric="manhattan")
        got = run(clustered, 0.1, engine="auto", metric="manhattan")
        assert got["stream"] == want["stream"]
        assert got["distances"] == want["distances"]
        assert got["cpu"] == want["cpu"]
        assert got["dump"] == want["dump"]
        leaves = got["registry"].get("ego_leaf_joins_total")
        assert [k for k, _v in leaves.to_data()["samples"]] == [["vector"]]

    @pytest.mark.parametrize("offset", [-7.5e5, 0.0, 3e7])
    def test_boundary_coordinates(self, offset):
        rng = np.random.default_rng(int(abs(offset)) % 1000)
        eps = 0.0625
        a = boundary_points(rng, 300, 3, eps, offset)
        b = boundary_points(rng, 200, 3, eps, offset)
        check_auto(a, eps, b, minlen=8)
        self_join = check_auto(a, eps, minlen=8)
        assert {(min(i, j), max(i, j)) for i, j in self_join["stream"]} \
            == brute_truth(a, eps)

    def test_window_keys_do_not_overflow(self):
        """Cells near 1e15 (ε = 1e-9 on coordinates around 1e6): the
        packed window keys must not overflow, and the result is exact."""
        rng = np.random.default_rng(9)
        eps = 1e-9
        pts = 1e6 + rng.integers(0, 40, size=(400, 2)) * 0.7e-9
        want = brute_truth(pts, eps)
        got = check_auto(pts, eps, minlen=8)
        assert {(min(i, j), max(i, j)) for i, j in got["stream"]} == want
        assert len(want) > 100


class TestParallelStream:
    def test_workers_match_serial(self, clustered):
        """Serial and ``workers=2`` file joins emit the same raw stream
        and counts with the gather pass inside the workers."""
        reports = {}
        for workers in (1, 2):
            registry = MetricsRegistry()
            with SimulatedDisk() as disk:
                pf = make_file(disk, clustered)
                rep = ego_self_join_file(pf, 0.08, unit_bytes=2048,
                                         buffer_units=4, engine="auto",
                                         workers=workers, metrics=registry)
            ia, ib = rep.result.pairs()
            reports[workers] = (list(zip(ia.tolist(), ib.tolist())),
                                rep.cpu, structural_dump(registry))
        assert reports[1] == reports[2]
        assert reports[1][0]
