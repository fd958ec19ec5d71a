"""The range recursion and its GEMM tile leaves against per-leaf GEMM.

``join_sequences`` runs Figure 6 on index ranges, and under the
``auto`` engine on Euclidean data it stops at node pairs of at most one
GEMM tile (``DEFAULT_BLOCK²`` candidate pairs) and decides each with
``pairs_within_matmul``.  The reference re-decides each leaf on its own:
a recording invariant monitor hands every leaf the recursion reaches to
``pairs_within_matmul`` again.  On every input below the two must agree
leaf by leaf on the index arrays (order included) and on the work
counters; the reported distances must be the ``einsum`` of differences
recomputed per pair; every leaf must be one tile (or a ``minlen``
leaf); and the ``vector`` engine must find the same pairs (with the
same distances up to its summation order) through a recursion at
least as deep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import natural_ordering
from repro.core.ego_join import ego_self_join_file
from repro.core.ego_order import ego_sorted
from repro.core.kernels import DEFAULT_BLOCK, pairs_within_matmul
from repro.core.result import JoinResult
from repro.core.sequence import Sequence
from repro.core.sequence_join import (JoinContext, KernelConfig,
                                      join_sequences)
from repro.obs.metrics import MetricsRegistry
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import CPUCounters
from repro.verify.invariants import InvariantMonitor

from conftest import brute_truth, make_file

#: Metric families whose values depend on how leaves are evaluated.
PER_LEAF_FAMILIES = ("ego_gemm_reverified",)


class GemmReference(InvariantMonitor):
    """Records each leaf's emitted pairs next to ``pairs_within_matmul``'s.

    The reference charges its own counters, so the two must also agree
    on the distance calculations.  ``sizes`` keeps each leaf's shape.
    """

    def __init__(self) -> None:
        super().__init__()
        self.got, self.want, self.sizes = [], [], []
        self.cpu = CPUCounters()

    def check_leaf(self, s, a_lo, a_hi, t, b_lo, b_hi, ia, ib, ctx,
                   upper_triangle) -> None:
        ra, rb = pairs_within_matmul(
            s.points[a_lo:a_hi], t.points[b_lo:b_hi], ctx.threshold,
            natural_ordering(s.dimensions), counters=self.cpu,
            upper_triangle=upper_triangle)
        self.got.append((np.asarray(ia).tolist(), np.asarray(ib).tolist()))
        self.want.append((ra.tolist(), rb.tolist()))
        self.sizes.append((a_hi - a_lo, b_hi - b_lo))


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
            "with_distances": sorted(zip(ia.tolist(), ib.tolist(),
                                         result.distances().tolist())),
            "cpu": cpu, "dump": structural_dump(registry),
            "registry": registry}


def assert_same_pairs(got, want) -> None:
    """Equal pair sets, each pair with its distance up to the summation
    order of the two kernels."""
    pairs_got = [p[:2] for p in got["with_distances"]]
    assert pairs_got == [p[:2] for p in want["with_distances"]]
    np.testing.assert_allclose([p[2] for p in got["with_distances"]],
                               [p[2] for p in want["with_distances"]],
                               rtol=1e-12, atol=0)


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
    minlen = kwargs.get("minlen", KernelConfig().minlen)
    for na, nb in ref.sizes:
        assert na * nb <= DEFAULT_BLOCK ** 2 or max(na, nb) <= minlen

    ia, ib = (np.array(c, dtype=np.intp) for c in zip(*got["stream"]))
    b = points if other is None else other
    diffs = points[ia] - b[ib]
    assert got["distances"] == np.sqrt(
        np.einsum("ij,ij->i", diffs, diffs)).tobytes()

    want = run(points, eps, other, engine="vector", **kwargs)
    assert_same_pairs(got, want)
    for field in ("sequence_pairs", "sequence_exclusions"):
        assert getattr(got["cpu"], field) <= getattr(want["cpu"], field)
    leaves = got["registry"].get("ego_leaf_joins_total")
    assert [k for k, _v in leaves.to_data()["samples"]] == [["gemm"]]
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
        cell rows the pruning reads stay exact, and so does each tile,
        whose Gram expansion would cancel without centring."""
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
        and counts with the tile leaves inside the workers."""
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


def leaf_shapes(s_pts, eps, t_pts, **kernel):
    """Join two blocks under ``auto`` and return the leaf shapes the
    recursion decided, with the result."""
    ref = GemmReference()
    got = run(s_pts, eps, t_pts, monitor=ref, engine="auto", **kernel)
    assert ref.got == ref.want
    return ref.sizes, got


class TestTileLeaf:
    """The tile leaf against the literal Figure-7 engine."""

    @pytest.mark.parametrize("rs", [False, True])
    def test_pairs_and_distances_match_scalar(self, clustered, rs):
        other = clustered[::3] + 0.02 if rs else None
        got = run(clustered, 0.09, other, engine="auto")
        want = run(clustered, 0.09, other, engine="scalar")
        assert got["stream"]
        assert_same_pairs(got, want)

    @pytest.mark.parametrize("offset", [-1e7, 1e7])
    def test_far_from_origin(self, offset):
        """At ±10⁷ the raw Gram identity cancels almost all digits of a
        distance near ε; centring each tile keeps it exact and keeps
        the re-verified accepts near the true pairs."""
        rng = np.random.default_rng(41)
        pts = offset + rng.random((600, 3)) * 0.6
        eps = 0.05
        got = run(pts, eps, engine="auto")
        want = run(pts, eps, engine="scalar")
        assert_same_pairs(got, want)
        assert {(min(i, j), max(i, j)) for i, j in got["stream"]} \
            == brute_truth(pts, eps)
        reverified = got["registry"].get("ego_gemm_reverified_total").value
        assert len(got["stream"]) <= reverified <= 2 * len(got["stream"])

    def test_pairs_at_exactly_epsilon_and_duplicates(self):
        """Integer grid points at ε = 1: every axis neighbour is at
        exactly ε, and each point appears three times (distance 0)."""
        grid = np.stack(np.meshgrid(np.arange(9.0), np.arange(9.0),
                                    np.arange(4.0)), -1).reshape(-1, 3)
        pts = np.concatenate([grid, grid, grid])
        got = run(pts, 1.0, engine="auto")
        want = run(pts, 1.0, engine="scalar")
        assert_same_pairs(got, want)
        truth = brute_truth(pts, 1.0)
        assert {(min(i, j), max(i, j)) for i, j in got["stream"]} == truth
        dists = np.frombuffer(got["distances"])
        assert (dists == 1.0).sum() > 0 and (dists == 0.0).sum() > 0

    def test_skinny_tile_one_point_query(self):
        """The store's one-point range query is a 2000 × 1 node pair:
        one tile, split into eight GEMM blocks along its long side."""
        rng = np.random.default_rng(5)
        pts = rng.random((2000, 4)) * 0.2
        query = pts[:1] + 0.01
        sizes, got = leaf_shapes(pts, 0.3, query)
        assert sizes == [(2000, 1)]
        want = run(pts, 0.3, query, engine="scalar")
        assert_same_pairs(got, want)
        assert len(got["stream"]) > 100

    def test_skinny_tile_through_store(self):
        from repro.service.store import EGOStore
        rng = np.random.default_rng(6)
        pts = rng.random((2000, 4)) * 0.2
        eps = 0.05
        query = pts[7]
        ids, dists = EGOStore.from_points(pts, eps, engine="auto").range(
            query, eps)
        want_ids, want_d = EGOStore.from_points(
            pts, eps, engine="scalar").range(query, eps)
        assert ids.tolist() == want_ids.tolist() and len(ids) > 1
        np.testing.assert_allclose(dists, want_d, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("na,nb", [(100, 600), (600, 100), (300, 200)])
    def test_tile_wider_than_one_block(self, na, nb):
        """A node pair of at most ``DEFAULT_BLOCK²`` candidate pairs is
        one leaf even when one side exceeds ``DEFAULT_BLOCK``."""
        rng = np.random.default_rng(na + nb)
        a = rng.random((na, 3)) * 0.1
        b = rng.random((nb, 3)) * 0.1
        sizes, got = leaf_shapes(a, 0.04, b)
        assert sizes == [(na, nb)]
        want = run(a, 0.04, b, engine="scalar")
        assert_same_pairs(got, want)


class TestReverifiedCounter:
    """``ego_gemm_reverified_total`` counts the Gram-filter accepts that
    the tile leaves and the LSH bucket verify re-check exactly."""

    def _file_join(self, points, metrics):
        with SimulatedDisk() as disk:
            pf = make_file(disk, points)
            return ego_self_join_file(pf, 0.08, unit_bytes=2048,
                                      buffer_units=4, engine="auto",
                                      metrics=metrics)

    def test_deterministic_across_runs(self, clustered):
        counts = []
        for _ in range(2):
            registry = MetricsRegistry()
            rep = self._file_join(clustered, registry)
            counts.append(
                registry.get("ego_gemm_reverified_total").value)
        assert counts[0] == counts[1] >= rep.result.count > 0

    def test_lsh_verify_counts(self):
        from repro.joins.lsh_join import lsh_self_join
        pts = np.random.default_rng(3).random((400, 4))
        counts = []
        for _ in range(2):
            registry = MetricsRegistry()
            rep = lsh_self_join(pts, 0.3, engine="matmul", seed=2,
                                metrics=registry)
            counts.append(
                registry.get("ego_gemm_reverified_total").value)
        assert counts[0] == counts[1] >= rep.lsh.verified > 0

    def test_zero_with_metrics_off(self, clustered, monkeypatch):
        """Without a registry no call hands the kernel one to charge."""
        import repro.core.sequence_join as sj
        seen = []
        real = sj.pairs_within_matmul

        def spy(*args, **kwargs):
            seen.append(kwargs.get("metrics"))
            return real(*args, **kwargs)

        monkeypatch.setattr(sj, "pairs_within_matmul", spy)
        rep = self._file_join(clustered, None)
        assert rep.result.count > 0
        assert seen and all(m is None for m in seen)
