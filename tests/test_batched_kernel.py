"""Tests for the ``auto`` engine's Euclidean leaf path (GEMM tile
leaves) and the precision bugfixes that shipped with the GEMM kernels.

Three areas:

* ``floor_cells`` — the rounding-safe grid cell mapping.  The hardcoded
  instances below were found by random search and verified with exact
  rational arithmetic; on each of them the pre-fix ``np.floor(x / w)``
  places the coordinate one cell too high, so these tests fail on the
  raw-floor code.
* the centered Gram expansion of ``pairs_within_matmul`` — on
  translated data the pre-fix slack (computed from raw norms) exceeds
  ε² and forces every windowed candidate through exact
  re-verification; the centered kernel keeps the re-verified count
  proportional to the accepts.
* the tile leaves — engine resolution, pair and distance identity
  with the Figure-7 engines, oracle/metamorphic sweeps and the tile
  metrics.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.distance import natural_ordering, pairs_within_scalar
from repro.core.ego_join import ego_join, ego_self_join
from repro.core.ego_order import floor_cells, grid_cells
from repro.core.kernels import (DEFAULT_BLOCK, ScratchBuffers,
                                candidate_windows, pairs_within_matmul)
from repro.core.result import JoinResult
from repro.core.sequence import Sequence
from repro.core.sequence_join import (JoinContext, KernelConfig,
                                      join_sequences)
from repro.obs.metrics import MetricsRegistry
from repro.verify import run_impl, run_relations

from conftest import brute_truth

#: ``(coordinate, cell width, real-arithmetic floor(coordinate / width))``
#: triples on which ``floor(fl(x / w))`` lands one cell high because the
#: correctly rounded quotient crosses the integer.  Verified with
#: ``Fraction`` arithmetic (re-checked in the test itself).
RAW_FLOOR_REGRESSIONS = [
    (36421541.01575448, 0.12019024292655811, 303032426),
    (1417445.7668127185, 0.001433268844161744, 988960146),
    (308232.84540794283, 0.0012453101530902563, 247514921),
    (-14787.982199769922, 9.8455451938731e-05, -150199730),
    (770162.9426907644, 0.001407584380744777, 547152236),
    (-116361.55700563421, 0.00019174222567174692, -606864538),
]

#: The extended-precision correction is exact only where ``longdouble``
#: is wider than ``float64`` (x86 Linux: 63-bit mantissa).
LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).nmant > 52


def exact_floor(x: float, w: float) -> int:
    """Real-arithmetic ``floor(x / w)`` via rational arithmetic."""
    return int((Fraction(x) / Fraction(w)).__floor__())


def stream_pairs(result: JoinResult):
    """The raw (uncanonicalised) pair stream as a list of tuples."""
    ia, ib = result.pairs()
    return list(zip(ia.tolist(), ib.tolist()))


def sorted_pairs(result: JoinResult):
    """The pairs in sorted order."""
    ia, ib = result.pairs()
    return sorted(zip(ia.tolist(), ib.tolist()))


def assert_same_join(got: JoinResult, want: JoinResult) -> None:
    """Equal pair sets and, when collected, the same distance for each
    pair up to the two kernels' summation order."""
    assert sorted_pairs(got) == sorted_pairs(want)
    if got.collect_distances:
        order_got, order_want = (np.lexsort(r.pairs()[::-1])
                                 for r in (got, want))
        np.testing.assert_allclose(got.distances()[order_got],
                                   want.distances()[order_want],
                                   rtol=1e-12, atol=0)


class TestFloorCellsRegression:
    @pytest.mark.parametrize("x,w,truth", RAW_FLOOR_REGRESSIONS)
    def test_known_instances(self, x, w, truth):
        assert exact_floor(x, w) == truth  # the instance is as documented
        raw = int(np.floor(np.float64(x) / np.float64(w)))
        assert raw == truth + 1, "instance no longer exercises the bug"
        if LONGDOUBLE_IS_WIDER:
            assert int(floor_cells(np.array([x]), w)[0]) == truth

    @pytest.mark.skipif(not LONGDOUBLE_IS_WIDER,
                        reason="longdouble no wider than float64")
    def test_matches_rational_floor_near_boundaries(self):
        """On boundary-adjacent data the fixed mapping is the real floor."""
        rng = np.random.default_rng(7)
        for _ in range(40):
            w = float(rng.uniform(1e-4, 0.5))
            k = rng.integers(-10**6, 10**6, size=64)
            # Exact cell-boundary multiples, then the float64 neighbours
            # of each — the region where raw floor mis-rounds.
            bounds = np.array([float(Fraction(int(ki)) * Fraction(w))
                               for ki in k])
            xs = np.concatenate([bounds,
                                 np.nextafter(bounds, np.inf),
                                 np.nextafter(bounds, -np.inf)])
            got = floor_cells(xs, w)
            for x, c in zip(xs.tolist(), got.tolist()):
                assert c == exact_floor(x, w)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = float(rng.uniform(1e-4, 1.0))
            xs = np.sort(rng.normal(scale=1e6, size=200))
            cells = floor_cells(xs, w)
            assert (np.diff(cells) >= 0).all()

    def test_cell_brackets_coordinate(self):
        """``c·w ≤ x < (c+1)·w`` in extended precision, any platform."""
        rng = np.random.default_rng(3)
        w = 0.001433268844161744
        xs = rng.uniform(-1e6, 1e6, size=500)
        c = floor_cells(xs, w).astype(np.longdouble)
        wide = np.longdouble(w)
        assert (c * wide <= xs.astype(np.longdouble)).all()
        assert ((c + 1.0) * wide > xs.astype(np.longdouble)).all()

    def test_shape_and_negative_handling(self):
        pts = np.array([[-0.3, 0.0], [0.3, 1.0]])
        cells = floor_cells(pts, 0.25)
        assert cells.shape == pts.shape
        assert cells.tolist() == [[-2, 0], [1, 4]]
        assert grid_cells(pts, 0.25).tolist() == cells.tolist()

    def test_windows_sound_on_translated_boundary_data(self):
        """Candidate windows drop no true mate on cell-boundary data far
        from the origin (the pre-fix failure mode)."""
        rng = np.random.default_rng(23)
        eps = 0.001433268844161744
        offsets = (-5e6, 0.0, 1e8)
        for off in offsets:
            # Coordinates hugging cell boundaries around the offset.
            k = np.rint(off / eps) + rng.integers(0, 40, size=120)
            base = k * eps
            jitter = rng.uniform(-0.6 * eps, 0.6 * eps, size=(120, 2))
            pts = np.stack([base, base], axis=1) + jitter
            ids = np.argsort(floor_cells(pts[:, 0], eps), kind="stable")
            pts = pts[ids]
            lo, hi = candidate_windows(pts, pts, 0, eps)
            truth = brute_truth(pts, eps)
            for i, j in truth:
                assert lo[i] <= j < hi[i], (off, i, j)
                assert lo[j] <= i < hi[j], (off, i, j)


class TestCenteredSlackRegression:
    def _cluster(self, offset, n=150, d=4, eps=0.05, seed=5):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 1, size=(n, d)) + offset, eps

    @pytest.mark.parametrize("offset", [0.0, 1e6, -5e6, 1e8])
    def test_matches_scalar_on_translated_clusters(self, offset):
        pts, eps = self._cluster(offset)
        order = natural_ordering(pts.shape[1])
        sa, sb = pairs_within_scalar(pts, pts, eps * eps, order,
                                     upper_triangle=True)
        ma, mb = pairs_within_matmul(pts, pts, eps * eps, order,
                                     upper_triangle=True)
        assert set(zip(sa.tolist(), sb.tolist())) \
            == set(zip(ma.tolist(), mb.tolist()))

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_reverification_stays_bounded_far_from_origin(self, offset,
                                                           monkeypatch):
        """Pre-fix, the raw-norm slack at these offsets exceeds ε², so
        *every* candidate is re-verified (n·(n−1)/2 here); centered, the
        re-verified count tracks the accepts.

        The kernel takes row norms with ``einsum(..., out=...)`` and
        re-verifies with a plain ``einsum`` of differences, so the rows
        of the latter calls are the re-verified candidates."""
        pts, eps = self._cluster(offset)
        order = natural_ordering(pts.shape[1])
        einsum, rows = np.einsum, []

        def counting_einsum(*operands, **kwargs):
            if "out" not in kwargs:
                rows.append(len(operands[1]))
            return einsum(*operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        ia, _ib = pairs_within_matmul(pts, pts, eps * eps, order,
                                      upper_triangle=True)
        monkeypatch.undo()
        reverified = sum(rows)
        assert reverified >= len(ia)
        n = len(pts)
        all_candidates = n * (n - 1) // 2
        assert reverified <= 4 * max(len(ia), 1) + 64
        assert reverified < all_candidates // 4


class TestScratchBuffers:
    def test_invalid_slot_rejected(self):
        scratch = ScratchBuffers(8)
        with pytest.raises(ValueError):
            scratch.norms(np.ones((2, 2)), "c")

    def test_slots_never_alias_under_interleaved_growth(self, rng):
        scratch = ScratchBuffers(4)
        a_small = rng.random((4, 3))
        b_small = rng.random((4, 3))
        na = scratch.norms(a_small, "a")
        nb = scratch.norms(b_small, "b")
        assert na.base is not nb.base
        # Growing "a" must not move or clobber the live "b" view.
        b_expect = np.einsum("ij,ij->i", b_small, b_small)
        a_big = rng.random((64, 3))
        na2 = scratch.norms(a_big, "a")
        np.testing.assert_array_equal(nb, b_expect)
        assert na2.base is not nb.base
        # ...and vice versa, after "b" grows past "a".
        b_big = rng.random((128, 3))
        nb2 = scratch.norms(b_big, "b")
        np.testing.assert_allclose(
            na2, np.einsum("ij,ij->i", a_big, a_big))
        assert nb2.base is not na2.base

    def test_stale_view_keeps_old_values(self, rng):
        scratch = ScratchBuffers(4)
        first = rng.random((4, 2))
        view = scratch.norms(first, "a")
        kept = view.copy()
        scratch.norms(rng.random((64, 2)), "a")  # grows, reallocates
        np.testing.assert_array_equal(view, kept)


def leaf_kernels(pts, eps, **kernel):
    """Labels of ``ego_leaf_joins_total`` after one self-join, and the
    context (to see whether it ever built GEMM scratch)."""
    from repro.core.ego_order import ego_sorted
    reg = MetricsRegistry()
    ctx = JoinContext(epsilon=eps, result=JoinResult(),
                      kernel=KernelConfig(**kernel), metrics=reg)
    ids, spts = ego_sorted(pts, eps)
    seq = Sequence(ids, spts, eps)
    join_sequences(seq, seq, ctx)
    samples = reg.get("ego_leaf_joins_total").to_data()["samples"]
    return [k for k, v in samples if v], ctx


class TestBatchedEngineSelection:
    def test_auto_small_leaf_batches_when_batching(self, rng):
        """``auto`` resolves once per join: every Euclidean leaf, of any
        ``minlen``, is a GEMM tile."""
        pts = rng.random((400, 5))
        for minlen in (1, 200):
            labels, _ctx = leaf_kernels(pts, 0.2, engine="auto",
                                        minlen=minlen)
            assert labels == [["gemm"]]

    def test_batched_non_euclidean_falls_back(self, rng):
        """On another metric ``auto`` runs ``vector`` for every leaf and
        never builds GEMM scratch."""
        labels, ctx = leaf_kernels(rng.random((300, 3)), 0.2,
                                   engine="auto", metric="manhattan")
        assert labels == [["vector"]]
        assert ctx._scratch is None

    def test_context_accepts_batched_and_knobs(self):
        """``auto`` on Euclidean data decides every leaf as a GEMM tile
        with the context's scratch, built on first use at one tile."""
        ctx = JoinContext(epsilon=0.1, result=JoinResult(),
                          kernel=KernelConfig(engine="auto"))
        assert ctx.kernel.leaf_kernel == "gemm"
        assert ctx._scratch is None
        assert ctx.scratch.block == DEFAULT_BLOCK
        assert ctx.scratch is ctx.scratch

    @pytest.mark.parametrize("bad", [{"metric": "cosine"},
                                     {"split_strategy": "thirds"}])
    def test_context_rejects_bad_knobs(self, bad):
        with pytest.raises(ValueError):
            KernelConfig(**bad)


class TestBatchedEngineEndToEnd:
    @pytest.mark.parametrize("offset", [0.0, -5e6, 1e8])
    def test_stream_identical_to_vector(self, rng, offset):
        """The same pairs in the same orientation, with the same
        distances up to summation order; only the order within a tile
        differs."""
        pts = rng.random((300, 4)) + offset
        eps = 0.15
        ref = ego_self_join(pts, eps, engine="vector",
                            result=JoinResult(collect_distances=True))
        got = ego_self_join(pts, eps, engine="auto",
                            result=JoinResult(collect_distances=True))
        assert_same_join(got, ref)
        assert len(stream_pairs(got)) == len(stream_pairs(ref)) > 0

    def test_rs_join_matches_vector(self, rng):
        r = rng.random((180, 3))
        s = rng.random((150, 3))
        ref = ego_join(r, s, 0.2, engine="vector")
        got = ego_join(r, s, 0.2, engine="auto")
        assert_same_join(got, ref)

    def test_collect_distances_matches_matmul(self, rng):
        pts = rng.random((200, 4))
        res_b = JoinResult(collect_distances=True)
        ego_self_join(pts, 0.25, engine="auto", result=res_b)
        ra, rb, sq = pairs_within_matmul(pts, pts, 0.25 ** 2,
                                         natural_ordering(4),
                                         upper_triangle=True,
                                         return_sq_distances=True)
        ia, ib = res_b.pairs()
        keys = [(min(i, j), max(i, j))
                for i, j in zip(ia.tolist(), ib.tolist())]
        want = dict(zip(zip(ra.tolist(), rb.tolist()), np.sqrt(sq).tolist()))
        assert dict(zip(keys, res_b.distances().tolist())) == want

    def test_non_euclidean_falls_back(self, rng):
        pts = rng.random((120, 3))
        ref = ego_self_join(pts, 0.2, engine="vector",
                            metric="manhattan").canonical_pair_set()
        got = ego_self_join(pts, 0.2, engine="auto",
                            metric="manhattan").canonical_pair_set()
        assert got == ref

    def test_invariants_monitor_sees_batched_leaves(self, rng):
        pts = rng.random((150, 3))
        ref = ego_self_join(pts, 0.2, engine="vector").canonical_pair_set()
        got = ego_self_join(pts, 0.2, engine="auto",
                            invariants=True).canonical_pair_set()
        assert got == ref

    def test_batch_metrics_recorded(self, rng):
        """Each tile is one leaf of the ``gemm`` kernel, and its Gram
        accepts are counted as re-verified."""
        pts = rng.random((300, 3))
        reg = MetricsRegistry()
        res = JoinResult()
        ctx = JoinContext(epsilon=0.15, result=res,
                          kernel=KernelConfig(engine="auto"), metrics=reg)
        from repro.core.ego_order import ego_sorted
        ids, spts = ego_sorted(pts, 0.15)
        seq = Sequence(ids, spts, 0.15)
        join_sequences(seq, seq, ctx)
        tiles = reg.get("ego_leaf_joins_total").value_of("gemm")
        assert tiles == reg.get("ego_leaf_volume").count > 0
        assert reg.get("ego_leaf_volume").sum <= tiles * DEFAULT_BLOCK ** 2
        assert reg.get("ego_gemm_reverified_total").value >= res.count > 0


class TestBatchedVerification:
    def test_oracle_row_matches_brute(self, rng):
        pts = rng.random((120, 3))
        ref = run_impl("brute", pts, 0.2)
        got = run_impl("ego", pts, 0.2, engine="auto")
        np.testing.assert_array_equal(got, ref)

    def test_metamorphic_relations_hold(self, rng):
        pts = rng.random((80, 3))
        for report in run_relations("ego", pts, 0.25, seed=4,
                                    engine="auto"):
            assert report.ok, report.describe()

    @pytest.mark.parametrize("storage", ["plain", "crash_resume",
                                         "worker_faults"])
    def test_external_pipeline_batched(self, rng, storage):
        pts = rng.random((90, 3))
        ref = run_impl("ego", pts, 0.2)
        workers = 2 if storage == "worker_faults" else 1
        got = run_impl("ego_external", pts, 0.2, engine="auto",
                       storage=storage, workers=workers)
        np.testing.assert_array_equal(got, ref)
