"""Recursive join of EGO-sorted sequences (Figure 6 of the paper).

``join_sequences`` divides each sequence in two halves and recurses,
pruning pairs whose common inactive dimensions are at cell distance ≥ 2
(such sequences cannot contain a join pair, Section 3.3).  Below a
threshold length ``minlen`` the remaining points are compared with the
early-abort distance test of Figure 7, using the dimension ordering of
Section 4.2.

Because the sequences are materialised as sorted arrays and halving
produces views (of the points and of their grid cells, computed once
per block), the join needs no search structure at all.  Besides one
cell row per point, the only memory overhead is the recursion stack,
as the paper emphasises in Section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..obs.metrics import ensure_metrics
from ..obs.trace import ensure_tracer
from ..storage.stats import CPUCounters
from .distance import (dimension_ordering, natural_ordering,
                       pairs_within_scalar, pairs_within_vector)
from .ego_order import lex_less, validate_epsilon
from .kernels import (ENGINES, LeafBatch, ScratchBuffers, candidate_windows,
                      pairs_within_batched, pairs_within_matmul,
                      select_engine)
from .metrics import Metric, get_metric
from .result import JoinResult
from .sequence import Sequence

#: Default leaf size.  The paper reports CPU-optimal sequence sizes below
#: ten points for its C implementation; in this numpy-based reproduction
#: larger leaves amortise per-call overhead, so the default is higher.
#: ``benchmarks/bench_ablation_minlen.py`` sweeps this parameter.
DEFAULT_MINLEN = 32

#: Cell distance in a common inactive dimension from which a sequence
#: pair cannot contain any join pair.  Section 3.3's formal rule is ≥ 2
#: (the Figure 6 pseudocode's "> 2" is looser but also safe).
EXCLUSION_CELL_DISTANCE = 2


@dataclass(frozen=True)
class KernelConfig:
    """The knobs of the Figure-6/7 kernel, validated once.

    Every join entry point takes these as keyword arguments and builds
    one ``KernelConfig``; the context, the store and the parallel
    workers all receive that one object, so a knob cannot be dropped on
    its way to any of them.  Frozen and picklable.

    ``engine`` picks the leaf distance kernel: ``"scalar"`` (the
    literal Figure-7 loop), ``"vector"`` (difference-cube numpy),
    ``"matmul"`` (tiled GEMM with candidate windowing, see
    :mod:`repro.core.kernels`), ``"batched"`` (leaf pairs accumulated
    into a :class:`~repro.core.kernels.LeafBatch` and evaluated with one
    fused GEMM per flush — amortises per-leaf dispatch) or ``"auto"``
    (per-leaf heuristic choosing between ``batched`` and ``matmul`` by
    leaf volume and metric).  ``minlen`` is the leaf threshold of
    Section 4.1.  ``metric`` selects the distance (Euclidean by default;
    any Minkowski L_p or L_∞ name/power/:class:`Metric` is accepted and
    resolved here — the paper's pruning rules hold for the whole family,
    see :mod:`repro.core.metrics`).  ``order_dimensions`` enables the
    dimension ordering of Section 4.2 in the leaf test, and
    ``split_strategy`` is ``"half"`` (the paper's halving) or
    ``"boundary"`` (split at the cell boundary nearest the middle).
    """

    engine: str = "vector"
    minlen: int = DEFAULT_MINLEN
    metric: Metric = None
    order_dimensions: bool = True
    split_strategy: str = "half"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; known: {ENGINES}")
        if self.minlen < 1:
            raise ValueError(f"minlen must be at least 1, got {self.minlen}")
        if self.split_strategy not in ("half", "boundary"):
            raise ValueError(
                f"unknown split_strategy {self.split_strategy!r}")
        object.__setattr__(self, "minlen", int(self.minlen))
        object.__setattr__(self, "metric", get_metric(self.metric))

    @property
    def engine_metric(self) -> Optional[Metric]:
        """Metric passed to the distance engines (None = fast Euclidean)."""
        return None if self.metric.name == "euclidean" else self.metric


@dataclass
class JoinContext:
    """Parameters and accounting shared by one sequence-join run.

    ``kernel`` holds the kernel knobs (:class:`KernelConfig`).
    ``threshold`` is the combined-value comparison bound the engines use
    (ε² for Euclidean).  Batched-engine leaf pairs accumulate in a
    :class:`~repro.core.kernels.LeafBatch` with the default bounds
    (``DEFAULT_BATCH_POINTS`` rows, ``DEFAULT_BATCH_LEAVES`` leaf pairs).

    ``invariants`` enables the runtime invariant hooks of
    :mod:`repro.verify.invariants`: pruning-soundness and leaf-exactness
    checks in the recursion, and — when the context drives the I/O
    scheduler — ε-interval coverage, gallop read-once and pin balance.
    On by default in the verification tests, off in production runs (a
    ready-made :class:`~repro.verify.invariants.InvariantMonitor` can
    also be passed directly as ``monitor``).
    """

    epsilon: float
    result: JoinResult
    kernel: KernelConfig = KernelConfig()
    cpu: Optional[CPUCounters] = None
    grid_epsilon: Optional[float] = None
    invariants: bool = False
    monitor: Optional[object] = None
    trace: Optional[object] = None
    metrics: Optional[object] = None
    eps_sq: float = field(init=False)
    threshold: float = field(init=False)

    def __post_init__(self) -> None:
        self.epsilon = validate_epsilon(self.epsilon)
        self.eps_sq = self.epsilon * self.epsilon
        self.threshold = self.kernel.metric.threshold(self.epsilon)
        # The pruning grid may be coarser than the join distance: any
        # grid_epsilon >= epsilon keeps every rule sound (a cell gap of
        # >= 2 coarse cells bounds the coordinate gap below by
        # grid_epsilon >= epsilon).  This is what lets one EGO-sorted
        # file serve a whole parameter sweep of smaller epsilons.
        if self.grid_epsilon is None:
            self.grid_epsilon = self.epsilon
        else:
            self.grid_epsilon = validate_epsilon(self.grid_epsilon)
            if self.grid_epsilon < self.epsilon - 1e-12:
                raise ValueError(
                    f"grid_epsilon {self.grid_epsilon} must be at least "
                    f"the join epsilon {self.epsilon}")
        if self.invariants and self.monitor is None:
            # Imported lazily: repro.verify imports the core packages,
            # so a module-level import here would be circular.
            from ..verify.invariants import make_monitor
            self.monitor = make_monitor(True)
        self.trace = ensure_tracer(self.trace)
        self.metrics = ensure_metrics(self.metrics)
        self.obs = _SequenceObs(self.metrics)
        self._scratch = None
        self._batch = None

    @property
    def scratch(self) -> ScratchBuffers:
        """Per-run scratch for the GEMM kernel (created on first use)."""
        if self._scratch is None:
            self._scratch = ScratchBuffers()
        return self._scratch

    @property
    def batch(self) -> LeafBatch:
        """Per-run leaf-pair accumulator (created on first use)."""
        if self._batch is None:
            self._batch = LeafBatch()
        return self._batch


class _SequenceObs:
    """Pre-resolved metric handles for the sequence-join hot path.

    Resolving the counter children once per run keeps the per-event cost
    at one attribute lookup plus one method call — a no-op on the shared
    null instruments when observability is off.
    """

    __slots__ = ("enabled", "seq_pairs", "prune_interval", "prune_inactive",
                 "prune_dim", "leaf_joins", "leaf_pairs", "window_rows",
                 "leaf_volume")

    def __init__(self, metrics) -> None:
        self.enabled = metrics.enabled
        prunes = metrics.counter(
            "ego_seq_prunes_total",
            "Sequence pairs pruned, by Section 3.3 rule",
            labelnames=("reason",))
        self.prune_interval = prunes.labels("interval_disjoint")
        self.prune_inactive = prunes.labels("inactive_dim")
        self.prune_dim = metrics.counter(
            "ego_seq_prune_dim_total",
            "Inactive-dimension prunes, by first excluding dimension",
            labelnames=("dim",))
        self.seq_pairs = metrics.counter(
            "ego_seq_pairs_total",
            "Sequence pairs visited by the Figure 6 recursion")
        self.leaf_joins = metrics.counter(
            "ego_leaf_joins_total",
            "Leaf kernel invocations, by resolved engine",
            labelnames=("engine",))
        self.leaf_pairs = metrics.counter(
            "ego_leaf_pairs_total",
            "Result pairs emitted by leaf kernels")
        self.window_rows = metrics.histogram(
            "ego_candidate_window_rows",
            "Candidate-window heights from EGO-sorted windowing",
            unit="rows")
        self.leaf_volume = metrics.histogram(
            "ego_leaf_volume",
            "Leaf volumes |s|*|t| handed to the distance kernels",
            unit="pairs")


def _excluded(s: Sequence, t: Sequence, ctx: JoinContext) -> bool:
    """Pruning rules: ε-interval disjointness and inactive dimensions.

    Two tests, both exact consequences of the paper's lemmata:

    1. Lemma 2/3 at sequence level: when the whole of ``s`` lies below
       the ε-interval of ``t`` (``s.last + [ε,…,ε] <ego t.first``) or
       vice versa, no pair can join.  The paper applies this test to
       I/O units (Figure 2's canceled region); sequences of the sorted
       array satisfy the same premises.  Without it, sequences that
       straddle a cell boundary in dimension 0 (and therefore have no
       inactive dimension) could never be pruned at all.
    2. The inactive-dimension rule of Section 3.3: a common inactive
       dimension with cell distance ≥ 2 excludes the pair.
    """
    if (lex_less(s.last_cells + 1, t.first_cells)
            or lex_less(t.last_cells + 1, s.first_cells)):
        ctx.obs.prune_interval.inc()
        return True
    common = min(s.inactive_count(), t.inactive_count())
    if common == 0:
        return False
    gap = np.abs(s.first_cells[:common] - t.first_cells[:common])
    hit = gap >= EXCLUSION_CELL_DISTANCE
    if hit.any():
        ctx.obs.prune_inactive.inc()
        ctx.obs.prune_dim.labels(int(np.argmax(hit))).inc()
        return True
    return False


def _leaf_windows(s: Sequence, t: Sequence, ctx: JoinContext):
    """EGO-sorted candidate windows for one leaf pair (or ``None``).

    Within the leaf slice ``t`` every dimension before its active one is
    cell-constant, so the active dimension's cells are non-decreasing
    and bound each point's candidate range via searchsorted.
    """
    wdim = t.active_dimension()
    if wdim is None:
        return None
    windows = candidate_windows(s.points, t.points, wdim, t.epsilon,
                                cells_a=s.cells[:, wdim],
                                cells_b=t.cells[:, wdim])
    if ctx.obs.enabled:
        lo, hi = windows
        ctx.obs.window_rows.observe_many((hi - lo).astype(int).tolist())
    return windows


def _emit_leaf(s: Sequence, t: Sequence, ia, ib, combined,
               ctx: JoinContext, upper_triangle: bool) -> None:
    """Monitor, count and report one leaf pair's result arrays."""
    if ctx.monitor is not None:
        ctx.monitor.check_leaf(s, t, ia, ib, ctx, upper_triangle)
    ctx.obs.leaf_pairs.inc(len(ia))
    if len(ia):
        if combined is not None:
            ctx.result.add_batch(s.ids[ia], t.ids[ib],
                                 distances=ctx.kernel.metric.finalize(combined))
        else:
            ctx.result.add_batch(s.ids[ia], t.ids[ib])


def flush_leaf_batch(ctx: JoinContext) -> None:
    """Evaluate accumulated batched-engine leaf pairs and scatter results.

    Entries are emitted strictly in accumulation (leaf-visit) order with
    row-major pairs inside each leaf, so the pair stream is the one the
    per-leaf engines produce.
    """
    batch = ctx._batch
    if batch is None or len(batch) == 0:
        return
    span_args = ({"leaves": len(batch), "points": batch.points}
                 if ctx.trace.enabled else None)
    with ctx.trace.span("leaf_batch", cat="kernel", args=span_args):
        results = pairs_within_batched(
            batch, ctx.threshold, counters=ctx.cpu,
            return_sq_distances=ctx.result.collect_distances,
            scratch=ctx.scratch,
            metrics=ctx.metrics if ctx.metrics.enabled else None)
    for entry, payload in zip(results, batch.payloads):
        s, t, upper = payload
        if ctx.result.collect_distances:
            ia, ib, combined = entry
        else:
            (ia, ib), combined = entry, None
        _emit_leaf(s, t, ia, ib, combined, ctx, upper)
    batch.clear()


def simple_join(s: Sequence, t: Sequence, ctx: JoinContext,
                upper_triangle: bool = False) -> None:
    """Leaf case: compare the remaining points directly (Figure 7).

    With ``upper_triangle`` the sequences are the identical slice and
    only pairs ``(i, j)`` with ``i < j`` are produced.
    """
    kernel = ctx.kernel
    metric = kernel.engine_metric
    engine = select_engine(kernel.engine, len(s), len(t), s.dimensions,
                           metric, batching=True)
    ctx.obs.leaf_joins.labels(engine).inc()
    ctx.obs.leaf_volume.observe(len(s) * len(t))
    if engine == "batched":
        ctx.batch.add(s.points, t.points, _leaf_windows(s, t, ctx),
                      upper_triangle, payload=(s, t, upper_triangle))
        if ctx.batch.full:
            flush_leaf_batch(ctx)
        return
    # A pending batch must drain before a per-leaf engine emits, so the
    # result stream keeps the leaf-visit order (``auto`` mixes batched
    # and matmul leaves).
    if ctx._batch is not None and len(ctx._batch):
        flush_leaf_batch(ctx)
    if kernel.order_dimensions:
        order = dimension_ordering(s, t)
    else:
        order = natural_ordering(s.dimensions)
    extra = {}
    if engine == "matmul":
        finder = pairs_within_matmul
        extra["scratch"] = ctx.scratch
        if ctx.metrics.enabled:
            extra["metrics"] = ctx.metrics
        windows = _leaf_windows(s, t, ctx)
        if windows is not None:
            extra["windows"] = windows
    elif engine == "vector":
        finder = pairs_within_vector
    else:
        finder = pairs_within_scalar
    span_args = ({"engine": engine, "ns": len(s), "nt": len(t)}
                 if ctx.trace.enabled else None)
    with ctx.trace.span("leaf", cat="kernel", args=span_args):
        if ctx.result.collect_distances:
            ia, ib, combined = finder(s.points, t.points, ctx.threshold,
                                      order, counters=ctx.cpu,
                                      upper_triangle=upper_triangle,
                                      return_sq_distances=True,
                                      metric=metric, **extra)
        else:
            ia, ib = finder(s.points, t.points, ctx.threshold, order,
                            counters=ctx.cpu, upper_triangle=upper_triangle,
                            metric=metric, **extra)
            combined = None
    _emit_leaf(s, t, ia, ib, combined, ctx, upper_triangle)


def _split(seq: Sequence, ctx: JoinContext):
    """Split a sequence per the context's strategy (§4 recursion knob).

    Boundary splits fall back to halving when the nearest cell boundary
    is too lopsided (outside the middle 3/4), which bounds the recursion
    depth at O(log n) like plain halving.
    """
    if ctx.kernel.split_strategy == "boundary":
        point = seq.boundary_split_point()
        n = len(seq)
        if n // 8 <= point <= n - n // 8:
            return seq.split_at(point)
    return seq.first_half(), seq.second_half()


def _join_sequences(s: Sequence, t: Sequence, ctx: JoinContext) -> None:
    """Figure 6 recursion body — may leave batched leaves unflushed."""
    if ctx.cpu is not None:
        ctx.cpu.sequence_pairs += 1
    ctx.obs.seq_pairs.inc()
    if _excluded(s, t, ctx):
        if ctx.cpu is not None:
            ctx.cpu.sequence_exclusions += 1
        if ctx.monitor is not None:
            # Pruning soundness (Section 3.3 / Lemma 2): the excluded
            # sequence pair must genuinely contain no pair within ε.
            ctx.monitor.check_prune(s, t, ctx)
        return

    self_pair = s.same_storage(t)
    minlen = ctx.kernel.minlen
    s_splittable = len(s) > minlen
    t_splittable = len(t) > minlen

    if not s_splittable and not t_splittable:
        simple_join(s, t, ctx, upper_triangle=self_pair)
        return

    if self_pair:
        first, second = _split(s, ctx)
        _join_sequences(first, first, ctx)
        _join_sequences(first, second, ctx)
        _join_sequences(second, second, ctx)
        return

    if s_splittable and t_splittable:
        sf, ss = _split(s, ctx)
        tf, ts = _split(t, ctx)
        _join_sequences(sf, tf, ctx)
        _join_sequences(sf, ts, ctx)
        _join_sequences(ss, tf, ctx)
        _join_sequences(ss, ts, ctx)
    elif s_splittable:
        sf, ss = _split(s, ctx)
        _join_sequences(sf, t, ctx)
        _join_sequences(ss, t, ctx)
    else:
        tf, ts = _split(t, ctx)
        _join_sequences(s, tf, ctx)
        _join_sequences(s, ts, ctx)


def join_sequences(s: Sequence, t: Sequence, ctx: JoinContext) -> None:
    """Figure 6: recursive divide-and-conquer join of two sequences.

    When ``s`` and ``t`` are the identical slice (a sequence joined with
    itself), the mirrored recursion quadrant is skipped and the leaf
    comparison is restricted to the upper triangle so each unordered pair
    is reported exactly once.

    Any leaf pairs the batched engine accumulated are flushed before
    returning, so callers always observe a complete result.
    """
    _join_sequences(s, t, ctx)
    flush_leaf_batch(ctx)


def join_point_blocks(ids_a: np.ndarray, points_a: np.ndarray,
                      ids_b: np.ndarray, points_b: np.ndarray,
                      ctx: JoinContext, same_block: bool = False) -> None:
    """Join two EGO-sorted point blocks (e.g. two loaded I/O units).

    ``same_block=True`` marks the self-join of one block with itself; the
    arrays for ``a`` and ``b`` must then be the same objects.  Each
    block's grid cells are computed once here, by its root
    :class:`Sequence`; the recursion only slices them.
    """
    if len(ids_a) == 0 or len(ids_b) == 0:
        return
    span_args = ({"na": len(ids_a), "nb": len(ids_b), "self": same_block}
                 if ctx.trace.enabled else None)
    with ctx.trace.span("sequence_join", args=span_args):
        seq_a = Sequence(ids_a, points_a, ctx.grid_epsilon)
        if same_block:
            join_sequences(seq_a, seq_a, ctx)
        else:
            seq_b = Sequence(ids_b, points_b, ctx.grid_epsilon)
            join_sequences(seq_a, seq_b, ctx)
