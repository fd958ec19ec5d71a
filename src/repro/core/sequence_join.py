"""Recursive join of EGO-sorted sequences (Figure 6 of the paper).

``join_sequences`` divides each sequence in two halves and recurses,
pruning pairs whose common inactive dimensions are at cell distance ≥ 2
(such sequences cannot contain a join pair, Section 3.3).  Below a
threshold length ``minlen`` the remaining points are compared with the
early-abort distance test of Figure 7, using the dimension ordering of
Section 4.2.

The recursion runs on index ranges ``[lo, hi)`` of the two root
sequences: a node reads the first and last cell rows of its ranges
(computed once per block, read as Python lists on first use) and
builds no sub-sequence object, so the join needs no search structure
at all.  Its memory is one cell row per point, the recursion stack (as
the paper emphasises in Section 4.1), and — for the ``auto`` engine
on Euclidean data — one GEMM tile of scratch per context
(:class:`~repro.core.kernels.ScratchBuffers`).

Section 4.1 leaves the best leaf size to the implementation.  Under
``auto`` on Euclidean data a leaf is one GEMM tile: every pruning test
runs above tile size, and a node pair of at most ``DEFAULT_BLOCK²``
candidate pairs is decided by one
:func:`~repro.core.kernels.pairs_within_matmul` call instead of being
split further.  ``vector`` and ``scalar`` recurse down to ``minlen``
and evaluate each leaf with the early-abort test of Figure 7, and
``auto`` runs ``vector`` for any other metric.
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
from .ego_order import validate_epsilon
from .kernels import DEFAULT_BLOCK, ScratchBuffers, pairs_within_matmul
# Unused here: e2ebench/layers.py wraps this name in this module.
from .kernels import candidate_windows  # noqa: F401
from .metrics import Metric, get_metric
from .result import JoinResult
from .sequence import Sequence

# Name only, called by nothing: e2ebench/layers.py wraps a kernel by
# this name in this module.
pairs_within_batched = pairs_within_matmul

#: Default leaf size of the Figure-7 engines (``scalar``/``vector``).
#: The paper reports CPU-optimal sequence sizes below ten points for its
#: C implementation; in this numpy-based reproduction larger leaves
#: amortise per-call overhead, so the default is higher.
#: ``benchmarks/bench_ablation_minlen.py`` sweeps this parameter.
DEFAULT_MINLEN = 32

#: Cell distance in a common inactive dimension from which a sequence
#: pair cannot contain any join pair.  Section 3.3's formal rule is ≥ 2
#: (the Figure 6 pseudocode's "> 2" is looser but also safe).
EXCLUSION_CELL_DISTANCE = 2

#: Engines a :class:`KernelConfig` accepts.
ENGINES = ("scalar", "vector", "auto")


def check_engine(engine: str) -> None:
    """Raise ValueError unless ``engine`` is one of :data:`ENGINES`.

    Also applied to the engine a checkpoint journal recorded, so a run
    resumed from a checkpoint of a removed engine fails with this
    message rather than with a configuration mismatch.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; accepted engines: "
                         f"{', '.join(ENGINES)}")


@dataclass(frozen=True)
class KernelConfig:
    """The knobs of the Figure-6/7 kernel, validated once.

    Every join entry point takes these as keyword arguments and builds
    one ``KernelConfig``; the context, the store and the parallel
    workers all receive that one object, so a knob cannot be dropped on
    its way to any of them.  Frozen and picklable.

    ``engine`` picks the leaf distance kernel: ``"scalar"`` (the
    literal Figure-7 loop, the oracle's reference), ``"vector"``
    (difference-cube numpy, one leaf at a time) or ``"auto"`` (on
    Euclidean data the recursion stops at GEMM tiles of at most
    ``DEFAULT_BLOCK²`` pairs, each decided by
    :func:`~repro.core.kernels.pairs_within_matmul`; ``vector`` for any
    other metric).  ``minlen`` is the leaf threshold of Section 4.1: a
    node whose two sides both have at most ``minlen`` points is a
    leaf.  ``metric`` selects the distance
    (Euclidean by default; any Minkowski L_p or L_∞ name/power/
    :class:`Metric` is accepted and resolved here — the paper's pruning
    rules hold for the whole family, see :mod:`repro.core.metrics`).
    ``order_dimensions`` enables the dimension ordering of Section 4.2
    in the leaf test, and ``split_strategy`` is ``"half"`` (the paper's
    halving) or ``"boundary"`` (split at the cell boundary nearest the
    middle).
    """

    engine: str = "vector"
    minlen: int = DEFAULT_MINLEN
    metric: Metric = None
    order_dimensions: bool = True
    split_strategy: str = "half"

    def __post_init__(self) -> None:
        check_engine(self.engine)
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

    @property
    def leaf_kernel(self) -> str:
        """The kernel every leaf of a join runs: ``"gemm"`` (tile
        leaves, ``auto`` on Euclidean data), ``"vector"`` or
        ``"scalar"``."""
        if self.engine != "auto":
            return self.engine
        return "vector" if self.engine_metric is not None else "gemm"


@dataclass
class JoinContext:
    """Parameters and accounting shared by one sequence-join run.

    ``kernel`` holds the kernel knobs (:class:`KernelConfig`).
    ``threshold`` is the combined-value comparison bound the engines use
    (ε² for Euclidean).  GEMM tile leaves share one
    :class:`~repro.core.kernels.ScratchBuffers`, created on first use.

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

    @property
    def scratch(self) -> ScratchBuffers:
        """Per-run GEMM scratch of the tile leaves (created on first use)."""
        if self._scratch is None:
            self._scratch = ScratchBuffers()
        return self._scratch


class _SequenceObs:
    """Pre-resolved metric handles for the sequence-join hot path.

    Resolving the counter children once per run keeps the per-event cost
    at one attribute lookup plus one method call — a no-op on the shared
    null instruments when observability is off.
    """

    __slots__ = ("enabled", "seq_pairs", "prune_interval", "prune_inactive",
                 "prune_dim", "leaf_joins", "leaf_pairs", "leaf_volume")

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
            "Leaf kernel invocations, by leaf kernel",
            labelnames=("engine",))
        self.leaf_pairs = metrics.counter(
            "ego_leaf_pairs_total",
            "Result pairs emitted by leaf kernels")
        self.leaf_volume = metrics.histogram(
            "ego_leaf_volume",
            "Leaf volumes |s|*|t| handed to the distance kernels",
            unit="pairs")


def _active(first: list, last: list) -> int:
    """Active dimension of a range from its first and last cell rows.

    Definition 2: the first dimension in which the rows differ; ``d``
    (the row length) when all dimensions are inactive.
    """
    if first == last:
        return len(first)
    k = 0
    while first[k] == last[k]:
        k += 1
    return k


def _excluded(sf: list, sl: list, tf: list, tl: list, common: int,
              obs: "_SequenceObs") -> bool:
    """Pruning rules: ε-interval disjointness and inactive dimensions.

    ``sf``/``sl`` and ``tf``/``tl`` are the first and last cell rows of
    the two sequences as Python int lists, ``common`` the number of
    leading dimensions inactive in both.  Two tests, both exact
    consequences of the paper's lemmata:

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
    if [c + 1 for c in sl] < tf or [c + 1 for c in tl] < sf:
        obs.prune_interval.inc()
        return True
    for k in range(common):
        if abs(sf[k] - tf[k]) >= EXCLUSION_CELL_DISTANCE:
            obs.prune_inactive.inc()
            obs.prune_dim.labels(k).inc()
            return True
    return False


def _emit(ids_a, ids_b, ia, ib, combined, ctx: JoinContext) -> None:
    """Count and report one batch of result index pairs."""
    ctx.obs.leaf_pairs.inc(len(ia))
    if len(ia):
        if combined is not None:
            ctx.result.add_batch(ids_a[ia], ids_b[ib],
                                 distances=ctx.kernel.metric.finalize(combined))
        else:
            ctx.result.add_batch(ids_a[ia], ids_b[ib])


class _RowCache(dict):
    """A block's cell rows as Python int lists, each read on first use."""

    __slots__ = ("cells",)

    def __init__(self, cells: np.ndarray) -> None:
        super().__init__()
        self.cells = cells

    def __missing__(self, i: int) -> list:
        row = self[i] = self.cells[i].tolist()
        return row


class _RangeJoin:
    """One ``join_sequences`` call: Figure 6 on index ranges.

    A sub-sequence is a row range ``[lo, hi)`` of the root sequence
    ``s`` or ``t``, and nothing else: a node reads the first and last
    cell rows of its two ranges from a :class:`_RowCache` and derives
    the active dimensions (:func:`_active`), the pruning, the boundary
    split and the Section 4.2 dimension order from them.  Every leaf is
    evaluated on the ranges' rows of the root arrays.  The join is a
    self-join exactly when ``t is s``.
    """

    def __init__(self, s: Sequence, t: Sequence, ctx: JoinContext) -> None:
        self.s, self.t, self.ctx = s, t, ctx
        self.same = t is s
        self.rows_s = _RowCache(s.cells)
        self.rows_t = self.rows_s if self.same else _RowCache(t.cells)
        self.dims = s.dimensions
        self.cpu = ctx.cpu
        self.obs = ctx.obs
        self.monitor = ctx.monitor
        self.minlen = ctx.kernel.minlen
        self.boundary = ctx.kernel.split_strategy == "boundary"
        self.engine = ctx.kernel.leaf_kernel
        # A GEMM leaf is any node pair of at most one tile; the
        # Figure-7 engines have only the minlen leaves.
        self.tile = DEFAULT_BLOCK * DEFAULT_BLOCK if self.engine == "gemm" \
            else 0

    def node(self, a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> None:
        """The Figure 6 recursion body for ``s[a_lo:a_hi] × t[b_lo:b_hi]``."""
        if self.cpu is not None:
            self.cpu.sequence_pairs += 1
        self.obs.seq_pairs.inc()
        sf, sl = self.rows_s[a_lo], self.rows_s[a_hi - 1]
        tf, tl = self.rows_t[b_lo], self.rows_t[b_hi - 1]
        act_s, act_t = _active(sf, sl), _active(tf, tl)
        if _excluded(sf, sl, tf, tl, min(act_s, act_t), self.obs):
            if self.cpu is not None:
                self.cpu.sequence_exclusions += 1
            if self.monitor is not None:
                # Pruning soundness (Section 3.3 / Lemma 2): the excluded
                # sequence pair must genuinely contain no pair within ε.
                self.monitor.check_prune(self.s, a_lo, a_hi,
                                         self.t, b_lo, b_hi, self.ctx)
            return

        self_pair = self.same and a_lo == b_lo and a_hi == b_hi
        s_splittable = a_hi - a_lo > self.minlen
        t_splittable = b_hi - b_lo > self.minlen
        if (not s_splittable and not t_splittable
                or (a_hi - a_lo) * (b_hi - b_lo) <= self.tile):
            self.leaf(a_lo, a_hi, b_lo, b_hi, self_pair, act_s, act_t)
            return
        if self_pair:
            mid = self.split(self.s, a_lo, a_hi, act_s)
            self.node(a_lo, mid, a_lo, mid)
            self.node(a_lo, mid, mid, a_hi)
            self.node(mid, a_hi, mid, a_hi)
            return
        if s_splittable and t_splittable:
            sm = self.split(self.s, a_lo, a_hi, act_s)
            tm = self.split(self.t, b_lo, b_hi, act_t)
            self.node(a_lo, sm, b_lo, tm)
            self.node(a_lo, sm, tm, b_hi)
            self.node(sm, a_hi, b_lo, tm)
            self.node(sm, a_hi, tm, b_hi)
        elif s_splittable:
            sm = self.split(self.s, a_lo, a_hi, act_s)
            self.node(a_lo, sm, b_lo, b_hi)
            self.node(sm, a_hi, b_lo, b_hi)
        else:
            tm = self.split(self.t, b_lo, b_hi, act_t)
            self.node(a_lo, a_hi, b_lo, tm)
            self.node(a_lo, a_hi, tm, b_hi)

    def split(self, root: Sequence, lo: int, hi: int, active: int) -> int:
        """Split index of ``root[lo:hi]`` (at least two rows) per the
        split strategy; ``active`` is the range's active dimension.

        ``half`` is the paper's halving.  ``boundary`` (§4's
        recursion-scheme optimization) cuts at the active-dimension cell
        boundary nearest the middle: the dimensions before the active
        one are cell-constant, so its cells are non-decreasing along the
        range, and a cut at a cell change makes the halves cell-confined
        one dimension sooner, strengthening the inactive-dimension
        pruning.  It falls back to halving when no dimension is active,
        when there is no interior boundary, or when the nearest one is
        too lopsided (outside the middle 3/4), which bounds the
        recursion depth at O(log n) like plain halving.
        """
        n = hi - lo
        mid = lo + (n + 1) // 2
        if self.boundary and active < self.dims:
            cells = root.cells[lo:hi, active]
            c_mid = cells[mid - lo]
            cuts = [lo + int(np.searchsorted(cells, c_mid, side=side))
                    for side in ("left", "right")]
            cuts = [x for x in cuts if lo < x < hi]
            if cuts:
                cut = min(cuts, key=lambda x: abs(x - mid))
                if n // 8 <= cut - lo <= n - n // 8:
                    return cut
        return mid

    def leaf(self, a_lo: int, a_hi: int, b_lo: int, b_hi: int,
             upper_triangle: bool, act_s: int, act_t: int) -> None:
        """Leaf case: decide ``s[a_lo:a_hi] × t[b_lo:b_hi]`` with the
        leaf kernel (Figure 7, or one GEMM tile) and report its pairs.

        ``act_s``/``act_t`` are the ranges' active dimensions (``d``
        when none), as the node computed them.
        """
        ctx = self.ctx
        kernel = ctx.kernel
        self.obs.leaf_joins.labels(self.engine).inc()
        self.obs.leaf_volume.observe((a_hi - a_lo) * (b_hi - b_lo))
        a, b = self.s.points[a_lo:a_hi], self.t.points[b_lo:b_hi]
        span_args = ({"engine": self.engine, "ns": len(a), "nt": len(b)}
                     if ctx.trace.enabled else None)
        collect = ctx.result.collect_distances
        with ctx.trace.span("leaf", cat="kernel", args=span_args):
            if self.engine == "gemm":
                # A dense tile has no abort position to order for.
                found = pairs_within_matmul(
                    a, b, ctx.threshold, None, counters=self.cpu,
                    upper_triangle=upper_triangle,
                    return_sq_distances=collect, scratch=ctx.scratch,
                    metrics=ctx.metrics if self.obs.enabled else None)
            else:
                if kernel.order_dimensions:
                    order = dimension_ordering(self.rows_s[a_lo],
                                               self.rows_t[b_lo],
                                               act_s, act_t)
                else:
                    order = natural_ordering(self.dims)
                finder = (pairs_within_vector if self.engine == "vector"
                          else pairs_within_scalar)
                found = finder(a, b, ctx.threshold, order, counters=self.cpu,
                               upper_triangle=upper_triangle,
                               return_sq_distances=collect,
                               metric=kernel.engine_metric)
        ia, ib = found[0], found[1]
        combined = found[2] if collect else None
        if self.monitor is not None:
            self.monitor.check_leaf(self.s, a_lo, a_hi, self.t, b_lo, b_hi,
                                    ia, ib, ctx, upper_triangle)
        _emit(self.s.ids[a_lo:a_hi], self.t.ids[b_lo:b_hi], ia, ib,
              combined, ctx)


def simple_join(s: Sequence, t: Sequence, ctx: JoinContext,
                upper_triangle: bool = False) -> None:
    """Leaf case: compare the remaining points directly (Figure 7).

    With ``upper_triangle`` the two are one sequence (``t is s``) and
    only pairs ``(i, j)`` with ``i < j`` are produced.
    """
    join = _RangeJoin(s, t, ctx)
    join.leaf(0, len(s), 0, len(t), upper_triangle,
              _active(join.rows_s[0], join.rows_s[len(s) - 1]),
              _active(join.rows_t[0], join.rows_t[len(t) - 1]))


def join_sequences(s: Sequence, t: Sequence, ctx: JoinContext) -> None:
    """Figure 6: recursive divide-and-conquer join of two sequences.

    ``t is s`` is the self-join of one sequence: the mirrored recursion
    quadrant is skipped and the leaf comparison is restricted to the
    upper triangle, so each unordered pair is reported exactly once.
    Two distinct ``Sequence`` objects are joined as two sets, even over
    the same arrays: each point then pairs with itself, and every pair
    is reported in both orders.
    """
    join = _RangeJoin(s, t, ctx)
    join.node(0, len(s), 0, len(t))
