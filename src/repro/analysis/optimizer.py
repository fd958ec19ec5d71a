"""Predictive EGO cost model for a query optimizer.

The paper's conclusion names "the extension of our cost model for the
use by the query optimizer" as future work.  This module provides that
piece: closed-form predictions of the external EGO self-join's I/O
behaviour — unit counts, ε-interval width, gallop/crabstep regime,
expected unit loads and I/O seconds — from dataset statistics alone,
plus a sampling-calibrated CPU estimate, and an optimizer that picks
the I/O unit size minimising predicted cost under a buffer budget.

The I/O model (uniform-data assumptions, documented per formula):

* the ε-interval of a point covers the points within ±ε in dimension 0,
  i.e. a fraction ``min(1, 2ε)`` of a unit-hypercube database — in
  units: ``W ≈ f·U + 1``;
* if ``W`` fits the buffer, the schedule gallops: every unit is loaded
  exactly once (``U`` loads);
* otherwise crabstep loads each unit once as a pin and re-reads, per
  window of ``B − 1`` pinned units, the ``W`` preceding units:
  ``loads ≈ U + U/(B−1) · W``.

CPU cost cannot be derived from uniformity alone (it depends on how the
recursion's pruning interacts with the data); it is calibrated by
running the in-memory join on a small sample and scaling the measured
distance-calculation density quadratically — a standard optimizer
technique (sample-based selectivity estimation).

The module also models the *approximate* regime: ``estimate_lsh_join``
predicts the LSH engine's cost from the same statistics (one input
scan, ``L`` bucket-file writes and scans, hashing work, and an expected
candidate volume from the p-stable collision model at the mean random
distance), and ``choose_join_impl`` compares the two predictions — this
is what lets ``--impl auto`` route high-d/large-ε workloads, where the
ε-grid order degenerates, to LSH when a recall target below 1 is
acceptable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.ego_join import ego_self_join, sort_memory_records
from ..core.result import JoinResult
from ..storage.disk import DiskModel
from ..storage.records import record_size
from ..storage.stats import CPUCounters
from .costmodel import CPUModel, DEFAULT_CPU_MODEL


@dataclass
class EgoCostEstimate:
    """Predicted cost of one external EGO self-join configuration."""

    n: int
    dimensions: int
    epsilon: float
    unit_bytes: int
    buffer_units: int
    units: int
    interval_units: float
    gallop: bool
    predicted_unit_loads: float
    sort_runs: int
    sort_passes: int
    predicted_io_time_s: float
    predicted_cpu_time_s: Optional[float] = None

    @property
    def predicted_total_s(self) -> float:
        """Predicted I/O plus CPU seconds (CPU 0 when uncalibrated)."""
        return self.predicted_io_time_s + (self.predicted_cpu_time_s or 0.0)


def interval_fraction(epsilon: float, data_extent: float = 1.0) -> float:
    """Fraction of a uniform database inside one ε-interval.

    The interval spans ±ε in the dominating dimension 0, clipped to the
    data extent.
    """
    if data_extent <= 0:
        raise ValueError("data_extent must be positive")
    return min(1.0, 2.0 * epsilon / data_extent)


def backward_fraction(epsilon: float, data_extent: float = 1.0) -> float:
    """Fraction of the database the schedule must look *back* over.

    The scheduler forms each unit pair when the later unit loads, so
    its working window reaches only ε backwards in dimension 0 — half
    the full ε-interval.
    """
    if data_extent <= 0:
        raise ValueError("data_extent must be positive")
    return min(1.0, epsilon / data_extent)


def estimate_ego_join(n: int, dimensions: int, epsilon: float,
                      unit_bytes: int, buffer_units: int,
                      disk_model: Optional[DiskModel] = None,
                      cpu_model: CPUModel = DEFAULT_CPU_MODEL,
                      sort_fanin: int = 16,
                      data_extent: float = 1.0) -> EgoCostEstimate:
    """Predict the cost of an external EGO self-join configuration.

    The sort is modelled in the pipeline's own working memory
    (:func:`~repro.core.ego_join.sort_memory_records`).
    """
    if n < 0 or dimensions <= 0 or epsilon <= 0:
        raise ValueError("invalid dataset parameters")
    if unit_bytes <= 0 or buffer_units < 2:
        raise ValueError("invalid unit/buffer parameters")
    disk_model = disk_model if disk_model is not None else DiskModel()
    rec = record_size(dimensions)
    db_bytes = n * rec
    units = max(1, math.ceil(db_bytes / unit_bytes)) if n else 0
    sort_memory = sort_memory_records(rec, unit_bytes, buffer_units)

    # The schedule's working window is one-sided: pairs are formed when
    # the later unit loads, so only the ε *backward* reach matters.
    interval_units = backward_fraction(epsilon, data_extent) * units + 1

    gallop = interval_units <= buffer_units
    if gallop or units == 0:
        loads = float(units)
        phases = 0.0
    else:
        window = max(1, buffer_units - 1)
        phases = units / window
        loads = units + phases * interval_units

    # Sorting: run generation reads+writes the data once; each merge
    # pass reads and writes it again.
    sort_runs = max(1, math.ceil(n / sort_memory)) if n else 0
    sort_passes = 1
    runs = sort_runs
    while runs > sort_fanin:
        runs = math.ceil(runs / sort_fanin)
        sort_passes += 1
    sort_bytes = 2 * db_bytes * (1 + sort_passes)
    # Merge seeks: each source-buffer refill is a random access.
    fanin = min(sort_fanin, max(2, sort_runs))
    refill_bytes = max(rec, (sort_memory // (fanin + 1)) * rec)
    sort_seeks = sort_passes * math.ceil(db_bytes / refill_bytes) if n else 0

    # Join I/O: unit loads stream in long consecutive runs (gallop scan,
    # pin groups, reload sweeps), so they cost transfer time plus a few
    # repositionings per crabstep phase.
    join_seeks = 1 + 2 * phases
    io_time = (loads * unit_bytes / disk_model.transfer_rate_bytes
               + join_seeks * disk_model.avg_access_time_s
               + sort_bytes / disk_model.transfer_rate_bytes
               + sort_seeks * disk_model.avg_access_time_s)
    return EgoCostEstimate(
        n=n, dimensions=dimensions, epsilon=epsilon,
        unit_bytes=unit_bytes, buffer_units=buffer_units, units=units,
        interval_units=interval_units, gallop=gallop,
        predicted_unit_loads=loads, sort_runs=sort_runs,
        sort_passes=sort_passes, predicted_io_time_s=io_time)


@dataclass
class LSHCostEstimate:
    """Predicted cost of one LSH approximate self-join configuration."""

    n: int
    dimensions: int
    epsilon: float
    k: int
    tables: int
    w: float
    model_recall: float
    #: Expected candidate pairs over all tables (collision model at the
    #: mean uniform-random distance; near pairs are a lower-order term).
    predicted_candidates: float
    predicted_io_time_s: float
    predicted_cpu_time_s: float

    @property
    def predicted_total_s(self) -> float:
        """Predicted I/O plus CPU seconds."""
        return self.predicted_io_time_s + self.predicted_cpu_time_s


def estimate_lsh_join(n: int, dimensions: int, epsilon: float,
                      k: Optional[int] = None,
                      tables: Optional[int] = None,
                      recall_target: float = 0.95,
                      w_scale: Optional[float] = None,
                      disk_model: Optional[DiskModel] = None,
                      cpu_model: CPUModel = DEFAULT_CPU_MODEL,
                      data_extent: float = 1.0) -> LSHCostEstimate:
    """Predict the cost of the LSH approximate self-join.

    I/O: the input streams once, and every one of the ``L`` tables
    writes its bucket file sequentially and scans it back — ``(1+2L)``
    database transfers with a handful of repositionings, all
    sequential-rate.  CPU: ``n·k·L`` projections of ``d`` coordinates,
    plus one exact re-verification per expected candidate.  The
    candidate volume uses the collision model at the mean distance of
    uniform random pairs, ``c̄ = extent·√(d/6)`` (the variance of a
    uniform coordinate difference is 1/6 per dimension) — the dominant
    population; genuinely-near pairs add a lower-order term.
    """
    if n < 0 or dimensions <= 0 or epsilon <= 0:
        raise ValueError("invalid dataset parameters")
    from ..index.lsh import DEFAULT_K, DEFAULT_W_SCALE, PStableHashFamily

    disk_model = disk_model if disk_model is not None else DiskModel()
    family = PStableHashFamily(
        dimensions, epsilon, k=DEFAULT_K if k is None else k,
        w_scale=DEFAULT_W_SCALE if w_scale is None else w_scale)
    if tables is None:
        tables = family.tables_for_recall(recall_target)
    rec = record_size(dimensions)
    db_bytes = n * rec
    transfers = (1 + 2 * tables) * db_bytes
    io_time = (transfers / disk_model.transfer_rate_bytes
               + (1 + 2 * tables) * disk_model.avg_access_time_s)

    mean_distance = data_extent * math.sqrt(dimensions / 6.0)
    p_random = family.table_collision(mean_distance)
    candidate_pairs = tables * (n * (n - 1) / 2.0) * p_random
    hash_evals = float(n) * family.k * tables * dimensions
    verify_evals = candidate_pairs * dimensions
    cpu_time = ((hash_evals + verify_evals)
                * cpu_model.per_dimension_eval_s
                + candidate_pairs * cpu_model.per_distance_call_s)
    return LSHCostEstimate(
        n=n, dimensions=dimensions, epsilon=epsilon, k=family.k,
        tables=int(tables), w=family.w,
        model_recall=family.recall_for_tables(tables),
        predicted_candidates=candidate_pairs,
        predicted_io_time_s=io_time, predicted_cpu_time_s=cpu_time)


def choose_join_impl(n: int, dimensions: int, epsilon: float,
                     unit_bytes: int, buffer_units: int,
                     recall_target: Optional[float] = 0.95,
                     disk_model: Optional[DiskModel] = None,
                     cpu_model: CPUModel = DEFAULT_CPU_MODEL,
                     data_extent: float = 1.0):
    """Pick ``"ego"`` or ``"lsh"`` from the two cost predictions.

    Returns ``(impl, ego_estimate, lsh_estimate)``.  The exact join
    wins whenever the caller demands exactness (``recall_target`` of
    ``None`` or ≥ 1), when the dataset is degenerate, or when its
    predicted total is lower; LSH wins in the high-d/large-ε regime
    where the ε-interval covers most of the grid order and EGO's
    window degenerates toward quadratic loads.  ``lsh_estimate`` is
    ``None`` only when LSH was not admissible (exactness demanded or
    the recall target unreachable at the default operating point).
    """
    ego_est = estimate_ego_join(n, dimensions, epsilon, unit_bytes,
                                buffer_units, disk_model=disk_model,
                                cpu_model=cpu_model,
                                data_extent=data_extent)
    ego_cpu = estimate_lsh_cpu_reference(n, dimensions, epsilon,
                                         cpu_model=cpu_model,
                                         data_extent=data_extent)
    if recall_target is None or recall_target >= 1.0 or n < 2:
        return "ego", ego_est, None
    try:
        lsh_est = estimate_lsh_join(n, dimensions, epsilon,
                                    recall_target=recall_target,
                                    disk_model=disk_model,
                                    cpu_model=cpu_model,
                                    data_extent=data_extent)
    except ValueError:
        return "ego", ego_est, None
    ego_total = ego_est.predicted_io_time_s + ego_cpu
    impl = "lsh" if lsh_est.predicted_total_s < ego_total else "ego"
    return impl, ego_est, lsh_est


def estimate_lsh_cpu_reference(n: int, dimensions: int, epsilon: float,
                               cpu_model: CPUModel = DEFAULT_CPU_MODEL,
                               data_extent: float = 1.0) -> float:
    """Closed-form CPU seconds for the exact join, for comparison.

    The EGO estimate's CPU half normally comes from sample calibration
    (:func:`calibrate_cpu`); when the optimizer only has statistics, a
    selectivity model has to stand in.  The ε-interval in dimension 0
    admits a fraction ``min(1, 2ε/extent)`` of the pairs as candidates;
    each costs one early-aborted distance evaluation (~2 dimensions on
    uniform data before the running sum exceeds ε²) — deliberately
    optimistic for EGO, so ``choose_join_impl`` only routes to LSH on a
    clear win.
    """
    if n < 2:
        return 0.0
    candidate_fraction = interval_fraction(epsilon, data_extent)
    candidates = candidate_fraction * n * (n - 1) / 2.0
    dims_per_test = min(dimensions, 2.0)
    return (candidates * dims_per_test * cpu_model.per_dimension_eval_s
            + candidates * cpu_model.per_distance_call_s)


def calibrate_cpu(points_sample: np.ndarray, epsilon: float, n_target: int,
                  minlen: int = 32,
                  cpu_model: CPUModel = DEFAULT_CPU_MODEL) -> float:
    """Sample-calibrated CPU seconds for a join of ``n_target`` points.

    Runs the in-memory join on the sample, measures the distance-work
    density per point pair, and scales it by ``(n_target / n_sample)²``
    — candidate counts are quadratic in n at fixed ε and distribution.
    """
    pts = np.asarray(points_sample, dtype=np.float64)
    n_sample = len(pts)
    if n_sample < 2:
        raise ValueError("need at least two sample points")
    cpu = CPUCounters()
    ego_self_join(pts, epsilon, minlen=minlen, cpu=cpu,
                  result=JoinResult(materialize=False))
    sample_cpu_s = cpu_model.cpu_time(cpu, pts.shape[1])
    return sample_cpu_s * (n_target / n_sample) ** 2


def budget_geometry(n: int, dimensions: int,
                    fraction: float) -> Tuple[int, int, int]:
    """Buffer and I/O-unit geometry for a memory budget of ``fraction``
    of an ``n``-record database.

    Returns ``(budget_bytes, unit_bytes, buffer_units)``: a budget of at
    least 4 records; units of at least 16 records, sized so about eight
    fit the budget (the I/O knob of Section 4.1); at least 2 frames.
    """
    rec = record_size(dimensions)
    budget_bytes = max(4 * rec, int(n * rec * fraction))
    unit_bytes = max(16 * rec, budget_bytes // 8)
    return budget_bytes, unit_bytes, max(2, budget_bytes // unit_bytes)


def choose_unit_size(n: int, dimensions: int, epsilon: float,
                     budget_bytes: int,
                     candidates: Optional[list] = None,
                     disk_model: Optional[DiskModel] = None
                     ) -> EgoCostEstimate:
    """Pick the I/O unit size with the lowest predicted I/O cost.

    Sweeps power-of-two unit sizes that leave at least two frames in
    the buffer (``candidates`` overrides the sweep) and returns the
    cheapest estimate — the §4.1 unit-size knob, automated.
    """
    if budget_bytes <= 0:
        raise ValueError("budget_bytes must be positive")
    rec = record_size(dimensions)
    if candidates is None:
        candidates = []
        size = max(rec, 1024)
        while size * 2 <= budget_bytes:
            candidates.append(size)
            size *= 2
        if not candidates:
            candidates = [max(rec, budget_bytes // 2)]
    best: Optional[EgoCostEstimate] = None
    for unit_bytes in candidates:
        buffer_units = max(2, budget_bytes // unit_bytes)
        if buffer_units < 2:
            continue
        est = estimate_ego_join(n, dimensions, epsilon, unit_bytes,
                                buffer_units, disk_model=disk_model)
        if best is None or est.predicted_io_time_s \
                < best.predicted_io_time_s:
            best = est
    if best is None:
        raise ValueError(
            f"no unit size fits a budget of {budget_bytes} bytes")
    return best
