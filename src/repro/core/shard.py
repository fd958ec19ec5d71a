"""Shard planning for the parallel external join.

:class:`~repro.core.supervisor.SupervisedUnitJoiner` records the unit
pairs the I/O schedule submits as ordered :class:`UnitPairEvent`\\ s and
hands them to :func:`plan_shards`, which cuts the unit ordinals into
contiguous **shards**: one worker task each.  A shard is only the
transport — retries, blame and quarantine stay keyed by the unit pair.

How the decomposition stays exact
---------------------------------

1. **The schedule is the serial one.**  The parent runs the ordinary
   :class:`~repro.core.scheduler.EGOScheduler`; every load, skip,
   eviction and pressure reaction happens exactly as in the serial run,
   so the parent's I/O counters, simulated clock and
   :class:`~repro.core.scheduler.ScheduleStats` are the serial run's,
   and resumed pairs (``pair_done``) never become events.
2. **Unidirectional ownership.**  Every event ``(a, b)`` with
   ``a ≤ b`` is owned by the shard containing unit ``b`` (the higher
   ordinal).  Because ownership is a function of ``b`` alone, no pair
   is computed by two shards.  Lemma 2/3 bound ``a`` to ``b``'s
   ε-interval, so the partners a shard's consecutive events share are
   few: a worker serves them from a small LRU of unit frames.
3. **Deterministic merge.**  Event results are merged strictly in
   sequence order: crabstep windows that straddle a shard boundary
   interleave events of adjacent shards, so concatenating shards would
   reorder pairs.

Skew-adaptive planning
----------------------

Candidate volume per event is estimated as ``n_a · n_b`` from the
per-unit record counts; the per-unit cost is the sum over owned events.
Shards are balanced by prefix-sum cost, and any shard whose cost
exceeds ~1.5× the target is recursively re-split, preferring cut points
that fall on ε-cell boundaries (where the grid cell changes between
consecutive units), up to twice the requested shard count.  On skewed
data this moves the heavy ε-cells into their own shards; on uniform
data it degenerates to equal-width shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

#: A shard whose predicted cost exceeds this multiple of the balanced
#: target is recursively re-split.
OVERSIZE_FACTOR = 1.5


@dataclass(frozen=True)
class UnitPairEvent:
    """One unit-pair join the schedule would perform, in schedule order.

    ``seq`` is the global submission index (the merge key); ``a ≤ b``
    are unit ordinals (``a == b`` marks a unit's self-join).  The owner
    of the event is the shard containing ``b``.
    """

    seq: int
    a: int
    b: int

    @property
    def self_pair(self) -> bool:
        return self.a == self.b


@dataclass
class ShardSpec:
    """One planned shard: an owned ordinal range and its events.

    The shard owns units ``[own_lo, own_hi)`` and every event whose
    higher ordinal falls in that range.
    """

    index: int
    own_lo: int
    own_hi: int
    events: List[UnitPairEvent] = field(default_factory=list)
    cost: int = 0


def event_cost(event: UnitPairEvent, unit_records: Dict[int, int]) -> int:
    """Predicted candidate volume of one unit-pair join.

    The ε-interval metadata admitted the pair, so the candidate set is
    modelled as the full cross product ``n_a · n_b`` (half for a
    self-join: unordered pairs) — cheap, monotone in the true work, and
    exactly the quantity that diverges on skewed data.
    """
    n_a = unit_records.get(event.a, 0)
    if event.self_pair:
        return (n_a * max(0, n_a - 1)) // 2
    return n_a * unit_records.get(event.b, 0)


def _unit_costs(num_units: int, events: List[UnitPairEvent],
                unit_records: Dict[int, int]) -> np.ndarray:
    costs = np.zeros(num_units, dtype=np.int64)
    for ev in events:
        costs[ev.b] += event_cost(ev, unit_records)
    return costs


def _greedy_cuts(costs: np.ndarray, shards: int) -> List[int]:
    """Contiguous cost-balanced boundaries by prefix-sum walk."""
    n = len(costs)
    total = int(costs.sum())
    target = total / shards if shards else total
    bounds = [0]
    acc = 0
    for u in range(n):
        acc += int(costs[u])
        cuts_left = shards - len(bounds)
        units_left = n - (u + 1)
        if cuts_left > 0 and units_left >= cuts_left and acc >= target:
            bounds.append(u + 1)
            acc = 0
    bounds.append(n)
    return sorted(set(bounds))


def _is_cell_boundary(meta, u: int) -> bool:
    """True when the ε-grid cell changes between units ``u-1`` and ``u``."""
    a = meta.get(u - 1) if meta else None
    b = meta.get(u) if meta else None
    if a is None or b is None:
        return True
    return not np.array_equal(a.last_cells, b.first_cells)


def _split_oversized(bounds: List[int], costs: np.ndarray, target: float,
                     max_shards: int, meta) -> List[int]:
    """Recursively cut shards costing more than ``OVERSIZE_FACTOR×target``.

    Cut points are chosen to halve the shard's cost, preferring
    positions on ε-cell boundaries (splitting inside a cell would put
    the two halves of one heavy cell in different shards, so every
    cross pair would load a unit of the other shard); when the whole
    shard sits inside one
    cell, the best interior position is used instead.
    """
    prefix = np.concatenate([[0], np.cumsum(costs)])
    changed = True
    while changed and len(bounds) - 1 < max_shards:
        changed = False
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            cost = int(prefix[hi] - prefix[lo])
            if hi - lo < 2 or cost <= OVERSIZE_FACTOR * target:
                continue
            half = prefix[lo] + cost / 2
            interior = range(lo + 1, hi)
            candidates = [c for c in interior if _is_cell_boundary(meta, c)]
            if not candidates:
                candidates = list(interior)
            cut = min(candidates, key=lambda c: abs(prefix[c] - half))
            bounds.insert(i + 1, cut)
            changed = True
            break
    return bounds


def plan_shards(num_units: int, events: List[UnitPairEvent],
                unit_records: Dict[int, int], shards: int,
                meta=None) -> List[ShardSpec]:
    """Partition the unit ordinals into shards and assign their events.

    Shards are balanced by predicted candidate volume, and oversized
    ones are re-split at ε-cell boundaries (up to ``2×shards``).  Every
    event lands in exactly one shard — the one owning its higher
    ordinal — so the union of the shards' pair streams is exactly the
    serial schedule's.  ``meta`` maps unit ordinals to objects with
    ``first_cells`` / ``last_cells`` (the scheduler's
    :class:`~repro.core.units.UnitMeta`); without it every position
    counts as a cell boundary.
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if num_units == 0:
        return []
    shards = min(shards, num_units)
    costs = _unit_costs(num_units, events, unit_records)
    bounds = _greedy_cuts(costs, shards)
    target = int(costs.sum()) / shards
    bounds = _split_oversized(bounds, costs, target,
                              min(num_units, 2 * shards), meta)
    specs = [ShardSpec(index=i, own_lo=bounds[i], own_hi=bounds[i + 1])
             for i in range(len(bounds) - 1)]
    starts = [s.own_lo for s in specs]
    for ev in events:
        idx = int(np.searchsorted(starts, ev.b, side="right")) - 1
        spec = specs[idx]
        spec.events.append(ev)
        spec.cost += event_cost(ev, unit_records)
    return specs
