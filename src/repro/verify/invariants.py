"""Runtime invariant hooks for the join pipeline.

The correctness of the EGO join rests on a handful of properties the
paper proves but the code can only honour by construction:

* **ε-interval coverage** (Lemmata 2 and 3) — every unit pair whose
  cell intervals overlap after widening by ε must actually be joined by
  the I/O schedule;
* **read-once in gallop mode** — while the schedule gallops, no unit is
  ever loaded twice (loading one twice means a still-needed unit was
  evicted, the precise bug the crabstep mode exists to prevent);
* **pin/unpin balance** — crabstep windows pin frames; every pin must
  be released, and a pinned frame must never be discarded or evicted;
* **pruning soundness** — when the sequence recursion prunes a pair of
  sequences (interval disjointness or the inactive-dimension rule of
  Section 3.3), those sequences must genuinely contain no join pair;
* **leaf exactness** — the pairs a leaf kernel emits are exactly the
  pairs within ε of the compared slices.

An :class:`InvariantMonitor` holds the hooks; it is created by
``JoinContext(invariants=True)`` and threaded through the scheduler,
the buffer pool and the sequence join.  Violations raise
:class:`InvariantViolation` at the offending operation, so a failure
pinpoints the broken component instead of surfacing as a wrong count
much later.  The expensive checks (pruning soundness, leaf exactness)
are capped by a work limit per call so the flag stays usable on
mid-sized workloads; the structural checks are O(1) per event.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np


class InvariantViolation(AssertionError):
    """A runtime invariant of the join pipeline was broken."""


class _BufferObserver:
    """Receives pin lifecycle events from a :class:`BufferPool`."""

    def __init__(self, monitor: "InvariantMonitor") -> None:
        self.monitor = monitor

    def on_pin(self, key) -> None:
        self.monitor.outstanding_pins.add(key)
        self.monitor.pin_events += 1

    def on_unpin(self, key) -> None:
        self.monitor.outstanding_pins.discard(key)
        self.monitor.unpin_events += 1

    def on_discard(self, key, pinned: bool) -> None:
        if pinned:
            raise InvariantViolation(
                f"buffer frame {key!r} discarded while pinned")
        self.monitor.outstanding_pins.discard(key)

    def on_evict(self, key, pinned: bool) -> None:
        if pinned:
            raise InvariantViolation(
                f"buffer frame {key!r} evicted while pinned")


class InvariantMonitor:
    """Collects events from the pipeline and asserts its invariants.

    Parameters
    ----------
    check_limit:
        Maximum ``len(s) × len(t)`` for which the exhaustive pruning-
        soundness and leaf-exactness checks run; larger calls are
        skipped (counted in ``skipped_checks``) so the flag stays
        affordable.
    """

    def __init__(self, check_limit: int = 4096) -> None:
        self.check_limit = check_limit
        # Buffer pin accounting.
        self.outstanding_pins: Set = set()
        self.pin_events = 0
        self.unpin_events = 0
        # Scheduler accounting.
        self.gallop_loaded: Set[int] = set()
        self.joined_unit_pairs: Set[Tuple[int, int]] = set()
        # Sequence-join accounting.
        self.prune_checks = 0
        self.leaf_checks = 0
        self.skipped_checks = 0

    # -- buffer pool ---------------------------------------------------------

    def buffer_observer(self) -> _BufferObserver:
        """The observer to install on the scheduler's buffer pool."""
        return _BufferObserver(self)

    def assert_pin_balance(self) -> None:
        """Every pin must have been released by the end of the run."""
        if self.outstanding_pins:
            raise InvariantViolation(
                f"unbalanced pins at end of schedule: "
                f"{sorted(self.outstanding_pins)} still pinned "
                f"({self.pin_events} pins / {self.unpin_events} unpins)")

    # -- I/O scheduler -------------------------------------------------------

    def note_gallop_load(self, unit: int) -> None:
        """Gallop mode must load every unit exactly once."""
        if unit in self.gallop_loaded:
            raise InvariantViolation(
                f"gallop mode loaded unit {unit} twice — a unit with an "
                f"open ε-interval was evicted")
        self.gallop_loaded.add(unit)

    def note_unit_pair(self, a: int, b: int) -> None:
        """Record a unit pair handed to the join (or resumed as done)."""
        self.joined_unit_pairs.add((min(a, b), max(a, b)))

    def check_interval_coverage(self, meta: Dict[int, object],
                                num_units: int) -> None:
        """Lemma 2/3: every unit pair inside the ε-interval was joined.

        ``meta`` maps unit ordinals to objects with ``first_cells`` and
        ``last_plus_eps_cells`` (the scheduler's :class:`UnitMeta`).
        The file is EGO-sorted, so per unit ``b`` the candidate range is
        contiguous and the descending scan can stop at the first ``a``
        whose interval has provably closed.
        """
        from ..core.ego_order import lex_less

        missing: List[Tuple[int, int]] = []
        for b in range(num_units):
            mb = meta.get(b)
            if mb is None:
                raise InvariantViolation(
                    f"unit {b} was never loaded by the schedule")
            for a in range(b, -1, -1):
                ma = meta.get(a)
                if ma is None:
                    raise InvariantViolation(
                        f"unit {a} was never loaded by the schedule")
                if a != b and lex_less(ma.last_plus_eps_cells,
                                       mb.first_cells):
                    break
                if (a, b) not in self.joined_unit_pairs:
                    missing.append((a, b))
        if missing:
            raise InvariantViolation(
                f"{len(missing)} unit pair(s) inside the ε-interval were "
                f"never joined, e.g. {missing[:5]}")

    # -- sequence join -------------------------------------------------------

    def _combined(self, s_points: np.ndarray, t_points: np.ndarray,
                  metric) -> np.ndarray:
        diffs = s_points[:, None, :] - t_points[None, :, :]
        contrib = metric.contributions(diffs)
        if metric.combine_max:
            return contrib.max(axis=-1)
        return contrib.sum(axis=-1)

    def check_prune(self, s, a_lo: int, a_hi: int, t, b_lo: int,
                    b_hi: int, ctx) -> None:
        """A pruned sequence pair ``s[a_lo:a_hi] × t[b_lo:b_hi]`` of the
        root sequences ``s`` and ``t`` must contain no pair within ε."""
        if (a_hi - a_lo) * (b_hi - b_lo) > self.check_limit:
            self.skipped_checks += 1
            return
        self.prune_checks += 1
        combined = self._combined(s.points[a_lo:a_hi], t.points[b_lo:b_hi],
                                  ctx.kernel.metric)
        hits = int((combined <= ctx.threshold).sum())
        if hits:
            i, j = np.unravel_index(int(np.argmin(combined)),
                                    combined.shape)
            raise InvariantViolation(
                f"pruning dropped {hits} join pair(s): sequence pair of "
                f"lengths {a_hi - a_lo}×{b_hi - b_lo} was excluded but ids "
                f"({int(s.ids[a_lo + i])}, {int(t.ids[b_lo + j])}) are "
                f"within ε")

    def check_leaf(self, s, a_lo: int, a_hi: int, t, b_lo: int, b_hi: int,
                   ia: np.ndarray, ib: np.ndarray, ctx,
                   upper_triangle: bool) -> None:
        """A leaf kernel must emit exactly the within-ε index pairs of
        ``s[a_lo:a_hi] × t[b_lo:b_hi]`` (indices relative to the leaf)."""
        if (a_hi - a_lo) * (b_hi - b_lo) > self.check_limit:
            self.skipped_checks += 1
            return
        self.leaf_checks += 1
        combined = self._combined(s.points[a_lo:a_hi], t.points[b_lo:b_hi],
                                  ctx.kernel.metric)
        mask = combined <= ctx.threshold
        if upper_triangle:
            mask &= np.triu(np.ones_like(mask, dtype=bool), k=1)
        want = set(zip(*np.nonzero(mask)))
        got = set(zip(ia.tolist(), ib.tolist()))
        if want != got:
            raise InvariantViolation(
                f"leaf kernel ({ctx.kernel.engine}) emitted a wrong pair set on "
                f"a {a_hi - a_lo}×{b_hi - b_lo} leaf: {len(want - got)} "
                f"missing, {len(got - want)} spurious")

    # -- reporting -----------------------------------------------------------

    def summary(self) -> str:
        """One-line account of what the monitor observed."""
        return (f"invariants: {len(self.gallop_loaded)} gallop loads, "
                f"{len(self.joined_unit_pairs)} unit pairs, "
                f"{self.pin_events}/{self.unpin_events} pin/unpin, "
                f"{self.prune_checks} prune checks, "
                f"{self.leaf_checks} leaf checks, "
                f"{self.skipped_checks} skipped")


def make_monitor(enabled: bool,
                 check_limit: int = 4096) -> Optional[InvariantMonitor]:
    """Monitor factory used by :class:`~repro.core.sequence_join.JoinContext`."""
    return InvariantMonitor(check_limit=check_limit) if enabled else None
