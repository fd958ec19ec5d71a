"""Crash-safe progress journal for the external join pipeline.

A :class:`Journal` records the configuration a run started with and,
per pipeline stage, what has *completed*: sorted runs as they are
written, merge passes as they finish, and joined I/O-unit pairs together
with the result file's pair count after each — the watermark that makes
result appends idempotent.  A resume at a different configuration is
refused (:meth:`Journal.check_config`).  A run interrupted at
any point resumes by replaying nothing: completed work is skipped, the
result file is truncated back to the last watermark (discarding a
possibly-torn tail), and execution continues deterministically, producing
a byte-identical result to an uninterrupted run.

Every update rewrites the whole journal document atomically
(write temp → fsync → rename), so the journal is always a consistent
snapshot — a crash between two updates merely redoes the work recorded
after the snapshot, which the watermark makes safe.  The journal lives on
the *real* filesystem, outside the simulated-disk fault domain, standing
in for the replicated metadata store a production deployment would use.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Set, Tuple

_FORMAT_VERSION = 1


class Journal:
    """Atomic JSON progress journal for checkpoint/resume.

    Parameters
    ----------
    path:
        Journal file location; loaded if it exists.
    flush_every:
        Persist after every ``flush_every`` record operations (state
        changes are always applied in memory immediately).  ``1`` — the
        default — persists on every update; larger values batch journal
        writes, trading a little redone work after a crash for fewer
        metadata writes.  Completion marks always persist immediately.
    """

    def __init__(self, path: str, flush_every: int = 1) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = path
        self.flush_every = flush_every
        self._dirty = 0
        self.state: Dict = {"version": _FORMAT_VERSION}
        self._pairs_done: Set[Tuple[int, int]] = set()
        if os.path.exists(path):
            self._load()

    # -- persistence --------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "r") as fh:
            state = json.load(fh)
        version = state.get("version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported journal version {version!r} in {self.path}")
        self.state = state
        self._pairs_done = {(int(a), int(b))
                            for a, b in state.get("unit_pairs", [])}

    def flush(self) -> None:
        """Atomically persist the current state (write temp, then rename)."""
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.state, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._dirty = 0

    def _changed(self, force: bool = False) -> None:
        self._dirty += 1
        if force or self._dirty >= self.flush_every:
            self.flush()

    def reset(self) -> None:
        """Discard all recorded progress (start the pipeline from scratch)."""
        self.state = {"version": _FORMAT_VERSION}
        self._pairs_done = set()
        self.flush()

    # -- run configuration ---------------------------------------------------

    def check_config(self, config: Dict) -> None:
        """Record the run's configuration, or refuse a different one.

        A journal without a configuration (a fresh run) records
        ``config``.  One that already holds a configuration — a resumed
        run — must hold exactly this one: progress recorded at other
        parameters would silently mix into this run's result, so a
        mismatch raises :class:`ValueError` naming the differing keys.
        """
        config = json.loads(json.dumps(config))  # compare as stored
        recorded = self.state.get("config")
        if recorded is None:
            self.state["config"] = config
            self._changed(force=True)
            return
        if recorded != config:
            keys = sorted(k for k in set(recorded) | set(config)
                          if recorded.get(k) != config.get(k))
            raise ValueError(
                f"checkpoint journal {self.path} belongs to a run with a "
                f"different configuration ({', '.join(keys)} differ); "
                f"resume with the original parameters or start a new "
                f"checkpoint")

    # -- sort phase ---------------------------------------------------------

    def record_sort_run(self, index: int, start_byte: int,
                        count: int) -> None:
        """Record sorted run ``index`` (input chunk order) as complete."""
        runs = self.state.setdefault("sort_runs", {})
        runs[str(index)] = [int(start_byte), int(count)]
        self._changed()

    def sort_run(self, index: int) -> Optional[Tuple[int, int]]:
        """``(start_byte, count)`` of a completed run, or ``None``."""
        entry = self.state.get("sort_runs", {}).get(str(index))
        return None if entry is None else (entry[0], entry[1])

    def record_merge_pass(self, pass_no: int,
                          layout: List[Tuple[int, int]]) -> None:
        """Record the run layout (start_byte, count) after merge ``pass_no``."""
        passes = self.state.setdefault("merge_passes", {})
        passes[str(pass_no)] = [[int(s), int(c)] for s, c in layout]
        self._changed(force=True)

    def latest_merge_pass(self) -> Optional[Tuple[int,
                                                  List[Tuple[int, int]]]]:
        """Most recent completed merge pass as ``(pass_no, layout)``."""
        passes = self.state.get("merge_passes", {})
        if not passes:
            return None
        pass_no = max(int(k) for k in passes)
        layout = [(int(s), int(c)) for s, c in passes[str(pass_no)]]
        return pass_no, layout

    def mark_sort_complete(self, count: int, runs_generated: int,
                           merge_passes: int) -> None:
        """Record that the sorted output file is complete and durable."""
        self.state["sort_complete"] = {"count": int(count),
                                       "runs_generated": int(runs_generated),
                                       "merge_passes": int(merge_passes)}
        self._changed(force=True)

    @property
    def sort_complete(self) -> Optional[Dict]:
        """Completion record of the sort phase, or ``None``."""
        return self.state.get("sort_complete")

    # -- join phase ---------------------------------------------------------

    def record_unit_pair(self, a: int, b: int, pair_watermark: int) -> None:
        """Record unit pair ``(a, b)`` joined, with the result count after it."""
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key in self._pairs_done:
            return
        self._pairs_done.add(key)
        self.state.setdefault("unit_pairs", []).append(list(key))
        self.state["pair_watermark"] = int(pair_watermark)
        self._changed()

    def pair_done(self, a: int, b: int) -> bool:
        """True when unit pair ``(a, b)`` completed before a crash."""
        key = (min(int(a), int(b)), max(int(a), int(b)))
        return key in self._pairs_done

    @property
    def pair_watermark(self) -> int:
        """Result-file pair count as of the last completed unit pair."""
        return int(self.state.get("pair_watermark", 0))

    # -- supervisor decisions ------------------------------------------------

    def record_supervisor_event(self, kind: str, a: int, b: int,
                                attempt: int) -> None:
        """Journal one supervisor fault-handling decision.

        Events are recorded in decision order so a resumed run can
        replay the counters (retries, recycles, degradation) of the
        work that completed before the crash — see
        :meth:`replay_supervisor_events`.
        """
        events = self.state.setdefault("supervisor_events", [])
        events.append([str(kind), int(a), int(b), int(attempt)])
        self._changed()

    def supervisor_events(self) -> List[Tuple[str, int, int, int]]:
        """All journaled supervisor decisions, in decision order."""
        return [(e[0], int(e[1]), int(e[2]), int(e[3]))
                for e in self.state.get("supervisor_events", [])]

    def replay_supervisor_events(self) -> List[Tuple[str, int, int, int]]:
        """Prune events of unfinished pairs; return the events to replay.

        A crash can land between journaling a decision for a unit pair
        and journaling the pair's completion.  The resumed run redoes
        that pair — and its deterministic faults re-fire — so replaying
        the orphaned decisions too would double-count them.  Events
        whose pair is not in the completed set are therefore dropped
        (self-pair ``degrade``/``pool_recycle`` markers included: the
        resumed run re-reaches that state on its own if it still holds).
        """
        events = self.state.get("supervisor_events", [])
        kept = [e for e in events
                if (min(int(e[1]), int(e[2])),
                    max(int(e[1]), int(e[2]))) in self._pairs_done]
        if len(kept) != len(events):
            self.state["supervisor_events"] = kept
            self._changed(force=True)
        return [(e[0], int(e[1]), int(e[2]), int(e[3])) for e in kept]

    # -- store update log ----------------------------------------------------
    #
    # The long-lived :class:`repro.service.store.EGOStore` journals its
    # build parameters once plus every mutating operation, in order.
    # Replaying the meta record and the op list through a fresh store
    # rebuilds it byte-identically (compactions are deterministic
    # functions of the op order, so they are not journaled).

    def record_store_meta(self, meta: Dict) -> None:
        """Record the store's build parameters (once, at creation)."""
        self.state["store_meta"] = dict(meta)
        self._changed(force=True)

    def store_meta(self) -> Optional[Dict]:
        """The store's build parameters, or ``None``."""
        return self.state.get("store_meta")

    def record_store_op(self, op: List) -> None:
        """Append one mutating store operation (insert/delete/set_epsilon)."""
        self.state.setdefault("store_ops", []).append(op)
        self._changed()

    def store_ops(self) -> List[List]:
        """All journaled store operations, in application order."""
        return self.state.get("store_ops", [])

    def mark_join_complete(self, total_pairs: int) -> None:
        """Record that the whole join finished with ``total_pairs`` results."""
        self.state["join_complete"] = {"pairs": int(total_pairs)}
        self._changed(force=True)

    @property
    def join_complete(self) -> Optional[Dict]:
        """Completion record of the join phase, or ``None``."""
        return self.state.get("join_complete")
