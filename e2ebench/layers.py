"""Layer attribution for the traced benchmark pass.

The benchmark does not change the program to trace it.  Instead it
wraps the public functions of each layer *where their callers look them
up* (the layers import each other's functions by name, so patching the
defining module alone would miss most calls) and records one span per
call: layer, name, start, end and the enclosing span.  A layer's self
time is the duration of its spans minus the part their child spans
cover; the benchmark's own top-level span collects whatever no layer
claims.

Spans from forked worker processes are not recorded: the wrappers check
the process id and call straight through, so a worker pays one
``os.getpid()`` per wrapped call.  Work done inside workers shows up as
the parent's waiting time (``core.supervisor``) and in the structural
counts the program merges back.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.trace import TRACE_PID, Tracer

#: Spans at least this long are kept for the Chrome trace; shorter ones
#: still count toward every total but would make the file unwieldy
#: (a full join makes millions of grid-cell calls).
KEEP_SPAN_NS = 200_000


class SpanRecorder:
    """In-memory span recorder with per-layer self time."""

    def __init__(self, keep_ns: int = KEEP_SPAN_NS) -> None:
        self.pid = os.getpid()
        self.keep_ns = keep_ns
        self.t0_ns = time.perf_counter_ns()
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        # Kept spans go straight into a Tracer, which writes the file.
        self.tracer = Tracer()
        # Open spans: [span id, start ns, ns covered by children].
        self._stack: List[list] = []
        self._next_id = 1

    def enter(self) -> None:
        self._stack.append([self._next_id, time.perf_counter_ns(), 0])
        self._next_id += 1

    def exit(self, layer: str, name: str) -> None:
        end = time.perf_counter_ns()
        span_id, start, covered = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - covered
        self.total_ns[name] += duration
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][2] += duration
        if duration >= self.keep_ns or parent == 0:
            self.tracer.events.append({
                "ph": "X", "name": name, "cat": layer, "pid": TRACE_PID,
                "tid": 1, "ts": (start - self.t0_ns) / 1000.0,
                "dur": duration / 1000.0,
                "args": {"id": span_id, "parent": parent}})

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself."""
        self.enter()
        try:
            yield
        finally:
            self.exit(layer, name)

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], int(value))

    def add(self, key: str, value: int) -> None:
        self.counts[key] += int(value)

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def total_s(self, *names: str) -> float:
        return sum(self.total_ns.get(n, 0) for n in names) / 1e9

    def call_count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def dump(self, path: str) -> None:
        """Write the kept spans, and every layer's self time, as a Chrome trace."""
        self.tracer.instant("self_s", cat="bench", args={
            "kept_min_ns": self.keep_ns,
            **{k: v / 1e9 for k, v in sorted(self.self_ns.items())}})
        self.tracer.dump(path)


# -- what gets wrapped --------------------------------------------------------

def _count_result_pairs(rec: SpanRecorder, args, kwargs) -> None:
    rec.add("core.result.pairs", len(args[1]))


def _count_merge_runs(rec: SpanRecorder, args, kwargs) -> None:
    rec.add("sorting.merged_runs", len(args[0]))


def _store_delta_peak(rec: SpanRecorder, args, kwargs) -> None:
    # The delta buffer is at its largest right before it is folded in.
    rec.peak("service.store.delta_rows_peak", args[0].stats().delta_rows)


#: ``(module, attribute, layer, hook)``.  ``attribute`` is looked up in
#: ``module`` — the caller's namespace — and ``Class.method`` patches a
#: class attribute.  ``hook(recorder, args, kwargs)`` runs before the
#: call to tally a count the span alone does not give.
SITES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.ego_join", "external_sort", "sorting", None),
    ("repro.service.store", "merge_sorted_arrays", "sorting",
     _count_merge_runs),
    ("repro.core.scheduler", "EGOScheduler.run", "core.scheduler", None),
    ("repro.core.supervisor", "SupervisedUnitJoiner.submit",
     "core.supervisor", None),
    ("repro.core.supervisor", "SupervisedUnitJoiner.drain",
     "core.supervisor", None),
    ("repro.core.sequence_join", "join_sequences", "core.sequence_join",
     None),
    ("repro.core.sequence_join", "simple_join", "core.sequence_join", None),
    ("repro.service.store", "join_sequences", "core.sequence_join", None),
    ("repro.core.ego_order", "floor_cells", "core.ego_order", None),
    ("repro.core.sequence", "floor_cells", "core.ego_order", None),
    ("repro.core.kernels", "floor_cells", "core.ego_order", None),
    ("repro.core.sequence", "grid_cells", "core.ego_order", None),
    ("repro.core.scheduler", "grid_cells", "core.ego_order", None),
    ("repro.core.ego_join", "grid_cells", "core.ego_order", None),
    ("repro.service.store", "grid_cells", "core.ego_order", None),
    ("repro.core.sequence_join", "pairs_within_batched", "core.kernels",
     None),
    ("repro.core.sequence_join", "pairs_within_matmul", "core.kernels",
     None),
    ("repro.core.sequence_join", "candidate_windows", "core.kernels", None),
    ("repro.joins.lsh_join", "pairs_within_matmul", "core.kernels", None),
    ("repro.core.sequence_join", "pairs_within_vector", "core.distance",
     None),
    ("repro.core.distance", "pairs_within_vector", "core.distance", None),
    ("repro.joins.lsh_join", "pairs_within_vector", "core.distance", None),
    ("repro.joins.lsh_join", "pairs_within_scalar", "core.distance", None),
    ("repro.core.result", "JoinResult.add_batch", "core.result",
     _count_result_pairs),
    ("repro.service.store", "EGOStore.insert", "service.store", None),
    ("repro.service.store", "EGOStore.delete", "service.store", None),
    ("repro.service.store", "EGOStore.compact", "service.store",
     _store_delta_peak),
    ("repro.service.store", "EGOStore.join", "service.store", None),
    ("repro.service.store", "EGOStore.range", "service.store", None),
    ("repro.service.store", "EGOStore.knn", "service.store", None),
    ("repro.index.lsh", "PStableHashFamily.keys", "index.lsh", None),
    ("repro.joins.lsh_join", "write_bucket_file", "joins.lsh_join", None),
)

#: Span names whose inclusive time is the LSH join's exact re-verify.
LSH_VERIFY_NAMES = ("repro.joins.lsh_join.pairs_within_matmul",
                    "repro.joins.lsh_join.pairs_within_vector",
                    "repro.joins.lsh_join.pairs_within_scalar")


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not callable(getattr(owner, leaf, None)):
        raise AttributeError(f"{module_name}.{attribute} is not a callable "
                             f"the benchmark can wrap")
    return owner, leaf


def _wrap(fn, rec: SpanRecorder, layer: str, name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != rec.pid:
            return fn(*args, **kwargs)
        if hook is not None:
            hook(rec, args, kwargs)
        rec.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(layer, name)
    return wrapper


class instrument:
    """Context manager: wrap every site in :data:`SITES` for one pass."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        try:
            for module_name, attribute, layer, hook in SITES:
                owner, leaf = _resolve(module_name, attribute)
                original = owner.__dict__[leaf] if isinstance(owner, type) \
                    else getattr(owner, leaf)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf,
                        _wrap(getattr(owner, leaf), self.rec, layer,
                              f"{module_name}.{attribute}", hook))
        except BaseException:
            self.__exit__()
            raise
        return self.rec

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)
