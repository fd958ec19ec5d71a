"""Hierarchical span tracing in Chrome ``trace_event`` format.

A :class:`Tracer` records complete-duration spans (``"ph": "X"``) with
monotonic timestamps; the dump loads straight into ``chrome://tracing``
or Perfetto.  The pipeline emits one span hierarchy per phase::

    external_self_join
    ├── sort
    │   ├── run_generation
    │   └── merge_pass
    └── schedule
        ├── load          (one per physical unit read, cells included)
        ├── skip          (instant: a unit pair the ε-interval rules out)
        └── unit_pair     (the Figure-6 join of two loaded units)
            └── leaf      (one per leaf kernel call)

The ``pipeline``-category spans (the root, ``sort``, ``schedule``) are
the run's per-phase wall times; :meth:`Tracer.wall_seconds` sums them
by name.

Span nesting is positional: a span opened while another is open becomes
its child.  The library runs one thread per process, so every event
carries the same constant pid and tid (:data:`TRACE_PID`,
:data:`TRACE_TID`) and traces diff cleanly.  Timestamps come from
``time.perf_counter_ns`` and are monotonic, which guarantees
non-negative durations.

With ``workers > 1`` the unit-pair compute happens in worker processes,
which run with the null tracer; the parent's ``unit_pair`` spans then
cover task submission and in-order merging, and the ``load`` spans keep
describing the one I/O stream there is.

The **null tracer** (:data:`NULL_TRACER`) returns one shared no-op
context manager from every :meth:`~Tracer.span` call, so disabled
tracing allocates no span objects at all.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "ensure_tracer"]

#: The one pid every event carries (the simulated pipeline is one process;
#: worker processes do not trace).
TRACE_PID = 1

#: The one tid every event carries (the pipeline runs one thread).
TRACE_TID = 1


class Span:
    """An open span; use as a context manager (returned by ``Tracer.span``)."""

    __slots__ = ("tracer", "name", "cat", "args", "start_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Optional[dict]) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.start_ns = time.perf_counter_ns()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._finish(self)


class Tracer:
    """Collects spans and instant events for one pipeline run."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[dict] = []
        self._t0_ns = time.perf_counter_ns()

    def _us(self, t_ns: int) -> float:
        return (t_ns - self._t0_ns) / 1000.0

    def span(self, name: str, cat: str = "join",
             args: Optional[dict] = None) -> Span:
        """Open a span; close it by exiting the returned context manager."""
        return Span(self, name, cat, args)

    def _finish(self, span: Span) -> None:
        end_ns = time.perf_counter_ns()
        event = {
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "ts": self._us(span.start_ns),
            "dur": (end_ns - span.start_ns) / 1000.0,
        }
        if span.args:
            event["args"] = span.args
        self.events.append(event)

    def instant(self, name: str, cat: str = "join",
                args: Optional[dict] = None) -> None:
        """Record a zero-duration marker event."""
        event = {
            "ph": "i",
            "name": name,
            "cat": cat,
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "ts": self._us(time.perf_counter_ns()),
            "s": "t",
        }
        if args:
            event["args"] = args
        self.events.append(event)

    # -- export ------------------------------------------------------------

    def to_chrome(self) -> dict:
        """The Chrome ``trace_event`` JSON object."""
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.trace"},
        }

    def dump(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)
            fh.write("\n")

    def spans(self, name: Optional[str] = None) -> List[dict]:
        """Complete ("X") events, optionally filtered by span name."""
        return [e for e in self.events
                if e["ph"] == "X" and (name is None or e["name"] == name)]

    def wall_seconds(self) -> Dict[str, float]:
        """Wall seconds per ``pipeline``-category span name: the phases.

        Names are ordered by their first span's start, so the root
        (``external_self_join``) comes first, then ``sort`` and
        ``schedule``; repeated spans of one name add up.
        """
        totals: Dict[str, float] = {}
        for e in sorted((e for e in self.spans() if e["cat"] == "pipeline"),
                        key=lambda e: e["ts"]):
            totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"] / 1e6
        return totals


class _NullSpan:
    """Shared no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


#: The one span object every :class:`NullTracer` call returns.
NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: every ``span()`` returns the shared null span."""

    __slots__ = ()
    enabled = False
    events: List[dict] = []

    def span(self, name: str, cat: str = "join",
             args: Optional[dict] = None) -> _NullSpan:
        return NULL_SPAN

    def instant(self, name: str, cat: str = "join",
                args: Optional[dict] = None) -> None:
        pass

    def to_chrome(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def spans(self, name: Optional[str] = None) -> List[dict]:
        return []


#: Module-level null tracer shared by every untraced run.
NULL_TRACER = NullTracer()


def ensure_tracer(trace) -> object:
    """Coerce an optional tracer argument to a usable recorder."""
    return NULL_TRACER if trace is None else trace
