"""Observability for the EGO join pipeline: tracing and metrics.

Two zero-dependency recorders behind one idiom — an object threaded
through the pipeline, with a shared no-op implementation so an
uninstrumented run pays one attribute lookup per event and allocates
nothing:

* :mod:`.trace` — the one record of when and where a run spent its
  time: a hierarchical span tracer (sort → schedule → load/unit_pair →
  leaf) emitting Chrome ``trace_event`` JSON for
  ``chrome://tracing``; its ``pipeline`` spans are the per-phase wall
  times;
* :mod:`.metrics` — typed counters / gauges / histograms with
  Prometheus-text and JSON exporters; every metric is a structural
  operation count, so dumps are byte-identical across runs and across
  worker counts.

Entry points: ``ego_self_join_file(..., trace=Tracer(),
metrics=MetricsRegistry())`` or the CLI ``repro join FILE --trace
out.json --metrics out.prom``, which also prints each phase's wall
seconds.  See ``docs/OBSERVABILITY.md`` for the metric catalogue and
how to read a trace.
"""

from .metrics import (NULL_INSTRUMENT, NULL_METRICS, Counter, Gauge,
                      Histogram, MetricsRegistry, NullMetrics,
                      ensure_metrics)
from .trace import (NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer,
                    ensure_tracer)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_INSTRUMENT",
    "NULL_METRICS",
    "ensure_metrics",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "ensure_tracer",
]
