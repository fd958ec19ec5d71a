"""Typed run-metrics registry with Prometheus-text and JSON exporters.

The paper's claims are operation-count claims (units read once in gallop
mode, the ε-interval re-read once per crabstep window, leaf work cut by
inactive-dimension pruning), so every metric here is a *structural*
quantity — counts of loads, prunes, pins, candidate rows — never a wall
time.  That is what makes a metrics dump exactly reproducible: the same
seeded workload produces byte-identical exports across runs and across
``workers=1`` vs ``workers=N`` (worker deltas are merged in schedule
order, see :class:`~repro.core.supervisor.SupervisedUnitJoiner`).

Three instrument kinds:

* :class:`Counter` — monotonically increasing, optionally labelled
  (e.g. ``ego_unit_reads_total{mode="gallop"}``);
* :class:`Gauge` — a point-in-time value set at the end of a run
  (e.g. ``ego_io_bytes_read``);
* :class:`Histogram` — fixed-bucket distribution (candidate-window
  sizes, leaf volumes); bucket bounds are part of the metric identity so
  merged exports stay stable.

Everything is plain Python with no third-party dependencies.  The
**null recorder** (:data:`NULL_METRICS`) implements the same interface
as no-ops on shared singletons, so instrumented hot paths cost one
attribute lookup and an empty method call when observability is off —
and allocate nothing.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NullMetrics", "NULL_METRICS", "ensure_metrics",
]


def _format_value(value) -> str:
    """Deterministic Prometheus sample formatting (ints without dot)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(f'{n}="{v}"' for n, v in zip(names, values))
    return "{" + inner + "}"


class _Child:
    """One labelled series of a counter/gauge family."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value) -> None:
        self.value = value


class _Family:
    """Common machinery of a named, optionally labelled metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", unit: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def labels(self, *values) -> _Child:
        """The child series for one label-value tuple (created on demand)."""
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label(s), "
                f"got {len(key)}")
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _Child()
        return child

    def _default(self) -> _Child:
        child = self._children.get(())
        if child is None:
            if self.labelnames:
                raise ValueError(
                    f"{self.name} is labelled {self.labelnames}; "
                    f"use .labels(...)")
            child = self._children[()] = _Child()
        return child

    @property
    def value(self):
        """Value of the unlabelled series (0 if never touched)."""
        child = self._children.get(())
        return 0 if child is None else child.value

    def value_of(self, *label_values):
        """Value of one labelled series (0 if never touched)."""
        key = tuple(str(v) for v in label_values)
        child = self._children.get(key)
        return 0 if child is None else child.value

    def total(self):
        """Sum over every series of the family."""
        return sum(c.value for c in self._children.values())

    # -- serialisation -----------------------------------------------------

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label values, value) pairs sorted by label values."""
        return [(key, child.value)
                for key, child in sorted(self._children.items())]

    def to_data(self) -> dict:
        return {"kind": self.kind, "help": self.help, "unit": self.unit,
                "labelnames": list(self.labelnames),
                "samples": [[list(k), v] for k, v in self.samples()]}

    def merge_data(self, data: dict) -> None:
        for key, value in data["samples"]:
            child = self.labels(*key)
            if self.kind == "gauge":
                child.set(value)
            else:
                child.inc(value)


class Counter(_Family):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        self._default().inc(amount)


class Gauge(_Family):
    """A point-in-time value, optionally labelled."""

    kind = "gauge"

    def set(self, value) -> None:
        self._default().set(value)

    def inc(self, amount=1) -> None:
        self._default().inc(amount)


#: Default histogram bucket bounds: powers of two covering the row/point
#: counts the join's leaves and candidate windows actually take.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)


class Histogram:
    """Fixed-bucket distribution with cumulative Prometheus exposition."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", unit: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.labelnames: Tuple[str, ...] = ()
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def observe_many(self, values: Iterable) -> None:
        """Record a batch of observations."""
        for v in values:
            self.observe(v)

    def quantile_bound(self, q: float):
        """Upper bucket bound below which fraction ``q`` of samples fall."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0
        target = q * self.count
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            cumulative += self.bucket_counts[i]
            if cumulative >= target:
                return bound
        return float("inf")

    # -- serialisation -----------------------------------------------------

    def to_data(self) -> dict:
        return {"kind": self.kind, "help": self.help, "unit": self.unit,
                "bounds": list(self.bounds),
                "bucket_counts": list(self.bucket_counts),
                "count": self.count, "sum": self.sum}

    def merge_data(self, data: dict) -> None:
        if list(data["bounds"]) != list(self.bounds):
            raise ValueError(
                f"histogram {self.name}: merged bounds {data['bounds']} "
                f"differ from {list(self.bounds)}")
        for i, c in enumerate(data["bucket_counts"]):
            self.bucket_counts[i] += c
        self.count += data["count"]
        self.sum += data["sum"]


class MetricsRegistry:
    """A namespace of counters, gauges and histograms for one run.

    Instruments are created on first request and returned on every
    subsequent one (idempotent, so layers can resolve handles
    independently).  Exports are sorted by metric name and label values,
    which — together with the structural-only metric policy — makes the
    Prometheus text and JSON dumps byte-identical for identical runs.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, cls, name: str, help: str, unit: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help=help, unit=unit,
                                               **kwargs)
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}")
        return metric

    def counter(self, name: str, help: str = "", unit: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a counter family."""
        return self._get(Counter, name, help, unit, labelnames=labelnames)

    def gauge(self, name: str, help: str = "", unit: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge family."""
        return self._get(Gauge, name, help, unit, labelnames=labelnames)

    def histogram(self, name: str, help: str = "", unit: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create a histogram."""
        return self._get(Histogram, name, help, unit, buckets=buckets)

    def get(self, name: str):
        """The registered metric of that name, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    # -- worker-delta merging ----------------------------------------------

    def collect(self) -> dict:
        """Serializable snapshot of every metric (used as a worker delta)."""
        return {name: m.to_data()
                for name, m in sorted(self._metrics.items())}

    def merge(self, data: Optional[dict]) -> None:
        """Fold a :meth:`collect` snapshot into this registry.

        Counters and histograms add; gauges take the merged value.  The
        parallel joiner calls this in task-submission order, so the
        merged registry is identical whichever workers computed the
        deltas.
        """
        if not data:
            return
        for name, payload in sorted(data.items()):
            kind = payload["kind"]
            if kind == "histogram":
                metric = self.histogram(name, help=payload["help"],
                                        unit=payload["unit"],
                                        buckets=payload["bounds"])
            elif kind == "gauge":
                metric = self.gauge(name, help=payload["help"],
                                    unit=payload["unit"],
                                    labelnames=payload["labelnames"])
            else:
                metric = self.counter(name, help=payload["help"],
                                      unit=payload["unit"],
                                      labelnames=payload["labelnames"])
            metric.merge_data(payload)

    # -- exporters ---------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus exposition-format text (no timestamps, stable order)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            help_text = metric.help
            if metric.unit:
                help_text = (f"{help_text} [{metric.unit}]" if help_text
                             else f"[{metric.unit}]")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, count in zip(metric.bounds,
                                        metric.bucket_counts):
                    cumulative += count
                    lines.append(
                        f'{name}_bucket{{le="{_format_value(bound)}"}} '
                        f"{cumulative}")
                cumulative += metric.bucket_counts[-1]
                lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{name}_sum {_format_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
            else:
                for key, value in metric.samples():
                    labels = _format_labels(metric.labelnames, key)
                    lines.append(f"{name}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def to_json(self) -> dict:
        """Nested-dict form of every metric (stable key order)."""
        return self.collect()

    def dump(self, path: str) -> None:
        """Write the registry to ``path``: ``.json`` → JSON, else Prometheus."""
        if path.endswith(".json"):
            with open(path, "w") as fh:
                json.dump(self.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            with open(path, "w") as fh:
                fh.write(self.to_prometheus_text())


# -- the null recorder -------------------------------------------------------


class _NullInstrument:
    """Shared no-op counter/gauge/histogram (allocates nothing per call)."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0

    def labels(self, *values) -> "_NullInstrument":
        return self

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def value_of(self, *label_values) -> int:
        return 0

    def total(self) -> int:
        return 0


#: The one instance every :class:`NullMetrics` method returns.
NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """No-op registry: the default recorder when observability is off.

    Every factory method returns the shared :data:`NULL_INSTRUMENT`, so
    instrumented code paths neither branch nor allocate.
    """

    __slots__ = ()
    enabled = False

    def counter(self, name: str, help: str = "", unit: str = "",
                labelnames: Sequence[str] = ()) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", unit: str = "",
              labelnames: Sequence[str] = ()) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", unit: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS
                  ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def collect(self) -> dict:
        return {}

    def merge(self, data) -> None:
        pass

    def to_prometheus_text(self) -> str:
        return ""

    def to_json(self) -> dict:
        return {}


#: Module-level null registry shared by every uninstrumented run.
NULL_METRICS = NullMetrics()


def ensure_metrics(metrics) -> object:
    """Coerce an optional registry argument to a usable recorder."""
    return NULL_METRICS if metrics is None else metrics
