"""Schema validation of the observability exports.

Checks the Chrome ``trace_event`` JSON a traced pipeline run produces
(well-formed events, proper span nesting, constant pid/tid, no negative
durations, per-phase wall seconds) and parses the Prometheus text
exposition line by line against the format grammar (TYPE lines, label
syntax, cumulative histogram series).
"""

import json
import re

import numpy as np
import pytest

from conftest import make_file
from repro.core.ego_join import ego_self_join_file
from repro.obs import MetricsRegistry, Tracer
from repro.obs.trace import TRACE_PID, TRACE_TID
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile


@pytest.fixture(scope="module")
def traced_run():
    """One fully instrumented pipeline run shared by the schema tests."""
    rng = np.random.default_rng(7)
    pts = rng.uniform(size=(350, 4))
    tracer = Tracer()
    registry = MetricsRegistry()
    with SimulatedDisk() as disk:
        make_file(disk, pts)
        pf = PointFile.open(disk)
        report = ego_self_join_file(pf, 0.12, unit_bytes=2048,
                                    buffer_units=4, trace=tracer,
                                    metrics=registry)
    return tracer, registry, report


class TestChromeTraceSchema:
    def test_top_level_object(self, traced_run, tmp_path):
        tracer = traced_run[0]
        path = tmp_path / "trace.json"
        tracer.dump(str(path))
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] in ("ms", "ns")
        assert doc["traceEvents"] == tracer.to_chrome()["traceEvents"]

    def test_every_event_is_well_formed(self, traced_run):
        tracer = traced_run[0]
        assert tracer.events, "a traced run must emit events"
        for e in tracer.events:
            assert e["ph"] in ("X", "i")
            assert isinstance(e["name"], str) and e["name"]
            assert isinstance(e["cat"], str) and e["cat"]
            assert e["pid"] == TRACE_PID == 1
            assert e["tid"] == TRACE_TID == 1
            assert e["ts"] >= 0.0
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
            if "args" in e:
                assert isinstance(e["args"], dict) and e["args"]
                json.dumps(e["args"])  # JSON-serialisable

    def test_tids_are_stable_small_integers(self, traced_run):
        tracer = traced_run[0]
        assert {e["tid"] for e in tracer.events} == {TRACE_TID}

    def test_spans_nest_properly(self, traced_run):
        """Complete spans form a proper hierarchy.

        Two spans either do not overlap in time or one contains the
        other — context-managed spans cannot partially overlap.
        """
        tracer = traced_run[0]
        # Sort by start; ties broken longest-first (parent first).
        events = sorted(tracer.spans(), key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in events:
            end = e["ts"] + e["dur"]
            while stack and e["ts"] >= stack[-1]:
                stack.pop()
            if stack:
                assert end <= stack[-1], \
                    f"span {e['name']} escapes its parent"
            stack.append(end)

    def test_expected_hierarchy_present(self, traced_run):
        tracer, _registry, report = traced_run
        names = {e["name"] for e in tracer.spans()}
        assert {"external_self_join", "sort", "run_generation",
                "schedule", "load", "unit_pair", "leaf"} <= names
        root = tracer.spans("external_self_join")
        assert len(root) == 1
        # The root span covers every other span.
        lo, hi = root[0]["ts"], root[0]["ts"] + root[0]["dur"]
        for e in tracer.spans():
            assert lo <= e["ts"] and e["ts"] + e["dur"] <= hi
        # One load span per physical unit read.
        assert len(tracer.spans("load")) \
            == report.schedule_stats.total_unit_loads

    def test_wall_seconds_per_pipeline_phase(self, traced_run):
        tracer = traced_run[0]
        walls = tracer.wall_seconds()
        assert list(walls) == ["external_self_join", "sort", "schedule"]
        assert all(w >= 0.0 for w in walls.values())
        assert walls["sort"] + walls["schedule"] \
            <= walls["external_self_join"] + 1e-9
        root = tracer.spans("external_self_join")[0]
        assert walls["external_self_join"] == root["dur"] / 1e6


#: Prometheus exposition grammar for the pieces this exporter emits.
_METRIC_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[^ ]+)$")
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$')


class TestPrometheusText:
    def test_parses_line_by_line(self, traced_run):
        registry = traced_run[1]
        text = registry.to_prometheus_text()
        assert text.endswith("\n")
        typed = {}
        current = None
        for line in text.splitlines():
            assert line == line.strip() and line
            if line.startswith("# HELP "):
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "histogram")
                assert name not in typed, "one TYPE line per family"
                typed[name] = kind
                current = name
                continue
            m = _METRIC_RE.match(line)
            assert m, f"unparseable sample line: {line!r}"
            base = m.group("name")
            for suffix in ("_bucket", "_sum", "_count"):
                if typed.get(current) == "histogram" \
                        and base == current + suffix:
                    base = current
            assert base == current, f"sample {base} outside its family"
            if m.group("labels"):
                for pair in m.group("labels").split(","):
                    assert _LABEL_RE.match(pair), pair
            float(m.group("value"))  # must parse as a number

    def test_histogram_series_are_cumulative(self, traced_run):
        registry = traced_run[1]
        text = registry.to_prometheus_text()
        buckets = {}
        for line in text.splitlines():
            m = re.match(r'^(\w+)_bucket\{le="([^"]+)"\} (\d+)$', line)
            if m:
                buckets.setdefault(m.group(1), []).append(
                    (m.group(2), int(m.group(3))))
        assert buckets, "expected at least one histogram"
        for name, series in buckets.items():
            counts = [c for _le, c in series]
            assert counts == sorted(counts), f"{name} not cumulative"
            assert series[-1][0] == "+Inf"
            total = int(re.search(rf"^{name}_count (\d+)$", text,
                                  re.M).group(1))
            assert series[-1][1] == total

    def test_dumps_are_reproducible(self, traced_run, tmp_path):
        registry = traced_run[1]
        a, b = tmp_path / "a.prom", tmp_path / "b.prom"
        registry.dump(str(a))
        registry.dump(str(b))
        assert a.read_bytes() == b.read_bytes()
        j = tmp_path / "m.json"
        registry.dump(str(j))
        assert json.loads(j.read_text()) == registry.to_json()

    def test_no_wall_clock_metrics(self, traced_run):
        """Policy gate: wall time goes to the trace, never to metrics.

        ``ego_simulated_io_seconds`` is allowed — the simulated clock is
        deterministic — but nothing derived from the host's real clock
        may enter the registry, or exports stop being reproducible.
        """
        registry = traced_run[1]
        for name in registry.names():
            assert "wall" not in name and "cpu_seconds" not in name
