"""Tests for the observability layer: metrics semantics on real schedules.

These tests treat the metrics as *claims about the algorithm* and check
them against independent accounting:

* gallop mode reads every unit exactly once (the paper's read-once
  property), counted three ways — metrics, schedule stats, invariant
  monitor;
* crabstep re-read counts match an independent model of the Figure-4
  window schedule built from unit boundary metadata only;
* metric exports are byte-identical across repeated runs and across
  worker counts;
* the null recorders are shared no-op singletons.
"""

import numpy as np
import pytest

from conftest import brute_truth, make_file
from repro.core.ego_join import ego_self_join_file
from repro.core.ego_order import ego_sorted, lex_less
from repro.core.result import JoinResult
from repro.core.scheduler import EGOScheduler
from repro.core.sequence_join import JoinContext
from repro.core.units import SortedUnits
from repro.obs import (NULL_INSTRUMENT, NULL_METRICS, NULL_SPAN,
                       NULL_TRACER, MetricsRegistry, ensure_metrics,
                       ensure_tracer)
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile
from repro.verify.workloads import generate_workload


def run_schedule(points, epsilon, unit_bytes, buffer_units,
                 invariants=False):
    """EGO-sort ``points``, run the I/O schedule with metrics attached."""
    registry = MetricsRegistry()
    with SimulatedDisk() as disk:
        ids, spts = ego_sorted(np.asarray(points, dtype=np.float64),
                               epsilon)
        make_file(disk, spts, ids)
        pf = PointFile.open(disk)
        ctx = JoinContext(epsilon=epsilon, result=JoinResult(),
                          metrics=registry, invariants=invariants)
        scheduler = EGOScheduler(SortedUnits(pf, unit_bytes, epsilon), ctx,
                                 buffer_units)
        stats = scheduler.run()
    return registry, ctx, scheduler, stats


def reads(registry, mode):
    return registry.get("ego_unit_reads_total").value_of(mode)


# -- null recorders -----------------------------------------------------------


class TestNullRecorders:
    def test_ensure_defaults_to_shared_singletons(self):
        assert ensure_metrics(None) is NULL_METRICS
        assert ensure_tracer(None) is NULL_TRACER
        real = MetricsRegistry()
        assert ensure_metrics(real) is real

    def test_null_metrics_allocates_nothing(self):
        c = NULL_METRICS.counter("x", labelnames=("a",))
        assert c is NULL_INSTRUMENT
        assert c.labels("anything") is NULL_INSTRUMENT
        assert NULL_METRICS.gauge("y") is NULL_INSTRUMENT
        assert NULL_METRICS.histogram("z") is NULL_INSTRUMENT
        c.inc()
        c.set(5)
        c.observe(3)
        c.observe_many([1, 2])
        assert c.value == 0 and c.total() == 0 and c.value_of("a") == 0
        assert NULL_METRICS.to_prometheus_text() == ""
        assert NULL_METRICS.collect() == {}
        assert not NULL_METRICS.enabled

    def test_null_tracer_shares_one_span(self):
        s1 = NULL_TRACER.span("a", args={"big": list(range(10))})
        s2 = NULL_TRACER.span("b")
        assert s1 is s2 is NULL_SPAN
        with s1:
            pass
        NULL_TRACER.instant("marker")
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.to_chrome()["traceEvents"] == []
        assert not NULL_TRACER.enabled


# -- registry semantics -------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_labels_and_totals(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "ops", labelnames=("kind",))
        c.labels("read").inc()
        c.labels("read").inc(2)
        c.labels("write").inc(5)
        assert c.value_of("read") == 3
        assert c.value_of("write") == 5
        assert c.value_of("never") == 0
        assert c.total() == 8

    def test_idempotent_lookup_and_type_conflict(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")
        with pytest.raises(ValueError):
            reg.counter("a").labels("x")  # unlabelled family

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes", buckets=(1, 10, 100))
        h.observe_many([0, 1, 5, 50, 500])
        assert h.count == 5
        assert h.sum == 556
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.quantile_bound(0.5) == 10

    def test_worker_merge_adds_counters_and_histograms(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("n_total", labelnames=("k",)).labels("a").inc(2)
        worker.counter("n_total", labelnames=("k",)).labels("a").inc(3)
        worker.counter("n_total", labelnames=("k",)).labels("b").inc(1)
        worker.histogram("h", buckets=(1, 2)).observe(2)
        worker.gauge("g").set(7)
        parent.merge(worker.collect())
        assert parent.get("n_total").value_of("a") == 5
        assert parent.get("n_total").value_of("b") == 1
        assert parent.get("h").count == 1
        assert parent.get("g").value == 7
        parent.merge(None)  # tolerated
        parent.merge({})

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b.histogram("h", buckets=(1, 4)).observe(1)
        with pytest.raises(ValueError):
            a.merge(b.collect())

    def test_dump_format_by_extension(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n_total", "count").inc(4)
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        reg.dump(str(prom))
        reg.dump(str(js))
        assert "n_total 4" in prom.read_text()
        import json
        assert json.loads(js.read_text())["n_total"]["samples"] == [
            [[], 4]]


# -- read-once: gallop --------------------------------------------------------


class TestGallopReadOnce:
    def test_gallop_reads_each_unit_exactly_once(self, rng):
        pts = rng.uniform(size=(400, 3))
        # Buffer big enough that every ε-interval fits: pure gallop.
        reg, ctx, sched, stats = run_schedule(pts, 0.05, 2048, 64,
                                              invariants=True)
        assert sched.num_units > 2
        assert reads(reg, "gallop") == sched.num_units
        assert reads(reg, "crabstep_pin") == 0
        assert reads(reg, "crabstep_reload") == 0
        trans = reg.get("ego_mode_transitions_total")
        assert trans.value_of("crabstep") == 0
        # Three independent accountings of the same property agree.
        assert stats.gallop_loads == sched.num_units
        assert len(ctx.monitor.gallop_loaded) == sched.num_units

    def test_every_unit_enters_buffer_once_even_in_crabstep(self, rng):
        pts = generate_workload("clusters", 500, 3, 0.3, seed=9).points
        reg, _ctx, sched, stats = run_schedule(pts, 0.3, 1024, 3)
        assert stats.crabstep_phases > 0  # the workload forces crabstep
        # Every unit becomes resident as "new" exactly once: either
        # galloped in or pinned at the start of a crabstep window.
        assert (reads(reg, "gallop")
                + reads(reg, "crabstep_pin")) == sched.num_units
        assert reg.get("ego_crabstep_phases_total").value \
            == stats.crabstep_phases
        assert reads(reg, "crabstep_reload") == stats.crabstep_reloads


# -- Figure-4 window model ----------------------------------------------------


def figure4_model(metas, capacity):
    """Independent count model of the Figure-4 schedule.

    Replays the paper's mode decisions from unit boundary metadata only
    (no buffer pool, no I/O): gallop while a frame is free and the
    read-once invariant holds, otherwise a crabstep window of
    ``capacity - 1`` pinned units plus re-reads of every earlier unit
    still inside the window's ε-interval (Lemma 2 in cell arithmetic).
    Returns ``(gallop_reads, pins, reloads, phases)``.
    """

    def needed(unit, frontier):
        return not lex_less(metas[unit].last_plus_eps_cells,
                            metas[frontier].last_cells)

    def interval_low(unit):
        low = unit
        while low > 0 and not lex_less(
                metas[low - 1].last_plus_eps_cells,
                metas[unit].first_cells):
            low -= 1
        return low

    n = len(metas)
    gallop, pins, reloads, phases = 1, 0, 0, 0  # unit 0 galloped in
    resident = {0}
    i = 1
    while i < n:
        frontier = i - 1
        resident = {k for k in resident
                    if k == frontier or needed(k, frontier)}
        low = min(resident)
        sound = low == 0 or not needed(low - 1, frontier)
        if len(resident) < capacity and sound:
            resident.add(i)
            gallop += 1
            i += 1
            continue
        phases += 1
        window_start = i
        window = list(range(i, min(i + capacity - 1, n)))
        pins += len(window)
        i += len(window)
        lo = interval_low(window[0])
        reloads += window_start - lo
        resident = set(window)
        if lo < window_start:
            # The last re-read stays in the streaming frame.
            resident.add(window_start - 1)
    return gallop, pins, reloads, phases


class TestFigure4WindowModel:
    @pytest.mark.parametrize("buffer_units,seed", [(3, 1), (4, 2), (6, 3)])
    def test_crabstep_counts_match_model(self, buffer_units, seed):
        pts = generate_workload("clusters", 400, 3, 0.25,
                                seed=seed).points
        reg, _ctx, sched, stats = run_schedule(pts, 0.25, 1024,
                                               buffer_units)
        # The model consumes the same boundary metadata the scheduler
        # recorded, but replays the schedule independently.
        metas = [sched.units.meta[k] for k in range(sched.num_units)]
        gallop, pins, reloads, phases = figure4_model(metas, buffer_units)
        assert stats.crabstep_phases > 0
        assert reads(reg, "gallop") == gallop
        assert reads(reg, "crabstep_pin") == pins
        assert reads(reg, "crabstep_reload") == reloads
        assert reg.get("ego_crabstep_phases_total").value == phases


# -- determinism --------------------------------------------------------------


class TestMetricsDeterminism:
    def test_exports_identical_across_runs_and_workers(self, rng):
        pts = rng.uniform(size=(300, 4))

        def run(workers):
            registry = MetricsRegistry()
            with SimulatedDisk() as disk:
                make_file(disk, pts)
                pf = PointFile.open(disk)
                report = ego_self_join_file(
                    pf, 0.1, unit_bytes=4096, buffer_units=4,
                    workers=workers, metrics=registry)
            return registry.to_prometheus_text(), report.result.count

        serial_a, count_a = run(1)
        serial_b, count_b = run(1)
        parallel, count_p = run(3)
        assert serial_a == serial_b
        assert serial_a == parallel
        assert count_a == count_b == count_p

    def test_worker_metrics_reach_the_parent(self, rng):
        pts = rng.uniform(size=(300, 4))
        registry = MetricsRegistry()
        with SimulatedDisk() as disk:
            make_file(disk, pts)
            pf = PointFile.open(disk)
            report = ego_self_join_file(pf, 0.1, unit_bytes=4096,
                                        buffer_units=4, workers=3,
                                        metrics=registry)
        assert report.result.count > 0
        # Sequence-level counters are produced inside the workers and
        # must survive the merge back into the parent registry.
        assert registry.get("ego_seq_pairs_total").value > 0
        # Every result pair was counted by exactly one leaf call.
        assert registry.get("ego_leaf_pairs_total").value \
            == report.result.count


# -- cross-check against the invariant monitor --------------------------------


class TestInvariantCrossCheck:
    @pytest.mark.parametrize("kind,seed", [("boundary", 11),
                                           ("duplicates", 12),
                                           ("degenerate", 13)])
    def test_metrics_agree_with_monitor(self, kind, seed):
        w = generate_workload(kind, 250, 3, 0.1, seed=seed)
        reg, ctx, sched, stats = run_schedule(w.points, w.epsilon,
                                              1024, 4, invariants=True)
        monitor = ctx.monitor
        # Read-once agreement: every gallop read was noted exactly once
        # by the monitor's independent set-based accounting.
        assert reads(reg, "gallop") == len(monitor.gallop_loaded)
        # Every considered-and-joined unit pair is in the monitor's set
        # (run() already passed check_interval_coverage, so the set also
        # covers every pair the ε-interval requires).
        pairs = reg.get("ego_unit_pairs_total")
        assert (pairs.value_of("joined") + pairs.value_of("resumed")
                == len(monitor.joined_unit_pairs))
        # And the instrumented run is still correct.
        truth = brute_truth(w.points, w.epsilon)
        got = {p for p in ctx.result.canonical_pair_set()
               if p[0] != p[1]}
        assert got == truth
