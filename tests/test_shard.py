"""Tests for shard planning (repro.core.shard) and the sharded executor.

Covers the shard planner on adversarial skew, byte-identity of the
parallel pipeline (whose tasks are shards) against the serial run across
worker counts and input disk kinds, crash/resume across execution
modes, worker-fault injection inside shards, and the run-scoped
pressure-gauge regression.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.core.ego_join import ego_self_join_file
from repro.core.result import JoinResult
from repro.core.sequence import Sequence
from repro.core.sequence_join import JoinContext
from repro.core.shard import (OVERSIZE_FACTOR, UnitPairEvent, event_cost,
                              plan_shards)
from repro.core.supervisor import (PoolFailureError, SupervisedUnitJoiner,
                                   SupervisorPolicy)
from repro.core.units import SortedUnits
from repro.joins.lsh_join import BUCKET_DISKS
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (FaultPlan, SimulatedCrash,
                                  WorkerFaultPlan)
from repro.storage.pagefile import PointFile

from conftest import brute_truth, make_file

EPS = 0.15
GEOMETRY = dict(unit_bytes=2048, buffer_units=4)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    return rng.random((400, 4))


@pytest.fixture(scope="module")
def skewed_dataset():
    # One heavy cluster dominating a sparse background: the workload
    # uniform partitioning is worst at.
    rng = np.random.default_rng(11)
    heavy = 0.5 + rng.normal(0.0, EPS, size=(280, 4))
    background = rng.random((120, 4))
    return np.clip(np.concatenate([heavy, background]), 0.0, 1.0)


def run_join(points, ckdir=None, **kw):
    with SimulatedDisk() as disk:
        pf = make_file(disk, points)
        return ego_self_join_file(pf, EPS, checkpoint_dir=ckdir,
                                  **GEOMETRY, **kw)


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- planner ----------------------------------------------------------------


def chain_events(num_units, span=1):
    """Self pairs plus cross pairs reaching back ``span`` ordinals."""
    events = []
    for b in range(num_units):
        events.append(UnitPairEvent(len(events), b, b))
        for a in range(max(0, b - span), b):
            events.append(UnitPairEvent(len(events), a, b))
    return events


class TestPlanner:
    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(4, [], {}, 0)
        assert plan_shards(0, [], {}, 2) == []

    def test_uniform_equal_unit_counts(self):
        # Uniform data (equal unit costs) degenerates to equal-width
        # shards.
        events = [UnitPairEvent(u, u, u) for u in range(8)]
        records = {u: 10 for u in range(8)}
        specs = plan_shards(8, events, records, 4)
        assert [(s.own_lo, s.own_hi) for s in specs] == \
            [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_shards_clamped_to_units(self):
        specs = plan_shards(3, chain_events(3), {u: 5 for u in range(3)},
                            16)
        assert len(specs) == 3

    def test_every_event_owned_exactly_once(self):
        events = chain_events(10, span=3)
        records = {u: 10 + u for u in range(10)}
        specs = plan_shards(10, events, records, 3)
        seen = [ev.seq for s in specs for ev in s.events]
        assert sorted(seen) == [ev.seq for ev in events]
        for s in specs:
            for ev in s.events:
                assert s.own_lo <= ev.b < s.own_hi

    def test_adaptive_beats_uniform_on_heavy_cluster(self):
        # One unit holds 100x the records of the rest: an equal-width
        # split puts the whole heavy cell in one shard, the planner
        # isolates it.
        num_units = 8
        records = {u: 10 for u in range(num_units)}
        records[5] = 1000
        events = chain_events(num_units)

        def cost(lo, hi):
            return sum(event_cost(ev, records) for ev in events
                       if lo <= ev.b < hi)

        adaptive = plan_shards(num_units, events, records, 2)
        assert max(s.cost for s in adaptive) < max(cost(0, 4), cost(4, 8))

    def test_adaptive_resplit_bounded(self):
        # Re-splitting must never exceed 2x the requested shard count.
        num_units = 32
        records = {u: (1000 if u % 5 == 0 else 1) for u in range(num_units)}
        events = chain_events(num_units, span=2)
        specs = plan_shards(num_units, events, records, 4)
        assert len(specs) <= 8
        # Contiguous, gap-free coverage of the ordinal range.
        assert specs[0].own_lo == 0 and specs[-1].own_hi == num_units
        for left, right in zip(specs, specs[1:]):
            assert left.own_hi == right.own_lo

    def test_adaptive_duplicate_record_counts(self):
        # All-equal counts (duplicates everywhere) degenerate to a
        # near-uniform plan without loops or zero-width shards.
        records = {u: 50 for u in range(12)}
        specs = plan_shards(12, chain_events(12), records, 4)
        assert all(s.own_hi > s.own_lo for s in specs)
        total = sum(s.cost for s in specs)
        assert max(s.cost for s in specs) <= OVERSIZE_FACTOR * total / 4 \
            + max(event_cost(ev, records) for ev in chain_events(12))

    def test_event_cost_model(self):
        records = {0: 10, 1: 20}
        assert event_cost(UnitPairEvent(0, 0, 1), records) == 200
        assert event_cost(UnitPairEvent(0, 0, 0), records) == 45
        assert event_cost(UnitPairEvent(0, 2, 2), records) == 0

    def test_planning_joiner_records_submission_order(self):
        # The executor records the schedule's submissions as events; it
        # joins nothing until the schedule drains.
        ctx = JoinContext(epsilon=EPS, result=JoinResult())
        ids, pts = np.arange(2), np.zeros((2, 4))
        seq, other = Sequence(ids, pts, EPS), Sequence(ids, pts, EPS)
        with SimulatedDisk() as disk, SupervisedUnitJoiner(
                ctx, 2, SortedUnits(make_file(disk, pts), 4096, EPS),
                2) as joiner:
            joiner.submit(seq, seq, key=(3, 3))
            joiner.submit(seq, other, key=(2, 5))
            assert [(ev.seq, ev.a, ev.b) for ev in joiner.events] == \
                [(0, 3, 3), (1, 2, 5)]
        assert ctx.result.count == 0


# -- sharded pipeline byte-identity -----------------------------------------


class TestShardedIdentity:
    @pytest.fixture(scope="class")
    def serial(self, dataset):
        return run_join(dataset)

    @pytest.mark.parametrize("backend", ["simulated", "file", "memory"])
    def test_input_backends(self, dataset, serial, backend):
        # The input may live on any disk kind; the sorted file workers
        # read is the pipeline's own.
        disk = BUCKET_DISKS[backend]()
        try:
            pf = make_file(disk, dataset)
            rep = ego_self_join_file(pf, EPS, workers=2, **GEOMETRY)
        finally:
            disk.close()
        sa, sb = serial.result.pairs()
        pa, pb = rep.result.pairs()
        assert np.array_equal(pa, sa) and np.array_equal(pb, sb)
        assert rep.schedule_stats == serial.schedule_stats
        assert rep.cpu == serial.cpu

    @pytest.mark.parametrize("workers", [1, 4])
    def test_shard_counts(self, dataset, serial, workers):
        rep = run_join(dataset, workers=workers)
        sa, sb = serial.result.pairs()
        pa, pb = rep.result.pairs()
        assert np.array_equal(pa, sa) and np.array_equal(pb, sb)
        assert rep.io == serial.io

    def test_matches_brute_force(self, skewed_dataset):
        rep = run_join(skewed_dataset, workers=3)
        assert rep.result.canonical_pair_set() == \
            brute_truth(skewed_dataset, EPS)

    def test_checkpointed_bytes_identical(self, dataset, tmp_path):
        d1, d2 = str(tmp_path / "serial"), str(tmp_path / "sharded")
        run_join(dataset, ckdir=d1)
        rep = run_join(dataset, ckdir=d2, workers=3)
        assert file_digest(os.path.join(d1, "result.prs")) == \
            file_digest(os.path.join(d2, "result.prs"))
        assert file_digest(os.path.join(d1, "journal.json")) == \
            file_digest(os.path.join(d2, "journal.json"))
        assert rep.total_pairs is not None

    def test_shard_stats_surface(self, skewed_dataset):
        # Shards leave no accounting of their own: the report carries
        # the per-unit-pair supervisor ledger, clean on a fault-free run.
        from repro.analysis.reporting import robustness_summary
        rep = run_join(skewed_dataset, workers=2)
        rows = {r["metric"]: r["value"] for r in robustness_summary(rep)}
        assert rows["tasks retried"] == 0
        assert rows["degraded to serial"] is False
        assert rows["total result pairs"] == rep.result.count

    def test_shard_metrics_registered(self, skewed_dataset):
        # Shards are transport only: no per-shard metric is registered,
        # and the parallel dump is the serial one.
        from repro.obs.metrics import MetricsRegistry
        dumps = []
        for workers in (1, 2):
            registry = MetricsRegistry()
            run_join(skewed_dataset, workers=workers, metrics=registry)
            dumps.append(registry.to_prometheus_text())
        assert "shard" not in dumps[1]
        assert dumps[0] == dumps[1]

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            run_join(dataset, workers=0)


# -- crash / resume ---------------------------------------------------------


class TestShardCrashResume:
    def crash_then_resume(self, dataset, tmp_path, crash_kw, resume_kw):
        ref_dir = str(tmp_path / "ref")
        run_join(dataset, ckdir=ref_dir)
        crash_dir = str(tmp_path / "crash")
        fired = False
        for op in (21, 24, 28, 33):
            try:
                run_join(dataset, ckdir=crash_dir,
                         fault_plan=FaultPlan(seed=1, crash_ops=(op,)),
                         **crash_kw)
            except SimulatedCrash:
                fired = True
                break
        assert fired, "no scheduled crash landed inside the run"
        rep = run_join(dataset, ckdir=crash_dir, resume=True, **resume_kw)
        assert file_digest(os.path.join(ref_dir, "result.prs")) == \
            file_digest(os.path.join(crash_dir, "result.prs"))
        return rep

    def test_sharded_crash_sharded_resume(self, dataset, tmp_path):
        rep = self.crash_then_resume(dataset, tmp_path,
                                     dict(workers=2), dict(workers=3))
        assert rep.resumed

    def test_serial_crash_sharded_resume(self, dataset, tmp_path):
        # A journal written by the serial join must be consumable by a
        # parallel resume: completed pairs are excluded from the plan.
        rep = self.crash_then_resume(dataset, tmp_path,
                                     {}, dict(workers=2))
        assert rep.resumed
        assert rep.schedule_stats.pairs_resumed > 0

    def test_sharded_crash_serial_resume(self, dataset, tmp_path):
        rep = self.crash_then_resume(dataset, tmp_path,
                                     dict(workers=3), {})
        assert rep.resumed


# -- worker faults inside shards --------------------------------------------


FAST = SupervisorPolicy(task_timeout=None, max_task_retries=2,
                        degrade=True, real_sleep=False)


class TestShardFaults:
    @pytest.mark.parametrize("kw, logged", [
        (dict(error_rate=1.0, max_attempt=0), "task_errors"),
        (dict(corrupt_rate=1.0, max_attempt=0), "corrupted_results"),
        (dict(crash_rate=0.3, max_attempt=0), "crashes"),
    ])
    def test_first_attempt_faults_retried(self, dataset, kw, logged):
        serial = run_join(dataset)
        plan = WorkerFaultPlan(seed=5, **kw)
        rep = run_join(dataset, workers=2, worker_fault_plan=plan,
                       supervisor_policy=FAST)
        sa, sb = serial.result.pairs()
        pa, pb = rep.result.pairs()
        assert np.array_equal(pa, sa) and np.array_equal(pb, sb)
        assert rep.supervisor.retries > 0
        assert getattr(rep.worker_faults, logged) > 0
        assert not rep.supervisor.degraded

    def test_one_recycle_absorbs_first_attempt_crashes(self, dataset):
        # Crash blame covers every pending pair, queued or running, that
        # the plan crashes on its first attempt, so the ledger is the
        # same for any worker count and one pool failure pays for all.
        stats = []
        for workers in (2, 3):
            plan = WorkerFaultPlan(seed=5, crash_rate=0.3, max_attempt=0)
            stats.append(run_join(dataset, workers=workers,
                                  worker_fault_plan=plan,
                                  supervisor_policy=FAST).supervisor)
        assert stats[0] == stats[1]
        assert stats[0].pool_recycles == 1
        assert stats[0].crashes_detected > 1

    def test_stall_triggers_timeout_recycle(self, dataset):
        serial = run_join(dataset)
        plan = WorkerFaultPlan(seed=5, stall_rate=1.0, stall_seconds=15.0,
                               max_attempt=0)
        policy = SupervisorPolicy(task_timeout=1.0, max_task_retries=2,
                                  degrade=True, real_sleep=False)
        rep = run_join(dataset, workers=2, worker_fault_plan=plan,
                       supervisor_policy=policy)
        sa, _ = serial.result.pairs()
        pa, _ = rep.result.pairs()
        assert np.array_equal(pa, sa)
        assert rep.worker_faults.stalls > 0
        assert rep.supervisor.timeouts == rep.worker_faults.stalls

    def test_permanent_fault_degrades_inline(self, dataset):
        # Permanent crashes are environment faults: once the pool has
        # failed too often, every remaining pair runs inline.
        serial = run_join(dataset)
        plan = WorkerFaultPlan(seed=5, crash_rate=1.0, max_attempt=None)
        policy = SupervisorPolicy(task_timeout=None, max_task_retries=2,
                                  max_pool_recycles=1, degrade=True,
                                  real_sleep=False)
        rep = run_join(dataset, workers=2, worker_fault_plan=plan,
                       supervisor_policy=policy)
        sa, _ = serial.result.pairs()
        pa, _ = rep.result.pairs()
        assert np.array_equal(pa, sa)
        assert rep.supervisor.degraded
        assert rep.supervisor.inline_tasks == \
            rep.schedule_stats.unit_pairs_joined

    def test_no_degrade_raises(self, dataset):
        plan = WorkerFaultPlan(seed=5, crash_rate=1.0, max_attempt=None)
        policy = SupervisorPolicy(max_task_retries=3, max_pool_recycles=1,
                                  degrade=False, real_sleep=False)
        with pytest.raises(PoolFailureError):
            run_join(dataset, workers=2, worker_fault_plan=plan,
                     supervisor_policy=policy)


# -- run-scoped pressure gauge ----------------------------------------------


class TestPressureScope:
    def test_back_to_back_runs_rescope_pressure(self, dataset):
        # One fault plan reused across consecutive runs: the pressure
        # window is defined in run-relative operation indices, so the
        # second run must react exactly like the first instead of
        # sliding out of (or staying stuck inside) the window as the
        # plan's global op counter advances.
        def run_twice(**kw):
            plan = FaultPlan(seed=5, pressure_ranges=[(5, 60)])
            with SimulatedDisk() as disk:
                pf = make_file(disk, dataset)
                first = ego_self_join_file(pf, EPS, fault_plan=plan,
                                           **GEOMETRY, **kw)
                second = ego_self_join_file(pf, EPS, fault_plan=plan,
                                            **GEOMETRY, **kw)
            return first, second

        first, second = run_twice()
        assert first.schedule_stats.pressure_shrinks > 0
        assert second.schedule_stats.pressure_shrinks == \
            first.schedule_stats.pressure_shrinks
        s1, s2 = run_twice(workers=2)
        assert s2.schedule_stats.pressure_shrinks == \
            s1.schedule_stats.pressure_shrinks
        assert s1.schedule_stats.pressure_shrinks == \
            first.schedule_stats.pressure_shrinks

    def test_pressure_scope_rebase(self):
        plan = FaultPlan(seed=0, pressure_ranges=[(0, 3)])
        assert plan.under_pressure()
        plan._op = 10
        assert not plan.under_pressure()
        plan.begin_pressure_scope()
        assert plan.under_pressure()


# -- verify-layer registration ----------------------------------------------


class TestVerifyIntegration:
    def test_oracle_sharded_mode(self, skewed_dataset):
        # The oracle's parallel external mode runs shard tasks.
        from repro.verify.oracle import run_impl
        pts = skewed_dataset[:150]
        expected = run_impl("brute", pts, EPS)
        observed = run_impl("ego_external", pts, EPS, workers=2)
        assert np.array_equal(observed, expected)

    def test_skewed_workload_registered(self):
        from repro.verify.workloads import WORKLOAD_KINDS, generate_workload
        assert "skewed" in WORKLOAD_KINDS
        w1 = generate_workload("skewed", 200, 4, EPS, seed=3)
        w2 = generate_workload("skewed", 200, 4, EPS, seed=3)
        assert np.array_equal(w1.points, w2.points)
        assert w1.points.shape == (200, 4)
        assert w1.points.min() >= 0.0 and w1.points.max() <= 1.0
        # The heavy cluster concentrates most points in a tight ball.
        center = np.median(w1.points, axis=0)
        dist = np.linalg.norm(w1.points - center, axis=1)
        assert np.mean(dist < 4 * EPS) > 0.6
