"""Tests for the resilient parallel-join supervisor.

The contract under test: whatever worker faults a seeded
:class:`WorkerFaultPlan` injects — crashes, stalls, corrupted results,
task errors — the supervised parallel join must produce a result
byte-identical to the fault-free serial run, its fault accounting must
be deterministic (no wall-clock), and a run crashed mid-join must
resume to the same result *and* the same cumulative supervisor
decisions as an uninterrupted run.
"""

import json
import os

import numpy as np
import pytest

from repro.core.ego_join import ego_self_join_file
from repro.core.supervisor import (PoolFailureError, SupervisorPolicy,
                                   SupervisorStats, TaskPoisonedError,
                                   backoff_for, replay_stats)
from repro.obs import MetricsRegistry
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (FaultPlan, SimulatedCrash,
                                  WorkerFaultPlan, stable_fraction)
from repro.storage.journal import Journal

from conftest import make_file

pytestmark = pytest.mark.faults

EPSILON = 0.25
UNIT_BYTES = 512
BUFFER_UNITS = 4

#: Fast test policy: no real backoff sleeps, tight hang deadline.
FAST = dict(task_timeout=1.0, max_task_retries=2, degrade=True,
            real_sleep=False)


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(7).random((300, 4))


def run_join(pts, **kwargs):
    with SimulatedDisk() as disk:
        pf = make_file(disk, pts)
        return ego_self_join_file(pf, EPSILON, unit_bytes=UNIT_BYTES,
                                  buffer_units=BUFFER_UNITS, **kwargs)


@pytest.fixture(scope="module")
def skewed_dataset():
    # One heavy cluster over a sparse background: the skew the shard
    # planner balances.
    rng = np.random.default_rng(11)
    heavy = 0.5 + rng.normal(0.0, 0.1, size=(240, 4))
    return np.clip(np.concatenate([heavy, rng.random((60, 4))]), 0.0, 1.0)


@pytest.fixture(scope="module")
def baseline(dataset, tmp_path_factory):
    ck = tmp_path_factory.mktemp("supervisor-baseline")
    report = run_join(dataset, checkpoint_dir=str(ck))
    with open(os.path.join(str(ck), "result.prs"), "rb") as fh:
        result_bytes = fh.read()
    return {"pairs": report.result.canonical_pair_set(),
            "count": report.total_pairs, "bytes": result_bytes}


class TestWorkerFaultPlan:
    def test_stable_fraction_is_pure_and_bounded(self):
        values = {stable_fraction(3, "crash", 1, 2) for _ in range(5)}
        assert len(values) == 1
        assert all(0.0 <= stable_fraction(s, "x", s) < 1.0
                   for s in range(50))

    def test_explicit_pairs_are_order_normalised(self):
        plan = WorkerFaultPlan(error_pairs=[(5, 2)])
        assert plan.decide((2, 5), 0) == "error"
        assert plan.decide((5, 2), 0) == "error"
        assert plan.decide((2, 2), 0) is None

    def test_precedence_crash_over_error(self):
        plan = WorkerFaultPlan(crash_pairs=[(1, 1)], error_pairs=[(1, 1)])
        assert plan.decide((1, 1), 0) == "crash"

    def test_max_attempt_bounds_faults(self):
        plan = WorkerFaultPlan(error_pairs=[(1, 1)], max_attempt=1)
        assert plan.decide((1, 1), 0) == "error"
        assert plan.decide((1, 1), 1) == "error"
        assert plan.decide((1, 1), 2) is None
        permanent = WorkerFaultPlan(error_pairs=[(1, 1)], max_attempt=None)
        assert permanent.decide((1, 1), 99) == "error"

    def test_rate_decisions_deterministic(self):
        plan = WorkerFaultPlan(seed=5, error_rate=0.3)
        again = WorkerFaultPlan(seed=5, error_rate=0.3)
        keys = [(a, a) for a in range(40)]
        decisions = [plan.decide(k, 0) for k in keys]
        assert decisions == [again.decide(k, 0) for k in keys]
        assert "error" in decisions and None in decisions

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            WorkerFaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError, match="stall_seconds"):
            WorkerFaultPlan(stall_seconds=0.0)

    def test_any_faults(self):
        assert not WorkerFaultPlan().any_faults
        assert WorkerFaultPlan(crash_pairs=[(0, 0)]).any_faults
        assert WorkerFaultPlan(error_rate=0.1).any_faults


class TestPolicyAndStats:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="task_timeout"):
            SupervisorPolicy(task_timeout=0.0)
        with pytest.raises(ValueError, match="max_task_retries"):
            SupervisorPolicy(max_task_retries=-1)

    def test_backoff_is_deterministic_and_grows(self):
        key = (3, 7)
        assert backoff_for(key, 1) == backoff_for(key, 1)
        # The exponential base dominates the bounded jitter: attempt k+2
        # always exceeds attempt k (factor 4 vs jitter range [0.5, 1.5)).
        assert backoff_for(key, 3) > backoff_for(key, 1)
        # Journaled backoff totals depend on these exact values.
        assert backoff_for(key, 1) == 0.05847258955473081
        assert backoff_for(key, 3) == 0.1542459533084184

    def test_replay_stats_reconstructs_counters(self):
        events = [("error", 1, 1, 1), ("crash", 2, 2, 1),
                  ("pool_recycle", 2, 2, 1), ("timeout", 3, 3, 1),
                  ("corrupt", 4, 4, 1), ("quarantine", 1, 1, 3),
                  ("degrade", 2, 2, 1), ("inline", 5, 5, 0)]
        stats = replay_stats(events)
        assert stats.retries == 4
        assert stats.task_errors == 1
        assert stats.crashes_detected == 1
        assert stats.timeouts == 1
        assert stats.corrupt_results == 1
        assert stats.pool_recycles == 1
        assert stats.quarantined == 1
        assert stats.inline_tasks == 1
        assert stats.degraded
        assert stats.backoff_simulated_s == 0.20886756565887482

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown supervisor event"):
            SupervisorStats().apply_event("nope", (0, 0), 1)


class TestFaultRecovery:
    """Every injected fault kind must be absorbed without changing the
    result — the pair set always equals the fault-free serial run's."""

    @pytest.mark.parametrize("plan_kwargs", [
        {"error_pairs": [(2, 2)]},
        {"corrupt_pairs": [(4, 4)]},
        {"crash_pairs": [(6, 6)]},
        {"error_rate": 0.2},
    ], ids=["error", "corrupt", "crash", "error-rate"])
    def test_single_kind_recovered(self, dataset, baseline, plan_kwargs):
        plan = WorkerFaultPlan(seed=3, **plan_kwargs)
        report = run_join(dataset, workers=2, worker_fault_plan=plan,
                          supervisor_policy=SupervisorPolicy(**FAST))
        assert report.result.canonical_pair_set() == baseline["pairs"]
        assert report.supervisor.retries > 0
        assert not report.supervisor.degraded
        assert report.worker_faults.total > 0

    def test_stalled_worker_detected_by_deadline(self, dataset, baseline):
        plan = WorkerFaultPlan(seed=3, stall_pairs=[(1, 1)],
                               stall_seconds=8.0)
        report = run_join(dataset, workers=2, worker_fault_plan=plan,
                          supervisor_policy=SupervisorPolicy(**FAST))
        assert report.result.canonical_pair_set() == baseline["pairs"]
        assert report.supervisor.timeouts == 1
        assert report.supervisor.pool_recycles >= 1
        assert report.worker_faults.stalls == 1

    def test_progressing_shard_outlives_deadline(self, dataset, baseline):
        # Every unit pair sleeps 30 ms: each finishes well inside the
        # deadline, but a shard of dozens of them runs far longer than
        # it.  The deadline means "no unit pair finished for this long",
        # so a slow but progressing worker is never declared hung.
        timeout, pause = 0.5, 0.03
        plan = WorkerFaultPlan(seed=3, stall_rate=1.0, stall_seconds=pause)
        report = run_join(dataset, workers=2, worker_fault_plan=plan,
                          supervisor_policy=SupervisorPolicy(
                              **dict(FAST, task_timeout=timeout)))
        assert report.result.canonical_pair_set() == baseline["pairs"]
        # Two shards, so each ran for about half the pauses.
        assert report.schedule_stats.unit_pairs_joined * pause / 2 \
            > 2 * timeout
        assert report.supervisor.timeouts == 0
        assert report.supervisor.pool_recycles == 0
        assert report.worker_faults.total == 0

    def test_all_kinds_mixed(self, dataset, baseline):
        plan = WorkerFaultPlan(seed=3, error_pairs=[(2, 2)],
                               corrupt_pairs=[(4, 4)],
                               crash_pairs=[(6, 6)],
                               stall_pairs=[(1, 1)], stall_seconds=8.0)
        report = run_join(dataset, workers=3, worker_fault_plan=plan,
                          supervisor_policy=SupervisorPolicy(**FAST))
        assert report.result.canonical_pair_set() == baseline["pairs"]
        sup = report.supervisor
        assert (sup.task_errors, sup.corrupt_results, sup.crashes_detected,
                sup.timeouts) == (1, 1, 1, 1)
        assert sup.backoff_simulated_s > 0.0

    def test_fault_accounting_is_deterministic(self, dataset):
        plan_kwargs = dict(seed=3, error_rate=0.15, corrupt_pairs=[(4, 4)])
        runs = [run_join(dataset, workers=2,
                         worker_fault_plan=WorkerFaultPlan(**plan_kwargs),
                         supervisor_policy=SupervisorPolicy(**FAST))
                for _ in range(2)]
        assert runs[0].supervisor == runs[1].supervisor

    def test_quarantined_task_recovered_inline(self, dataset, baseline):
        # The fault keeps firing through every pool retry but not in the
        # parent: an environment fault the quarantine must clear.
        plan = WorkerFaultPlan(seed=3, crash_pairs=[(2, 2)],
                               max_attempt=2)
        report = run_join(dataset, workers=2, worker_fault_plan=plan,
                          supervisor_policy=SupervisorPolicy(**FAST))
        assert report.result.canonical_pair_set() == baseline["pairs"]
        assert report.supervisor.quarantined == 1
        assert not report.supervisor.degraded

    def test_poisoned_task_aborts_the_run(self, dataset):
        # A permanent error reproduces in the inline quarantine retry:
        # that is a task bug, not an environment fault, and must abort.
        plan = WorkerFaultPlan(seed=3, error_pairs=[(2, 2)],
                               max_attempt=None)
        with pytest.raises(TaskPoisonedError, match=r"\(2, 2\)"):
            run_join(dataset, workers=2, worker_fault_plan=plan,
                     supervisor_policy=SupervisorPolicy(**FAST))


class TestDegradation:
    def test_repeated_pool_failure_degrades_to_serial(self, dataset,
                                                      baseline):
        plan = WorkerFaultPlan(seed=5, max_attempt=None,
                               crash_pairs=[(1, 1), (3, 3), (5, 5),
                                            (7, 7)])
        policy = SupervisorPolicy(max_task_retries=3, max_pool_recycles=2,
                                  degrade=True, real_sleep=False)
        report = run_join(dataset, workers=2, worker_fault_plan=plan,
                          supervisor_policy=policy)
        assert report.result.canonical_pair_set() == baseline["pairs"]
        assert report.supervisor.degraded
        assert report.supervisor.inline_tasks > 0

    def test_degradation_disabled_raises(self, dataset):
        plan = WorkerFaultPlan(seed=5, crash_pairs=[(1, 1)],
                               max_attempt=None)
        policy = SupervisorPolicy(max_task_retries=10, max_pool_recycles=1,
                                  degrade=False, real_sleep=False)
        with pytest.raises(PoolFailureError, match="degradation"):
            run_join(dataset, workers=2, worker_fault_plan=plan,
                     supervisor_policy=policy)


class TestCrashResumeUnderWorkerFaults:
    """The ISSUE's headline scenario: a seeded plan that kills one
    worker and stalls another, plus a mid-run crash — the resumed run
    must reproduce the fault-free bytes and the uninterrupted run's
    supervisor decisions."""

    PLAN_KWARGS = dict(seed=5, crash_pairs=[(8, 8)],
                       stall_pairs=[(3, 3)], stall_seconds=8.0,
                       error_pairs=[(2, 2)], corrupt_pairs=[(5, 5)])

    def faulted(self, dataset, ck, **kwargs):
        return run_join(dataset, checkpoint_dir=ck, workers=3,
                        worker_fault_plan=WorkerFaultPlan(
                            **self.PLAN_KWARGS),
                        supervisor_policy=SupervisorPolicy(**FAST),
                        **kwargs)

    def test_resume_reproduces_bytes_and_decisions(self, dataset,
                                                   baseline, tmp_path):
        uninterrupted = self.faulted(dataset, str(tmp_path / "full"))
        assert uninterrupted.supervisor.crashes_detected >= 1
        assert uninterrupted.supervisor.timeouts >= 1

        ck = str(tmp_path / "ck")
        crash = FaultPlan(seed=1, crash_ops=[60])
        with pytest.raises(SimulatedCrash):
            self.faulted(dataset, ck, fault_plan=crash)
        resumed = self.faulted(dataset, ck,
                               fault_plan=crash.without_crashes(),
                               resume=True)
        assert resumed.resumed
        with open(os.path.join(ck, "result.prs"), "rb") as fh:
            assert fh.read() == baseline["bytes"]
        # Identical cumulative supervisor decisions: the journal replay
        # plus the re-fired faults equal the uninterrupted run exactly.
        assert resumed.supervisor == uninterrupted.supervisor
        with open(os.path.join(ck, "journal.json")) as fh:
            got_events = json.load(fh).get("supervisor_events", [])
        full = str(tmp_path / "full")
        with open(os.path.join(full, "journal.json")) as fh:
            full_events = json.load(fh).get("supervisor_events", [])
        assert sorted(map(tuple, got_events)) \
            == sorted(map(tuple, full_events))

    def test_resume_of_completed_run_reports_ledger(self, dataset,
                                                    tmp_path):
        ck = str(tmp_path / "ck")
        first = self.faulted(dataset, ck)
        again = self.faulted(dataset, ck, resume=True)
        assert again.resumed
        assert again.total_pairs == first.total_pairs
        assert again.supervisor == first.supervisor


class TestJournalSupervisorEvents:
    def test_record_and_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.json")
        journal = Journal(path)
        journal.record_supervisor_event("error", 2, 2, 1)
        journal.record_unit_pair(2, 2, 10)
        journal.record_supervisor_event("crash", 8, 8, 1)  # pair undone
        reloaded = Journal(path)
        kept = reloaded.replay_supervisor_events()
        assert kept == [("error", 2, 2, 1)]
        # The orphaned event was pruned durably.
        assert Journal(path).supervisor_events() == [("error", 2, 2, 1)]


class TestObservability:
    def run_with_metrics(self, dataset, **kwargs):
        registry = MetricsRegistry()
        run_join(dataset, metrics=registry, **kwargs)
        return registry.to_prometheus_text()

    def test_no_supervisor_metrics_without_faults(self, dataset,
                                                  skewed_dataset):
        for points in (dataset, skewed_dataset):
            serial = self.run_with_metrics(points)
            supervised = self.run_with_metrics(
                points, workers=2,
                supervisor_policy=SupervisorPolicy(**FAST))
            assert "supervisor" not in supervised
            assert serial == supervised  # byte-identical dumps

    def test_supervisor_metrics_present_under_faults(self, dataset):
        dump = self.run_with_metrics(
            dataset, workers=2,
            worker_fault_plan=WorkerFaultPlan(seed=3,
                                              error_pairs=[(2, 2)]),
            supervisor_policy=SupervisorPolicy(**FAST))
        assert 'ego_supervisor_events_total{event="error"} 1' in dump
        assert "ego_supervisor_backoff_simulated_seconds" in dump
        # Policy gate: deterministic metrics only, no wall-clock.
        assert "wall" not in dump

    def test_faulted_metrics_dump_is_deterministic(self, dataset):
        dumps = [self.run_with_metrics(
            dataset, workers=2,
            worker_fault_plan=WorkerFaultPlan(seed=3, error_rate=0.15),
            supervisor_policy=SupervisorPolicy(**FAST))
            for _ in range(2)]
        assert dumps[0] == dumps[1]


class TestJoinerLifecycle:
    def test_joiners_are_context_managers(self, dataset):
        from repro.core.parallel import SerialUnitJoiner
        from repro.core.result import JoinResult
        from repro.core.sequence_join import JoinContext
        from repro.core.supervisor import SupervisedUnitJoiner
        from repro.core.units import SortedUnits
        ctx = JoinContext(epsilon=EPSILON, result=JoinResult())
        with SerialUnitJoiner(ctx) as joiner:
            joiner.drain()
        with SimulatedDisk() as disk:
            pf = make_file(disk, dataset)
            with SupervisedUnitJoiner(
                    ctx, 2, SortedUnits(pf, 4096, EPSILON), 2) as joiner:
                joiner.drain()

    def test_pool_released_when_schedule_crashes(self, dataset, tmp_path):
        # A storage crash mid-schedule must tear the pool down (the
        # with-block in ego_self_join_file) and still propagate.
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=str(tmp_path / "ck"),
                     workers=2, fault_plan=FaultPlan(seed=1,
                                                     crash_ops=[60]),
                     supervisor_policy=SupervisorPolicy(**FAST))
