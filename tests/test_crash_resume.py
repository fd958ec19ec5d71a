"""Crash/resume tests: kill the external join at scheduled crash points
and assert the resumed run reproduces the uninterrupted result exactly.
"""

import os

import numpy as np
import pytest

from repro.core.ego_join import ego_key_function, ego_self_join_file
from repro.sorting.external_sort import external_sort
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultyDisk, SimulatedCrash
from repro.storage.integrity import RetryPolicy
from repro.storage.journal import Journal
from repro.storage.pairfile import PairFile

from conftest import make_file

pytestmark = pytest.mark.faults

EPSILON = 0.25
UNIT_BYTES = 512
BUFFER_UNITS = 4


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(42).random((400, 4))


def run_join(pts, **kwargs):
    with SimulatedDisk() as disk:
        pf = make_file(disk, pts)
        return ego_self_join_file(pf, EPSILON, unit_bytes=UNIT_BYTES,
                                  buffer_units=BUFFER_UNITS, **kwargs)


@pytest.fixture(scope="module")
def baseline(dataset, tmp_path_factory):
    """Uninterrupted checkpointed run: pair set + durable result bytes."""
    ck = tmp_path_factory.mktemp("baseline-ck")
    report = run_join(dataset, checkpoint_dir=str(ck))
    with open(os.path.join(str(ck), "result.prs"), "rb") as fh:
        result_bytes = fh.read()
    return {"pairs": report.result.canonical_pair_set(),
            "count": report.total_pairs,
            "bytes": result_bytes}


# Crash points spread over the pipeline phases: run generation, merge,
# early join, mid join, late join.  Points beyond the run's operation
# count are skipped (xfail-free) via the did-it-crash check below.
CRASH_OPS = [1, 5, 15, 40, 80, 150, 250, 400]


class TestCrashResume:
    @pytest.mark.parametrize("crash_op", CRASH_OPS)
    def test_resume_reproduces_baseline_exactly(self, dataset, baseline,
                                                tmp_path, crash_op):
        ck = str(tmp_path / "ck")
        plan = FaultPlan(seed=1, crash_ops=[crash_op])
        try:
            run_join(dataset, checkpoint_dir=ck, fault_plan=plan)
            pytest.skip(f"pipeline finished before operation {crash_op}")
        except SimulatedCrash:
            pass

        report = run_join(dataset, checkpoint_dir=ck, resume=True,
                          fault_plan=plan.without_crashes())
        assert report.resumed
        assert report.total_pairs == baseline["count"]
        with open(os.path.join(ck, "result.prs"), "rb") as fh:
            assert fh.read() == baseline["bytes"]

    def test_resumed_pair_set_matches_uninterrupted(self, dataset,
                                                    baseline, tmp_path):
        ck = str(tmp_path / "ck")
        plan = FaultPlan(seed=1, crash_ops=[150])
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck, fault_plan=plan)
        run_join(dataset, checkpoint_dir=ck, resume=True)
        with SimulatedDisk(path=os.path.join(ck, "result.prs")) as disk:
            a, b, _ = PairFile.open(disk).read_all()
        got = {(min(x, y), max(x, y))
               for x, y in zip(a.tolist(), b.tolist())}
        assert got == baseline["pairs"]

    def test_double_crash_then_resume(self, dataset, baseline, tmp_path):
        # Crash the fresh run, crash the first resume, then finish.
        ck = str(tmp_path / "ck")
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck,
                     fault_plan=FaultPlan(crash_ops=[30]))
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck, resume=True,
                     fault_plan=FaultPlan(crash_ops=[40]))
        report = run_join(dataset, checkpoint_dir=ck, resume=True)
        assert report.total_pairs == baseline["count"]
        with open(os.path.join(ck, "result.prs"), "rb") as fh:
            assert fh.read() == baseline["bytes"]

    def test_crash_with_background_faults_and_retries(self, dataset,
                                                      baseline, tmp_path):
        # Crash amid transient errors; the resumed run keeps the same
        # error rates (minus the crash) and still reproduces the result.
        ck = str(tmp_path / "ck")
        plan = FaultPlan(seed=6, read_error_rate=0.02, crash_ops=[120])
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck, fault_plan=plan,
                     retry=RetryPolicy())
        report = run_join(dataset, checkpoint_dir=ck, resume=True,
                          fault_plan=plan.without_crashes(),
                          retry=RetryPolicy())
        assert report.total_pairs == baseline["count"]
        with open(os.path.join(ck, "result.prs"), "rb") as fh:
            assert fh.read() == baseline["bytes"]

    def test_resume_of_completed_run_is_a_noop(self, dataset, baseline,
                                               tmp_path):
        ck = str(tmp_path / "ck")
        run_join(dataset, checkpoint_dir=ck)
        report = run_join(dataset, checkpoint_dir=ck, resume=True)
        assert report.resumed
        assert report.total_pairs == baseline["count"]
        assert report.io.total_accesses == 0  # nothing was re-done
        with open(os.path.join(ck, "result.prs"), "rb") as fh:
            assert fh.read() == baseline["bytes"]

    def test_resume_requires_checkpoint_dir(self, dataset):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_join(dataset, resume=True)

    def test_fresh_run_resets_stale_journal(self, dataset, baseline,
                                            tmp_path):
        ck = str(tmp_path / "ck")
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck,
                     fault_plan=FaultPlan(crash_ops=[60]))
        # resume=False starts over, ignoring the journal.
        report = run_join(dataset, checkpoint_dir=ck)
        assert not report.resumed
        assert report.total_pairs == baseline["count"]


class TestResumeConfiguration:
    """The journal records the configuration a run started with; resuming
    at any other configuration is refused instead of mixing the recorded
    progress of one join into the result of another."""

    @pytest.fixture(scope="class")
    def points(self):
        from repro.data.synthetic import uniform
        return uniform(3000, 4, seed=0)

    @staticmethod
    def join(points, epsilon, ck, buffer_units=6, unit_bytes=4096,
             **kwargs):
        with SimulatedDisk() as disk:
            pf = make_file(disk, points)
            return ego_self_join_file(pf, epsilon, unit_bytes=unit_bytes,
                                      buffer_units=buffer_units,
                                      checkpoint_dir=ck, **kwargs)

    @staticmethod
    def truth(points, epsilon):
        from repro.joins.brute import brute_force_self_join
        return brute_force_self_join(points, epsilon, chunk=256).count

    def crash(self, points, ck):
        with pytest.raises(SimulatedCrash):
            self.join(points, 0.05, ck,
                      fault_plan=FaultPlan(seed=0, crash_ops=[30]))

    def test_crashed_run_resumed_at_other_epsilon_refused(self, points,
                                                          tmp_path):
        ck = str(tmp_path / "ck")
        self.crash(points, ck)
        with pytest.raises(ValueError, match="epsilon"):
            self.join(points, 0.10, ck, resume=True)
        # The refusal touched nothing: the original ε still resumes
        # to the exact answer.
        report = self.join(points, 0.05, ck, resume=True)
        assert report.total_pairs == self.truth(points, 0.05)

    def test_completed_run_resumed_at_other_epsilon_refused(self, points,
                                                            tmp_path):
        ck = str(tmp_path / "ck")
        done = self.join(points, 0.05, ck)
        assert done.total_pairs == self.truth(points, 0.05)
        with pytest.raises(ValueError, match="epsilon"):
            self.join(points, 0.10, ck, resume=True)

    @pytest.mark.parametrize("change,key", [
        ({"minlen": 8}, "kernel"), ({"metric": "manhattan"}, "kernel"),
        ({"split_strategy": "boundary"}, "kernel"),
        ({"buffer_units": 5}, "buffer_units"),
        # The sort's memory follows the unit geometry; the journal
        # names it among the differing keys.
        ({"unit_bytes": 2048}, "sort_memory_records")],
        ids=["minlen", "metric", "split_strategy", "buffer_units",
             "sort_memory_records"])
    def test_other_parameters_refused(self, points, tmp_path, change, key):
        ck = str(tmp_path / "ck")
        self.crash(points, ck)
        with pytest.raises(ValueError, match=key):
            self.join(points, 0.05, ck, resume=True, **change)

    def test_same_configuration_resumes(self, points, tmp_path):
        ck = str(tmp_path / "ck")
        self.crash(points, ck)
        report = self.join(points, 0.05, ck, resume=True,
                           engine="vector")
        assert report.total_pairs == self.truth(points, 0.05)


class _MarkingJournal(Journal):
    """A journal that notes the fault plan's operation index at each
    completed run and merge pass of the sort."""

    def __init__(self, path, plan):
        super().__init__(path)
        self.plan = plan
        self.run_ends = []
        self.pass_ends = []

    def record_sort_run(self, *args):
        self.run_ends.append(self.plan.op_index)
        super().record_sort_run(*args)

    def record_merge_pass(self, *args):
        self.pass_ends.append(self.plan.op_index)
        super().record_merge_pass(*args)


class TestSortCrashResume:
    """A crash inside a non-final merge pass of a journaled external sort
    resumes to the uninterrupted sort's output bytes.  ``fanin=2`` over 8
    runs gives three passes; the join tests above sort in one."""

    @staticmethod
    def sort(directory, plan=None, journal=None):
        """Sort the fixed input with the output, scratch disk and journal
        kept in ``directory``; returns the output file's bytes."""
        points = np.random.default_rng(11).random((300, 3))
        out_path = os.path.join(directory, "sorted.pts")
        if journal is None:
            journal = Journal(os.path.join(directory, "sort.journal"))
        with SimulatedDisk() as src, SimulatedDisk(path=out_path) as out, \
                SimulatedDisk(path=os.path.join(directory,
                                                "scratch.bin")) as scratch:
            pf = make_file(src, points)
            if plan is not None:
                out, scratch = FaultyDisk(out, plan), FaultyDisk(scratch, plan)
            _, stats = external_sort(pf, out, scratch, ego_key_function(0.2),
                                     memory_records=40, fanin=2,
                                     journal=journal)
            assert stats.merge_passes == 3
        with open(out_path, "rb") as fh:
            return fh.read()

    def test_crash_in_first_merge_pass_resumes_exactly(self, tmp_path):
        directories = [tmp_path / name for name in ("base", "marks", "ck")]
        for directory in directories:
            directory.mkdir()
        base, marks, ck = (str(d) for d in directories)
        want = self.sort(base)

        # Where pass 1 starts and ends in the plan's operation count.
        plan = FaultPlan()
        journal = _MarkingJournal(os.path.join(marks, "sort.journal"), plan)
        assert self.sort(marks, plan, journal) == want
        first, last = journal.run_ends[-1], journal.pass_ends[0]
        crash_op = (first + last) // 2
        assert first < crash_op < last

        plan = FaultPlan(seed=3, crash_ops=[crash_op])
        with pytest.raises(SimulatedCrash):
            self.sort(ck, plan)
        journal = Journal(os.path.join(ck, "sort.journal"))
        assert len(journal.state["sort_runs"]) == 8
        assert journal.latest_merge_pass() is None
        assert self.sort(ck, plan.without_crashes(), journal) == want
