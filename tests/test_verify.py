"""Tests for the differential-verification tooling (``repro.verify``).

Covers the canonical pair-set layer, the oracle registry, the runtime
invariant monitor, the fuzz driver (shrinking, artifacts, replay), the
``repro verify`` CLI — and the mutation smoke tests of the acceptance
criteria: a deliberate off-by-one in the ε-interval bound must be
caught both by the differential oracle and by the invariant hooks.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import sequence_join
from repro.core.ego_join import ego_self_join
from repro.core.ego_order import lex_less
from repro.core.result import JoinResult
from repro.core.units import UnitMeta
from repro.core.sequence_join import JoinContext
from repro.verify import (
    DEFAULT_CONFIGS,
    REGISTRY,
    STORAGE_MODES,
    WORKLOAD_KINDS,
    InvariantMonitor,
    InvariantViolation,
    acceptance_matrix,
    canonical_pairs,
    diff_pairs,
    differential_check,
    dump_artifact,
    generate_workload,
    implementations,
    make_monitor,
    pair_digest,
    parse_budget,
    register,
    replay_artifact,
    run_fuzz,
    run_impl,
    shrink_workload,
)

EPS = 0.25

#: In-memory configurations only — fast enough for tight test loops.
FAST_CONFIGS = (
    ("ego", {"engine": "scalar"}),
    ("ego", {"engine": "vector"}),
    ("ego", {"engine": "auto"}),
    ("grid_hash", {}),
    ("spatial_hash", {}),
)


@pytest.fixture
def temp_impl():
    """Register a throwaway oracle implementation, always cleaned up."""
    added = []

    def add(name, fn, **kwargs):
        register(name, **kwargs)(fn)
        added.append(name)
        return name

    yield add
    for name in added:
        REGISTRY.pop(name, None)


# -- canonical pair sets -----------------------------------------------------


class TestCanonical:
    def test_orientation_dedup_diagonal(self):
        canon = canonical_pairs([(2, 1), (1, 2), (3, 3), (1, 2), (0, 4)])
        assert canon.tolist() == [[0, 4], [1, 2]]

    def test_ordered_keeps_orientation(self):
        canon = canonical_pairs([(2, 1), (1, 2)], ordered=True)
        assert canon.tolist() == [[1, 2], [2, 1]]

    def test_keep_diagonal(self):
        canon = canonical_pairs([(3, 3), (1, 2)], keep_diagonal=True)
        assert canon.tolist() == [[1, 2], [3, 3]]

    def test_join_result_input(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        res = ego_self_join(pts, EPS)
        assert isinstance(res, JoinResult)
        assert canonical_pairs(res).tolist() == [[0, 1]]

    def test_empty_inputs(self):
        assert canonical_pairs([]).shape == (0, 2)
        assert canonical_pairs(np.empty((0, 2))).shape == (0, 2)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            canonical_pairs(np.zeros((3, 3)))

    def test_digest_stable_and_discriminating(self):
        a = canonical_pairs([(0, 1), (1, 2)])
        b = canonical_pairs([(1, 0), (2, 1)])
        c = canonical_pairs([(0, 1), (1, 3)])
        assert pair_digest(a) == pair_digest(b)
        assert pair_digest(a) != pair_digest(c)

    def test_diff_reports_missing_and_extra(self):
        diff = diff_pairs([(0, 1), (1, 2)], [(0, 1), (2, 3)])
        assert not diff.ok
        assert diff.missing.tolist() == [[1, 2]]
        assert diff.extra.tolist() == [[2, 3]]
        text = diff.summary()
        assert "(1, 2)" in text and "(2, 3)" in text
        assert "np.int64" not in text

    def test_diff_identical(self):
        diff = diff_pairs([(1, 0)], [(0, 1)])
        assert diff.ok
        assert "identical" in diff.summary()


# -- workloads ---------------------------------------------------------------


class TestWorkloads:
    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_deterministic_in_seed(self, kind):
        a = generate_workload(kind, 50, 4, EPS, seed=7)
        b = generate_workload(kind, 50, 4, EPS, seed=7)
        c = generate_workload(kind, 50, 4, EPS, seed=8)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        assert a.n == 50 and a.dimensions == 4

    def test_boundary_straddles_predicate(self):
        wl = generate_workload("boundary", 60, 3, EPS, seed=1)
        diff = wl.points[:, None, :] - wl.points[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        iu = np.triu_indices(len(wl.points), k=1)
        d = dist[iu]
        # Planted mates sit a few ulps on either side of ε.
        assert ((d <= EPS) & (d > EPS * (1 - 1e-9))).any()
        assert ((d > EPS) & (d < EPS * (1 + 1e-9))).any()

    def test_duplicates_contains_exact_copies(self):
        wl = generate_workload("duplicates", 60, 3, EPS, seed=2)
        uniq = np.unique(wl.points, axis=0)
        assert len(uniq) < len(wl.points)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            generate_workload("nope", 10, 2, EPS, seed=0)


# -- oracle registry ---------------------------------------------------------


class TestOracle:
    def test_expected_implementations_registered(self):
        expected = {"ego", "ego_external", "ego_rs_files",
                    "brute", "grid_hash", "spatial_hash", "msj", "epskdb",
                    "rsj", "mux", "zorder_rsj"}
        assert expected <= set(REGISTRY)
        assert "ego_external" not in implementations(include_external=False)
        assert "ego_external" in implementations()

    def test_unknown_impl_rejected(self):
        with pytest.raises(KeyError, match="unknown implementation"):
            run_impl("no_such_join", np.zeros((2, 2)), EPS)

    def test_unknown_storage_rejected(self):
        with pytest.raises(ValueError, match="unknown storage mode"):
            run_impl("ego_external", np.zeros((4, 2)), EPS, storage="tape")

    @pytest.mark.parametrize("seed,kind", [(0, "uniform"), (1, "boundary"),
                                           (2, "duplicates"),
                                           (3, "degenerate")])
    def test_differential_sweep_agrees(self, seed, kind):
        wl = generate_workload(kind, 70, 3, EPS, seed=seed)
        report = differential_check(wl.points, EPS, FAST_CONFIGS)
        assert report.ok, report.describe()
        assert report.pair_count == len(run_impl("brute", wl.points, EPS))

    def test_exception_captured_not_raised(self, temp_impl):
        def explode(points, epsilon, ids=None):
            raise RuntimeError("kaboom")

        temp_impl("_test_explode", explode)
        wl = generate_workload("uniform", 20, 2, EPS, seed=0)
        report = differential_check(wl.points, EPS, [("_test_explode", {})])
        assert not report.ok
        assert "RuntimeError: kaboom" in report.failures[0].describe()


# -- external pipeline matrix (satellite: files vs in-memory) ---------------


class TestExternalMatrix:
    @pytest.mark.parametrize("engine", ["scalar", "vector", "auto"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_self_join_file_matches_in_memory(self, engine, workers):
        wl = generate_workload("clusters", 90, 3, EPS, seed=11)
        expected = run_impl("ego", wl.points, EPS)
        observed = run_impl("ego_external", wl.points, EPS,
                            engine=engine, workers=workers)
        diff = diff_pairs(expected, observed)
        assert diff.ok, f"{engine}/w{workers}: {diff.summary()}"

    @pytest.mark.parametrize("engine", ["scalar", "vector", "auto"])
    def test_rs_files_matches_self_join(self, engine):
        wl = generate_workload("boundary", 80, 3, EPS, seed=12)
        expected = run_impl("ego", wl.points, EPS)
        observed = run_impl("ego_rs_files", wl.points, EPS, engine=engine)
        diff = diff_pairs(expected, observed)
        assert diff.ok, f"{engine}: {diff.summary()}"

    @pytest.mark.parametrize("storage", STORAGE_MODES)
    def test_storage_wrappers_match(self, storage):
        wl = generate_workload("duplicates", 70, 3, EPS, seed=13)
        expected = run_impl("ego", wl.points, EPS)
        observed = run_impl("ego_external", wl.points, EPS, storage=storage)
        diff = diff_pairs(expected, observed)
        assert diff.ok, f"{storage}: {diff.summary()}"


# -- acceptance-criteria matrix ---------------------------------------------


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("seed,kind", [(0, "uniform"), (1, "boundary"),
                                           (2, "duplicates")])
    def test_engine_workers_storage_identical(self, seed, kind):
        """Engine × workers {1,4} × storage: byte-identical pair sets."""
        wl = generate_workload(kind, 64, 3, 0.2, seed=seed)
        ok, digests = acceptance_matrix(wl.points, 0.2, workers=(1, 4))
        assert ok, "\n".join(f"{d[:16]}  {label}"
                             for label, d in sorted(digests.items()))
        # Reference + 3 engines × 2 worker counts × 3 storage modes.
        assert len(digests) == 1 + 3 * 2 * 3
        assert len(set(digests.values())) == 1


# -- mutation smoke tests ----------------------------------------------------


def _excluded_missing_widening(sf, sl, tf, tl, common, obs):
    """The Lemma-2 bound with the ε widening (the +1) dropped.

    The arguments are the first/last cell rows of both sequences as
    Python lists, which compare lexicographically like ``lex_less``.
    """
    return sl < tf or tl < sf


class TestMutationSmoke:
    """A planted off-by-one in the ε-interval bound must be caught."""

    def test_sequence_bound_caught_by_oracle(self, monkeypatch):
        monkeypatch.setattr(sequence_join, "_excluded",
                            _excluded_missing_widening)
        wl = generate_workload("boundary", 90, 3, 0.3, seed=5)
        report = differential_check(
            wl.points, 0.3, [("ego", {"engine": "vector"})])
        assert not report.ok, "mutation survived the differential oracle"
        assert "missing" in report.failures[0].describe()

    def test_sequence_bound_caught_by_invariants(self, monkeypatch):
        monkeypatch.setattr(sequence_join, "_excluded",
                            _excluded_missing_widening)
        wl = generate_workload("boundary", 90, 3, 0.3, seed=5)
        with pytest.raises(InvariantViolation, match="pruning dropped"):
            ego_self_join(wl.points, 0.3, invariants=True)

    def test_scheduler_bound_caught_by_coverage(self, monkeypatch):
        def broken_may_join(self, other):
            # Mutation: compare raw last cells, without the ε widening.
            return not (lex_less(self.last_cells, other.first_cells)
                        or lex_less(other.last_cells, self.first_cells))

        monkeypatch.setattr(UnitMeta, "may_join", broken_may_join)
        wl = generate_workload("uniform", 120, 3, EPS, seed=3)
        with pytest.raises(InvariantViolation, match="never joined"):
            run_impl("ego_external", wl.points, EPS, storage="plain",
                     invariants=True)


# -- invariant monitor -------------------------------------------------------


class TestInvariantMonitor:
    def test_factory(self):
        assert make_monitor(False) is None
        assert isinstance(make_monitor(True), InvariantMonitor)

    def test_context_creates_monitor(self):
        ctx = JoinContext(epsilon=EPS, result=JoinResult(), invariants=True)
        assert isinstance(ctx.monitor, InvariantMonitor)
        assert JoinContext(epsilon=EPS, result=JoinResult()).monitor is None

    def test_pin_balance(self):
        monitor = InvariantMonitor()
        obs = monitor.buffer_observer()
        obs.on_pin("u0")
        with pytest.raises(InvariantViolation, match="unbalanced pins"):
            monitor.assert_pin_balance()
        obs.on_unpin("u0")
        monitor.assert_pin_balance()

    def test_pinned_frame_must_not_be_discarded_or_evicted(self):
        obs = InvariantMonitor().buffer_observer()
        with pytest.raises(InvariantViolation, match="discarded while"):
            obs.on_discard("u1", pinned=True)
        with pytest.raises(InvariantViolation, match="evicted while"):
            obs.on_evict("u1", pinned=True)
        obs.on_discard("u2", pinned=False)
        obs.on_evict("u2", pinned=False)

    def test_gallop_read_once(self):
        monitor = InvariantMonitor()
        monitor.note_gallop_load(3)
        monitor.note_gallop_load(4)
        with pytest.raises(InvariantViolation, match="loaded unit 3 twice"):
            monitor.note_gallop_load(3)

    def test_interval_coverage(self):
        # Two overlapping units: (0, 1) lies inside the ε-interval.
        meta = {
            0: UnitMeta(first_cells=np.array([0, 0]),
                        last_cells=np.array([1, 2])),
            1: UnitMeta(first_cells=np.array([1, 3]),
                        last_cells=np.array([2, 0])),
        }
        monitor = InvariantMonitor()
        monitor.note_unit_pair(0, 0)
        monitor.note_unit_pair(1, 1)
        with pytest.raises(InvariantViolation, match="never joined"):
            monitor.check_interval_coverage(meta, 2)
        monitor.note_unit_pair(0, 1)
        monitor.check_interval_coverage(meta, 2)

    def test_clean_run_matches_baseline(self):
        wl = generate_workload("clusters", 60, 3, EPS, seed=4)
        baseline = run_impl("ego", wl.points, EPS)
        observed = run_impl("ego", wl.points, EPS, invariants=True)
        assert diff_pairs(baseline, observed).ok

    def test_summary_formatting(self):
        monitor = InvariantMonitor()
        monitor.note_gallop_load(0)
        monitor.note_unit_pair(0, 0)
        text = monitor.summary()
        assert "1 gallop loads" in text
        assert "1 unit pairs" in text


# -- fuzz driver -------------------------------------------------------------


class TestFuzz:
    def test_parse_budget(self):
        assert parse_budget("500ms") == pytest.approx(0.5)
        assert parse_budget("45s") == pytest.approx(45.0)
        assert parse_budget("2m") == pytest.approx(120.0)
        assert parse_budget("10") == pytest.approx(10.0)
        with pytest.raises(ValueError, match="cannot parse"):
            parse_budget("soon")
        with pytest.raises(ValueError, match="positive"):
            parse_budget("0s")

    def test_default_configs_are_registered(self):
        for name, _options in DEFAULT_CONFIGS:
            assert name in REGISTRY

    def test_clean_fuzz_run(self):
        report = run_fuzz(seed=0, budget_s=30.0, dimensions=3,
                          max_points=40, configs=FAST_CONFIGS,
                          max_trials=4)
        assert report.ok, report.describe()
        assert report.trials == 4
        assert report.checks >= 4 * len(FAST_CONFIGS)
        assert "OK" in report.describe()

    def test_shrink_isolates_failing_pair(self):
        rng = np.random.default_rng(0)
        points = rng.random((40, 3))
        points[7] = 0.5
        points[23] = 0.5 + 1e-9

        def fails(pts):
            diff = pts[:, None, :] - pts[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            np.fill_diagonal(d2, np.inf)
            return bool((d2 < 1e-12).any())

        assert fails(points)
        shrunk = shrink_workload(points, 1e-6, fails)
        assert len(shrunk) == 2
        assert fails(shrunk)

    def test_fuzz_catches_broken_impl_and_replays(self, temp_impl,
                                                  tmp_path):
        def drops_last_pair(points, epsilon, ids=None):
            canon = run_impl("brute", points, epsilon, ids=ids)
            return canon[:-1]

        temp_impl("_test_broken", drops_last_pair)
        report = run_fuzz(seed=0, budget_s=30.0, dimensions=3,
                          max_points=40, configs=[("_test_broken", {})],
                          artifact_dir=str(tmp_path), max_failures=1)
        assert not report.ok
        failure = report.failures[0]
        assert failure.n_shrunk <= failure.n_original
        assert failure.artifact is not None

        with open(failure.artifact) as fh:
            meta = json.load(fh)
        assert meta["format"] == 1
        assert meta["configs"] == [["_test_broken", {}]]
        assert (tmp_path / meta["points_file"]).exists()

        still_fails, detail = replay_artifact(failure.artifact)
        assert still_fails, detail
        assert "_test_broken" in detail

    def test_replay_passes_after_fix(self, temp_impl, tmp_path):
        wl = generate_workload("uniform", 20, 2, EPS, seed=0)
        path = dump_artifact(str(tmp_path), "fail-x", wl.points, EPS,
                             seed=0, kind="uniform",
                             configs=[("brute", {})], detail="planted")
        still_fails, detail = replay_artifact(path)
        assert not still_fails
        assert "passes now" in detail


# -- CLI ---------------------------------------------------------------------


class TestVerifyCLI:
    def test_smoke_run_exits_zero(self, capsys):
        rc = cli_main(["verify", "--seed", "0", "--budget", "1s",
                       "--dims", "3", "--max-points", "40",
                       "--impls", "ego,grid_hash,spatial_hash"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_budget_exits_two(self, capsys):
        assert cli_main(["verify", "--budget", "soon"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_unknown_impls_exits_two(self, capsys):
        rc = cli_main(["verify", "--impls", "no_such_join"])
        assert rc == 2
        assert "no known implementation" in capsys.readouterr().err

    def test_replay_roundtrip(self, tmp_path, capsys):
        wl = generate_workload("uniform", 20, 2, EPS, seed=0)
        path = dump_artifact(str(tmp_path), "fail-y", wl.points, EPS,
                             seed=0, kind="uniform",
                             configs=[("brute", {})], detail="planted")
        assert cli_main(["verify", "--replay", path]) == 0
        assert "no longer fails" in capsys.readouterr().out
