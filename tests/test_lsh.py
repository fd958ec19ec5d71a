"""Tests for the p-stable LSH hash family and approximate join engine.

The property layer checks the *collision model* itself: the empirical
collision frequency of seeded projections must bracket the analytic
p1/p2 curve within binomial tolerance.  The join layer checks the
engine's three invariants (precision 1.0, monotone-in-L, same-seed
determinism), the bucket files' byte-identical round-trip through every
bucket-disk kind, and the recall-floor oracle integration.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.optimizer import (choose_join_impl, estimate_ego_join,
                                      estimate_lsh_join)
from repro.analysis.reporting import format_table, robustness_summary
from repro.cli import main
from repro.data.loader import save_points
from repro.index.lsh import (DEFAULT_K, DEFAULT_W_SCALE, MAX_TABLES,
                             PStableHashFamily, collision_probability,
                             sort_by_keys)
from repro.joins.lsh_join import (BUCKET_DISKS, LSH_ENGINES, lsh_self_join,
                                  lsh_self_join_file, write_bucket_file)
from repro.storage.disk import SimulatedDisk
from repro.storage.pagefile import PointFile
from repro.verify.canonical import canonical_pairs, pair_digest
from repro.verify.fuzz import DEFAULT_CONFIGS
from repro.verify.metamorphic import (check_lsh_determinism,
                                      check_lsh_precision,
                                      check_lsh_tables_monotone,
                                      run_lsh_relations)
from repro.verify.oracle import (REGISTRY, differential_check, register,
                                 run_impl)
from repro.verify.workloads import (BOUNDARY_DELTA, WORKLOAD_KINDS,
                                    generate_workload)

from conftest import brute_truth, make_file

EPS = 0.25


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


def pair_set(report) -> set:
    a, b = report.result.pairs()
    return set(zip(a.tolist(), b.tolist()))


# -- the collision-probability closed form ----------------------------------


class TestCollisionModel:
    def test_limits(self):
        assert collision_probability(0.0) == 0.0
        assert collision_probability(float("inf")) == 1.0
        with pytest.raises(ValueError):
            collision_probability(-1.0)

    def test_monotone_in_ratio(self):
        ratios = np.linspace(0.05, 20.0, 200)
        values = [collision_probability(r) for r in ratios]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @given(seed=st.integers(0, 2**20),
           ratio=st.floats(0.5, 8.0, allow_nan=False))
    def test_empirical_frequency_brackets_analytic(self, seed, ratio):
        """Monte-Carlo projections agree with the closed form.

        One projection of a pair at distance c collides iff the shifted
        offset stays in the same width-w bin; with w = ratio·c the
        frequency over m seeded trials must sit within ~4.5 binomial
        sigmas of ``collision_probability(ratio)`` — a seeded, hard
        bound, not a flaky statistical test (hypothesis's ci profile is
        derandomised).
        """
        m = 4000
        rng = np.random.default_rng(seed)
        c, w = 1.0, ratio
        a = rng.standard_normal(m)
        b = rng.uniform(0.0, w, size=m)
        collide = np.floor(b / w) == np.floor((a * c + b) / w)
        frequency = collide.mean()
        p = collision_probability(ratio)
        tolerance = 4.5 * math.sqrt(max(p * (1 - p), 1e-4) / m) + 1e-3
        assert abs(frequency - p) <= tolerance

    def test_p1_p2_gap_through_family_keys(self):
        """End-to-end: hashing real pairs reproduces p1 and p2."""
        d, eps, tables = 6, 0.3, 400
        family = PStableHashFamily(d, eps, k=1, seed=9)
        rng = np.random.default_rng(17)
        base = rng.random(d)

        def table_frequency(distance):
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            pair = np.stack([base, base + distance * direction])
            hits = sum(
                1 for t in range(tables)
                if np.array_equal(*family.keys(pair, t)))
            return hits / tables

        for distance, expected in ((eps, family.p1),
                                   (2 * eps, family.p2())):
            frequency = table_frequency(distance)
            sigma = math.sqrt(max(expected * (1 - expected), 1e-4)
                              / tables)
            assert abs(frequency - expected) <= 4.5 * sigma + 5e-3


# -- the hash family --------------------------------------------------------


class TestHashFamily:
    def test_table_params_independent_of_probe_order(self):
        fam_a = PStableHashFamily(4, EPS, seed=3)
        fam_b = PStableHashFamily(4, EPS, seed=3)
        fam_b.table_params(5)  # warm a later table first
        for t in (0, 3, 5):
            a1, b1 = fam_a.table_params(t)
            a2, b2 = fam_b.table_params(t)
            assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        a_other, _ = PStableHashFamily(4, EPS, seed=4).table_params(0)
        assert not np.array_equal(a1, a_other)

    def test_keys_shape_and_determinism(self, rng):
        family = PStableHashFamily(5, EPS, k=3, seed=1)
        pts = rng.random((40, 5))
        keys = family.keys(pts, 2)
        assert keys.shape == (40, 3) and keys.dtype == np.int64
        assert np.array_equal(keys, family.keys(pts, 2))
        with pytest.raises(ValueError):
            family.keys(pts[:, :4], 0)

    def test_recall_model_inversion(self):
        family = PStableHashFamily(8, EPS)
        for target in (0.5, 0.9, 0.99, 0.999):
            tables = family.tables_for_recall(target)
            assert family.recall_for_tables(tables) >= target
            if tables > 1:
                assert family.recall_for_tables(tables - 1) < target

    def test_unreachable_recall_raises(self):
        weak = PStableHashFamily(8, EPS, k=24, w_scale=0.5)
        assert weak.p1 < 1e-4
        with pytest.raises(ValueError, match="above the cap"):
            weak.tables_for_recall(0.999, max_tables=MAX_TABLES)

    def test_validation(self):
        with pytest.raises(ValueError):
            PStableHashFamily(0, EPS)
        with pytest.raises(ValueError):
            PStableHashFamily(3, 0.0)
        with pytest.raises(ValueError):
            PStableHashFamily(3, EPS, k=0)
        with pytest.raises(ValueError):
            PStableHashFamily(3, EPS, w_scale=0.0)
        family = PStableHashFamily(3, EPS)
        with pytest.raises(ValueError):
            family.table_params(-1)
        with pytest.raises(ValueError):
            family.tables_for_recall(1.0)

    def test_sort_by_keys_groups_buckets(self):
        keys = np.array([[1, 2], [0, 5], [1, 2], [0, 5], [2, 0]])
        order, starts = sort_by_keys(keys)
        assert starts[0] == 0 and starts[-1] == len(keys)
        sorted_keys = keys[order]
        for i in range(len(starts) - 1):
            run = sorted_keys[starts[i]:starts[i + 1]]
            assert (run == run[0]).all()  # one bucket, one key
            if i:
                assert tuple(run[0]) != tuple(sorted_keys[starts[i] - 1])
        assert len(starts) - 1 == 3  # three distinct keys

    def test_sort_by_keys_empty(self):
        order, starts = sort_by_keys(np.empty((0, 2), dtype=np.int64))
        assert len(order) == 0 and list(starts) == [0]


# -- bucket files through every bucket-disk kind ----------------------------


class TestBucketRoundTrip:
    @given(seed=st.integers(0, 2**16), n=st.integers(0, 60))
    def test_backends_byte_identical(self, seed, n):
        """The same bucket layout yields identical device bytes."""
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 4))
        ids = rng.permutation(n).astype(np.int64)
        order = np.argsort(rng.random(n), kind="stable")
        raw = {}
        for backend in ("file", "memory"):
            with BUCKET_DISKS[backend]() as disk:
                bucket = write_bucket_file(disk, ids, pts, order,
                                           chunk_records=7)
                raw[backend] = disk.read(0, disk.size())
                got_ids, got_pts = bucket.read_all()
                assert np.array_equal(got_ids, ids[order])
                assert np.array_equal(got_pts, pts[order])
        assert raw["file"] == raw["memory"]


# -- the join engine --------------------------------------------------------


class TestLSHJoin:
    def test_precision_exact_and_recall_floor(self, rng):
        pts = rng.random((300, 6))
        truth = brute_truth(pts, EPS)
        report = lsh_self_join(pts, EPS, recall_target=0.999, seed=2)
        got = pair_set(report)
        assert got <= truth  # precision exactly 1.0
        assert len(got) >= 0.9 * len(truth)
        assert 0.999 <= report.lsh.model_recall <= 1.0

    def test_engines_and_backends_agree(self, rng):
        pts = rng.random((150, 5))
        digests = {
            (engine, backend): pair_digest(canonical_pairs(
                lsh_self_join(pts, EPS, seed=4, engine=engine,
                              backend=backend).result))
            for engine in LSH_ENGINES
            for backend in ("simulated", "file", "memory")
        }
        assert len(set(digests.values())) == 1

    def test_removed_batched_alias_refused(self, rng):
        assert LSH_ENGINES == ("scalar", "vector", "matmul", "auto")
        with pytest.raises(ValueError, match="unknown engine 'batched'"):
            lsh_self_join(rng.random((20, 3)), EPS, engine="batched")

    def test_monotone_in_tables(self, rng):
        pts = rng.random((200, 4))
        previous = set()
        for tables in (1, 2, 4, 8):
            current = pair_set(lsh_self_join(pts, EPS, tables=tables,
                                             seed=6))
            assert previous <= current
            previous = current

    def test_same_seed_bit_identical(self, rng):
        pts = rng.random((120, 5))
        a = lsh_self_join(pts, EPS, seed=8).result.pairs()
        b = lsh_self_join(pts, EPS, seed=8).result.pairs()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_io_charged_for_input_and_buckets(self, temp_disk, rng):
        pts = rng.random((100, 4))
        pf = make_file(temp_disk, pts)
        temp_disk.reset_accounting()
        report = lsh_self_join_file(pf, EPS, tables=3, seed=1)
        rec = pf.record_bytes
        # Input scanned once; every table writes all n records, then
        # reads back its non-singleton buckets.
        assert report.io.bytes_read > 100 * rec
        assert report.io.bytes_written >= 3 * 100 * rec
        assert report.io.sequential_writes > 0
        assert report.simulated_io_time_s > 0.0
        stats = report.lsh
        assert stats.buckets > 0
        assert stats.candidates >= stats.verified
        assert stats.verified >= report.result.count

    def test_explicit_ids(self, rng):
        pts = rng.random((60, 3))
        ids = (np.arange(60, dtype=np.int64) * 10) + 7
        report = lsh_self_join(pts, EPS, ids=ids, recall_target=0.999,
                               seed=3)
        got = pair_set(report)
        assert got  # dense enough to have pairs
        flat = {v for pair in got for v in pair}
        assert flat <= set(ids.tolist())

    def test_tiny_inputs(self):
        for n in (0, 1):
            report = lsh_self_join(np.random.default_rng(0).random((n, 3)),
                                   EPS)
            assert report.result.count == 0

    def test_validation(self, rng):
        pts = rng.random((10, 3))
        with pytest.raises(ValueError):
            lsh_self_join(pts, 0.0)
        with pytest.raises(ValueError):
            lsh_self_join(pts, EPS, tables=0)
        with pytest.raises(ValueError):
            lsh_self_join(pts, EPS, engine="warp")
        with pytest.raises(ValueError):
            lsh_self_join(pts[0], EPS)

    def test_count_only_mode(self, rng):
        pts = rng.random((80, 4))
        full = lsh_self_join(pts, EPS, seed=5)
        counted = lsh_self_join(pts, EPS, seed=5, materialize=False)
        assert counted.result.count == full.result.count
        assert not counted.result.materialize


# -- oracle + metamorphic integration ---------------------------------------


class TestRecallFloorOracle:
    def test_default_configs_pass_across_workloads(self):
        lsh_configs = [c for c in DEFAULT_CONFIGS if c[0] == "lsh"]
        assert len(lsh_configs) >= 2
        for kind in ("uniform", "near_threshold", "clusters"):
            wl = generate_workload(kind, 90, 5, 0.2, seed=11)
            report = differential_check(wl.points, wl.epsilon,
                                        lsh_configs)
            assert report.ok, report.describe()
            for outcome in report.outcomes:
                assert outcome.approximate
                assert outcome.recall >= 0.9
                assert len(outcome.diff.extra) == 0

    def test_recall_floor_option_consumed_not_forwarded(self, rng):
        pts = rng.random((60, 4))
        report = differential_check(
            pts, EPS, [("lsh", {"recall_floor": 0.5, "seed": 1})])
        assert report.ok
        (outcome,) = report.outcomes
        assert outcome.recall_floor == 0.5

    def test_planted_extra_pair_fails(self, temp_impl, rng):
        def inventing(points, epsilon, ids=None, **kw):
            good = run_impl("lsh", points, epsilon, ids=ids, **kw)
            fake = np.array([[10 * len(points), 10 * len(points) + 1]],
                            dtype=np.int64)
            return canonical_pairs(np.concatenate([good, fake]))

        temp_impl("_test_inventing_lsh", inventing, approximate=True)
        pts = rng.random((50, 4))
        report = differential_check(pts, EPS,
                                    [("_test_inventing_lsh", {})])
        assert not report.ok
        assert report.outcomes[0].recall is not None

    def test_miss_allowance_tolerates_absolute_misses(self, temp_impl,
                                                      rng):
        def near_perfect(points, epsilon, ids=None, **kw):
            good = run_impl("brute", points, epsilon, ids=ids)
            return good[:-1] if len(good) else good  # one miss

        temp_impl("_test_one_miss_lsh", near_perfect, approximate=True,
                  recall_floor=0.9)
        pts = rng.random((20, 3))
        truth = brute_truth(pts, EPS)
        assert 1 <= len(truth) <= 10  # small sample: one miss breaks 0.9
        strict = differential_check(pts, EPS, [("_test_one_miss_lsh", {})])
        assert not strict.ok
        allowed = differential_check(
            pts, EPS, [("_test_one_miss_lsh", {"miss_allowance": 1})])
        assert allowed.ok
        (outcome,) = allowed.outcomes
        assert outcome.miss_allowance == 1
        # The allowance never excuses extra pairs.
        assert "allowance" in outcome.describe()

    def test_planted_low_recall_fails_floor(self, temp_impl, rng):
        def halving(points, epsilon, ids=None, **kw):
            good = run_impl("brute", points, epsilon, ids=ids)
            return good[: len(good) // 2]

        temp_impl("_test_halving_lsh", halving, approximate=True,
                  recall_floor=0.9)
        pts = rng.random((80, 3))
        assert len(brute_truth(pts, EPS)) >= 4
        report = differential_check(pts, EPS, [("_test_halving_lsh", {})])
        assert not report.ok
        # The same impl passes once the per-config floor drops below 1/2.
        relaxed = differential_check(
            pts, EPS, [("_test_halving_lsh", {"recall_floor": 0.3})])
        assert relaxed.ok


class TestLSHRelations:
    def test_relations_hold_on_shipped_engine(self, rng):
        pts = rng.random((90, 4))
        for report in run_lsh_relations(pts, EPS, seed=2):
            assert report.ok, report.describe()

    def test_precision_relation_catches_invention(self, temp_impl, rng):
        def inventing(points, epsilon, ids=None, **kw):
            good = run_impl("lsh", points, epsilon, ids=ids, **kw)
            fake = np.array([[10 * len(points), 10 * len(points) + 1]],
                            dtype=np.int64)
            return canonical_pairs(np.concatenate([good, fake]))

        temp_impl("_test_inventing_rel", inventing, approximate=True)
        pts = rng.random((40, 3))
        report = check_lsh_precision(pts, EPS, impl="_test_inventing_rel")
        assert not report.ok

    def test_monotone_relation_catches_shrinking(self, temp_impl, rng):
        def shrinking(points, epsilon, ids=None, tables=1, **kw):
            # More tables, *smaller* result: a broken dedup would look
            # like this.
            good = run_impl("brute", points, epsilon, ids=ids)
            keep = max(0, len(good) - (tables - 1) * 2)
            return good[:keep]

        temp_impl("_test_shrinking_lsh", shrinking, approximate=True)
        pts = rng.random((60, 3))
        assert len(brute_truth(pts, EPS)) >= 6
        report = check_lsh_tables_monotone(pts, EPS,
                                           impl="_test_shrinking_lsh")
        assert not report.ok

    def test_determinism_relation_catches_drift(self, temp_impl, rng):
        calls = {"count": 0}

        def drifting(points, epsilon, ids=None, **kw):
            calls["count"] += 1
            good = run_impl("brute", points, epsilon, ids=ids)
            return good[: len(good) - (calls["count"] % 2)]

        temp_impl("_test_drifting_lsh", drifting, approximate=True)
        pts = rng.random((50, 3))
        report = check_lsh_determinism(pts, EPS, impl="_test_drifting_lsh")
        assert not report.ok


class TestNearThresholdWorkload:
    def test_registered_and_deterministic(self):
        assert "near_threshold" in WORKLOAD_KINDS
        a = generate_workload("near_threshold", 70, 4, EPS, seed=5)
        b = generate_workload("near_threshold", 70, 4, EPS, seed=5)
        assert np.array_equal(a.points, b.points)
        assert a.points.shape == (70, 4)

    def test_pairs_straddle_the_threshold(self):
        wl = generate_workload("near_threshold", 80, 5, EPS, seed=3)
        d = np.sqrt(((wl.points[:, None] - wl.points[None, :]) ** 2)
                    .sum(-1))
        iu = np.triu_indices(len(wl.points), k=1)
        distances = d[iu]
        near = distances[np.abs(distances - EPS) < EPS * 1e-9]
        inside = near[near <= EPS]
        outside = near[near > EPS]
        # Mates alternate just-inside / just-outside by ±ε·2⁻⁴⁰.
        assert len(inside) >= 10 and len(outside) >= 10
        assert np.all(np.abs(near - EPS) <= EPS * BOUNDARY_DELTA * 4)


# -- optimizer and reporting ------------------------------------------------


class TestOptimizerIntegration:
    def test_estimate_fields(self):
        est = estimate_lsh_join(10_000, 16, 0.3, recall_target=0.95)
        assert est.tables >= 1 and est.k == DEFAULT_K
        assert est.w == pytest.approx(DEFAULT_W_SCALE * 0.3)
        assert est.model_recall >= 0.95
        assert est.predicted_io_time_s > 0
        assert est.predicted_cpu_time_s > 0
        assert est.predicted_candidates > 0

    def test_io_scales_with_tables(self):
        small = estimate_lsh_join(5_000, 8, 0.2, tables=2)
        large = estimate_lsh_join(5_000, 8, 0.2, tables=8)
        assert large.predicted_io_time_s > small.predicted_io_time_s

    def test_auto_prefers_lsh_in_high_d_large_eps(self):
        impl, ego_est, lsh_est = choose_join_impl(
            20_000, 16, 0.45, unit_bytes=1 << 14, buffer_units=4,
            recall_target=0.9)
        assert impl == "lsh" and lsh_est is not None
        assert not ego_est.gallop  # EGO is in its degenerate regime

    def test_exactness_demand_forces_ego(self):
        impl, ego_est, lsh_est = choose_join_impl(
            20_000, 16, 0.45, unit_bytes=1 << 14, buffer_units=4,
            recall_target=None)
        assert impl == "ego" and lsh_est is None
        assert ego_est.predicted_io_time_s == pytest.approx(
            estimate_ego_join(20_000, 16, 0.45, 1 << 14,
                              4).predicted_io_time_s)

    def test_easy_regime_keeps_ego(self):
        impl, _, _ = choose_join_impl(
            2_000, 4, 0.01, unit_bytes=1 << 15, buffer_units=16,
            recall_target=0.95)
        assert impl == "ego"


class TestReportingIntegration:
    def test_robustness_summary_renders_approximate_report(self, rng):
        report = lsh_self_join(rng.random((80, 4)), EPS, seed=1)
        rows = robustness_summary(report)  # must not raise
        metrics = {row["metric"] for row in rows}
        assert "lsh model recall at ε" in metrics
        assert "lsh candidate pairs" in metrics
        assert "total result pairs" in metrics
        assert format_table(rows, title="lsh")  # renders


# -- CLI --------------------------------------------------------------------


class TestCLI:
    @pytest.fixture
    def lsh_file(self, tmp_path, rng):
        path = str(tmp_path / "lsh.pts")
        save_points(path, rng.random((250, 8)))
        return path

    def test_join_impl_lsh(self, lsh_file, capsys):
        assert main(["join", lsh_file, "--epsilon", "0.4", "--impl",
                     "lsh", "--recall-target", "0.95",
                     "--count-only"]) == 0
        err = capsys.readouterr().err
        assert "approximate" in err and "lsh" in err

    def test_join_impl_lsh_trace_prints_its_phase(self, lsh_file, tmp_path,
                                                  capsys):
        trace_path = str(tmp_path / "lsh.trace.json")
        assert main(["join", lsh_file, "--epsilon", "0.4", "--impl",
                     "lsh", "--count-only", "--trace", trace_path]) == 0
        assert "phase lsh_self_join: " in capsys.readouterr().err

    def test_join_impl_auto_routes(self, lsh_file, capsys):
        assert main(["join", lsh_file, "--epsilon", "0.4", "--impl",
                     "auto", "--count-only"]) == 0
        assert "impl auto ->" in capsys.readouterr().err

    def test_lsh_result_is_subset_of_exact(self, lsh_file, capsys):
        assert main(["join", lsh_file, "--epsilon", "0.4", "--impl",
                     "lsh", "--lsh-seed", "7", "--recall-target",
                     "0.999", "--limit", "-1"]) == 0
        lsh_pairs = _parse_pairs(capsys.readouterr().out)
        assert main(["join", lsh_file, "--epsilon", "0.4",
                     "--limit", "-1"]) == 0
        exact_pairs = _parse_pairs(capsys.readouterr().out)
        assert lsh_pairs <= exact_pairs
        assert len(lsh_pairs) >= 0.9 * len(exact_pairs)

    def test_usage_errors(self, lsh_file):
        assert main(["join", lsh_file, "--epsilon", "0.4", "--impl",
                     "lsh", "--metric", "manhattan"]) == 2
        assert main(["join", lsh_file, "--epsilon", "0.4", "--impl",
                     "lsh", "--recall-target", "1.5"]) == 2
        assert main(["join", lsh_file, "--epsilon", "0.4", "--impl",
                     "lsh", "--lsh-tables", "0"]) == 2

    def test_verify_impls_lsh(self, capsys):
        assert main(["verify", "--impls", "lsh", "--budget", "5s",
                     "--max-points", "60"]) == 0
        assert "trials" in capsys.readouterr().out


def _parse_pairs(out: str) -> set:
    pairs = set()
    for line in out.splitlines():
        parts = line.strip().split(",")
        if len(parts) == 2 and all(p.lstrip("-").isdigit()
                                   for p in parts):
            a, b = int(parts[0]), int(parts[1])
            pairs.add((min(a, b), max(a, b)))
    return pairs
