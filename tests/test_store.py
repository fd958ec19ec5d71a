"""Tests for the long-lived incremental EGOStore service.

Covers the tentpole guarantees: every query is digest-identical to the
batch pipeline over the current live point set, the journal replays to
a byte-identical store, and the result LRU can never serve a stale
entry across a mutation (the data-version key plus the loud
:class:`StaleCacheError` guard).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.service import EGOStore, StaleCacheError
from repro.storage.journal import Journal
from repro.verify.canonical import canonical_pairs, pair_digest

from conftest import brute_truth

EPS = 0.2


def pair_set(pairs: np.ndarray) -> set:
    return {tuple(r) for r in pairs.tolist()}


def store_truth(store: EGOStore, epsilon: float = None) -> set:
    """Brute-force join of the store's live points, in user-id space."""
    ids, pts = store.live_points()
    eps = store.epsilon if epsilon is None else epsilon
    positional = brute_truth(pts, eps)
    return {(min(int(ids[a]), int(ids[b])), max(int(ids[a]), int(ids[b])))
            for a, b in positional}


@pytest.fixture
def seeded_store(rng):
    pts = rng.random((150, 3))
    return EGOStore.from_points(pts, EPS), pts


class TestConstruction:
    def test_from_points_matches_brute(self, seeded_store):
        store, pts = seeded_store
        assert pair_set(store.join()) == brute_truth(pts, EPS)
        assert len(store) == len(pts)
        assert store.dimensions == 3

    def test_empty_store(self):
        store = EGOStore(EPS)
        assert len(store) == 0
        assert len(store.join()) == 0
        assert store.ids().size == 0

    def test_explicit_ids(self, rng):
        pts = rng.random((30, 2))
        ids = np.arange(1000, 1030, dtype=np.int64)
        store = EGOStore.from_points(pts, EPS, ids=ids)
        assert set(store.ids().tolist()) == set(ids.tolist())
        got = pair_set(store.join())
        want = {(a + 1000, b + 1000) for a, b in brute_truth(pts, EPS)}
        assert got == want

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            EGOStore(0.0)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError):
            EGOStore(EPS, compact_threshold=0)
        with pytest.raises(ValueError):
            EGOStore(EPS, unit_records=0)

    def test_dimension_mismatch_rejected(self, rng):
        store = EGOStore.from_points(rng.random((10, 3)), EPS)
        with pytest.raises(ValueError, match="3-dimensional"):
            store.insert(rng.random((5, 2)))

    def test_nonfinite_rejected(self):
        store = EGOStore(EPS)
        with pytest.raises(ValueError):
            store.insert(np.array([[0.1, np.nan]]))


class TestUpdates:
    def test_insert_without_compaction_still_exact(self, rng):
        """Delta×delta and delta×main cross paths are join-complete."""
        pts = rng.random((80, 3))
        store = EGOStore.from_points(pts[:50], EPS,
                                     compact_threshold=10_000)
        store.insert(pts[50:])
        assert store.stats().delta_rows == 30
        assert pair_set(store.join()) == brute_truth(pts, EPS)

    def test_compaction_preserves_result(self, rng):
        pts = rng.random((80, 3))
        store = EGOStore.from_points(pts[:50], EPS,
                                     compact_threshold=10_000)
        store.insert(pts[50:])
        before = pair_set(store.join())
        store.compact()
        assert store.stats().delta_rows == 0
        assert pair_set(store.join()) == before

    def test_delete_from_main_and_delta(self, rng):
        pts = rng.random((60, 3))
        store = EGOStore.from_points(pts[:40], EPS,
                                     compact_threshold=10_000)
        store.insert(pts[40:])
        store.delete([3, 45])  # one main row, one delta row
        assert 3 not in store and 45 not in store
        assert pair_set(store.join()) == store_truth(store)

    def test_delete_unknown_id_raises(self, seeded_store):
        store, _ = seeded_store
        with pytest.raises(KeyError):
            store.delete([10**6])

    def test_duplicate_insert_id_rejected(self, seeded_store):
        store, _ = seeded_store
        with pytest.raises(ValueError, match="already live"):
            store.insert(np.array([[0.5, 0.5, 0.5]]),
                         ids=np.array([0]))

    def test_delete_then_reinsert_same_id(self, rng):
        """A dead main row must not shadow a re-inserted user id."""
        pts = rng.random((40, 3))
        store = EGOStore.from_points(pts, EPS, compact_threshold=10_000)
        store.delete([7])
        new_pt = rng.random(3)
        store.insert(new_pt, ids=np.array([7]))
        assert 7 in store
        assert pair_set(store.join()) == store_truth(store)

    def test_auto_ids_monotone_after_explicit(self):
        store = EGOStore(EPS)
        store.insert(np.array([[0.1, 0.1]]), ids=np.array([50]))
        fresh = store.insert(np.array([[0.9, 0.9]]))
        assert fresh[0] == 51

    def test_threshold_triggers_compaction(self, rng):
        store = EGOStore(EPS, compact_threshold=16)
        for _ in range(4):
            store.insert(rng.random((8, 2)))
        stats = store.stats()
        assert stats.compactions >= 1
        assert stats.delta_rows < 16


class TestEpsilonChanges:
    def test_smaller_epsilon_no_resort(self, seeded_store):
        store, pts = seeded_store
        store.set_epsilon(EPS / 2)
        assert store.grid_epsilon == EPS  # resident order untouched
        assert pair_set(store.join()) == brute_truth(pts, EPS / 2)

    def test_larger_epsilon_uses_coarse_view(self, seeded_store):
        """ε above the grid ε must re-order — the k·ε shortcut is
        unsound (lexicographic order does not survive coarsening)."""
        store, pts = seeded_store
        for factor in (1.5, 2.0, 3.3):
            eps = EPS * factor
            assert pair_set(store.join(eps)) == brute_truth(pts, eps)

    def test_coarse_view_cached_and_invalidated(self, seeded_store):
        store, pts = seeded_store
        eps = EPS * 2
        store.join(eps)
        assert eps in store._coarse_views
        store.insert(np.full((1, 3), 0.5))
        store.compact()
        assert eps not in store._coarse_views  # dropped with the run
        assert pair_set(store.join(eps)) == store_truth(store, eps)

    def test_epsilon_ladder_nested(self, seeded_store):
        store, _ = seeded_store
        sweep = [len(store.join(e))
                 for e in (0.05, 0.1, EPS, 0.3, 0.45)]
        assert sweep == sorted(sweep)


class TestQueries:
    def test_range_matches_brute(self, seeded_store, rng):
        store, pts = seeded_store
        q = rng.random(3)
        ids, dists = store.range(q)
        d = np.linalg.norm(pts - q, axis=1)
        want = set(np.nonzero(d <= EPS)[0].tolist())
        assert set(ids.tolist()) == want
        assert np.all(np.diff(dists) >= 0)

    def test_range_sees_delta_rows(self, rng):
        store = EGOStore(EPS, compact_threshold=10_000)
        store.insert(np.array([[0.5, 0.5]]))
        ids, dists = store.range(np.array([0.5, 0.5]))
        assert ids.tolist() == [0] and dists[0] == 0.0

    def test_knn_matches_brute(self, seeded_store, rng):
        store, pts = seeded_store
        q = rng.random(3)
        ids, dists = store.knn(q, 9)
        d = np.linalg.norm(pts - q, axis=1)
        want = np.lexsort((np.arange(len(pts)), d))[:9]
        assert ids.tolist() == want.tolist()
        assert np.allclose(dists, d[want])

    def test_knn_k_larger_than_store(self, rng):
        store = EGOStore.from_points(rng.random((5, 2)), EPS)
        ids, _dists = store.knn(rng.random(2), 50)
        assert len(ids) == 5

    def test_knn_far_query_finds_k(self, rng):
        """Regression: a query box far from the data mapped to cells
        beyond the int64 range, its slice came back empty, and kNN
        returned no ids after 64 doublings of its radius."""
        pts = np.random.default_rng(1).random((50, 3))
        store = EGOStore.from_points(pts, 1e-9)
        q = np.array([1e11, 0.0, 0.0])
        ids, dists = store.knn(q, 3)
        d = np.linalg.norm(pts - q, axis=1)
        assert ids.tolist() == np.lexsort((np.arange(50), d))[:3].tolist()
        assert np.allclose(dists, 1e11)
        assert len(store.range(q, 2e11)[0]) == 50

    def test_join_result_distances(self, rng):
        pts = rng.random((40, 2))
        store = EGOStore.from_points(pts, EPS)
        res = store.join_result(collect_distances=True)
        a, b = res.pairs()
        d = res.distances()
        assert np.allclose(
            d, np.linalg.norm(pts[a] - pts[b], axis=1))
        assert (d <= EPS + 1e-12).all()

    def test_digest_identical_to_batch_pipeline(self, rng):
        """The acceptance criterion: store join ≡ batch ego join."""
        from repro.core.ego_join import ego_self_join

        pts = rng.random((120, 4))
        store = EGOStore.from_points(pts[:90], EPS)
        store.insert(pts[90:])
        store.delete(list(range(0, 30, 3)))
        ids, live = store.live_points()
        batch = canonical_pairs(ego_self_join(live, EPS, ids=ids))
        assert pair_digest(store.join()) == pair_digest(batch)


def brute_range(store: EGOStore, q: np.ndarray, epsilon: float):
    """``(ids, distances)`` of a brute-force scan of the live points."""
    ids, pts = store.live_points()
    diffs = pts - q
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    hit = d2 <= epsilon * epsilon
    ids, dists = ids[hit], np.sqrt(d2[hit])
    order = np.lexsort((ids, dists))
    return ids[order], dists[order]


class TestQueriesUnderChurn:
    """range and kNN equal a brute-force scan of the live points, with
    dead main rows and live delta rows, at ε on both sides of the grid
    ε.  Coordinates sit on a 0.1 grid, so exact-ε ties occur."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
           n=st.integers(1, 120), threshold=st.integers(1, 40),
           steps=st.integers(1, 4), k=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_range_and_knn_match_brute_force(self, seed, d, n, threshold,
                                             steps, k):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 11, size=(n, d)) / 10
        eps = steps / 10
        store = EGOStore.from_points(pts[:n // 2], eps,
                                     compact_threshold=threshold)
        start = n // 2
        while start < n:
            stop = min(n, start + int(rng.integers(1, 8)))
            store.insert(pts[start:stop],
                         ids=np.arange(start, stop, dtype=np.int64))
            start = stop
            live = store.ids()
            store.delete(rng.choice(live, size=min(len(live) - 1, int(
                rng.integers(0, 4))), replace=False))
        for q in rng.integers(0, 11, size=(3, d)) / 10:
            for query_eps in (eps / 2, eps, 3.7 * eps, 1.0):
                got = store.range(q, query_eps)
                want = brute_range(store, q, query_eps)
                assert got[0].tolist() == want[0].tolist()
                assert got[1].tobytes() == want[1].tobytes()
            ids, dists = store.knn(q, k)
            want = brute_range(store, q, np.inf)
            assert ids.tolist() == want[0][:k].tolist()
            assert dists.tobytes() == want[1][:k].tobytes()


class TestCacheStaleness:
    """Satellite: the LRU can never serve a result across a mutation."""

    def test_hit_only_at_same_version(self, seeded_store):
        store, _ = seeded_store
        store.join()
        before = store.stats()
        store.join()
        after = store.stats()
        assert after.cache_hits == before.cache_hits + 1

    @pytest.mark.parametrize("mutate", ["insert", "delete", "epsilon"])
    def test_every_mutation_invalidates(self, seeded_store, rng, mutate):
        store, _ = seeded_store
        store.join()
        assert len(store._cache) == 1
        if mutate == "insert":
            store.insert(rng.random((1, 3)))
        elif mutate == "delete":
            store.delete([int(store.ids()[0])])
        else:
            store.set_epsilon(EPS * 0.9)
        assert len(store._cache) == 0

    def test_qualifying_insert_never_served_stale(self, rng):
        """Regression: a join cached before an insert that adds pairs
        must not answer the join after it."""
        pts = rng.random((60, 3))
        store = EGOStore.from_points(pts, EPS)
        stale = pair_set(store.join())
        anchor = pts[11]
        mate = anchor + EPS / 4  # inside ε of the anchor: adds pairs
        new_id = int(store.insert(mate[None, :])[0])
        fresh = pair_set(store.join())
        assert fresh != stale
        assert any(new_id in p for p in fresh)
        assert fresh == store_truth(store)

    def test_manually_planted_stale_entry_raises(self, seeded_store):
        """If invalidation were broken, the read guard still fails
        loudly instead of serving the stale result."""
        store, _ = seeded_store
        pairs = store.join()
        key = ("join", float(EPS), store.data_version)
        store.insert(np.full((1, 3), 0.25))  # bumps the version
        store._cache[key] = (key[-1], pairs)  # simulate broken LRU
        with pytest.raises(StaleCacheError):
            store._cache_get(key)

    def test_surviving_entry_detected_on_invalidate(self, seeded_store):
        store, _ = seeded_store
        store._version += 1  # mutate without invalidating…
        store._cache[("join", EPS, store._version)] = (
            store._version, np.empty((0, 2), dtype=np.int64))
        with pytest.raises(StaleCacheError):
            store._invalidate_cache()  # …the guard still catches it

    def test_cache_size_zero_disables(self, rng):
        store = EGOStore.from_points(rng.random((30, 2)), EPS,
                                     cache_size=0)
        store.join()
        store.join()
        assert store.stats().cache_hits == 0

    def test_lru_eviction_bounded(self, seeded_store):
        store, _ = seeded_store
        for i in range(2 * store._cache_size):
            store.join(0.01 + 0.002 * i)
        assert len(store._cache) <= store._cache_size


class TestJournal:
    def test_replay_rebuilds_identical_store(self, tmp_path, rng):
        jpath = str(tmp_path / "store.journal")
        store = EGOStore(EPS, compact_threshold=16, journal=jpath)
        for _ in range(6):
            store.insert(rng.random((7, 3)))
        store.delete(store.ids()[:5].tolist())
        store.set_epsilon(0.3)
        recovered = EGOStore.recover(jpath)
        assert recovered.state_digest() == store.state_digest()
        assert np.array_equal(recovered.join(), store.join())

    def test_crash_mid_sequence_replays(self, tmp_path, rng):
        jpath = str(tmp_path / "store.journal")
        store = EGOStore(EPS, compact_threshold=8, journal=jpath)
        for _ in range(8):
            store.insert(rng.random((5, 2)))
        digest = store.state_digest()
        jr = Journal(jpath)
        ops = jr.store_ops()
        jr.state["store_ops"] = ops[:4]  # "crash" loses the tail
        jr.flush()
        partial = EGOStore.recover(jr)
        assert partial.state_digest() != digest
        for op in ops[4:]:  # the client re-sends the lost tail
            partial.insert(np.asarray(op[2]),
                           ids=np.asarray(op[1], dtype=np.int64))
        assert partial.state_digest() == digest

    def test_recovery_continues_journaling(self, tmp_path, rng):
        jpath = str(tmp_path / "store.journal")
        store = EGOStore(EPS, journal=jpath)
        store.insert(rng.random((10, 2)))
        rec1 = EGOStore.recover(jpath)
        rec1.insert(rng.random((5, 2)))
        rec2 = EGOStore.recover(jpath)
        assert rec2.state_digest() == rec1.state_digest()

    def test_recover_of_removed_engine_rejected(self, tmp_path, rng):
        """A journal written with an engine that no longer exists fails
        with the accepted names, not a traceback from deep inside."""
        jpath = str(tmp_path / "store.journal")
        EGOStore(EPS, journal=jpath).insert(rng.random((10, 2)))
        jr = Journal(jpath)
        jr.state["store_meta"]["engine"] = "batched"
        jr.flush()
        with pytest.raises(ValueError, match="unknown engine 'batched'; "
                           "accepted engines: scalar, vector, auto"):
            EGOStore.recover(jpath)

    def test_recover_without_meta_rejected(self, tmp_path):
        jpath = str(tmp_path / "plain.journal")
        Journal(jpath).flush()
        with pytest.raises(ValueError, match="store metadata"):
            EGOStore.recover(jpath)


class TestObservability:
    def test_counters_and_spans_recorded(self, rng):
        from repro.obs import MetricsRegistry, Tracer

        registry = MetricsRegistry()
        tracer = Tracer()
        store = EGOStore(EPS, compact_threshold=8, metrics=registry,
                         trace=tracer)
        store.insert(rng.random((20, 2)))
        store.join()
        store.range(rng.random(2))
        assert registry.get("ego_store_inserts_total").total() == 20
        assert registry.get("ego_store_compactions_total").total() >= 1
        queries = registry.get("ego_store_queries_total")
        assert queries.value_of("join") == 1
        assert queries.value_of("range") == 1
        names = {e["name"] for e in tracer.events}
        assert "store_compaction" in names and "store_join" in names


class TestServeCli:
    def test_serve_selftest_passes(self, capsys):
        assert main(["serve", "--selftest-ops", "25", "--seed", "5",
                     "--compact-threshold", "16"]) == 0
        out = capsys.readouterr().out
        assert "digest:" in out
        assert "identical to the batch pipeline" in out
        assert "range checks identical to a brute-force scan" in out

    def test_serve_selftest_fails_on_wrong_range(self, monkeypatch,
                                                 capsys):
        right = EGOStore.range

        def drop_farthest(store, query, epsilon=None):
            ids, dists = right(store, query, epsilon)
            return ids[:-1], dists[:-1]

        monkeypatch.setattr(EGOStore, "range", drop_farthest)
        assert main(["serve", "--selftest-ops", "25", "--seed", "5",
                     "--compact-threshold", "16", "--epsilon", "0.5"]) == 1
        assert "RANGE DIVERGED" in capsys.readouterr().err

    def test_serve_journal_then_recover(self, tmp_path, capsys):
        jpath = str(tmp_path / "serve.journal")
        assert main(["serve", "--selftest-ops", "15", "--seed", "2",
                     "--journal", jpath]) == 0
        digest1 = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("digest:")][0]
        assert main(["serve", "--selftest-ops", "0", "--journal", jpath,
                     "--recover"]) == 0
        digest2 = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("digest:")][0]
        assert digest1 == digest2

    def test_serve_recover_requires_journal(self, capsys):
        assert main(["serve", "--recover"]) == 2
