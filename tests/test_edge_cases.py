"""Adversarial and degenerate inputs across the whole pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_join import ego_join_files, ego_self_join, \
    ego_self_join_file
from repro.joins.epskdb_join import epskdb_self_join
from repro.joins.grid_hash import grid_hash_self_join
from repro.joins.msj_join import msj_self_join
from repro.storage.disk import SimulatedDisk

from conftest import brute_truth, make_file


def external(points, epsilon, unit_bytes=300, buffer_units=3, **kw):
    with SimulatedDisk() as disk:
        pf = make_file(disk, np.asarray(points, dtype=float))
        report = ego_self_join_file(pf, epsilon, unit_bytes=unit_bytes,
                                    buffer_units=buffer_units, **kw)
        return report.result.canonical_pair_set()


class TestDegenerateGeometry:
    def test_all_points_identical(self):
        pts = np.tile([[0.37, 0.91]], (40, 1))
        assert len(external(pts, 0.1)) == 40 * 39 // 2

    def test_points_on_cell_boundaries(self):
        """Coordinates exactly at multiples of eps (floor boundaries)."""
        eps = 0.25
        grid = np.array([[i * eps, j * eps]
                         for i in range(5) for j in range(5)])
        assert external(grid, eps) == brute_truth(grid, eps)

    def test_collinear_points(self):
        pts = np.column_stack([np.linspace(0, 1, 60), np.zeros(60)])
        eps = 0.04
        assert external(pts, eps) == brute_truth(pts, eps)

    def test_single_dimension(self, rng):
        pts = rng.random((80, 1))
        assert external(pts, 0.05) == brute_truth(pts, 0.05)

    def test_high_dimension_small_n(self, rng):
        pts = rng.random((30, 32))
        eps = 1.2
        assert external(pts, eps) == brute_truth(pts, eps)

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [0.05, 0.0]])
        assert external(pts, 0.1) == {(0, 1)}
        assert external(pts, 0.01) == set()

    def test_boundary_distance_inclusive(self):
        """Pairs at distance exactly eps belong to the result."""
        pts = np.array([[0.0, 0.0], [0.3, 0.4]])  # distance 0.5 exactly
        assert external(pts, 0.5) == {(0, 1)}


class TestCoordinateRanges:
    def test_negative_coordinates(self, rng):
        pts = rng.random((100, 3)) * 4 - 2
        eps = 0.4
        assert external(pts, eps) == brute_truth(pts, eps)

    def test_large_offset_coordinates(self, rng):
        pts = rng.random((80, 2)) + 1e6
        eps = 0.1
        assert external(pts, eps) == brute_truth(pts, eps)

    def test_mixed_scale_dimensions(self, rng):
        pts = rng.random((100, 3)) * np.array([1000.0, 1.0, 0.001])
        eps = 0.5
        assert external(pts, eps) == brute_truth(pts, eps)

    def test_tiny_epsilon(self, rng):
        pts = rng.random((60, 2))
        eps = 1e-9
        assert external(pts, eps) == brute_truth(pts, eps)

    def test_huge_epsilon_all_pairs(self, rng):
        pts = rng.random((40, 3))
        assert len(external(pts, 100.0)) == 40 * 39 // 2

    @given(st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=0.01, max_value=5.0),
           st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_translation_invariance(self, offset, eps, seed):
        """Shifting every point moves the grid anchor but not the result."""
        rng = np.random.default_rng(seed)
        pts = rng.random((40, 2))
        base = ego_self_join(pts, eps).canonical_pair_set()
        shifted = ego_self_join(pts + offset, eps).canonical_pair_set()
        assert base == shifted


class TestFragmentStress:
    @pytest.mark.parametrize("unit_bytes", [17, 33, 100, 301, 999])
    def test_pathological_unit_sizes(self, rng, unit_bytes):
        """Unit sizes co-prime with the record size exercise fragments."""
        pts = rng.random((60, 2))   # 24-byte records
        eps = 0.3
        assert external(pts, eps, unit_bytes=unit_bytes,
                        buffer_units=3) == brute_truth(pts, eps)

    def test_unit_smaller_than_record(self, rng):
        """Units shorter than one record still partition correctly."""
        pts = rng.random((30, 4))   # 40-byte records
        assert external(pts, 0.4, unit_bytes=24,
                        buffer_units=4) == brute_truth(pts, 0.4)

    def test_one_record_per_unit(self, rng):
        pts = rng.random((25, 2))
        assert external(pts, 0.35, unit_bytes=24,
                        buffer_units=2) == brute_truth(pts, 0.35)


class TestSkewedDistributions:
    def test_heavily_clustered(self, rng):
        """90% of the mass in one tiny cluster."""
        dense = rng.normal(0.5, 0.002, (180, 2))
        sparse = rng.random((20, 2))
        pts = np.vstack([dense, sparse])
        eps = 0.01
        assert external(pts, eps) == brute_truth(pts, eps)

    def test_exponential_spacing(self, rng):
        pts = np.column_stack([2.0 ** -np.arange(40, dtype=float),
                               np.zeros(40)])
        eps = 0.01
        assert external(pts, eps) == brute_truth(pts, eps)

    def test_other_joins_on_skewed_data(self, rng):
        dense = rng.normal(0.5, 0.002, (90, 2))
        sparse = rng.random((10, 2))
        pts = np.clip(np.vstack([dense, sparse]), 0, 1)
        eps = 0.02
        truth = brute_truth(pts, eps)
        assert grid_hash_self_join(pts, eps).canonical_pair_set() == truth
        assert msj_self_join(pts, eps).result.canonical_pair_set() == truth
        assert epskdb_self_join(
            np.arange(100), pts, eps).result.canonical_pair_set() == truth


class TestTwoFileEdges:
    def test_interleaved_sets(self, rng):
        r = rng.random((50, 2))
        s = rng.random((50, 2))
        with SimulatedDisk() as dr, SimulatedDisk() as ds:
            fr = make_file(dr, r)
            fs = make_file(ds, s)
            report = ego_join_files(fr, fs, 0.2, unit_bytes=120,
                                    buffer_units=2)
        expected = {(i, j) for i in range(50) for j in range(50)
                    if np.linalg.norm(r[i] - s[j]) <= 0.2}
        assert report.result.pair_set() == expected

    def test_singleton_files(self):
        r = np.array([[0.5, 0.5]])
        s = np.array([[0.52, 0.5]])
        with SimulatedDisk() as dr, SimulatedDisk() as ds:
            fr = make_file(dr, r)
            fs = make_file(ds, s)
            report = ego_join_files(fr, fs, 0.1, unit_bytes=64,
                                    buffer_units=2)
        assert report.result.pair_set() == {(0, 0)}


class TestNonFiniteInputs:
    def test_self_join_rejects_nan(self):
        pts = np.array([[0.1, np.nan], [0.2, 0.3]])
        with pytest.raises(ValueError, match="non-finite"):
            ego_self_join(pts, 0.5)

    def test_self_join_rejects_inf(self):
        pts = np.array([[0.1, np.inf], [0.2, 0.3]])
        with pytest.raises(ValueError, match="non-finite"):
            ego_self_join(pts, 0.5)

    def test_two_set_join_rejects_nan_in_either_side(self):
        from repro.core.ego_join import ego_join
        good = np.array([[0.1, 0.2]])
        bad = np.array([[np.nan, 0.2]])
        with pytest.raises(ValueError):
            ego_join(bad, good, 0.5)
        with pytest.raises(ValueError):
            ego_join(good, bad, 0.5)

    def test_finite_inputs_unaffected(self, rng):
        pts = rng.random((50, 2))
        result = ego_self_join(pts, 0.3)
        assert result.canonical_pair_set() == brute_truth(pts, 0.3)


#: One coordinate of each kind the grid cell mapping cannot place.
NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                                     ids=["nan", "inf", "-inf"])


def poisoned(rng, bad, n=500):
    """``n`` uniform 3-d points, one of whose coordinates is ``bad``."""
    pts = rng.random((n, 3))
    pts[n // 3, 1] = bad
    return pts


class TestNonFiniteFileInputs:
    """The file pipeline rejects non-finite records while the external
    sort generates its runs, instead of joining garbage grid cells."""

    @NON_FINITE
    def test_serial_file_self_join_rejects(self, rng, bad):
        with pytest.raises(ValueError, match="non-finite"):
            external(poisoned(rng, bad), 0.1)

    @NON_FINITE
    def test_parallel_file_self_join_rejects(self, rng, bad, tmp_path):
        with SimulatedDisk(path=str(tmp_path / "in.pts")) as disk:
            pf = make_file(disk, poisoned(rng, bad))
            with pytest.raises(ValueError, match="non-finite"):
                ego_self_join_file(pf, 0.1, unit_bytes=300,
                                   buffer_units=3, workers=2)

    @NON_FINITE
    def test_two_file_join_rejects_either_side(self, rng, bad):
        good = rng.random((200, 3))
        for r, s in ((poisoned(rng, bad), good), (good, poisoned(rng, bad))):
            with SimulatedDisk() as disk_r, SimulatedDisk() as disk_s:
                fr, fs = make_file(disk_r, r), make_file(disk_s, s)
                with pytest.raises(ValueError, match="non-finite"):
                    ego_join_files(fr, fs, 0.1, unit_bytes=300,
                                   buffer_units=3)

    @NON_FINITE
    def test_cli_join_exits_2(self, rng, bad, tmp_path, capsys):
        from repro.cli import main
        from repro.data.loader import save_points
        path = str(tmp_path / "in.pts")
        save_points(path, poisoned(rng, bad))
        assert main(["join", path, "--epsilon", "0.1",
                     "--count-only"]) == 2
        assert "error: points contain non-finite" in capsys.readouterr().err
