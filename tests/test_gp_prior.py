"""Exponential-kernel prior: kernel values, covariance assembly, sampling."""

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from latent_abcss.gp_prior import GPConfig, Grid, build_covariance, exp_kernel, sample_fields
from latent_abcss.rng_linalg import RngStream, add_jitter, cholesky, sample_mvn

# default, desk-scale, CLI micro and a non-square grid with its kernel settings
PRIOR_GRIDS = [
    (Grid(), GPConfig()),
    (Grid(20, 16, 0.1), GPConfig(lengthscale=1.0)),
    (Grid(6, 5, 0.1), GPConfig(lengthscale=0.4)),
    (Grid(7, 13, 0.3), GPConfig(lengthscale=0.7, variance=2.0)),
]


def reference_covariance(grid, cfg):
    """The (n, n, 2) difference-array formula, symmetrised."""
    pts = grid.cell_centers()
    diff = pts[:, None, :] - pts[None, :, :]
    cov = cfg.variance * np.exp(-np.sqrt(np.sum(diff * diff, axis=-1)) / cfg.lengthscale)
    return (cov + cov.T) / 2.0


class TestGrid:
    def test_defaults_match_test_case(self):
        g = Grid()
        assert (g.n_rows, g.n_cols, g.cell_size) == (50, 40, 0.1)
        assert g.n_cells == 2000
        np.testing.assert_allclose((g.width, g.height), (4.0, 5.0))

    def test_centers_are_cell_midpoints(self):
        g = Grid(2, 3, 0.5)
        centers = g.cell_centers()
        assert centers.shape == (6, 2)
        np.testing.assert_allclose(centers[0], [0.25, 0.25])
        np.testing.assert_allclose(centers[-1], [1.25, 0.75])

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Grid(0, 3, 0.1)
        with pytest.raises(ValueError):
            Grid(2, 2, 0.0)


class TestExpKernel:
    def test_variance_at_origin(self):
        assert exp_kernel(0.0, GPConfig()) == pytest.approx(0.16)

    def test_vanishes_at_infinity(self):
        assert exp_kernel(1e9, GPConfig()) == pytest.approx(0.0, abs=1e-300)

    def test_one_lengthscale_decay(self):
        assert exp_kernel(2.5, GPConfig()) == pytest.approx(0.16 * np.exp(-1.0), rel=1e-12)
        assert exp_kernel(2.5, GPConfig()) == pytest.approx(0.058861, rel=1e-4)

    def test_strictly_decreasing(self):
        h = np.linspace(0, 10, 100)
        v = exp_kernel(h, GPConfig())
        assert np.all(np.diff(v) < 0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            exp_kernel(-0.1, GPConfig())


class TestBuildCovariance:
    def test_single_cell(self):
        cov = build_covariance(Grid(1, 1, 0.1), GPConfig())
        np.testing.assert_allclose(cov, [[0.16]])

    def test_two_cell_off_diagonal(self):
        cov = build_covariance(Grid(1, 2, 0.1), GPConfig())
        np.testing.assert_allclose(cov[0, 1], 0.16 * np.exp(-0.1 / 2.5), rtol=1e-12)
        np.testing.assert_allclose(cov[0, 0], 0.16)

    def test_symmetric_stationary(self):
        cov = build_covariance(Grid(5, 4, 0.3), GPConfig(lengthscale=1.0))
        np.testing.assert_array_equal(cov, cov.T)
        # stationarity: same center distance, same covariance
        g = Grid(5, 4, 0.3)
        pts = g.cell_centers()
        d01 = np.linalg.norm(pts[0] - pts[1])
        d23 = np.linalg.norm(pts[2] - pts[3])
        assert d01 == pytest.approx(d23)
        assert cov[0, 1] == pytest.approx(cov[2, 3], rel=1e-12)

    def test_full_grid_is_spd_after_jitter(self):
        cov = build_covariance(Grid(), GPConfig())
        assert cov.shape == (2000, 2000)
        cholesky(add_jitter(cov))  # must not raise

    @pytest.mark.parametrize("grid, cfg", PRIOR_GRIDS)
    def test_equals_difference_array_formula_bit_for_bit(self, grid, cfg):
        cov = build_covariance(grid, cfg)
        np.testing.assert_array_equal(cov.view(np.uint64), reference_covariance(grid, cfg).view(np.uint64))

    @pytest.mark.parametrize("grid, cfg", PRIOR_GRIDS)
    def test_factor_matches_lapack_dpotrf(self, grid, cfg):
        cov = add_jitter(build_covariance(grid, cfg))
        ref, info = dpotrf(cov, lower=1, clean=1)
        assert info == 0
        low = cholesky(cov)
        assert np.max(np.abs(low - ref)) <= 1e-13 * np.max(np.abs(ref))
        # LAPACK's layout: triangular solves on the factor take dpotrf's path
        assert low.flags.f_contiguous

    def test_cell_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_covariance(Grid(80, 80, 0.1), GPConfig())


class TestSampleFields:
    def test_degenerate_variance_returns_mean(self):
        values = sample_fields(Grid(3, 3, 0.1), GPConfig(variance=1e-30, mean=0.5), 5, RngStream(1))
        assert isinstance(values, np.ndarray) and values.shape == (5, 9)
        np.testing.assert_allclose(values, 0.5, atol=1e-10)

    def test_empirical_variance_small_grid(self):
        grid = Grid(4, 4, 0.1)
        values = sample_fields(grid, GPConfig(), 4000, RngStream(2))
        np.testing.assert_allclose(values.var(axis=0), 0.16, rtol=0.10)

    def test_empirical_covariance_converges(self):
        grid = Grid(3, 3, 0.2)
        cfg = GPConfig(lengthscale=0.5)
        cov = build_covariance(grid, cfg)
        values = sample_fields(grid, cfg, 100_000, RngStream(3))
        np.testing.assert_allclose(np.cov(values.T), cov, rtol=0.05, atol=0.003)

    def test_count_tuple_draws_each_split_from_one_factor(self):
        grid, cfg = Grid(3, 4, 0.1), GPConfig()
        rng = RngStream(5, 1)
        low = cholesky(add_jitter(build_covariance(grid, cfg)))
        mean = np.full(grid.n_cells, cfg.mean)
        parts = sample_fields(grid, cfg, (6, 2), rng)
        assert len(parts) == 2
        for i, (part, n) in enumerate(zip(parts, (6, 2))):
            np.testing.assert_array_equal(part, sample_mvn(mean, low, n, rng.split(i)))

    def test_same_seed_identical(self):
        a = sample_fields(Grid(3, 3, 0.1), GPConfig(), 4, RngStream(4))
        b = sample_fields(Grid(3, 3, 0.1), GPConfig(), 4, RngStream(4))
        np.testing.assert_array_equal(a, b)

