"""Closed-form Gaussian conditioning against independent oracles."""

import numpy as np
import pytest

from latent_abcss.analytic_posterior import GaussianDist, linear_gaussian_posterior, posterior_sample
from latent_abcss.rng_linalg import NotPositiveDefiniteError, RngStream


def condition_joint_gaussian(prior_mean, prior_cov, a, noise_cov, y):
    """Oracle: build the joint Gaussian of (x, y) and condition by block formulas."""
    a = np.asarray(a, dtype=np.float64)
    sxx = prior_cov
    sxy = prior_cov @ a.T
    syy = a @ prior_cov @ a.T + noise_cov
    gain = sxy @ np.linalg.inv(syy)
    mean = prior_mean + gain @ (y - a @ prior_mean)
    cov = sxx - gain @ sxy.T
    return mean, cov


class TestLinearGaussianPosterior:
    def test_textbook_scalar_update(self):
        prior = GaussianDist([0.0], [[1.0]])
        post = linear_gaussian_posterior(prior, [[1.0]], [[1.0]], [1.0])
        np.testing.assert_allclose(post.mean, [0.5])
        np.testing.assert_allclose(post.cov, [[0.5]])

    def test_uninformative_noise_limit(self):
        prior = GaussianDist([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        post = linear_gaussian_posterior(prior, a, 1e9 * np.eye(2), [100.0, 100.0])
        np.testing.assert_allclose(post.mean, prior.mean, atol=1e-6)
        np.testing.assert_allclose(post.cov, prior.cov, atol=1e-6)

    def test_two_cell_joint_conditioning_oracle(self):
        prior_mean = np.array([0.5, 0.4])
        prior_cov = np.array([[0.16, 0.10], [0.10, 0.16]])
        a = np.array([[0.10, 0.10], [0.14, 0.00]])
        noise_cov = 0.25 * np.eye(2)
        y = np.array([0.3, 0.2])
        post = linear_gaussian_posterior(GaussianDist(prior_mean, prior_cov), a, noise_cov, y)
        mean_o, cov_o = condition_joint_gaussian(prior_mean, prior_cov, a, noise_cov, y)
        np.testing.assert_allclose(post.mean, mean_o, atol=1e-8)
        np.testing.assert_allclose(post.cov, cov_o, atol=1e-8)

    def test_posterior_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            b = rng.standard_normal((6, 6))
            prior_cov = b @ b.T + 6 * np.eye(6)
            a = rng.standard_normal((4, 6))
            y = rng.standard_normal(4)
            post = linear_gaussian_posterior(
                GaussianDist(np.zeros(6), prior_cov), a, np.eye(4), y
            )
            assert np.all(np.diag(post.cov) <= np.diag(prior_cov) + 1e-12)

    def test_posterior_mean_fits_data_better(self):
        rng = np.random.default_rng(11)
        prior_cov = np.eye(5)
        prior_mean = rng.standard_normal(5)
        a = rng.standard_normal((3, 5))
        y = rng.standard_normal(3) * 4.0
        post = linear_gaussian_posterior(GaussianDist(prior_mean, prior_cov), a, 0.5 * np.eye(3), y)
        assert np.linalg.norm(a @ post.mean - y) <= np.linalg.norm(a @ prior_mean - y)

    def test_singular_innovation_raises(self):
        # zero noise and a repeated ray: S = A C A' has a zero pivot at the repeat
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        prior = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(NotPositiveDefiniteError) as err:
            linear_gaussian_posterior(prior, a, np.zeros((3, 3)), [1.0, 2.0, 1.0])
        assert err.value.pivot == 2

    def test_random_rays_match_joint_conditioning_oracle(self):
        # 30 cells, 8 rays: the mean solves one right-hand side, the covariance 30
        rng = np.random.default_rng(13)
        b = rng.standard_normal((30, 30))
        prior_cov = b @ b.T / 30 + 0.1 * np.eye(30)
        prior_mean = rng.standard_normal(30)
        a = rng.uniform(0.0, 0.2, size=(8, 30))
        noise_cov = 0.01 * np.eye(8)
        y = a @ rng.standard_normal(30)
        post = linear_gaussian_posterior(GaussianDist(prior_mean, prior_cov), a, noise_cov, y)
        mean_o, cov_o = condition_joint_gaussian(prior_mean, prior_cov, a, noise_cov, y)
        assert np.linalg.norm(post.mean - mean_o) <= 1e-10 * np.linalg.norm(mean_o)
        assert np.linalg.norm(post.cov - cov_o) <= 1e-10 * np.linalg.norm(cov_o)

    def test_inconsistent_dimensions(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            linear_gaussian_posterior(prior, np.ones((2, 3)), np.eye(2), [0.0, 0.0])


class TestPosteriorSample:
    def test_tiny_covariance_collapses_to_mean(self):
        d = GaussianDist([2.0, -1.0], 1e-20 * np.eye(2))
        draws = posterior_sample(d, 50, RngStream(3))
        np.testing.assert_allclose(draws, np.tile(d.mean, (50, 1)), atol=1e-9)

    def test_scalar_variance_statistics(self):
        prior = GaussianDist([0.0], [[1.0]])
        post = linear_gaussian_posterior(prior, [[1.0]], [[1.0]], [1.0])
        draws = posterior_sample(post, 10_000, RngStream(4))
        assert draws.var() == pytest.approx(0.5, rel=0.05)

    def test_deterministic(self):
        d = GaussianDist(np.zeros(3), np.eye(3))
        a = posterior_sample(d, 8, RngStream(5, 1))
        b = posterior_sample(d, 8, RngStream(5, 1))
        np.testing.assert_array_equal(a, b)


class TestGaussianDist:
    def test_cached_factor_reconstructs(self):
        rng = np.random.default_rng(12)
        b = rng.standard_normal((4, 4))
        cov = b @ b.T + 4 * np.eye(4)
        d = GaussianDist(np.zeros(4), cov)
        err = np.linalg.norm(d.chol @ d.chol.T - cov) / np.linalg.norm(cov)
        assert err < 1e-8

    def test_indefinite_covariance_raises_when_sampled(self):
        d = GaussianDist(np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])  # factored lazily
        with pytest.raises(NotPositiveDefiniteError):
            posterior_sample(d, 4, RngStream(6))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianDist(np.zeros(3), np.eye(2))
