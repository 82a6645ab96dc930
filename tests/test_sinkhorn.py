"""Entropic transport against brute-force and closed-form oracles."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from latent_abcss.sinkhorn import (
    SinkhornConfig,
    cost_matrix,
    entropic_ot,
    ot_point_gradient,
)


def brute_force_assignment_cost(xs, ys):
    """Oracle: optimal assignment cost by enumerating all permutations."""
    n = xs.shape[0]
    c = cost_matrix(xs, ys)
    best = np.inf
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        best = min(best, c[rows, perm].sum() / n)
    return best


class TestCostMatrix:
    def test_gemm_squared_cost_matches_cdist_on_offset_fields(self):
        # desk-like field clouds: 320 cells around a mean slowness of 0.5
        gen = np.random.default_rng(10)
        xs = 0.5 + 0.4 * gen.standard_normal((64, 320))
        ys = 0.5 + 0.4 * gen.standard_normal((48, 320))
        for a, b in ((xs, ys), (xs, xs), (xs, ys[:1])):
            c = cost_matrix(a, b)
            assert np.all(c >= 0.0)
            np.testing.assert_allclose(c, cdist(a, b, "sqeuclidean"), rtol=1e-12, atol=1e-12)


class TestEntropicOt:
    def test_single_point_transport_is_forced(self):
        for reg in (1e-3, 1.0, 100.0):
            tp = entropic_ot(np.array([[0.0]]), np.array([[2.0]]), SinkhornConfig(reg=reg))
            np.testing.assert_allclose(tp.plan, [[1.0]])
            assert tp.cost == pytest.approx(4.0)

    def test_identical_clouds_debiased_is_zero(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((10, 3))
        cfg = SinkhornConfig(reg=0.5, max_iter=200, debiased=True)
        assert abs(entropic_ot(xs, xs, cfg).cost) < 1e-9

    def test_matches_brute_force_assignment(self):
        rng = np.random.default_rng(1)
        cfg = SinkhornConfig(reg=1e-3, max_iter=10_000, debiased=True, tol=1e-13)
        for _ in range(5):
            xs = rng.uniform(size=(8, 2))
            ys = rng.uniform(size=(8, 2))
            exact = brute_force_assignment_cost(xs, ys)
            est = entropic_ot(xs, ys, cfg).cost
            assert est == pytest.approx(exact, rel=0.02)

    def test_marginals_after_convergence(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((7, 2))
        ys = rng.standard_normal((5, 2))
        tp = entropic_ot(xs, ys, SinkhornConfig(reg=0.1, max_iter=2000))
        np.testing.assert_allclose(tp.plan.sum(axis=1), 1 / 7, atol=1e-4)
        np.testing.assert_allclose(tp.plan.sum(axis=0), 1 / 5, atol=1e-4)

    def test_marginal_residuals_decrease(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((12, 2))
        ys = rng.standard_normal((9, 2)) + 1.0

        def residual(max_iter):
            plan = entropic_ot(xs, ys, SinkhornConfig(reg=0.5, max_iter=max_iter)).plan
            return np.abs(plan.sum(axis=1) - 1.0 / 12).sum() + np.abs(plan.sum(axis=0) - 1.0 / 9).sum()

        res = np.array([residual(k) for k in range(1, 51)])
        assert np.all(np.diff(res) <= 1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((9, 3))
        ys = rng.standard_normal((9, 3))
        cfg = SinkhornConfig(reg=1.0, max_iter=500)
        base = entropic_ot(xs, ys, cfg).cost
        shuffled = entropic_ot(xs[::-1], ys, cfg).cost
        assert shuffled == pytest.approx(base, abs=1e-9)

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            entropic_ot(np.array([[np.inf]]), np.array([[0.0]]), SinkhornConfig())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            entropic_ot(np.ones((3, 2)), np.ones((3, 3)), SinkhornConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SinkhornConfig(reg=0.0)
        with pytest.raises(ValueError):
            SinkhornConfig(max_iter=0)


def debiased_cost(xs, ys, cfg):
    return entropic_ot(xs, ys, replace(cfg, debiased=True)).cost


class TestSinkhornDivergence:
    """The debiased cost S(a, b) = OT(a, b) - OT(a, a)/2 - OT(b, b)/2."""

    def test_identical_clouds(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((20, 4))
        assert debiased_cost(xs, xs, SinkhornConfig(reg=1.0, max_iter=200)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((15, 2))
        ys = rng.standard_normal((12, 2)) + 0.5
        cfg = SinkhornConfig(reg=0.5, max_iter=500)
        assert debiased_cost(xs, ys, cfg) == pytest.approx(
            debiased_cost(ys, xs, cfg), abs=1e-9
        )

    def test_gaussian_mean_shift_oracle(self):
        # equal covariances: squared W2 equals the squared mean distance
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((500, 1))
        ys = rng.standard_normal((500, 1)) + 3.0
        cfg = SinkhornConfig(reg=0.05, max_iter=500)
        assert debiased_cost(xs, ys, cfg) == pytest.approx(9.0, rel=0.15)

    def test_essentially_nonnegative(self):
        rng = np.random.default_rng(8)
        cfg = SinkhornConfig(reg=1.0, max_iter=100)
        for _ in range(10):
            xs = rng.standard_normal((10, 2))
            ys = rng.standard_normal((10, 2))
            assert debiased_cost(xs, ys, cfg) >= -1e-9


class TestOtPointGradient:
    def test_matches_finite_differences_with_frozen_plan(self):
        rng = np.random.default_rng(9)
        xs = rng.standard_normal((6, 3))
        ys = rng.standard_normal((5, 3))
        tp = entropic_ot(xs, ys, SinkhornConfig(reg=1.0, max_iter=300))
        grad = ot_point_gradient(xs, ys, tp.plan)

        def cost_of(x):
            return float(np.sum(tp.plan * cost_matrix(x, ys)))

        h = 1e-6
        for i in range(xs.shape[0]):
            for j in range(xs.shape[1]):
                bump = xs.copy()
                bump[i, j] += h
                fd = (cost_of(bump) - cost_of(xs)) / h
                assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)
