"""Entropic transport against brute-force and closed-form oracles."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from latent_abcss import sinkhorn
from latent_abcss.gp_prior import GPConfig, Grid, sample_fields
from latent_abcss.rng_linalg import RngStream
from latent_abcss.sinkhorn import (
    SinkhornConfig,
    cost_matrix,
    entropic_ot,
    ot_point_gradient,
)
from latent_abcss.workflows import ORACLE_OT


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

    @pytest.mark.parametrize("tol", [-1e-9, np.nan])
    def test_tol_must_be_a_nonnegative_number(self, tol):
        # a NaN tol fails every comparison, so its stop would never fire
        with pytest.raises(ValueError, match="tol"):
            SinkhornConfig(tol=tol)


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


def log_domain_reference(c, cfg, symmetric=False):
    """Oracle: the log-domain loop alone, written out without a kernel.

    ``symmetric`` runs ``self_transport``'s averaged update on one potential
    instead of the alternating one.  Returns the plan, the cost, the
    iterations run and whether the ``tol`` stop ended them.
    """
    n, m = c.shape
    reg = cfg.reg
    log_a, log_b = -np.log(n), -np.log(m)
    neg_c = c / -reg

    def lse(shift, axis):
        t = neg_c + (shift[None, :] if axis == 1 else shift[:, None])
        mx = np.max(t, axis=axis, keepdims=True)
        t -= mx
        np.exp(t, out=t)
        return np.log(np.sum(t, axis=axis)) + np.squeeze(mx, axis=axis)

    f, g = np.zeros(n), np.zeros(m)
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        if symmetric:
            f_new = g_new = 0.5 * (f - reg * lse(f / reg + log_a, 1))
        else:
            f_new = -reg * lse(g / reg + log_b, 1)
            g_new = -reg * lse(f_new / reg + log_a, 0)
        moved = max(float(np.max(np.abs(f_new - f))), float(np.max(np.abs(g_new - g))))
        f, g = f_new, g_new
        if cfg.tol > 0.0 and moved < cfg.tol:
            converged = True
            break
    t = neg_c + (f / reg + log_a)[:, None]
    t += (g / reg + log_b)[None, :]
    plan = np.exp(t)
    return plan, float(np.sum(plan * c)), iterations, converged


def kernel_reference(c, cfg):
    """Oracle: the plain Gibbs-kernel loop, written out in the solver's own operations.

    A solve under the bound must match it bit for bit: that keeps training
    and the desk-scale audit byte-identical.  Returns what
    ``log_domain_reference`` does.
    """
    n, m = c.shape
    reg = cfg.reg
    log_a, log_b = -np.log(n), -np.log(m)
    kernel = np.exp(c / -reg)

    def lse(shift, axis):
        mx = shift.max()
        w = np.exp(shift - mx)
        return np.log(kernel @ w if axis == 1 else w @ kernel) + mx

    f, g = np.zeros(n), np.zeros(m)
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        f_new = -reg * lse(g / reg + log_b, 1)
        g_new = -reg * lse(f_new / reg + log_a, 0)
        moved = max(np.max(np.abs(f_new - f)), np.max(np.abs(g_new - g)))
        f, g = f_new, g_new
        if cfg.tol > 0.0 and moved < cfg.tol:
            converged = True
            break
    alpha, beta = f / reg + log_a, g / reg + log_b
    scale = math.exp(alpha.max() + beta.max())
    cost = float(np.exp(alpha - alpha.max()) @ (kernel * c) @ np.exp(beta - beta.max())) * scale
    return np.exp(c / -reg + alpha[:, None] + beta[None, :]), cost, iterations, converged


@pytest.fixture
def gibbs_calls(monkeypatch):
    """Whether each ``_gibbs`` call absorbed potentials.

    A solve's first call chooses for the solve; each later one re-absorbs.
    """
    calls = []
    plain = sinkhorn._gibbs

    def spy(*args, **kwargs):
        gibbs = plain(*args, **kwargs)
        calls.append(gibbs[1] is not None)
        return gibbs

    monkeypatch.setattr(sinkhorn, "_gibbs", spy)
    return calls


def force_absorption(monkeypatch):
    """Make every solve absorb, as a cost past the bound does, and re-absorb once an offset passes one reg."""
    monkeypatch.setattr(sinkhorn, "_KERNEL_MAX_EXPONENT", 0.0)
    monkeypatch.setattr(sinkhorn, "_ABSORB_AT", 1.0)


def kernel_path_problems():
    """(cost, cfg, stops) of training, audit and near-bound size, all with tol > 0.

    ``stops`` is False for the audit self solve, which runs out its budget.
    """
    gen = np.random.default_rng(61)
    z, p = 1.3 * gen.standard_normal((128, 10)), gen.standard_normal((128, 10))
    train = SinkhornConfig(reg=10.0, max_iter=200, tol=1e-9)
    fields = sample_fields(Grid(20, 16, 0.1), GPConfig(lengthscale=1.0), (320, 320), RngStream(62, 1))
    audit = SinkhornConfig(reg=10.0, max_iter=300, tol=1e-7)
    wide = cost_matrix(gen.uniform(size=(40, 2)), gen.uniform(size=(30, 2)))
    near_bound = SinkhornConfig(reg=float(wide.max()) / 299.0, max_iter=2000, tol=1e-12)
    small = cost_matrix(gen.standard_normal((9, 3)), gen.standard_normal((7, 3)))
    return [
        pytest.param(cost_matrix(z, p), train, True, id="latent"),
        pytest.param(cost_matrix(z, z), train, True, id="latent-self"),
        pytest.param(cost_matrix(*fields), audit, True, id="desk-fields"),
        pytest.param(cost_matrix(fields[0], fields[0]), audit, False, id="desk-self"),
        pytest.param(small, SinkhornConfig(reg=0.5, max_iter=500, tol=1e-12), True, id="small-reg"),
        pytest.param(wide, near_bound, True, id="near-bound"),
    ]


def criterion_three_problems():
    """Criterion 3's draws and settings, on a shorter budget: reg 1e-3 puts max C/reg far above the bound."""
    gen = np.random.default_rng(12345)
    cfg = SinkhornConfig(reg=1e-3, max_iter=500, tol=1e-13)
    problems = []
    for _ in range(20):
        xs = gen.uniform(size=(8, 2))
        ys = gen.uniform(size=(8, 2))
        problems += [(cost_matrix(a, b), cfg, False) for a, b in ((xs, ys), (xs, xs), (ys, ys))]
    return problems


def full_scale_problems():
    """A cross and a self problem on default-grid (2000-cell) fields at the audit's settings.

    Each cloud puts its fields in two modes a uniform 0.5 apart, in opposite
    proportions (54:6 and 4:36), so the cross solve must carry mass between
    the modes: max C/reg passes the bound, the potentials drift far from the
    absorbed ones so that the solve rebuilds its kernel, and it spends its
    budget as some full-scale audit solves do.
    """
    xs, ys = sample_fields(Grid(), GPConfig(), (60, 40), RngStream(81, 1))
    xs[:54] += 0.5
    ys[:4] += 0.5
    return [(cost_matrix(xs, ys), ORACLE_OT, False), (cost_matrix(xs, xs), ORACLE_OT, True)]


class TestKernelPath:
    """Below the bound the plain Gibbs kernel runs, bit for bit; absorbing runs the same map."""

    @pytest.mark.parametrize("c, cfg, stops", kernel_path_problems())
    def test_is_the_plain_kernel_loop_and_matches_absorption(self, c, cfg, stops, monkeypatch, gibbs_calls):
        assert np.max(c) / cfg.reg < sinkhorn._KERNEL_MAX_EXPONENT
        for tol in (0.0, cfg.tol):
            run = replace(cfg, tol=tol, max_iter=min(cfg.max_iter, 60) if tol == 0.0 else cfg.max_iter)
            kern = sinkhorn._plain_entropic_ot(c, run)
            assert gibbs_calls == [False]
            plan, cost, iterations, converged = kernel_reference(c, run)
            assert (kern.iterations, kern.converged) == (iterations, converged)
            assert kern.cost == cost
            np.testing.assert_array_equal(kern.plan, plan)
            gibbs_calls.clear()
            with monkeypatch.context() as m:
                force_absorption(m)
                absorbed = sinkhorn._plain_entropic_ot(c, run)
            assert gibbs_calls and all(gibbs_calls)
            assert (absorbed.iterations, absorbed.converged) == (kern.iterations, kern.converged)
            if tol > 0.0:
                assert (kern.iterations < run.max_iter) == stops
            gibbs_calls.clear()
            assert absorbed.cost == pytest.approx(kern.cost, rel=1e-12, abs=0.0)
            scale = np.max(kern.plan)
            assert np.max(np.abs(absorbed.plan - kern.plan)) <= 1e-12 * scale

    @pytest.mark.parametrize("absorb", [False, True], ids=["kernel", "absorbed"])
    @pytest.mark.parametrize("c, cfg, stops", kernel_path_problems())
    def test_plan_on_demand_is_the_eager_plan(self, c, cfg, stops, absorb, monkeypatch):
        # the whole potentials each solve ends with, to form its plan eagerly beside it
        if absorb:
            force_absorption(monkeypatch)
        ends = []
        finish = sinkhorn._cost_and_plan

        def spy(c, reg, gibbs, f, g, log_a, log_b):
            _, fa, ga = gibbs
            ends.append((f, g, log_a, log_b) if fa is None else (fa + f, ga + g, log_a, log_b))
            return finish(c, reg, gibbs, f, g, log_a, log_b)

        monkeypatch.setattr(sinkhorn, "_cost_and_plan", spy)
        solves = [sinkhorn._plain_entropic_ot(c, cfg)]
        if c.shape[0] == c.shape[1]:
            solves.append(sinkhorn.self_transport(c, cfg))
        assert len(ends) == len(solves)
        for tp, (f, g, log_a, log_b) in zip(solves, ends):
            eager = np.exp(c / -cfg.reg + (f / cfg.reg + log_a)[:, None] + (g / cfg.reg + log_b)[None, :])
            cost = tp.cost  # read before the plan: the solve never forms it for the cost
            np.testing.assert_array_equal(tp.plan, eager)
            assert cost == pytest.approx(float(np.sum(eager * c)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "problems",
        [
            pytest.param(criterion_three_problems, id="criterion-3"),
            pytest.param(full_scale_problems, id="full-scale"),
        ],
    )
    def test_problems_past_the_bound_absorb_and_match_the_log_domain(self, problems, gibbs_calls):
        rebuilt = False
        for c, cfg, symmetric in problems():
            assert np.max(c) / cfg.reg > sinkhorn._KERNEL_MAX_EXPONENT
            gibbs_calls.clear()
            tp = (sinkhorn.self_transport if symmetric else sinkhorn._plain_entropic_ot)(c, cfg)
            assert gibbs_calls and all(gibbs_calls)
            plan, cost, iterations, converged = log_domain_reference(c, cfg, symmetric)
            assert (tp.iterations, tp.converged) == (iterations, converged)
            assert tp.cost == pytest.approx(cost, rel=1e-12, abs=0.0)
            assert np.max(np.abs(tp.plan - plan)) <= 1e-12 * np.max(plan)
            rebuilt |= len(gibbs_calls) > 1
        assert rebuilt  # each set drifts far enough to rebuild a kernel

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_costs_give_a_nan_cost(self, bad):
        gen = np.random.default_rng(63)
        c = cost_matrix(gen.standard_normal((6, 2)), gen.standard_normal((5, 2)))
        c[2, 3] = bad
        with np.errstate(invalid="ignore"):
            tp = sinkhorn._plain_entropic_ot(c, SinkhornConfig(reg=1.0, max_iter=20))
        assert (tp.iterations, tp.converged) == (20, False)
        assert np.isnan(tp.cost)


def repeated_cloud(atoms, gen):
    """``atoms`` each repeated 1-6 times, shuffled, as a Metropolis chain repeats states.

    Returns the cloud, the atom index of each of its rows, each atom's first
    row and the atoms' multiplicity weights.
    """
    idx = gen.permutation(np.repeat(np.arange(atoms.shape[0]), gen.integers(1, 7, size=atoms.shape[0])))
    _, first, counts = np.unique(idx, return_index=True, return_counts=True)
    return atoms[idx], idx, first, counts / idx.size


def weighted_problems():
    """Costs of a repeated cloud, its atoms (see ``repeated_cloud``), cfg and the stop.

    ``both`` marks a self problem, solved by ``self_transport``, whose
    columns collapse as well as its rows; ``converges`` is whether ``tol``
    rather than the budget ends it.
    """
    gen = np.random.default_rng(64)
    fields = sample_fields(Grid(20, 16, 0.1), GPConfig(lengthscale=1.0), (40, 60), RngStream(65, 1))
    cloud, idx, first, w = repeated_cloud(fields[0], gen)
    audit = SinkhornConfig(reg=10.0, max_iter=300, tol=1e-7)
    cross = cost_matrix(cloud, fields[1])
    full = cost_matrix(cloud, cloud)
    return [
        pytest.param(cross, idx, first, w, False, audit, True, id="cross-tol"),
        pytest.param(cross, idx, first, w, False, replace(audit, max_iter=5), False, id="cross-budget"),
        pytest.param(
            cross, idx, first, w, False, replace(audit, tol=0.0, max_iter=40), False, id="cross-no-tol"
        ),
        pytest.param(full, idx, first, w, True, audit, True, id="self-tol"),
        pytest.param(full, idx, first, w, True, replace(audit, max_iter=5), False, id="self-budget"),
    ]


class TestWeightedAtoms:
    """Repeated points solved once, weighted by multiplicity, give the same solve."""

    @pytest.mark.parametrize("absorb", [False, True], ids=["kernel", "absorbed"])
    @pytest.mark.parametrize("c, idx, first, w, both, cfg, converges", weighted_problems())
    def test_matches_the_repeated_cloud(
        self, c, idx, first, w, both, cfg, converges, absorb, monkeypatch, gibbs_calls
    ):
        if absorb:
            force_absorption(monkeypatch)
        atoms = c[np.ix_(first, first)] if both else c[first]
        solve = sinkhorn.self_transport if both else sinkhorn._plain_entropic_ot
        full = solve(c, cfg)
        tp = solve(atoms, cfg, w)
        assert gibbs_calls and all(k == absorb for k in gibbs_calls)
        assert (tp.iterations, tp.converged) == (full.iterations, full.converged)
        assert tp.converged == converges
        assert (tp.iterations < cfg.max_iter) == converges
        assert tp.cost == pytest.approx(full.cost, rel=1e-12, abs=0.0)
        # the repeated cloud's plan, summed over the copies of each atom
        group = (idx[None, :] == np.arange(first.size)[:, None]).astype(np.float64)
        merged = group @ full.plan @ (group.T if both else np.eye(c.shape[1]))
        assert np.max(np.abs(tp.plan - merged)) <= 1e-12 * np.max(merged)

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(np.full(4, 0.25), id="wrong-length"),
            pytest.param(np.array([0.5, np.nan, 0.25, 0.25, 0.0]), id="nan"),
            pytest.param(np.array([np.inf, 0.25, 0.25, 0.25, 0.25]), id="inf"),
            pytest.param(np.array([0.4, 0.0, 0.2, 0.2, 0.2]), id="zero"),
            pytest.param(np.array([0.6, -0.2, 0.2, 0.2, 0.2]), id="negative"),
            pytest.param(np.full(5, 0.2) * (1 + 1e-9), id="sum"),
        ],
    )
    def test_bad_weights_rejected_before_any_iteration(self, bad, gibbs_calls):
        gen = np.random.default_rng(67)
        c = cost_matrix(gen.standard_normal((5, 2)), gen.standard_normal((5, 2)))
        with pytest.raises(ValueError, match="weights a"):
            sinkhorn._plain_entropic_ot(c, SinkhornConfig(), a=bad)
        assert gibbs_calls == []


def desk_self_cost(seed):
    """Self cost of 320 GP fields on the desk grid, as the audit's prior reference."""
    fields = sample_fields(Grid(20, 16, 0.1), GPConfig(lengthscale=1.0), (320,), RngStream(seed, 1))
    return cost_matrix(fields[0], fields[0])


class TestSelfTransport:
    """The symmetric averaged update reaches the alternating loop's fixed point."""

    AUDIT = SinkhornConfig(reg=10.0, max_iter=300, tol=1e-7)

    @pytest.mark.parametrize("absorb", [False, True], ids=["kernel", "absorbed"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    def test_matches_a_tight_alternating_solve(self, weighted, absorb, monkeypatch, gibbs_calls):
        if absorb:
            force_absorption(monkeypatch)
        gen = np.random.default_rng(71)
        fields = sample_fields(Grid(20, 16, 0.1), GPConfig(lengthscale=1.0), (60,), RngStream(72, 1))
        c = cost_matrix(fields[0], fields[0])
        w, rows = None, np.arange(60)
        if weighted:
            counts = gen.integers(1, 7, size=60)
            w, rows = counts / counts.sum(), np.repeat(rows, counts)
        # a tight alternating solve on the cloud that repeats each field by its count
        tight = sinkhorn._plain_entropic_ot(c[np.ix_(rows, rows)], replace(self.AUDIT, max_iter=20_000, tol=1e-13))
        assert tight.converged
        gibbs_calls.clear()
        half_steps = []
        lse = sinkhorn._logsumexp

        def counted(kernel, shift, axis):
            half_steps.append(axis)
            return lse(kernel, shift, axis)

        monkeypatch.setattr(sinkhorn, "_logsumexp", counted)
        tp = sinkhorn.self_transport(c, self.AUDIT, w)
        assert gibbs_calls and all(k == absorb for k in gibbs_calls)
        assert (len(gibbs_calls) > 1) == absorb  # the symmetric rebuild runs too
        assert half_steps == [1] * tp.iterations  # one half step per iteration
        assert tp.converged and tp.iterations < self.AUDIT.max_iter
        assert tp.cost == pytest.approx(tight.cost, rel=1e-9, abs=0.0)
        np.testing.assert_allclose(tp.plan, tp.plan.T, rtol=1e-12)  # the GEMM cost is symmetric to rounding
        marginal = np.full(60, 1 / 60) if w is None else w
        np.testing.assert_allclose(tp.plan.sum(axis=1), marginal, rtol=1e-6)

    def test_converges_where_the_alternating_loop_runs_out(self):
        c = desk_self_cost(62)
        alternating = sinkhorn._plain_entropic_ot(c, self.AUDIT)
        assert (alternating.iterations, alternating.converged) == (300, False)
        tp = sinkhorn.self_transport(c, self.AUDIT)
        assert tp.converged and tp.iterations < 300
        tight = sinkhorn.self_transport(c, replace(self.AUDIT, max_iter=5000, tol=1e-13))
        assert tp.cost == pytest.approx(tight.cost, rel=1e-9, abs=0.0)
        # the alternating loop's budget-ended value is the farther one
        assert abs(alternating.cost - tight.cost) > abs(tp.cost - tight.cost)

    def test_no_tol_spends_the_budget(self):
        tp = sinkhorn.self_transport(desk_self_cost(62), replace(self.AUDIT, tol=0.0, max_iter=7))
        assert (tp.iterations, tp.converged) == (7, False)

    def test_single_point_is_exact_at_once(self):
        tp = sinkhorn.self_transport(np.zeros((1, 1)), self.AUDIT)
        assert (tp.iterations, tp.converged, tp.cost) == (1, True, 0.0)
        np.testing.assert_array_equal(tp.plan, [[1.0]])

    def test_non_square_cost_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sinkhorn.self_transport(np.zeros((3, 2)), self.AUDIT)

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(np.full(4, 0.25), id="wrong-length"),
            pytest.param(np.array([0.5, np.nan, 0.25, 0.25, 0.0]), id="nan"),
            pytest.param(np.array([0.4, 0.0, 0.2, 0.2, 0.2]), id="zero"),
            pytest.param(np.full(5, 0.2) * (1 + 1e-9), id="sum"),
        ],
    )
    def test_bad_weights_rejected_before_any_iteration(self, bad, gibbs_calls):
        xs = np.random.default_rng(73).standard_normal((5, 2))
        with pytest.raises(ValueError, match="weights a"):
            sinkhorn.self_transport(cost_matrix(xs, xs), SinkhornConfig(), bad)
        assert gibbs_calls == []
