"""Probability curve, smoothing, curvature selection, and metric helpers."""

import numpy as np
import pytest
from scipy.special import erf

from latent_abcss.diagnostics import (
    MetricsReport,
    ThresholdCurve,
    analyze_curve,
    curve_summary,
    curve_to_csv,
    default_eps_grid,
    normalize_eps,
    probability_curve,
    resimulation_report,
    rmse_batch,
    prepare_references,
    wasserstein_diagnostics,
)
from latent_abcss.gp_prior import Grid
from latent_abcss.rng_linalg import RngStream
from latent_abcss.sinkhorn import SinkhornConfig, _plain_entropic_ot, cost_matrix, self_transport
from latent_abcss.subsim import SubSimConfig, subsim_run
from latent_abcss.tomography import assemble_matrix, build_geometry


class TestNormalizeEps:
    def test_reference_point(self):
        assert normalize_eps(39.69, 81) == pytest.approx(0.7)

    def test_zero(self):
        assert normalize_eps(0.0, 81) == 0.0

    def test_unit(self):
        assert normalize_eps(81.0, 81) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_eps(-1.0, 81)


@pytest.fixture(scope="module")
def quadratic_trace():
    # d(z) = z1^2 under a standard normal: P(d <= t) = erf(sqrt(t/2))
    g2 = lambda z: z[:, :1]
    cfg = SubSimConfig(target_eps=1e-4, n_particles=1000, max_levels=25)
    return subsim_run(g2, np.zeros(1), 1, cfg, RngStream(23))


class TestProbabilityCurve:
    def test_certain_at_top(self, quadratic_trace):
        grid = default_eps_grid(1e-3, 50.0, 40)
        curve = probability_curve(quadratic_trace, 1, grid)
        assert curve.log_p[-1] == pytest.approx(0.0)

    def test_alpha_at_first_threshold(self, quadratic_trace):
        t1 = quadratic_trace.levels[0].threshold
        curve = probability_curve(quadratic_trace, 1, np.array([t1]))
        assert 10 ** curve.log_p[0] == pytest.approx(0.1, rel=0.01)

    def test_matches_chi_square_cdf(self, quadratic_trace):
        grid = default_eps_grid(1e-3, 50.0, 40)
        curve = probability_curve(quadratic_trace, 1, grid)
        exact = erf(np.sqrt(curve.eps / 2.0))
        np.testing.assert_allclose(10**curve.log_p, exact, rtol=0.3)

    def test_non_decreasing(self, quadratic_trace):
        curve = probability_curve(quadratic_trace, 1, default_eps_grid(1e-3, 50.0, 60))
        assert np.all(np.diff(curve.log_p) >= 0.0)

    def test_unreached_points_dropped(self, quadratic_trace):
        floor = min(quadratic_trace.level_dissimilarities[-1])
        grid = np.array([floor / 1e6, 1.0, 10.0])
        curve = probability_curve(quadratic_trace, 1, grid)
        assert curve.eps.size == 2


def flat_or_affine(x, y, window):
    """A curve with no curvature peak, analysed: selection fails, the columns stay."""
    curve = ThresholdCurve(eps=x, eps_n=x, log_p=y)
    with pytest.raises(ValueError, match="no curvature peak"):
        analyze_curve(curve, window)
    assert curve.selected_index is curve.selected_eps_n is curve.stagnation_eps_n is None
    return curve


class TestSmoothing:
    def test_quadratic_unchanged(self):
        x = np.linspace(0.1, 2.0, 25)
        y = 1.3 - 0.7 * x + 0.2 * x * x
        curve = analyze_curve(ThresholdCurve(eps=x**2, eps_n=x, log_p=y), 9)
        np.testing.assert_allclose(curve.smoothed, y, atol=1e-9)

    def test_constant_unchanged(self):
        x = np.linspace(0.1, 2.0, 15)
        # a constant has no knee at any level, whatever curvature rounding leaves
        for level in (0.0, 2.5, -0.5):
            curve = flat_or_affine(x, np.full(15, level), 5)
            np.testing.assert_allclose(curve.smoothed, level, atol=1e-12)

    def test_recovers_slope_under_noise(self):
        gen = RngStream(31).generator()
        x = np.linspace(0.0, 3.0, 61)
        y = 2.0 * x + gen.normal(0.0, 0.05, x.size)
        curve = analyze_curve(ThresholdCurve(eps=np.exp(x), eps_n=x, log_p=y), 9)
        slope = np.polyfit(x, curve.smoothed, 1)[0]
        assert slope == pytest.approx(2.0, rel=0.05)

    def test_window_validation(self):
        x = np.linspace(0.1, 1.0, 10)
        for window, match in ((4, "odd"), (11, "fewer")):
            curve = ThresholdCurve(eps=x, eps_n=x, log_p=x)
            with pytest.raises(ValueError, match=match):
                analyze_curve(curve, window)
            assert curve.smoothed is curve.curvature is None


class TestCurvature:
    def test_straight_line_zero(self):
        x = np.linspace(0.1, 2.0, 21)
        curve = flat_or_affine(x, 3.0 * x - 1.0, 5)
        np.testing.assert_allclose(curve.curvature, 0.0, atol=1e-9)

    def test_parabola_apex(self):
        x = np.linspace(-1.0, 1.0, 41)
        curve = analyze_curve(ThresholdCurve(eps=x + 2.0, eps_n=x, log_p=x**2), 7)
        apex = np.argmin(np.abs(x))
        assert curve.curvature[apex] == pytest.approx(2.0, rel=1e-6)

    def test_circle_curvature(self):
        r = 3.0
        theta = np.linspace(0.3, 0.7, 41)  # shallow arc of a circle of radius 3
        x = r * np.cos(theta)[::-1]
        y = r * np.sin(theta)[::-1] - r
        curve = analyze_curve(ThresholdCurve(eps=x, eps_n=x, log_p=y), 7)
        np.testing.assert_allclose(curve.curvature[5:-5], 1.0 / r, rtol=0.02)

    def test_invariant_to_constant_shift(self):
        x = np.linspace(0.1, 2.0, 31)
        y = np.log10(1.0 / (1.0 + np.exp(-4.0 * (x - 1.0))))
        c1 = analyze_curve(ThresholdCurve(eps=x, eps_n=x, log_p=y), 7)
        c2 = analyze_curve(ThresholdCurve(eps=x, eps_n=x, log_p=y + 5.0), 7)
        np.testing.assert_allclose(c1.curvature, c2.curvature, atol=1e-12)


class TestSelectThreshold:
    def _constructed_knee_curve(self):
        # flat at 0, then a circular arc bending into a linear drop
        x_flat = np.linspace(2.0, 3.0, 20)
        y_flat = np.zeros(20)
        r = 0.25
        theta = np.linspace(np.pi / 2, np.pi / 4, 15)
        x_arc = 2.0 + r * np.cos(theta)[::-1] - 0.0
        x_arc = np.linspace(1.75, 2.0, 15)
        y_arc = -(r - np.sqrt(np.maximum(r**2 - (x_arc - 2.0) ** 2, 0.0)))
        x_lin = np.linspace(1.0, 1.74, 25)
        y_lin = y_arc[0] + (x_lin - x_arc[0]) * 1.0
        x = np.concatenate([x_lin, x_arc, x_flat])
        y = np.concatenate([y_lin, y_arc, y_flat])
        order = np.argsort(x)
        return ThresholdCurve(eps=x[order] ** 2, eps_n=x[order], log_p=y[order])

    def test_selects_arc_apex(self):
        curve = self._constructed_knee_curve()
        analyze_curve(curve, 7)
        assert 1.7 < curve.selected_eps_n < 2.1
        assert curve.stagnation_eps_n == pytest.approx(curve.eps_n[0])

    def test_monotone_line_errors(self):
        x = np.linspace(0.5, 2.0, 30)
        curve = flat_or_affine(x, 2.0 * x, 9)
        assert curve.smoothed.shape == curve.curvature.shape == x.shape

    def test_never_returns_stagnation_point(self):
        curve = self._constructed_knee_curve()
        analyze_curve(curve, 7)
        assert curve.selected_eps_n > curve.stagnation_eps_n

    def test_summary_fields(self):
        curve = self._constructed_knee_curve()
        analyze_curve(curve, 7)
        doc = curve_summary(curve)
        assert doc["selected_eps_n"] == curve.selected_eps_n
        assert 0.0 < doc["p_hat_at_selected"] <= 1.0


def rmse_one(v1, v2):
    """RMSE of a single vector through the batch kernel."""
    return rmse_batch(np.atleast_2d(v1), v2)[0]


class TestRmse:
    def test_identical(self):
        assert rmse_one([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        assert rmse_one(np.zeros(4), np.full(4, 2.0)) == pytest.approx(2.0)

    def test_brute_force_formula(self):
        gen = np.random.default_rng(3)
        a = gen.standard_normal(33)
        b = gen.standard_normal(33)
        direct = np.sqrt(np.sum((a - b) ** 2) / 33)
        assert rmse_one(a, b) == pytest.approx(direct, abs=1e-12)

    def test_batch(self):
        gen = np.random.default_rng(4)
        s = gen.standard_normal((5, 8))
        ref = gen.standard_normal(8)
        out = rmse_batch(s, ref)
        for i in range(5):
            assert out[i] == pytest.approx(rmse_one(s[i], ref))
            assert out[i] == pytest.approx(np.sqrt(np.mean((s[i] - ref) ** 2)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse_one([1.0], [1.0, 2.0])


def alternating_self(c, cfg, a=None):
    """A self term by the alternating two-potential loop, as a ``self_transport`` stand-in."""
    return _plain_entropic_ot(c, cfg, a, a)


class TestWassersteinDiagnostics:
    def test_solutions_equal_reference(self):
        gen = np.random.default_rng(5)
        sols = gen.standard_normal((30, 4))
        # converged, since the self and the cross terms run different loops
        cfg = SinkhornConfig(reg=1.0, max_iter=5000, tol=1e-12)
        refs = prepare_references({"self": sols.copy()}, cfg)
        out, _ = wasserstein_diagnostics(sols, refs, cfg)
        assert out["self"] == pytest.approx(0.0, abs=1e-9)

    def test_dirac_at_truth(self):
        truth = np.array([1.0, 2.0, 3.0])
        sols = np.tile(truth, (10, 1))
        cfg = SinkhornConfig(reg=1.0, max_iter=100)
        out, _ = wasserstein_diagnostics(sols, prepare_references({"truth": truth}, cfg), cfg)
        assert out["truth"] == pytest.approx(0.0, abs=1e-12)

    def test_shifted_cloud_ranks_farther(self):
        gen = np.random.default_rng(6)
        sols = gen.standard_normal((50, 3))
        near = gen.standard_normal((50, 3))
        far = gen.standard_normal((50, 3)) + 4.0
        cfg = SinkhornConfig(reg=1.0, max_iter=200)
        out, _ = wasserstein_diagnostics(sols, prepare_references({"near": near, "far": far}, cfg), cfg)
        assert out["near"] < out["far"]

    def test_empty_references_rejected(self):
        with pytest.raises(ValueError, match="at least one reference"):
            prepare_references({}, SinkhornConfig())

    def test_point_dimensions_must_agree(self):
        gen = np.random.default_rng(8)
        with pytest.raises(ValueError, match="dimensions differ"):
            prepare_references({"a": gen.standard_normal((6, 2)), "b": np.ones(3)}, SinkhornConfig())
        refs = prepare_references({"a": gen.standard_normal((6, 2))}, SinkhornConfig())
        with pytest.raises(ValueError, match="dimensions differ"):
            wasserstein_diagnostics(gen.standard_normal((5, 3)), refs, SinkhornConfig())

    def test_references_are_centred_stacked_and_self_solved_once(self):
        gen = np.random.default_rng(12)
        clouds = {"post": gen.standard_normal((7, 4)) + 3.0, "prior": gen.standard_normal((9, 4))}
        clouds["truth"] = np.ones(4)
        cfg = SinkhornConfig(reg=1.0, max_iter=300, tol=1e-10)
        refs = prepare_references(clouds, cfg)
        stacked = np.concatenate([np.atleast_2d(c) for c in clouds.values()])
        np.testing.assert_allclose(refs.centre, stacked.mean(axis=0), rtol=1e-15)
        np.testing.assert_allclose(refs.rows + refs.centre, stacked, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(refs.squared_norms, np.sum(refs.rows**2, axis=1), rtol=1e-14)
        assert refs.slices == {"post": slice(0, 7), "prior": slice(7, 16), "truth": slice(16, 17)}
        # the Dirac truth's self term is 0 with no solve; the others converged
        assert refs.exhausted == ()
        assert refs.self_costs["truth"] == 0.0
        for name, cloud in clouds.items():
            c = cost_matrix(cloud, cloud)
            assert refs.self_costs[name] == pytest.approx(self_transport(c, cfg).cost, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    def test_matches_the_per_reference_cost_matrix_path(self, weighted, monkeypatch):
        # with the self terms on the alternating loop, the prepared costs are
        # the only difference from solving cost_matrix per reference
        from latent_abcss import diagnostics
        from latent_abcss.gp_prior import GPConfig, sample_fields

        monkeypatch.setattr(diagnostics, "self_transport", alternating_self)
        fields = sample_fields(Grid(20, 16, 0.1), GPConfig(lengthscale=1.0), (48, 64, 40), RngStream(13, 1))
        sols, post, prior = fields[0], fields[1] + 0.05, fields[2]
        truth = fields[1][0]
        weights = None
        if weighted:
            weights = np.random.default_rng(14).integers(1, 6, size=48).astype(np.float64)
            weights /= weights.sum()
        cfg = SinkhornConfig(reg=10.0, max_iter=2000, tol=1e-12)
        clouds = {"posterior": post, "prior": prior, "truth": truth}
        out, _ = wasserstein_diagnostics(sols, prepare_references(clouds, cfg), cfg, weights)
        self_s = _plain_entropic_ot(cost_matrix(sols, sols), cfg, weights, weights).cost
        for name, ref in clouds.items():
            cross = _plain_entropic_ot(cost_matrix(sols, ref), cfg, weights).cost
            self_r = _plain_entropic_ot(cost_matrix(ref, ref), cfg).cost
            assert out[name] == pytest.approx(cross - 0.5 * self_s - 0.5 * self_r, rel=1e-12, abs=0.0)

    def test_weighted_atoms_match_the_repeated_cloud(self):
        gen = np.random.default_rng(9)
        atoms = gen.standard_normal((15, 5))
        idx = gen.permutation(np.repeat(np.arange(15), gen.integers(1, 6, size=15)))
        _, first, counts = np.unique(idx, return_index=True, return_counts=True)
        cfg = SinkhornConfig(reg=1.0, max_iter=300, tol=1e-10)
        clouds = {"cloud": gen.standard_normal((40, 5)) + 0.5, "dirac": gen.standard_normal(5)}
        refs = prepare_references(clouds, cfg)
        full, _ = wasserstein_diagnostics(atoms[idx], refs, cfg)
        # np.unique numbers the atoms in order, so atoms[idx][first] is atoms
        weighted, _ = wasserstein_diagnostics(atoms, refs, cfg, weights=counts / idx.size)
        for name in refs.slices:
            assert weighted[name] == pytest.approx(full[name], rel=1e-12, abs=0.0)
        # uniform weights over the distinct atoms are a different measure
        uniform, _ = wasserstein_diagnostics(atoms, refs, cfg)
        assert uniform["cloud"] != pytest.approx(full["cloud"], rel=1e-6)

    def test_solves_record_iterations_and_budget(self):
        gen = np.random.default_rng(10)
        sols = gen.standard_normal((12, 3))
        cfg = SinkhornConfig(reg=1.0, max_iter=4, tol=1e-12)
        clouds = {"a": gen.standard_normal((9, 3)), "b": gen.standard_normal(3), "c": gen.standard_normal((7, 3))}
        refs = prepare_references(clouds, cfg)
        _, exhausted = wasserstein_diagnostics(sols, refs, cfg)
        # four iterations end every solve: the self terms of a and c, then the
        # solutions' self term and the cross terms in the references' order;
        # the Dirac b has closed forms and no solve
        assert refs.exhausted == ("a", "c")
        assert exhausted == [("self", None), ("cross", "a"), ("cross", "c")]

    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    def test_dirac_reference_is_the_sinkhorn_value_without_a_solve(self, weighted):
        from latent_abcss.gp_prior import GPConfig, sample_fields
        from latent_abcss.sinkhorn import _gemm_cost, _squared_norms

        fields = sample_fields(Grid(20, 16, 0.1), GPConfig(lengthscale=1.0), (48, 40, 1), RngStream(15, 1))
        sols = fields[0]
        weights = None
        if weighted:
            weights = np.random.default_rng(16).integers(1, 6, size=48).astype(np.float64)
            weights /= weights.sum()
        cfg = SinkhornConfig(reg=10.0, max_iter=300, tol=1e-7)
        refs = prepare_references({"prior": fields[1], "truth": fields[2][0]}, cfg)
        out, _ = wasserstein_diagnostics(sols, refs, cfg, weights)
        # the Sinkhorn solves the Dirac used to make, on the same prepared costs
        shifted = sols - refs.centre
        sq = _squared_norms(shifted)
        t = refs.slices["truth"]
        rows, norms = refs.rows[t], refs.squared_norms[t]
        self_s = self_transport(_gemm_cost(shifted, shifted, sq, sq), cfg, weights).cost
        cross = _plain_entropic_ot(_gemm_cost(shifted, rows, sq, norms), cfg, weights).cost
        self_t = self_transport(_gemm_cost(rows, rows, norms, norms), cfg).cost
        assert out["truth"] == pytest.approx(cross - 0.5 * self_s - 0.5 * self_t, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "weights",
        [
            pytest.param(np.full(4, 0.25), id="wrong-length"),
            pytest.param(np.array([0.5, np.nan, 0.25, 0.25, 0.0]), id="nan"),
            pytest.param(np.array([np.inf, 0.25, 0.25, 0.25, 0.25]), id="inf"),
            pytest.param(np.array([0.4, 0.0, 0.2, 0.2, 0.2]), id="zero"),
            pytest.param(np.array([0.6, -0.2, 0.2, 0.2, 0.2]), id="negative"),
            pytest.param(np.full(5, 0.2) * (1 + 1e-9), id="sum"),
        ],
    )
    def test_bad_weights_rejected_before_any_solve(self, weights, monkeypatch):
        from latent_abcss import diagnostics

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the weights were checked")

        gen = np.random.default_rng(11)
        refs = prepare_references({"r": gen.standard_normal((4, 2))}, SinkhornConfig())
        monkeypatch.setattr(diagnostics, "_plain_entropic_ot", no_solve)
        monkeypatch.setattr(diagnostics, "self_transport", no_solve)
        with pytest.raises(ValueError, match="weights of the solutions"):
            wasserstein_diagnostics(gen.standard_normal((5, 2)), refs, SinkhornConfig(), weights=weights)


class TestResimulationReport:
    def setup_method(self):
        self.grid = Grid(6, 5, 0.1)
        geom = build_geometry(self.grid, 2, 2, 0.1, 0.5, 0.4)
        self.a = assemble_matrix(self.grid, geom)

    def test_perfect_generator_zero_model_gap(self):
        gen = np.random.default_rng(7)
        xs = gen.uniform(0.3, 0.7, size=(6, self.grid.n_cells))
        ys = (self.a @ xs.T).T
        rmse_model, rmse_obs = resimulation_report(xs, ys, self.a, ys[0])
        np.testing.assert_allclose(rmse_model, 0.0, atol=1e-12)
        assert rmse_obs[0] == pytest.approx(0.0, abs=1e-12)

    def test_noise_free_truth_zero_obs_gap(self):
        gen = np.random.default_rng(8)
        truth = gen.uniform(0.3, 0.7, self.grid.n_cells)
        y_obs = self.a @ truth
        rmse_model, rmse_obs = resimulation_report(
            truth[None, :], (self.a @ truth)[None, :], self.a, y_obs
        )
        assert rmse_obs[0] == pytest.approx(0.0, abs=1e-12)

    def test_misaligned_batches_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            resimulation_report(np.ones((3, 30)), np.ones((2, 4)), self.a, np.ones(4))


class TestReportAndCsv:
    def test_metrics_csv_roundtrip_columns(self, tmp_path):
        rep = MetricsReport(
            rmse_solutions_truth=np.array([1.0, 2.0]),
            rmse_prior_truth=np.array([3.0]),
        )
        path = str(tmp_path / "m.csv")
        rep.to_csv(path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "sample,rmse_solutions_truth,rmse_prior_truth"
        assert lines[1].startswith("0,1.0,3.0")
        assert lines[2].startswith("1,2.0,")

    def test_summary_medians(self):
        rep = MetricsReport(rmse_solutions_truth=np.array([1.0, 3.0]))
        assert rep.summary()["median_rmse_solutions_truth"] == 2.0

    def test_curve_csv(self, tmp_path):
        x = np.linspace(0.5, 2.0, 12)
        curve = ThresholdCurve(eps=x**2, eps_n=x, log_p=-1.0 / x)
        analyze_curve(curve, 5)
        path = str(tmp_path / "c.csv")
        curve_to_csv(curve, path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "eps,eps_n,log10_p,smoothed,curvature"
        assert len(lines) == 13
