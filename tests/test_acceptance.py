"""Acceptance gate: every end-to-end criterion at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (run with ``-s`` to watch them
live).  The heavy desk-scale experiment trains one model per session and
reuses it across all inversions and criteria that need it.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest
from scipy.special import erfc

from latent_abcss.analytic_posterior import GaussianDist, linear_gaussian_posterior
from latent_abcss.cli import main as cli_main
from latent_abcss.gp_prior import sample_fields
from latent_abcss.jgnn import JGNNModel, jgnn_loss, train
from latent_abcss.neural import refresh_spectral
from latent_abcss.rng_linalg import RngStream, load_array, save_array
from latent_abcss.sinkhorn import SinkhornConfig, cost_matrix, entropic_ot
from latent_abcss.subsim import SubSimConfig, subsim_run
from latent_abcss.tomography import NoiseModel, add_noise, assemble_matrix, forward
from latent_abcss.workflows import PipelineConfig, run_inversion


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" | {detail}" if detail else "")
    print("\n" + line)
    assert ok, line


# --- criterion 1: rare-event estimator accuracy --------------------------------


class TestCriterion1RareEvents:
    def _halfspace(self, level):
        def g2(z):
            return np.maximum(level - z[:, :1], 0.0)

        return g2

    def _run(self, level, n_seeds=10):
        cfg = SubSimConfig(target_eps=1e-12, n_particles=1000, level_fraction=0.1)
        phats = []
        t0 = time.monotonic()
        for seed in range(n_seeds):
            trace = subsim_run(self._halfspace(level), np.zeros(1), 10, cfg, RngStream(seed, 101))
            phats.append(trace.p_hat)
        return float(np.mean(phats)), time.monotonic() - t0

    def test_halfspace_z3(self):
        exact = 0.5 * erfc(3.0 / np.sqrt(2.0))  # 1.3499e-3
        mean_p, secs = self._run(3.0)
        rel = abs(mean_p - exact) / exact
        report(
            "criterion 1a: half-space {z1 >= 3}, 10-seed mean within 30%",
            rel < 0.30 and secs < 10.0,
            f"p_hat {mean_p:.4e} vs {exact:.4e}, rel err {rel:.1%}, {secs:.1f} s",
        )

    def test_halfspace_z45(self):
        exact = 0.5 * erfc(4.5 / np.sqrt(2.0))  # 3.40e-6
        mean_p, secs = self._run(4.5)
        rel = abs(mean_p - exact) / exact
        report(
            "criterion 1b: half-space {z1 >= 4.5}, 10-seed mean within 50%",
            rel < 0.50 and secs < 10.0,
            f"p_hat {mean_p:.4e} vs {exact:.4e}, rel err {rel:.1%}, {secs:.1f} s",
        )


# --- criterion 2: analytic posterior vs joint-Gaussian conditioning ------------


class TestCriterion2PosteriorOracle:
    def test_two_cell_toy(self):
        prior_mean = np.array([0.5, 0.4])
        prior_cov = np.array([[0.16, 0.10], [0.10, 0.16]])
        a = np.array([[0.10, 0.10], [0.14, 0.00]])
        noise_cov = 0.25 * np.eye(2)
        y = np.array([0.31, 0.18])

        post = linear_gaussian_posterior(GaussianDist(prior_mean, prior_cov), a, noise_cov, y)

        joint_cov = np.block(
            [[prior_cov, prior_cov @ a.T], [a @ prior_cov, a @ prior_cov @ a.T + noise_cov]]
        )
        gain = joint_cov[:2, 2:] @ np.linalg.inv(joint_cov[2:, 2:])
        mean_o = prior_mean + gain @ (y - a @ prior_mean)
        cov_o = prior_cov - gain @ joint_cov[2:, :2]

        err_mean = float(np.max(np.abs(post.mean - mean_o)))
        err_cov = float(np.max(np.abs(post.cov - cov_o)))
        report(
            "criterion 2: block conditioning agreement within 1e-8",
            err_mean < 1e-8 and err_cov < 1e-8,
            f"max abs err mean {err_mean:.2e}, cov {err_cov:.2e}",
        )


# --- criterion 3: entropic OT vs brute-force assignment ------------------------


class TestCriterion3TransportFidelity:
    def test_twenty_pairs(self):
        gen = np.random.default_rng(12345)
        cfg = SinkhornConfig(reg=1e-3, max_iter=10_000, debiased=True, tol=1e-13)
        perms = np.array(list(itertools.permutations(range(8))))
        rows = np.arange(8)
        t0 = time.monotonic()
        worst = 0.0
        for _ in range(20):
            xs = gen.uniform(size=(8, 2))
            ys = gen.uniform(size=(8, 2))
            c = cost_matrix(xs, ys)
            exact = float(np.min(c[rows, perms].sum(axis=1))) / 8.0
            est = entropic_ot(xs, ys, cfg).cost
            worst = max(worst, abs(est - exact) / exact)
        secs = time.monotonic() - t0
        report(
            "criterion 3: debiased cost within 2% of 8!-enumeration on 20 pairs",
            worst < 0.02 and secs < 30.0,
            f"worst rel err {worst:.3%}, {secs:.1f} s",
        )


# --- criterion 4: full loss gradient vs central finite differences -------------


class TestCriterion4GradientIntegrity:
    def test_finite_differences(self):
        t0 = time.monotonic()
        model = JGNNModel.init(4, 3, 2, RngStream(77), hidden=(8, 8))
        refresh_spectral(model.encoder)
        refresh_spectral(model.decoder)
        gen = RngStream(78).generator()
        xb = gen.standard_normal((6, 4))
        yb = gen.standard_normal((6, 3))
        batch = np.hstack([xb, yb])
        draws = gen.standard_normal((6, 2))
        cfg = SinkhornConfig(reg=100.0, max_iter=40)
        base = jgnn_loss(batch, model, 0.7, cfg, draws)
        plans = base.plans
        h = 1e-5
        worst = 0.0
        for params, grads in (
            (model.encoder, base.encoder_grad),
            (model.decoder, base.decoder_grad),
        ):
            for layer, (dw, db, _, _) in zip(params.layers, params.blocks(grads)):
                for arr, g in ((layer.weights, dw), (layer.bias, db)):
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + h
                        lp = jgnn_loss(batch, model, 0.7, cfg, draws, frozen_plans=plans).loss
                        arr[idx] = orig - h
                        lm = jgnn_loss(batch, model, 0.7, cfg, draws, frozen_plans=plans).loss
                        arr[idx] = orig
                        fd = (lp - lm) / (2 * h)
                        worst = max(worst, abs(fd - g[idx]) / max(abs(fd), 1e-6))
        secs = time.monotonic() - t0
        report(
            "criterion 4: loss gradient vs finite differences < 1e-4",
            worst < 1e-4 and secs < 10.0,
            f"max rel err {worst:.2e}, {secs:.1f} s",
        )


# --- criterion 5: forward/geometry exactness ------------------------------------


class TestCriterion5ForwardExactness:
    def test_row_sums_and_linearity(self):
        cfg = PipelineConfig()
        grid, geom = cfg.grid, cfg.geometry()
        a = assemble_matrix(grid, geom)
        exact = np.array(
            [
                np.hypot(geom.separation, rz - sz)
                for sz in geom.source_depths
                for rz in geom.receiver_depths
            ]
        )
        row_err = float(np.max(np.abs(np.asarray(a.sum(axis=1)).ravel() - exact) / exact))

        gen = np.random.default_rng(5)
        x1 = gen.standard_normal(2000)
        x2 = gen.standard_normal(2000)
        lin = forward(a, x1 + x2) - forward(a, x1) - forward(a, x2)
        lin_err = float(np.max(np.abs(lin)) / np.max(np.abs(forward(a, x1 + x2))))
        report(
            "criterion 5: ray row sums within 1e-9, linearity within 1e-12",
            row_err < 1e-9 and lin_err < 1e-12,
            f"row-sum rel err {row_err:.2e}, linearity rel residual {lin_err:.2e}",
        )


# --- criteria 6-8: desk-scale end-to-end experiment ------------------------------

DESK = {
    "seed": 20,
    "grid": {"n_rows": 20, "n_cols": 16, "cell_size": 0.1},
    "gp": {"lengthscale": 1.0, "variance": 0.16, "mean": 0.5},
    "n_src": 5,
    "n_rcv": 5,
    "depth_min": 0.2,
    "depth_max": 1.8,
    "separation": 1.5,
    "noise_std": 0.5,
    "train_size": 1000,
    "test_size": 12,
    "latent_dim": 10,
    "hidden": [128, 128],
    "epochs": 1500,
    "batch_size": 128,
    "n_particles": 1000,
    "max_levels": 30,
    "eps_min": 0.01,
    "eps_max": 3000.0,
    "eps_count": 60,
    "smoothing_window": 9,
    "sinkhorn_tol": 1e-9,
    "diag_subsample": 320,
}
N_INVERSIONS = 6


@pytest.fixture(scope="session")
def desk_experiment():
    """Train once; run six seeded inversions per noise scenario."""
    t_start = time.monotonic()
    cfg = PipelineConfig.from_dict(DESK)
    geom = cfg.geometry()
    a = assemble_matrix(cfg.grid, geom)
    # both splits from one factor of the prior, as generate_dataset draws them
    train_x, test_x = sample_fields(
        cfg.grid, cfg.gp, (cfg.train_size, cfg.test_size), RngStream(cfg.seed, stream_id=1)
    )
    train_y = forward(a, train_x)
    test_y = forward(a, test_x)

    model = JGNNModel.init(
        train_x.shape[1],
        train_y.shape[1],
        cfg.latent_dim,
        RngStream(cfg.seed, stream_id=2),
        hidden=cfg.hidden,
    )
    best, history = train(train_x, train_y, model, cfg.train_config())
    train_secs = time.monotonic() - t_start

    runs = {}
    for noise_std in (0.5, 2.5):
        cfg_n = PipelineConfig.from_dict({**DESK, "noise_std": noise_std})
        scenario = []
        for i in range(N_INVERSIONS):
            y_obs = add_noise(
                test_y[i],
                NoiseModel(std=noise_std),
                RngStream(cfg.seed, 40).split(int(noise_std * 10), i),
            )
            result = run_inversion(
                best,
                a,
                y_obs,
                cfg_n,
                RngStream(cfg.seed, 50).split(int(noise_std * 10), i),
                truth=test_x[i],
                oracle=True,
                train_x=train_x,
            )
            scenario.append(result)
        runs[noise_std] = scenario
    total_secs = time.monotonic() - t_start
    return {
        "cfg": cfg,
        "runs": runs,
        "train_secs": train_secs,
        "total_secs": total_secs,
        "history": history,
    }


def _divergences(result):
    """(at selected, at largest tested, at smallest reached) vs the posterior."""
    rows = result.metrics.wasserstein_by_eps
    div = {eps_n: d["posterior"] for eps_n, d in rows}
    top = div[max(div)]
    bottom = div[min(div)]
    selected = div[result.selected_eps_n]
    return selected, top, bottom


class TestCriterion6DeskInversion:
    def test_small_noise_scenario(self, desk_experiment):
        runs = desk_experiment["runs"][0.5]
        passes = []
        details = []
        for i, result in enumerate(runs):
            m = result.metrics
            ok_a = bool(
                np.median(m.rmse_solutions_truth) < np.median(m.rmse_prior_truth)
            )
            sel, top, bottom = _divergences(result)
            ok_b = sel <= top and sel <= bottom
            ok_c = 0.25 <= result.stagnation_eps_n <= 1.0
            passes.append(ok_a and ok_b and ok_c)
            details.append(
                f"inv{i}: a={ok_a} b={ok_b} c={ok_c} "
                f"(sel {result.selected_eps_n:.2f}, stag {result.stagnation_eps_n:.2f}, "
                f"div sel/top/bot {sel:.1f}/{top:.1f}/{bottom:.1f})"
            )
        n_ok = sum(passes)
        runtime_ok = desk_experiment["total_secs"] < 1800.0
        report(
            "criterion 6: desk-scale inversion, (a)+(b)+(c) for >= 5 of 6 seeds",
            n_ok >= 5 and runtime_ok,
            f"{n_ok}/6 passed; total {desk_experiment['total_secs']:.0f} s; "
            + "; ".join(details),
        )


class TestCriterion7LargeNoise:
    def test_large_noise_scenario(self, desk_experiment):
        runs = desk_experiment["runs"][2.5]
        ok_a = [
            bool(np.median(r.metrics.rmse_solutions_truth) < np.median(r.metrics.rmse_prior_truth))
            for r in runs
        ]
        resim = np.concatenate([r.metrics.resim_rmse_obs for r in runs])
        med = float(np.median(resim))
        ok_resim = abs(med - 2.5) / 2.5 <= 0.25
        report(
            "criterion 7: large-noise robustness, (a) for >= 4 of 6; resim within 25% of 2.5 ns",
            sum(ok_a) >= 4 and ok_resim,
            f"(a) {sum(ok_a)}/6; median resimulation RMSE {med:.3f} ns",
        )


class TestCriterion8CurveSanity:
    def test_every_deep_run(self, desk_experiment):
        ok = True
        details = []
        for noise_std, runs in desk_experiment["runs"].items():
            for i, result in enumerate(runs):
                curve = result.curve
                nondec = bool(np.all(np.diff(curve.log_p) >= 0.0))
                top_one = bool(np.isclose(curve.log_p[-1], 0.0, atol=1e-12))
                above = curve.selected_eps_n > curve.stagnation_eps_n
                if not (nondec and top_one and above):
                    ok = False
                    details.append(
                        f"noise {noise_std} inv{i}: nondec={nondec} top1={top_one} above={above}"
                    )
        report(
            "criterion 8: probability-curve sanity on every run",
            ok,
            "; ".join(details) if details else "12/12 curves monotone, p=1 at top, selection above stagnation",
        )


# --- criterion 9: byte-identical pipeline reruns --------------------------------

MICRO = {
    "seed": 7,
    "grid": {"n_rows": 6, "n_cols": 5, "cell_size": 0.1},
    "gp": {"lengthscale": 0.4, "variance": 0.16, "mean": 0.5},
    "n_src": 2,
    "n_rcv": 2,
    "depth_min": 0.1,
    "depth_max": 0.5,
    "separation": 0.4,
    "noise_std": 0.1,
    "train_size": 120,
    "test_size": 3,
    "latent_dim": 3,
    "hidden": [12, 12],
    "epochs": 20,
    "batch_size": 32,
    "lambda_halving_period": 10,
    "n_particles": 300,
    "max_levels": 12,
    "eps_min": 1e-4,
    "eps_max": 50.0,
    "eps_count": 25,
    "smoothing_window": 5,
    "diag_subsample": 80,
}


def _tree_digest(root):
    import hashlib

    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode())
            h.update(open(path, "rb").read())
    return h.hexdigest()


class TestCriterion9Determinism:
    def test_pipeline_reruns_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MICRO))
        digests = {"gendata": [], "train": [], "invert": []}
        for rep in ("one", "two"):
            data = str(tmp_path / f"data_{rep}")
            model = str(tmp_path / f"model_{rep}")
            assert cli_main(["gendata", "--config", str(cfg_path), "--out", data]) == 0
            assert cli_main(["train", "--config", str(cfg_path), "--dataset", data, "--out", model]) == 0
            test_y = load_array(os.path.join(data, "test_y.f64"))
            y_obs = add_noise(test_y[0], NoiseModel(std=0.1), RngStream(7, 9))
            yobs_path = str(tmp_path / f"yobs_{rep}.f64")
            save_array(yobs_path, y_obs)
            inv = str(tmp_path / f"inv_{rep}")
            assert (
                cli_main(
                    [
                        "invert",
                        "--config",
                        str(cfg_path),
                        "--checkpoint",
                        os.path.join(model, "model.ckpt"),
                        "--yobs",
                        yobs_path,
                        "--dataset",
                        data,
                        "--out",
                        inv,
                        "--oracle",
                    ]
                )
                == 0
            )
            digests["gendata"].append(_tree_digest(data))
            digests["train"].append(_tree_digest(model))
            digests["invert"].append(_tree_digest(inv))
        same = {k: v[0] == v[1] for k, v in digests.items()}
        report(
            "criterion 9: gendata/train/invert reruns byte-identical",
            all(same.values()),
            ", ".join(f"{k}={'ok' if v else 'DIFFERS'}" for k, v in same.items()),
        )
