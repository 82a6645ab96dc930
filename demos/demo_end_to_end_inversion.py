"""Full likelihood-free inversion on a small linear tomography problem.

Generates couples from the prior and forward map, trains the joint
generative model, inverts one noisy observation with the latent-space
sampler, selects the tolerance from the probability-content curve, and
compares the solutions against the exact Gaussian posterior.

Runs in a few minutes on a laptop; shrink epochs for a quicker look.
"""

import time

import numpy as np

from latent_abcss.rng_linalg import RngStream
from latent_abcss.tomography import NoiseModel, add_noise, assemble_matrix, forward
from latent_abcss.gp_prior import sample_fields
from latent_abcss.jgnn import JGNNModel, train
from latent_abcss.workflows import PipelineConfig, run_inversion

cfg = PipelineConfig.from_dict({
    "seed": 11,
    "grid": {"n_rows": 12, "n_cols": 10, "cell_size": 0.1},
    "gp": {"lengthscale": 0.6, "variance": 0.16, "mean": 0.5},
    "n_src": 4, "n_rcv": 4, "depth_min": 0.15, "depth_max": 1.05, "separation": 0.9,
    "noise_std": 0.1,
    "train_size": 600, "test_size": 2,
    "latent_dim": 8, "hidden": [64, 64],
    "epochs": 400, "batch_size": 128, "lambda_halving_period": 100,
    "n_particles": 800, "max_levels": 25,
    "eps_min": 1e-4, "eps_max": 200.0, "eps_count": 40,
    "smoothing_window": 7,
    "diag_subsample": 300,
})

t0 = time.time()
geom = cfg.geometry()
a = assemble_matrix(cfg.grid, geom)
rng = RngStream(cfg.seed, stream_id=1)
# both splits from one factor of the prior, as generate_dataset draws them
train_x, test_x = sample_fields(cfg.grid, cfg.gp, (cfg.train_size, cfg.test_size), rng)
train_y = forward(a, train_x)
print(f"dataset: {train_x.shape[0]} couples, {a.shape[0]} rays, {cfg.grid.n_cells} cells")

model = JGNNModel.init(train_x.shape[1], train_y.shape[1], cfg.latent_dim,
                       RngStream(cfg.seed, stream_id=2), hidden=cfg.hidden)
best, history = train(train_x, train_y, model, cfg.train_config())
print(f"trained {cfg.epochs} epochs in {time.time() - t0:.0f} s; "
      f"best validation reconstruction MSE (std. space): "
      f"{min(np.array(history.val_mse_x) + np.array(history.val_mse_y)):.4f}")

truth = test_x[0]
y_obs = add_noise(forward(a, truth), NoiseModel(std=cfg.noise_std), rng.split(9))
result = run_inversion(best, a, y_obs, cfg, RngStream(cfg.seed, stream_id=3),
                       truth=truth, oracle=True, train_x=train_x)

print(f"\ntolerance selection: eps_n* = {result.selected_eps_n:.3f} ns, "
      f"stagnation at {result.stagnation_eps_n:.3f} ns "
      f"(true noise level {cfg.noise_std} ns)")
m = result.metrics
print("median RMSE to the true field:")
print(f"  sampler solutions    {np.median(m.rmse_solutions_truth):.4f} ns/m")
print(f"  analytic posterior   {np.median(m.rmse_posterior_truth):.4f} ns/m")
print(f"  prior draws          {np.median(m.rmse_prior_truth):.4f} ns/m")
print(f"resimulation: median RMSE(forward(solutions), y_obs) = "
      f"{np.median(m.resim_rmse_obs):.4f} ns")
print("\ndivergence to the exact posterior along the tolerance sweep:")
for eps_n, divs in result.metrics.wasserstein_by_eps:
    tag = "  <- selected" if abs(eps_n - result.selected_eps_n) < 1e-12 else ""
    print(f"  eps_n {eps_n:7.3f}: {divs['posterior']:9.3f}{tag}")
print(f"\ntotal {time.time() - t0:.0f} s")
