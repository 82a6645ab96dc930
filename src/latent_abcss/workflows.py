"""End-to-end pipeline stages over declared file artifacts.

Each stage is a pure function of (config, input artifacts, seeds): data
generation, model training, a full inversion with tolerance selection, and
cross-inversion aggregation.  The CLI wraps these; tests and demo scripts
call them directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, zip_longest

import numpy as np

from . import __version__
from .analytic_posterior import GaussianDist, linear_gaussian_posterior, posterior_sample
from .diagnostics import (
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
from .gp_prior import GPConfig, Grid, build_covariance, sample_fields
from .jgnn import JGNNModel, TrainConfig, _decoder_view, g1_of_latent, g2_of_latent, generate
from .jgnn import _n_val, _prepare_training, _train_loop, load_model, save_model
from .rng_linalg import RngStream, add_jitter, load_array, read_csv_columns, save_array, write_csv, write_json
from .sinkhorn import SinkhornConfig
from .subsim import SubSimConfig, save_trace, subsim_run
from .tomography import (
    assemble_matrix,
    build_geometry,
    forward,
    load_ray_matrix,
    save_ray_matrix,
)

__all__ = [
    "ConfigError",
    "DiagnosticFailure",
    "PipelineConfig",
    "generate_dataset",
    "train_from_dataset",
    "run_inversion",
    "invert_artifacts",
    "evaluate_runs",
    "compute_oracle_posterior",
]


# Sinkhorn settings of every oracle-audit divergence; training keeps its own
ORACLE_OT = SinkhornConfig(reg=10.0, max_iter=300, tol=1e-7)


class ConfigError(ValueError):
    """Invalid or inconsistent pipeline configuration."""


class DiagnosticFailure(RuntimeError):
    """The threshold diagnostic could not pick a tolerance; artifacts exist."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a full run needs, JSON-round-trippable."""

    seed: int = 0
    grid: Grid = field(default_factory=Grid)
    gp: GPConfig = field(default_factory=GPConfig)
    n_src: int = 9
    n_rcv: int = 9
    depth_min: float = 0.5
    depth_max: float = 4.5
    separation: float = 3.9
    noise_std: float = 0.5
    train_size: int = 1000
    test_size: int = 40
    latent_dim: int = 10
    hidden: tuple = (512, 512)
    epochs: int = 5000
    batch_size: int = 128
    lambda_halving_period: int = 500
    sinkhorn_tol: float = 0.0
    n_particles: int = 1000
    max_levels: int = 30
    eps_min: float = 0.01
    eps_max: float = 3000.0
    eps_count: int = 60
    smoothing_window: int = 9
    diag_subsample: int = 400

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        try:
            kwargs = dict(doc)
            if "grid" in kwargs:
                kwargs["grid"] = Grid(**kwargs["grid"])
            if "gp" in kwargs:
                kwargs["gp"] = GPConfig(**kwargs["gp"])
            if "hidden" in kwargs:
                kwargs["hidden"] = tuple(kwargs["hidden"])
            cfg = cls(**kwargs)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad pipeline config: {err}") from err
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        if not os.path.exists(path):
            raise ConfigError(f"missing config file: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}") from err
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden": list(self.hidden)}

    def validate(self) -> None:
        try:
            _check_field_types(self)
            RngStream(self.seed)
            self.geometry()
            self.train_config()
            default_eps_grid(self.eps_min, self.eps_max, self.eps_count)
            if self.smoothing_window % 2 == 0 or not 3 <= self.smoothing_window <= self.eps_count:
                raise ValueError(f"smoothing_window must be odd and in [3, eps_count = {self.eps_count}]")
            if self.noise_std < 0:
                raise ValueError("noise_std must be nonnegative")
            sizes = [(n, getattr(self, n)) for n in ("train_size", "test_size", "latent_dim", "diag_subsample")]
            for name, size in sizes + [(f"hidden[{i}]", h) for i, h in enumerate(self.hidden)]:
                if size < 1:
                    raise ValueError(f"{name} must be positive, got {size}")
            self.subsim_config(self.eps_min)
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err)) from err

    def geometry(self):
        return build_geometry(
            self.grid, self.n_src, self.n_rcv, self.depth_min, self.depth_max, self.separation
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lambda_halving_period=self.lambda_halving_period,
            sinkhorn_tol=self.sinkhorn_tol,
            seed=self.seed,
        )

    def subsim_config(self, target_eps: float) -> SubSimConfig:
        return SubSimConfig(target_eps=target_eps, n_particles=self.n_particles, max_levels=self.max_levels)

    def provenance(self, command: str) -> dict:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return {
            "command": command,
            "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
            "seed": self.seed,
            "version": __version__,
        }


def _check_field_types(cfg: PipelineConfig) -> None:
    """Refuse a non-int in an ``int`` field, and a non-finite number in a ``float`` field."""
    parts = (("", cfg), ("grid.", cfg.grid), ("gp.", cfg.gp))
    values = [(pre + f.name, f.type, getattr(obj, f.name)) for pre, obj in parts for f in fields(obj)]
    values += [(f"hidden[{i}]", "int", h) for i, h in enumerate(cfg.hidden)]
    for name, kind, value in values:
        if kind == "int" and type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        # NaN fails the comparison, as does an int too large for a float
        if kind == "float" and not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require(paths: list[str]) -> None:
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ConfigError("missing artifacts: " + ", ".join(missing))


@contextmanager
def _reading(path: str):
    """A malformed or unreadable input artifact is a config error, not a numerical failure."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError, OSError) as err:  # JSONDecodeError is a ValueError
        raise ConfigError(f"malformed artifact {path}: {err!r}") from err


def _make_out_dir(path: str) -> None:
    """Create an output directory; a path that cannot be one is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path}: {err}") from err


def _load_input(load, path: str):
    """``load(path)`` of a blob + JSON artifact; a missing or malformed one is a config error."""
    _require([path, path + ".json"])
    with _reading(path):
        return load(path)


def generate_dataset(cfg: PipelineConfig, out_dir: str) -> dict:
    """Sample couples from the prior and the forward map; write artifacts.

    Both splits are drawn from one factor of the prior covariance, train
    from ``RngStream(seed, 1).split(0)`` and test from ``.split(1)``.
    Training and test travel times are noise free: observation noise is
    added only when an inversion target is assembled.
    """
    _make_out_dir(out_dir)
    prov = cfg.provenance("gendata")
    geom = cfg.geometry()
    a = assemble_matrix(cfg.grid, geom)
    train_x, test_x = sample_fields(
        cfg.grid, cfg.gp, (cfg.train_size, cfg.test_size), RngStream(cfg.seed, stream_id=1)
    )
    train_y = forward(a, train_x)
    test_y = forward(a, test_x)

    files = {
        "train_x": "train_x.f64",
        "train_y": "train_y.f64",
        "test_x": "test_x.f64",
        "test_y": "test_y.f64",
        "ray_matrix": "ray_matrix.bin",
    }
    save_array(os.path.join(out_dir, files["train_x"]), train_x, prov)
    save_array(os.path.join(out_dir, files["train_y"]), train_y, prov)
    save_array(os.path.join(out_dir, files["test_x"]), test_x, prov)
    save_array(os.path.join(out_dir, files["test_y"]), test_y, prov)
    save_ray_matrix(os.path.join(out_dir, files["ray_matrix"]), a, prov)

    manifest = {
        "files": files,
        "config": cfg.to_dict(),
        "n_train": cfg.train_size,
        "n_test": cfg.test_size,
        "n_rays": a.shape[0],
        "n_cells": a.shape[1],
        # Gaussian draws with at least one slowness cell <= 0
        "nonpositive_fields": {
            "train": int(np.any(train_x <= 0, axis=1).sum()),
            "test": int(np.any(test_x <= 0, axis=1).sum()),
        },
        "provenance": prov,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _load_dataset(dataset_dir: str, *names: str) -> dict:
    """The manifest and only the named inputs, each checked for its manifest shape and finite values.

    Every input, the ray matrix too, loads as a dense float64 array.
    """
    manifest_path = os.path.join(dataset_dir, "manifest.json")
    _require([manifest_path])
    with _reading(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        n_train, n_cells, n_rays = manifest["n_train"], manifest["n_cells"], manifest["n_rays"]
        shapes = {"train_x": (n_train, n_cells), "train_y": (n_train, n_rays), "ray_matrix": (n_rays, n_cells)}
        data = {"manifest": manifest}
        for name in names:
            path = os.path.join(dataset_dir, manifest["files"][name])
            data[name] = arr = _load_input(load_ray_matrix if name == "ray_matrix" else load_array, path)
            if arr.shape != shapes[name]:
                raise ConfigError(f"{path} has shape {arr.shape}, the manifest implies {shapes[name]}")
            if not np.isfinite(arr).all():
                raise ConfigError(f"{path} holds a NaN or infinite value")
        return data


def train_from_dataset(cfg: PipelineConfig, dataset_dir: str, out_dir: str) -> str:
    """Train the joint model on a generated dataset; write checkpoint + history.

    Raises:
        ConfigError: before ``out_dir`` exists, if ``batch_size`` exceeds the training split.
    """
    data = _load_dataset(dataset_dir, "train_x", "train_y")
    (n, dim_x), dim_y = data["train_x"].shape, data["train_y"].shape[1]
    n_val = _n_val(n)
    if cfg.batch_size > n - n_val:
        split = f"{n - n_val} training couples ({n_val} of {n} held out for validation)"
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds the dataset's {split}")
    _make_out_dir(out_dir)
    tc = cfg.train_config()
    model = JGNNModel.init(dim_x, dim_y, cfg.latent_dim, RngStream(cfg.seed, stream_id=2), hidden=cfg.hidden)
    # jgnn.train's two halves, so that nothing here holds the loaded couples
    # or the f64 start networks while the loop runs
    rows, start = _prepare_training(data.pop("train_x"), data.pop("train_y"), model, tc)
    del model
    best, history = _train_loop(rows, start, tc)
    ckpt = os.path.join(out_dir, "model.ckpt")
    save_model(ckpt, best, extra={"provenance": cfg.provenance("train"), "best_epoch": history.best_epoch})
    history.to_csv(os.path.join(out_dir, "history.csv"))
    return ckpt


@dataclass
class InversionResult:
    """In-memory product of one inversion."""

    deep_trace: object
    curve: ThresholdCurve
    selected_eps_n: float
    stagnation_eps_n: float
    final_trace: object
    solutions_x: np.ndarray
    solutions_y: np.ndarray
    metrics: MetricsReport
    summary: dict


def run_inversion(
    model: JGNNModel,
    a,
    y_obs: np.ndarray,
    cfg: PipelineConfig,
    rng: RngStream,
    truth: np.ndarray | None = None,
    oracle: bool = False,
    train_x: np.ndarray | None = None,
) -> InversionResult:
    """Deep run, tolerance selection, final run, metrics.

    The deep pass targets the bottom of the tolerance grid so it either
    reaches it or stagnates at the effective noise floor; the probability
    curve from its level populations picks the working tolerance, and a
    second run at that tolerance produces the reported solutions.

    With ``oracle=True`` the exact Gaussian posterior of the linear test
    case is computed and transport divergences against it, the prior, and
    the truth are attached per tested tolerance.

    Raises:
        DiagnosticFailure: when the curve picks no tolerance (no grid point
            reached, fewer points than the smoothing window, or no curvature
            peak); the deep trace and the curve, with whatever columns its
            analysis filled, are attached to the exception.
    """
    # one frozen f32 decoder serves the sampler, the final decode and the audit
    view = _decoder_view(model)
    g2 = g2_of_latent(view)
    y_obs = np.asarray(y_obs, dtype=np.float64).ravel()
    n_obs = y_obs.size
    grid_eps = default_eps_grid(cfg.eps_min, cfg.eps_max, cfg.eps_count)

    deep = subsim_run(g2, y_obs, model.latent_dim, cfg.subsim_config(float(grid_eps[0])), rng.split(0))
    curve = probability_curve(deep, n_obs, grid_eps)
    try:
        analyze_curve(curve, cfg.smoothing_window)
    except ValueError as err:
        failure = DiagnosticFailure(str(err))
        failure.deep_trace = deep
        failure.curve = curve
        raise failure from err

    eps_star = n_obs * curve.selected_eps_n**2
    final = subsim_run(g2, y_obs, model.latent_dim, cfg.subsim_config(eps_star), rng.split(1))
    z_final = final.final_samples
    solutions_x, solutions_y = generate(view, z_final)

    metrics = MetricsReport()
    metrics.resim_rmse_model, metrics.resim_rmse_obs = resimulation_report(
        solutions_x, solutions_y, a, y_obs
    )
    summary = curve_summary(curve)
    summary["eps_star"] = eps_star
    summary["stagnated_deep_run"] = deep.stagnated
    summary["stagnation_deep_run"] = deep.stagnation
    summary["p_hat_final"] = final.p_hat

    if truth is not None:
        metrics.rmse_solutions_truth = rmse_batch(solutions_x, truth)
    if train_x is not None and truth is not None:
        metrics.rmse_train_truth = rmse_batch(train_x, truth)

    if oracle:
        prior, noise_cov = _oracle_prior_noise(cfg, n_obs)
        post = linear_gaussian_posterior(prior, a, noise_cov, y_obs)
        post_samples = posterior_sample(post, cfg.n_particles, rng.split(2))
        prior_samples = posterior_sample(prior, cfg.n_particles, rng.split(3))
        if truth is not None:
            metrics.rmse_posterior_truth = rmse_batch(post_samples, truth)
            metrics.rmse_prior_truth = rmse_batch(prior_samples, truth)

        m_sub = min(cfg.diag_subsample, cfg.n_particles)
        clouds = {"posterior": post_samples[:m_sub], "prior": prior_samples[:m_sub]}
        if truth is not None:
            clouds["truth"] = np.asarray(truth, dtype=np.float64).reshape(1, -1)
        # the references never change within an inversion: centre them and
        # solve their self-transport once for every divergence row below
        refs = prepare_references(clouds, ORACLE_OT)
        # refs holds its own stacked copy: drop the full ensembles (and the
        # views into them) so the audit below does not hold both
        del post_samples, prior_samples, clouds
        exhausted = [{"kind": "self", "reference": name, "eps_n": None} for name in refs.exhausted]
        # one divergence row per tested tolerance: the deep run's level
        # populations stand in for the solution set at their own threshold,
        # then the final solutions at the selected one; each cloud is solved
        # on its distinct states (see _distinct_rows), one cloud at a time
        def selected_solutions():
            first, weights = _distinct_rows(z_final[:m_sub])
            yield curve.selected_eps_n, solutions_x[first], weights

        rows = []
        for eps_n, sols, weights in chain(
            _deep_level_solutions(view, deep, float(grid_eps[-1]), n_obs, m_sub), selected_solutions()
        ):
            divs, ended = wasserstein_diagnostics(sols, refs, ORACLE_OT, weights)
            rows.append((eps_n, divs))
            exhausted += [{"kind": kind, "reference": ref, "eps_n": eps_n} for kind, ref in ended]
        metrics.wasserstein_by_eps = sorted(rows, key=lambda r: r[0])
        summary["oracle"] = {
            "divergence_at_selected": rows[-1][1],
            "budget_exhausted_solves": len(exhausted),
            "budget_exhausted": exhausted,
            "posterior_mean_rmse_to_truth": (
                None if truth is None else float(rmse_batch(post.mean[None, :], truth)[0])
            ),
        }

    summary["metrics"] = metrics.summary()
    return InversionResult(
        deep_trace=deep,
        curve=curve,
        selected_eps_n=curve.selected_eps_n,
        stagnation_eps_n=curve.stagnation_eps_n,
        final_trace=final,
        solutions_x=solutions_x,
        solutions_y=solutions_y,
        metrics=metrics,
        summary=summary,
    )


def _oracle_prior_noise(cfg: PipelineConfig, n_obs: int) -> tuple[GaussianDist, np.ndarray]:
    """The test case's Gaussian prior on the field and its i.i.d. noise covariance."""
    prior_cov = add_jitter(build_covariance(cfg.grid, cfg.gp))
    prior = GaussianDist(np.full(cfg.grid.n_cells, cfg.gp.mean), prior_cov)
    return prior, max(cfg.noise_std, 1e-6) ** 2 * np.eye(n_obs)


def _distinct_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each distinct row's first occurrence, and its share of the rows.

    MCMC populations repeat a state whenever a proposal is rejected, so a
    level holds far fewer distinct latents than rows.  The indices are in
    order of first occurrence.  Rows are compared in latent space: equal
    latents decode to equal fields, and comparing the short latent rows is
    much cheaper than comparing the decoded fields.  Each row is compared as
    one key of its bytes, since a repeated state is an exact copy; that is
    several times faster than ``np.unique(z, axis=0)``, which compares rows
    field by field.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    keys = z.view(np.dtype((np.void, z.itemsize * z.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order] / z.shape[0]


def _deep_level_solutions(view, deep, eps_top: float, n_obs: int, m_sub: int):
    """Snapshots in field space of each deep-run level population.

    Yields ``(eps_n, fields, weights)`` per level: the decoded distinct
    latents among the population's first ``m_sub`` rows, with their
    multiplicities as probability weights.  The level-0 population (pure
    prior draws) represents the top-of-grid tolerance, where essentially
    every latent would be accepted; each later population represents its
    own level threshold.  ``view`` is the inversion's decoder view.
    """
    g1 = g1_of_latent(view)
    thresholds = [lvl.threshold for lvl in deep.levels]
    for j, z_pop in enumerate(deep.level_samples):
        eps_j = eps_top if j == 0 else min(thresholds[j - 1], eps_top)
        eps_n_j = float(normalize_eps(eps_j, n_obs))
        first, weights = _distinct_rows(z_pop[:m_sub])
        yield eps_n_j, g1(z_pop[first]), weights


def _check_model_fits(model: JGNNModel, manifest: dict) -> None:
    """Refuse a checkpoint whose dimensions differ from the dataset's."""
    checks = (("field", model.dim_x, "n_cells", "cells"), ("travel-time", model.dim_y, "n_rays", "rays"))
    for what, dim, key, unit in checks:
        if dim != manifest[key]:
            raise ConfigError(f"checkpoint {what} dimension {dim} differs from the dataset's {manifest[key]} {unit}")


def _check_observation(cfg: PipelineConfig, manifest: dict, y_obs, truth=None, oracle: bool = True) -> None:
    """Refuse an observation (and truth) that does not fit the dataset, before any work.

    The oracle prior is built on the config grid and its operator on the
    dataset's, so with ``oracle`` the two grids must agree.
    """
    if y_obs.size != manifest["n_rays"]:
        raise ConfigError(
            f"observation has {y_obs.size} travel times, the dataset has {manifest['n_rays']} rays"
        )
    if truth is not None and truth.size != manifest["n_cells"]:
        raise ConfigError(f"truth has {truth.size} cells, the dataset has {manifest['n_cells']}")
    for name, arr in (("observation", y_obs), ("truth", truth)):
        if arr is not None and not np.isfinite(arr).all():
            raise ConfigError(f"{name} holds a NaN or infinite value")
    if oracle and asdict(cfg.grid) != manifest["config"]["grid"]:
        raise ConfigError(
            f"config grid {asdict(cfg.grid)} differs from the dataset's {manifest['config']['grid']}"
        )


def invert_artifacts(
    cfg: PipelineConfig,
    checkpoint: str,
    y_obs_path: str,
    dataset_dir: str,
    out_dir: str,
    truth_path: str | None = None,
    oracle: bool = False,
) -> InversionResult:
    """File-level wrapper around :func:`run_inversion`; writes all artifacts.

    ``out_dir`` is created once every input has passed its checks, before
    the inversion, whose diagnostic failure still writes its artifacts.
    """
    y_obs = _load_input(load_array, y_obs_path)
    truth = _load_input(load_array, truth_path) if truth_path else None
    model = _load_input(load_model, checkpoint)
    # train_x serves only the truth metrics (rmse_train_truth)
    data = _load_dataset(dataset_dir, "ray_matrix", *(["train_x"] if truth is not None else []))
    with _reading(os.path.join(dataset_dir, "manifest.json")):
        _check_model_fits(model, data["manifest"])
        _check_observation(cfg, data["manifest"], y_obs, truth, oracle)
    _make_out_dir(out_dir)
    prov = cfg.provenance("invert")
    rng = RngStream(cfg.seed, stream_id=3)

    try:
        result = run_inversion(
            model,
            data["ray_matrix"],
            y_obs,
            cfg,
            rng,
            truth=truth,
            oracle=oracle,
            train_x=data.get("train_x"),
        )
    except DiagnosticFailure as failure:
        save_trace(os.path.join(out_dir, "deep_trace"), failure.deep_trace, prov)
        curve_to_csv(failure.curve, os.path.join(out_dir, "curve.csv"))
        write_json(os.path.join(out_dir, "summary.json"), {"error": str(failure), "provenance": prov})
        raise

    save_trace(os.path.join(out_dir, "deep_trace"), result.deep_trace, prov)
    save_trace(os.path.join(out_dir, "final_trace"), result.final_trace, prov)
    curve_to_csv(result.curve, os.path.join(out_dir, "curve.csv"))
    save_array(os.path.join(out_dir, "solutions_x.f64"), result.solutions_x, prov)
    save_array(os.path.join(out_dir, "solutions_y.f64"), result.solutions_y, prov)
    result.metrics.to_csv(os.path.join(out_dir, "metrics.csv"))
    if result.metrics.wasserstein_by_eps:
        names = sorted(result.metrics.wasserstein_by_eps[0][1])
        write_csv(
            os.path.join(out_dir, "wasserstein.csv"),
            ["eps_n", *names],
            ([eps_n, *(divs[n] for n in names)] for eps_n, divs in result.metrics.wasserstein_by_eps),
        )
    doc = dict(result.summary)
    doc["provenance"] = prov
    write_json(os.path.join(out_dir, "summary.json"), doc)
    return result


def evaluate_runs(run_dirs: list[str], out_path: str) -> dict:
    """Aggregate per-inversion RMSE pairings; write per-run and pooled rows.

    Raises:
        ConfigError: on a missing or malformed ``metrics.csv``, when no run
            has a truth column to aggregate, or when ``out_path`` is a
            directory (checked before any run is read); before anything is
            written.
    """
    if os.path.isdir(out_path):
        raise ConfigError(f"output path {out_path} is a directory, not a CSV file")
    # each pairing's metrics.csv column, in agg.csv's and agg_pooled.csv's order
    col_of = {
        "train": "rmse_train_truth",
        "post": "rmse_posterior_truth",
        "ours": "rmse_solutions_truth",
        "prior": "rmse_prior_truth",
    }
    header = ("inversion", "pairing", "count", "mean", "median", "p05", "p95")

    def row(inversion: str, p: str, col: np.ndarray) -> dict:
        stats = (np.mean(col), np.median(col), *np.quantile(col, [0.05, 0.95]))
        return dict(zip(header, (inversion, p, int(col.size), *map(float, stats))))

    pooled = {p: [] for p in col_of}
    rows = []
    for run in run_dirs:
        path = os.path.join(run, "metrics.csv")
        _require([path])
        with _reading(path):
            table = read_csv_columns(path)
            if not all(np.isfinite(col).all() for col in table.values()):
                raise ValueError("a cell holds a NaN or infinite value")
        for p, name in col_of.items():
            col = table.get(name)
            if col is None or col.size == 0:
                continue
            pooled[p].append(col)
            rows.append(row(os.path.basename(os.path.normpath(run)), p, col))
    if not rows:
        raise ConfigError(f"no run has a truth column ({', '.join(col_of.values())}): invert with --truth")
    cols = {p: (np.concatenate(parts) if parts else np.empty(0)) for p, parts in pooled.items()}
    rows += [row("pooled", p, col) for p, col in cols.items() if col.size]
    _make_out_dir(os.path.dirname(out_path) or ".")
    write_csv(out_path, header, (r.values() for r in rows))
    # pooled per-sample distributions, one labeled column per pairing
    dist_path = os.path.splitext(out_path)[0] + "_pooled.csv"
    write_csv(dist_path, cols, zip_longest(*(col.tolist() for col in cols.values())))
    return {"rows": rows, "aggregate_csv": out_path, "pooled_csv": dist_path}


def compute_oracle_posterior(
    cfg: PipelineConfig, dataset_dir: str, y_obs_path: str, out_dir: str
) -> GaussianDist:
    """Exact Gaussian posterior artifacts for a given observation."""
    y_obs = _load_input(load_array, y_obs_path)
    data = _load_dataset(dataset_dir, "ray_matrix")
    with _reading(os.path.join(dataset_dir, "manifest.json")):
        _check_observation(cfg, data["manifest"], y_obs)
    _make_out_dir(out_dir)
    prov = cfg.provenance("oracle-posterior")
    prior, noise_cov = _oracle_prior_noise(cfg, y_obs.size)
    post = linear_gaussian_posterior(prior, data["ray_matrix"], noise_cov, y_obs)
    save_array(os.path.join(out_dir, "posterior_mean.f64"), post.mean, prov)
    save_array(os.path.join(out_dir, "posterior_cov.f64"), post.cov, prov)
    return post
