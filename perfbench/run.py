#!/usr/bin/env python3
"""Pipeline benchmark for latent_abcss.

Run from the repository root:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 10 --trace 0

One single-process, closed-loop caller drives the public pipeline stages of
``latent_abcss.workflows`` (``generate_dataset``, ``train_from_dataset``,
``invert_artifacts``) on inputs generated from ``--seed``, waiting for each
stage before starting the next.  Set-up runs a fixed number of times per
workload, each on its own dataset derived from the seed, and its median is
``setup_s``; then whole measured stages, cycling over those datasets, run
until ``--seconds`` have passed (at least a workload-specific minimum).
Time figures are medians over datasets of the median over each dataset's
stages, so a faster or slower host repeats data rather than adding new
data to the figures.  Every stage's outputs are checked; a failed check,
``DiagnosticFailure`` or ``TrainingDiverged`` counts as a failed stage and
the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
pass and then the same work traced by ``tracer.Tracer`` and prints the
per-layer metrics, including the tracing overhead.  The last line of standard
output is one JSON object; the lines before it are a readable report with
the environment, every metric with its unit and direction, and every check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import warnings
from typing import NamedTuple

from tracer import LAYERS, Tracer, median, package_bindings, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
# the variables latent_abcss.cli._set_threads pins
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# DESK mirrors the desk-scale config of tests/test_acceptance.py
DESK = {
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


class Workload(NamedTuple):
    overrides: dict  # pipeline config on top of the defaults; the seed is added
    setup_epochs: int  # training epochs in set-up (0: no model needed)
    stage_epochs: int  # a measured stage trains this long (0: it inverts)
    oracle: bool  # inversions are audited against the exact posterior
    setups: int  # set-ups per run; stage k uses set-up k mod setups
    min_stages: int  # measured stages run even past --seconds


WORKLOADS = {
    # five 20-epoch trainings take about --seconds, one per dataset
    "desk-train": Workload(DESK, 0, 20, False, 5, 5),
    # 20 epochs: enough for the sampler to use the whole level budget; one
    # oracle inversion outlasts --seconds
    "desk-audit": Workload(DESK, 20, 0, True, 3, 1),
    # an untrained model stagnates at a run-dependent level count; 5 epochs
    # use the full 30-level budget on every observation tried
    "full-invert": Workload({}, 5, 0, False, 3, 3),
}

END_TO_END = {
    "setup_s": ("s", "lower"),
    "epoch_s": ("s", "lower"),
    "stage_s": ("s", "lower"),
    "val_mse": ("1", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_rate": ("ratio", "higher"),
}

PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    "sinkhorn.solves": ("count", "lower"),
    "sinkhorn.share": ("ratio", "lower"),
    "sinkhorn.solve_ms_p50": ("ms", "lower"),
    "sinkhorn.solve_ms_p90": ("ms", "lower"),
    "sinkhorn.cost_entries": ("count", "lower"),
    "neural.forward_self_s": ("s", "lower"),
    "neural.backward_self_s": ("s", "lower"),
    "neural.adam_s": ("s", "lower"),
    "neural.spectral_s": ("s", "lower"),
    "neural.forward_rows": ("count", "lower"),
    "neural.gflop": ("GFLOP", "lower"),
    "neural.gflop_per_s": ("GFLOP/s", "higher"),
    "jgnn.generate_calls": ("count", "lower"),
    "jgnn.generate_ms_p50": ("ms", "lower"),
    "jgnn.generate_ms_p90": ("ms", "lower"),
    "jgnn.generate_self_s": ("s", "lower"),
    "jgnn.load_model_s": ("s", "lower"),
    "jgnn.loss_self_s": ("s", "lower"),
    "jgnn.train_self_s": ("s", "lower"),
    "subsim.runs": ("count", "lower"),
    "subsim.levels_per_run": ("count", "lower"),
    "subsim.g2_calls_per_run": ("count", "lower"),
    "subsim.level_ms_mean": ("ms", "lower"),
    "subsim.accept_ratio": ("ratio", "higher"),
    "subsim.stagnated_frac": ("ratio", "lower"),
    "rng_linalg.generators": ("count", "lower"),
    "rng_linalg.generator_s": ("s", "lower"),
    "rng_linalg.cholesky_s": ("s", "lower"),
    "rng_linalg.bytes_written": ("B", "lower"),
    "rng_linalg.write_s": ("s", "lower"),
    "rng_linalg.read_s": ("s", "lower"),
    "gp_prior.covariance_s": ("s", "lower"),
    "gp_prior.sample_s": ("s", "lower"),
    "tomography.assemble_s": ("s", "lower"),
    "tomography.forward_s": ("s", "lower"),
    "analytic_posterior.condition_s": ("s", "lower"),
    "analytic_posterior.sample_s": ("s", "lower"),
    "diagnostics.wasserstein_calls": ("count", "lower"),
    "diagnostics.wasserstein_self_s": ("s", "lower"),
    "diagnostics.curve_s": ("s", "lower"),
    "diagnostics.resim_s": ("s", "lower"),
    "diagnostics.posterior_div": ("1", "lower"),
    "diagnostics.rmse_truth": ("ns/m", "lower"),
    "diagnostics.noise_est_err": ("ratio", "lower"),
    "workflows.invert_self_s": ("s", "lower"),
    "workflows.dataset_load_s": ("s", "lower"),
    "workflows.artifact_bytes": ("B", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **{f"setup.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "setup.wall_s": ("s", "lower"),
    "setup.untraced_s": ("s", "lower"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads(n: int) -> None:
    """Set the BLAS/OpenMP pool size; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(int(n))


def import_package():
    """Import latent_abcss from this checkout's ``src``, nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import latent_abcss
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import latent_abcss from {src}: {err}")
    if not os.path.abspath(latent_abcss.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: latent_abcss resolved outside {src}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        cfg_line = info.get("openblas configuration", "")
        cap = re.search(r"MAX_THREADS=(\d+)", cfg_line)
        blas = {
            "name": info.get("name"),
            "version": info.get("version"),
            "max_threads": int(cap.group(1)) if cap else None,
        }
    except (TypeError, AttributeError):  # numpy without show_config(mode=...)
        pass
    blas["threads"] = int(os.environ[THREAD_VARS[1]])
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": nproc(),
        "blas": blas,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


class Bench:
    """One workload run: set-up, measured stages, checks and raw records.

    Set-up ``r`` builds its own dataset (and model) under the config seed
    ``run_seed(r)``.  Measured stage ``k`` uses the set-up ``k`` modulo the
    number of set-ups in its pass and, when it inverts, that set-up's
    first test couple.  So a run pools several datasets and models (the
    convergence of the Sinkhorn solves, and so their time, depends on the
    data), and stages beyond the first round repeat data already pooled.
    """

    def __init__(self, workload: str, seed: int, stage_errors):
        spec = WORKLOADS[workload]
        self.overrides = spec.overrides
        self.setup_epochs = spec.setup_epochs
        self.stage_epochs = spec.stage_epochs
        self.oracle = spec.oracle
        self.setups = spec.setups
        self.min_stages = spec.min_stages
        self.seed = seed
        self.stage_errors = stage_errors
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self.runs: list[int] = []  # set-ups completed in the current pass
        self.attempted = 0
        self.failed = 0
        self.checks = []

    # --- inputs -------------------------------------------------------------

    def run_seed(self, r: int) -> int:
        import numpy as np

        return int(np.random.SeedSequence(self.seed, spawn_key=(r,)).generate_state(1)[0])

    def cfg(self, r: int, **changes):
        from latent_abcss.workflows import PipelineConfig

        return PipelineConfig.from_dict({**self.overrides, "seed": self.run_seed(r), **changes})

    def path(self, r: int, name: str) -> str:
        return os.path.join(self.dir, f"run{r}", name)

    # --- bookkeeping ------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.checks.append((name, ok, detail))
        print(f"[check] {'PASS' if ok else 'FAIL'} {name}" + (f" | {detail}" if detail else ""))
        return ok

    def stage(self, name: str, fn):
        """Run one pipeline stage; returns (ok, seconds, value)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            value = fn()
        except self.stage_errors as err:
            self.failed += 1
            self.check(f"{name} completes", False, f"{type(err).__name__}: {err}")
            return False, time.perf_counter() - t0, None
        return True, time.perf_counter() - t0, value

    # --- stages -------------------------------------------------------------

    def _train(self, r: int, epochs: int, tag: str):
        """Train ``epochs`` epochs from scratch on dataset ``r``.

        Returns (seconds per epoch, val_mse), or None if the stage failed.
        """
        import numpy as np
        from latent_abcss.workflows import train_from_dataset

        cfg = self.cfg(r, epochs=epochs)
        model = self.path(r, "model")
        ok, secs, _ = self.stage(
            f"{tag} train", lambda: train_from_dataset(cfg, self.path(r, "dataset"), model)
        )
        if not ok:
            return None
        hist = np.atleast_1d(
            np.genfromtxt(os.path.join(model, "history.csv"), delimiter=",", names=True)
        )
        if not self.check(
            f"{tag} history: one finite row per epoch",
            hist.size == epochs and all(np.all(np.isfinite(hist[c])) for c in hist.dtype.names),
            f"{hist.size} rows for {epochs} epochs",
        ):
            self.failed += 1
            return None
        return secs / epochs, float(hist["val_mse_x"][-1] + hist["val_mse_y"][-1])

    def setup(self, r: int, tag: str):
        """Dataset ``r``, its first observation and, for inversions, model ``r``.

        Returns (seconds, training result or None), or None on failure.
        """
        from latent_abcss.rng_linalg import RngStream, load_array, save_array
        from latent_abcss.tomography import NoiseModel, add_noise
        from latent_abcss.workflows import generate_dataset

        t0 = time.perf_counter()
        cfg = self.cfg(r)
        ds = self.path(r, "dataset")
        ok, _, _ = self.stage(f"{tag} gendata", lambda: generate_dataset(cfg, ds))
        if not ok:
            return None
        train = None
        if self.setup_epochs:
            train = self._train(r, self.setup_epochs, tag)
            if train is None:
                return None
            y_obs = add_noise(
                load_array(os.path.join(ds, "test_y.f64"))[0],
                NoiseModel(std=cfg.noise_std),
                RngStream(cfg.seed, 40).split(0),
            )
            save_array(self.path(r, "yobs.f64"), y_obs)
            save_array(self.path(r, "truth.f64"), load_array(os.path.join(ds, "test_x.f64"))[0])
        return time.perf_counter() - t0, train

    def measured_stage(self, k: int):
        """One measured stage; returns a record dict, or None if it failed."""
        r = self.runs[k % len(self.runs)]
        if self.stage_epochs:
            res = self._train(r, self.stage_epochs, f"stage {k}")
            if res is None:
                return None
            per_epoch, val_mse = res
            rec = {"secs": per_epoch * self.stage_epochs, "epoch_s": per_epoch, "val_mse": val_mse}
        else:
            rec = self._invert(k, r)
        return rec and {"run": r, **rec}

    def _invert(self, k: int, r: int):
        """Invert the observation of dataset ``r`` with model ``r``."""
        import numpy as np
        from latent_abcss.workflows import invert_artifacts

        cfg = self.cfg(r)
        ok, secs, res = self.stage(
            f"stage {k} invert",
            lambda: invert_artifacts(
                cfg,
                os.path.join(self.path(r, "model"), "model.ckpt"),
                self.path(r, "yobs.f64"),
                self.path(r, "dataset"),
                self.path(r, f"inv{k}"),
                truth_path=self.path(r, "truth.f64"),
                oracle=self.oracle,
            ),
        )
        if not ok:
            return None
        curve = res.curve
        good = self.check(
            f"stage {k} curve: log_p non-decreasing, p=1 at top, selection above stagnation",
            np.all(np.diff(curve.log_p) >= 0.0)
            and np.isclose(curve.log_p[-1], 0.0, atol=1e-12)
            and curve.selected_eps_n > curve.stagnation_eps_n,
            f"selected {curve.selected_eps_n:.4g}, stagnation {curve.stagnation_eps_n:.4g}",
        )
        shape = (cfg.n_particles, cfg.grid.n_cells)
        good &= self.check(
            f"stage {k} solutions: finite, shape {shape}",
            res.solutions_x.shape == shape and np.all(np.isfinite(res.solutions_x)),
            f"shape {res.solutions_x.shape}",
        )
        rec = {
            "secs": secs,
            "rmse_truth": float(np.median(res.metrics.rmse_solutions_truth)),
            "noise_est_err": abs(res.stagnation_eps_n - cfg.noise_std) / cfg.noise_std,
        }
        if self.oracle:
            divs = [v for _, row in res.metrics.wasserstein_by_eps for v in row.values()]
            good &= self.check(
                f"stage {k} oracle divergences finite",
                len(divs) > 0 and np.all(np.isfinite(divs)),
                f"{len(divs)} divergences",
            )
            rec["posterior_div"] = float(res.summary["oracle"]["divergence_at_selected"]["posterior"])
        if not good:
            self.failed += 1
            return None
        return rec

    # --- passes -------------------------------------------------------------

    def run_pass(self, setups: int, seconds: float, n_stages: int | None = None, tracers=None) -> dict:
        """Set up ``setups`` times, then run stages.

        Stages run for ``seconds`` (and at least ``min_stages``) or exactly
        ``n_stages``.  ``tracers`` is an optional (set-up, stages) pair of
        tracers to install around the two phases.
        """
        setup_ctx, stage_ctx = tracers or (contextlib.nullcontext(), contextlib.nullcontext())
        rec = {"setup": [], "stages": [], "broken": False, "setup_wall": 0.0, "stage_wall": 0.0}
        self.runs = []
        t0 = time.perf_counter()
        with setup_ctx:
            for r in range(setups):
                res = self.setup(r, f"setup {r}")
                if res is None:
                    rec["broken"] = True
                    break
                rec["setup"].append(res)
                self.runs.append(r)
        rec["setup_wall"] = time.perf_counter() - t0
        if rec["broken"]:
            return rec
        t0 = time.perf_counter()
        with stage_ctx:
            k = 0
            while (
                k < n_stages
                if n_stages is not None
                else (k < self.min_stages or time.perf_counter() - t0 < seconds)
            ):
                rec["stages"].append(self.measured_stage(k))
                k += 1
        rec["stage_wall"] = time.perf_counter() - t0
        return rec


def by_setup_median(stages, key: str):
    """Median over set-ups of the median of ``key`` over that set-up's stages.

    Failed stages (``None``) are left out.  The set-ups counted do not
    depend on how many repeats the host's speed allows.
    """
    groups: dict[int, list] = {}
    for s in stages:
        if s is not None:
            groups.setdefault(s["run"], []).append(s[key])
    return median([median(v) for v in groups.values()])


def end_to_end_metrics(bench: Bench, rec: dict) -> dict:
    stages = rec["stages"]
    if rec["broken"] or not any(stages):
        return {}
    if bench.stage_epochs:
        epoch_s = by_setup_median(stages, "epoch_s")
        val_mse = by_setup_median(stages, "val_mse")
    else:
        epoch_s = median([train[0] for _, train in rec["setup"]])
        val_mse = median([train[1] for _, train in rec["setup"]])
    return {
        "setup_s": median([secs for secs, _ in rec["setup"]]),
        "epoch_s": epoch_s,
        "stage_s": by_setup_median(stages, "secs"),
        "val_mse": val_mse,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - bench.failed / bench.attempted,
    }


def accuracy(bench: Bench, rec: dict) -> dict:
    """Seed-deterministic accuracy of the inversions, by set-up."""
    stages = rec["stages"]
    out = {"diagnostics.posterior_div": 0.0, "diagnostics.rmse_truth": 0.0, "diagnostics.noise_est_err": 0.0}
    if any(stages) and not bench.stage_epochs:
        out["diagnostics.rmse_truth"] = by_setup_median(stages, "rmse_truth")
        out["diagnostics.noise_est_err"] = by_setup_median(stages, "noise_est_err")
        if bench.oracle:
            out["diagnostics.posterior_div"] = by_setup_median(stages, "posterior_div")
    return out


def make_tracer():
    import numpy as np

    def cost_entries(tr, a, result):
        n, m = a["c"].shape
        tr.count("sinkhorn.cost_entries", n * m)

    def gemm_size(params):
        return sum(int(l.weights.shape[0]) * int(l.weights.shape[1]) for l in params.layers)

    def forward(tr, a, result):
        rows = np.atleast_2d(a["x"]).shape[0]
        tr.count("neural.forward_rows", rows)
        tr.count("neural.flop", 2 * rows * gemm_size(a["params"]))

    def backward(tr, a, result):
        rows = np.atleast_2d(a["output_gradient"]).shape[0]
        # dW and the input gradient: two GEMMs per layer
        tr.count("neural.flop", 4 * rows * gemm_size(a["params"]))

    def subsim_run(tr, a, trace):
        n = trace.config.n_particles
        tr.count("subsim.levels", trace.n_levels)
        tr.count("subsim.stagnated", int(trace.stagnated))
        for lvl in trace.levels:
            proposed = n - lvl.survivor_count
            if proposed > 0:
                tr.count("subsim.proposed", proposed)
                tr.count("subsim.accepted", lvl.acceptance_rate * proposed)

    def save_array(tr, a, result):
        path = a["path"]
        tr.count("rng_linalg.bytes_written", os.path.getsize(path) + os.path.getsize(path + ".json"))

    return Tracer(
        sample_keys=[("sinkhorn", "_plain_entropic_ot"), ("jgnn", "generate")],
        observers={
            ("sinkhorn", "_plain_entropic_ot"): cost_entries,
            ("neural", "mlp_forward"): forward,
            ("neural", "mlp_backward"): backward,
            ("subsim", "subsim_run"): subsim_run,
            ("rng_linalg", "save_array"): save_array,
        },
    )


def per_layer_metrics(tr, setup_tr, base: dict, traced: dict, work_dir: str) -> tuple[dict, list]:
    """Per-layer figures of the measured stages, traced by ``tr``.

    The set-up pass, traced by ``setup_tr``, adds its per-layer self times
    (``setup.*``) and, for the four figures set-up time depends on, its time.
    """
    notes = []

    def pct_ms(key, q):
        xs = tr.samples[key]
        if not xs:
            return 0.0
        if q == 50:
            return 1e3 * median(xs)
        value, q_used = tail_percentile(xs, q)
        if value is None:
            notes.append(f"{key[0]}.{key[1]}: {len(xs)} samples, too few for p{q}; median reported")
            return 1e3 * median(xs)
        if q_used < q:
            notes.append(f"{key[0]}.{key[1]}: p{q} reported as p{q_used:.1f} ({len(xs)} samples)")
        return 1e3 * value

    def both(layer, fn):  # figures that set-up time depends on: both phases
        return tr.stat(layer, fn).incl_s + setup_tr.stat(layer, fn).incl_s

    st = tr.stat
    c = tr.counters
    lay_self = tr.layer_self()
    lay_calls = tr.layer_calls()
    wall = traced["stage_wall"]
    runs = st("subsim", "subsim_run").calls
    levels = c.get("subsim.levels", 0)
    fwd = st("neural", "mlp_forward").self_s + st("neural", "_activate").self_s
    bwd = st("neural", "mlp_backward").self_s + st("neural", "_activate_grad").self_s
    gflop = c.get("neural.flop", 0) / 1e9
    m = {}
    setup_self = setup_tr.layer_self()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = lay_self.get(layer, 0.0)
        m[f"{layer}.calls"] = lay_calls.get(layer, 0)
        m[f"setup.{layer}.self_s"] = setup_self.get(layer, 0.0)
    m.update(
        {
            "sinkhorn.solves": st("sinkhorn", "_plain_entropic_ot").calls,
            "sinkhorn.share": lay_self.get("sinkhorn", 0.0) / wall,
            "sinkhorn.solve_ms_p50": pct_ms(("sinkhorn", "_plain_entropic_ot"), 50),
            "sinkhorn.solve_ms_p90": pct_ms(("sinkhorn", "_plain_entropic_ot"), 90),
            "sinkhorn.cost_entries": c.get("sinkhorn.cost_entries", 0),
            "neural.forward_self_s": fwd,
            "neural.backward_self_s": bwd,
            "neural.adam_s": st("neural", "adam_step").incl_s,
            "neural.spectral_s": st("neural", "refresh_spectral").incl_s
            + st("neural", "spectral_normalize").incl_s,
            "neural.forward_rows": c.get("neural.forward_rows", 0),
            "neural.gflop": gflop,
            "neural.gflop_per_s": gflop / (fwd + bwd) if fwd + bwd > 0 else 0.0,
            "jgnn.generate_calls": st("jgnn", "generate").calls,
            "jgnn.generate_ms_p50": pct_ms(("jgnn", "generate"), 50),
            "jgnn.generate_ms_p90": pct_ms(("jgnn", "generate"), 90),
            "jgnn.generate_self_s": st("jgnn", "generate").self_s,
            "jgnn.load_model_s": st("jgnn", "load_model").incl_s,
            "jgnn.loss_self_s": st("jgnn", "jgnn_loss").self_s,
            "jgnn.train_self_s": st("jgnn", "train").self_s,
            "subsim.runs": runs,
            "subsim.levels_per_run": levels / runs if runs else 0.0,
            "subsim.g2_calls_per_run": (
                tr.calls_from([("subsim", "subsim_run"), ("subsim", "_rejuvenate")], ("jgnn", "generate")) / runs
                if runs
                else 0.0
            ),
            "subsim.level_ms_mean": 1e3 * st("subsim", "subsim_run").incl_s / levels if levels else 0.0,
            "subsim.accept_ratio": (
                c.get("subsim.accepted", 0) / c["subsim.proposed"] if c.get("subsim.proposed") else 0.0
            ),
            "subsim.stagnated_frac": c.get("subsim.stagnated", 0) / runs if runs else 0.0,
            "rng_linalg.generators": st("rng_linalg", "RngStream.generator").calls,
            "rng_linalg.generator_s": st("rng_linalg", "RngStream.generator").incl_s,
            "rng_linalg.cholesky_s": both("rng_linalg", "cholesky"),
            "rng_linalg.bytes_written": c.get("rng_linalg.bytes_written", 0),
            "rng_linalg.write_s": st("rng_linalg", "save_array").incl_s,
            "rng_linalg.read_s": st("rng_linalg", "load_array").incl_s,
            "gp_prior.covariance_s": both("gp_prior", "build_covariance"),
            "gp_prior.sample_s": both("gp_prior", "sample_fields"),
            "tomography.assemble_s": both("tomography", "assemble_matrix"),
            "tomography.forward_s": st("tomography", "forward").incl_s,
            "analytic_posterior.condition_s": st("analytic_posterior", "linear_gaussian_posterior").incl_s,
            "analytic_posterior.sample_s": st("analytic_posterior", "posterior_sample").incl_s,
            "diagnostics.wasserstein_calls": st("diagnostics", "wasserstein_diagnostics").calls,
            "diagnostics.wasserstein_self_s": st("diagnostics", "wasserstein_diagnostics").self_s,
            "diagnostics.curve_s": st("diagnostics", "probability_curve").incl_s
            + st("diagnostics", "analyze_curve").incl_s,
            "diagnostics.resim_s": st("diagnostics", "resimulation_report").incl_s,
            "workflows.invert_self_s": sum(
                st("workflows", f).self_s
                for f in ("invert_artifacts", "run_inversion", "_deep_level_solutions")
            ),
            "workflows.dataset_load_s": st("workflows", "_load_dataset").incl_s,
            "workflows.artifact_bytes": sum(
                os.path.getsize(os.path.join(base_dir, f))
                for base_dir, _, files in os.walk(work_dir)
                for f in files
            ),
            "trace.wall_s": wall,
            "trace.untraced_s": wall - tr.covered_s(),
            "setup.wall_s": traced["setup_wall"],
            "setup.untraced_s": traced["setup_wall"] - setup_tr.covered_s(),
            "trace.overhead_s": (traced["setup_wall"] + wall) - (base["setup_wall"] + base["stage_wall"]),
        }
    )
    return m, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")

    pin_threads(nproc())
    import_package()
    from latent_abcss.jgnn import TrainingDiverged
    from latent_abcss.workflows import DiagnosticFailure

    warnings.filterwarnings("ignore", message=".*non-positive slowness.*")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    bench = Bench(args.workload, args.seed, (DiagnosticFailure, TrainingDiverged))
    os.makedirs(bench.dir)
    try:
        if args.trace == 0:
            rec = bench.run_pass(bench.setups, args.seconds)
            metrics = end_to_end_metrics(bench, rec)
            spec, notes = END_TO_END, []
            print(f"set-up s: {[round(s, 4) for s, _ in rec['setup']]}")
            print(f"stage s: {[None if s is None else round(s['secs'], 4) for s in rec['stages']]}")
        else:
            # a first set-up warms the process, so neither compared pass
            # pays the one-off start-up costs
            bench.setup(0, "warm-up")
            base = bench.run_pass(1, args.seconds)
            setup_tr, stage_tr = make_tracer(), make_tracer()
            bound = package_bindings()
            traced = bench.run_pass(
                1, args.seconds, n_stages=len(base["stages"]), tracers=(setup_tr, stage_tr)
            )
            after = package_bindings()
            moved = sorted(
                f"{mod}.{attr}"
                for mod, attr in bound.keys() | after.keys()
                if bound.get((mod, attr)) is not after.get((mod, attr))
            )
            bench.check(
                "trace: every re-bound function is the original again",
                not moved,
                f"{len(bound)} bindings" + (f", changed: {', '.join(moved[:5])}" if moved else ""),
            )
            metrics, notes = per_layer_metrics(stage_tr, setup_tr, base, traced, bench.dir)
            metrics.update(accuracy(bench, traced))
            spec = PER_LAYER
            print(f"stages: {len(traced['stages'])} measured untraced and again traced")
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    for note in notes:
        print(f"note: {note}")
    if set(metrics) != set(spec):
        print("perfbench: no result, the run produced no complete stage", file=sys.stderr)
        return 1
    for name, (unit, better) in spec.items():
        print(f"metric {name} = {metrics[name]!r} {unit} ({better} is better)")
    result = {
        "correct": bench.failed == 0 and all(ok for _, ok, _ in bench.checks),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in spec.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
