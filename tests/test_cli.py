"""Pipeline commands: artifacts, determinism, exit codes."""

import argparse
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
import weakref
from collections import namedtuple

import numpy as np
import pytest

import latent_abcss
from latent_abcss import jgnn, workflows
from latent_abcss.cli import _build_parser, main
from latent_abcss.gp_prior import build_covariance
from latent_abcss.jgnn import generate, load_model
from latent_abcss.neural import flat_size
from latent_abcss.rng_linalg import RngStream, add_jitter, cholesky, load_array, read_csv_columns, sample_mvn, save_array
from latent_abcss.tomography import NoiseModel, add_noise, load_ray_matrix, save_ray_matrix
from latent_abcss.workflows import PipelineConfig, generate_dataset

MICRO_CONFIG = {
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
    "epochs": 25,
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

NAN, INF = float("nan"), float("inf")
GRID, GP = MICRO_CONFIG["grid"], MICRO_CONFIG["gp"]

# the inputs each command reads besides --out; --oracle adds --truth
OPTIONS = {
    "gendata": ["--config"],
    "train": ["--config", "--dataset"],
    "invert": ["--config", "--checkpoint", "--yobs", "--dataset"],
    "oracle-posterior": ["--config", "--dataset", "--yobs"],
    "evaluate": ["--runs"],
}


def _argv(command, inputs, out):
    """``command`` (its name, then its flags) given ``inputs[option]`` for each input it reads."""
    name, *flags = command.split()
    options = OPTIONS[name] + ["--truth"] * ("--oracle" in flags)
    return [name, *flags, *(arg for opt in options for arg in (opt, inputs[opt])), "--out", out]


def tree_digest(root):
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode())
            h.update(open(path, "rb").read())
    return h.hexdigest()


def test_cli_import_leaves_numpy_unloaded():
    # --threads must reach the BLAS pool, which is sized when numpy loads; the
    # import writes no environment variable, OpenBLAS's idle spin included
    src = os.path.dirname(os.path.dirname(latent_abcss.__file__))
    code = (
        "import os, sys; env = dict(os.environ); import latent_abcss; a = 'numpy' in sys.modules; "
        "import latent_abcss.cli; print(a, 'numpy' in sys.modules, dict(os.environ) == env, "
        "'OPENBLAS_THREAD_TIMEOUT' in os.environ)"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["False", "False", "True", "False"]


@pytest.mark.parametrize(
    "flag, env",
    [(None, "abc"), (None, "1.5"), (None, "0"), ("0", None), ("-2", None), ("0", "2")],
)
def test_bad_thread_count_exits_2_before_numpy(tmp_path, flag, env):
    src = os.path.dirname(os.path.dirname(latent_abcss.__file__))
    out = str(tmp_path / "data")
    argv = (["--threads", flag] if flag else []) + ["gendata", "--out", out]
    code = f"import sys; from latent_abcss.cli import main; rc = main({argv!r}); print(rc, 'numpy' in sys.modules)"
    env_vars = {k: v for k, v in os.environ.items() if k != "LATENT_ABCSS_THREADS"}
    env_vars["PYTHONPATH"] = src
    if env is not None:
        env_vars["LATENT_ABCSS_THREADS"] = env
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env_vars)
    assert res.stdout.split() == ["2", "False"], res.stderr
    assert "config error [gendata]" in res.stderr and "positive integer" in res.stderr
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(MICRO_CONFIG))
    return root, str(cfg_path)


@pytest.fixture(scope="module")
def pipeline(workdir):
    """gendata + train once; later tests reuse the artifacts."""
    root, cfg = workdir
    data = str(root / "data")
    model = str(root / "model")
    assert main(["gendata", "--config", cfg, "--out", data]) == 0
    assert main(["train", "--config", cfg, "--dataset", data, "--out", model]) == 0
    test_y = load_array(os.path.join(data, "test_y.f64"))
    test_x = load_array(os.path.join(data, "test_x.f64"))
    yobs = add_noise(test_y[0], NoiseModel(std=0.1), RngStream(7, 9))
    save_array(str(root / "yobs.f64"), yobs)
    save_array(str(root / "truth.f64"), test_x[0])
    return root, cfg, data, model


def _inputs(pipeline):
    """The pipeline's valid input for each option."""
    root, cfg, data, model = pipeline
    paths = (cfg, data, os.path.join(model, "model.ckpt"), str(root / "yobs.f64"), str(root / "truth.f64"))
    return dict(zip(("--config", "--dataset", "--checkpoint", "--yobs", "--truth"), paths))


class TestGendata:
    def test_manifest_counts(self, pipeline):
        root, cfg, data, _ = pipeline
        manifest = json.load(open(os.path.join(data, "manifest.json")))
        assert manifest["n_train"] == 120
        assert manifest["n_test"] == 3
        assert manifest["n_rays"] == 4
        assert "provenance" in manifest
        # draws with at least one slowness cell <= 0, counted per split
        counts = {
            part: int(np.any(load_array(os.path.join(data, f"{part}_x.f64")) <= 0, axis=1).sum())
            for part in ("train", "test")
        }
        assert manifest["nonpositive_fields"] == counts

    def test_splits_drawn_from_one_factor(self, pipeline):
        data = pipeline[2]
        cfg = PipelineConfig.from_dict(MICRO_CONFIG)
        low = cholesky(add_jitter(build_covariance(cfg.grid, cfg.gp)))
        mean = np.full(cfg.grid.n_cells, cfg.gp.mean)
        rng = RngStream(cfg.seed, 1)
        for i, part in enumerate(("train", "test")):
            drawn = load_array(os.path.join(data, f"{part}_x.f64"))
            np.testing.assert_array_equal(drawn, sample_mvn(mean, low, drawn.shape[0], rng.split(i)))

    def test_generate_dataset_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_dataset(PipelineConfig.from_dict(MICRO_CONFIG), str(tmp_path / "data"))

    def test_rerun_byte_identical(self, pipeline):
        root, cfg, data, _ = pipeline
        again = str(root / "data_again")
        assert main(["gendata", "--config", cfg, "--out", again]) == 0
        assert tree_digest(data) == tree_digest(again)

    def test_single_couple_dataset(self, workdir, tmp_path):
        root, cfg = workdir
        out = str(tmp_path / "one")
        assert main(["gendata", "--config", cfg, "--out", out, "--train-size", "1"]) == 0
        x = load_array(os.path.join(out, "train_x.f64"))
        assert x.shape[0] == 1

    # bad setting values, refused at config load like the rows of REFUSALS below
    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"seed": 1.5}, "seed"),
            ({"epochs": 2.5}, "epochs"),
            ({"n_particles": 100.0}, "n_particles"),
            ({"seed": True}, "seed"),
            ({"hidden": [12.5, 8]}, "hidden[0]"),
            ({"grid": {**GRID, "n_cols": 5.0}}, "grid.n_cols"),
        ],
    )
    def test_non_integer_setting_exits_2(self, refused, doc, name):
        message = f"config error [gendata]: {name} must be an integer"
        refused(Row(name, "gendata --config", "wrong type", _config(**doc), message))

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("gendata", {"separation": NAN}, "separation must be a finite number, got nan"),
            ("gendata", {"noise_std": NAN}, "noise_std must be a finite number, got nan"),
            ("gendata", {"noise_std": INF}, "noise_std must be a finite number, got inf"),
            ("gendata", {"sinkhorn_tol": NAN}, "sinkhorn_tol must be a finite number, got nan"),
            ("gendata", {"sinkhorn_tol": INF}, "sinkhorn_tol must be a finite number, got inf"),
            ("gendata", {"grid": {**GRID, "cell_size": INF}}, "grid.cell_size must be a finite"),
            ("gendata", {"gp": {**GP, "lengthscale": INF}}, "gp.lengthscale must be a finite"),
            ("gendata", {"gp": {**GP, "variance": INF}}, "gp.variance must be a finite"),
            ("gendata", {"gp": {**GP, "mean": NAN}}, "gp.mean must be a finite number, got nan"),
            ("gendata", {"gp": {**GP, "mean": INF}}, "gp.mean must be a finite number, got inf"),
            ("gendata", {"gp": {**GP, "mean": -INF}}, "gp.mean must be a finite number, got -inf"),
            ("gendata", {"eps_count": 3}, "smoothing_window must be odd and in [3, eps_count = 3]"),
            ("gendata", {"smoothing_window": 4}, "smoothing_window must be odd and in [3, eps_count = 25]"),
            ("invert --oracle --noise-std nan", {}, "noise_std must be a finite number, got nan"),
            ("gendata", {"hidden": [-5]}, "hidden[0] must be positive, got -5"),
            ("gendata", {"hidden": [12, 0]}, "hidden[1] must be positive, got 0"),
            ("gendata", {"diag_subsample": 0}, "diag_subsample must be positive, got 0"),
            ("gendata", {"diag_subsample": -3}, "diag_subsample must be positive, got -3"),
            ("gendata", {"sinkhorn_tol": -1.0}, "sinkhorn_tol must be nonnegative"),
        ],
    )
    def test_non_finite_or_inconsistent_setting_exits_2(self, refused, command, doc, message):
        name, *flags = command.split()
        if flags:  # the value of the last flag is the bad setting
            *flags, value = flags
            row = Row(message, " ".join([name, *flags]), "non-finite", value, f"config error [{name}]: {message}")
        else:
            kind = "non-finite" if "finite" in message else "out of range"
            row = Row(message, f"{name} --config", kind, _config(**doc), f"config error [{name}]: {message}")
        refused(row)


class TestTrain:
    def test_rerun_byte_identical(self, pipeline):
        root, cfg, data, model = pipeline
        again = str(root / "model_again")
        assert main(["train", "--config", cfg, "--dataset", data, "--out", again]) == 0
        assert tree_digest(model) == tree_digest(again)

    def test_history_csv_columns(self, pipeline):
        _, _, _, model = pipeline
        header = open(os.path.join(model, "history.csv")).readline().strip()
        assert header == "epoch,mse_x,mse_y,ot_term,lambda,val_mse_x,val_mse_y"

    def test_batch_of_the_whole_training_split_is_accepted(self, pipeline, tmp_path):
        # 120 couples hold out 12, so a batch of 108 is the largest train accepts
        data = pipeline[2]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**MICRO_CONFIG, "batch_size": 108, "epochs": 2}))
        out = tmp_path / "model"
        assert main(["train", "--config", str(cfg), "--dataset", data, "--out", str(out)]) == 0
        assert len((out / "history.csv").read_text().splitlines()) == 1 + 2

    def test_threads_1_writes_the_default_checkpoint(self, pipeline, tmp_path, monkeypatch):
        # a default-width network, trained with the BLAS pool unpinned and pinned to one thread
        data = pipeline[2]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**MICRO_CONFIG, "hidden": [512, 512], "epochs": 3}))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "")  # records the value that teardown restores over --threads 1's
            monkeypatch.delenv(var)
        runs = []
        for flags in ([], ["--threads", "1"]):
            out = tmp_path / f"model{len(runs)}"
            assert main([*flags, "train", "--config", str(cfg), "--dataset", data, "--out", str(out)]) == 0
            runs.append([(out / name).read_bytes() for name in ("model.ckpt", "model.ckpt.json", "history.csv")])
        assert runs[0] == runs[1]

    def test_library_and_checkpoint_paths_agree(self, pipeline, tmp_path, monkeypatch):
        # train returns the f32 values its checkpoint stores, so an inversion of the
        # returned model and `invert` from the checkpoint are the same computation
        root, cfg, data, _ = pipeline
        config, loop, returned = PipelineConfig.from_json(cfg), workflows._train_loop, []
        monkeypatch.setattr(workflows, "_train_loop", lambda *args: returned.append(loop(*args)) or returned[0])
        ckpt = workflows.train_from_dataset(config, data, str(tmp_path / "model"))
        model, loaded = returned[0][0], load_model(ckpt)
        for net in ("encoder", "decoder"):
            np.testing.assert_array_equal(getattr(model, net).flat, getattr(loaded, net).flat)
        yobs = str(root / "yobs.f64")
        cli = workflows.invert_artifacts(config, ckpt, yobs, data, str(tmp_path / "inv"))
        a = workflows._load_dataset(data, "ray_matrix")["ray_matrix"]
        lib = workflows.run_inversion(model, a, load_array(yobs), config, RngStream(config.seed, 3))
        np.testing.assert_array_equal(lib.solutions_x, cli.solutions_x)
        np.testing.assert_array_equal(lib.final_trace.final_samples, cli.final_trace.final_samples)
        assert lib.summary == cli.summary

    def test_loaded_couples_and_f64_start_networks_are_freed_before_training(self, pipeline, tmp_path, monkeypatch):
        # by the first Adam step nothing holds the arrays the dataset loader
        # returned or the f64 networks JGNNModel.init made: the loop keeps one
        # copy of the data, standardized, and the f32 networks it steps
        _, cfg, data, _ = pipeline
        load, init, step = workflows._load_dataset, jgnn.JGNNModel.init.__func__, jgnn.adam_step
        refs, alive = [], []

        def loaded(*args):
            out = load(*args)
            refs.extend(weakref.ref(arr) for name, arr in out.items() if name != "manifest")
            return out

        def initialized(cls, *args, **kwargs):
            model = init(cls, *args, **kwargs)
            refs.extend(weakref.ref(net.flat) for net in (model.encoder, model.decoder))
            return model

        def stepped(*args):
            alive.append([ref() is not None for ref in refs])
            return step(*args)

        monkeypatch.setattr(workflows, "_load_dataset", loaded)
        monkeypatch.setattr(jgnn.JGNNModel, "init", classmethod(initialized))
        monkeypatch.setattr(jgnn, "adam_step", stepped)
        workflows.train_from_dataset(PipelineConfig.from_json(cfg), data, str(tmp_path / "model"))
        assert len(refs) == 4
        assert alive[0] == [False] * 4


@pytest.fixture(scope="module")
def oracle_runs(pipeline):
    """Two identical oracle inversions, ``inv`` and ``inv_da``, of the test couple."""
    outs = [str(pipeline[0] / name) for name in ("inv", "inv_da")]
    for out in outs:
        assert main(_argv("invert --oracle", _inputs(pipeline), out)) == 0
    return outs


class TestInvert:
    def test_runs_and_writes_artifacts(self, pipeline, oracle_runs):
        model, out = pipeline[3], oracle_runs[0]
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["selected_eps_n"] > summary["stagnation_eps_n"]
        assert 0 < summary["p_hat_at_selected"] <= 1.0
        assert summary["stagnated_deep_run"] == (summary["stagnation_deep_run"] is not None)
        for name in ("curve.csv", "metrics.csv", "wasserstein.csv", "solutions_x.f64"):
            assert os.path.exists(os.path.join(out, name)), name
        # the reported solutions decode the final latent population, row for row
        latent = load_array(os.path.join(out, "final_trace_samples.f64"))
        x, y = generate(load_model(os.path.join(model, "model.ckpt")), latent)
        np.testing.assert_array_equal(load_array(os.path.join(out, "solutions_x.f64")), x)
        np.testing.assert_array_equal(load_array(os.path.join(out, "solutions_y.f64")), y)

    def test_rerun_byte_identical(self, oracle_runs):
        assert tree_digest(oracle_runs[0]) == tree_digest(oracle_runs[1])

    def test_artifact_file_list(self, oracle_runs):
        # each trace is its JSON, the final samples and one (n_levels + 1, n_particles) dissimilarity array
        arrays = [f"solutions_{s}.f64" for s in ("x", "y")]
        arrays += [f"{t}_{part}.f64" for t in ("deep_trace", "final_trace") for part in ("dissimilarities", "samples")]
        traces = ["deep_trace.json", "final_trace.json"]
        expected = ["curve.csv", "metrics.csv", "summary.json", "wasserstein.csv", *traces]
        expected += [name + ext for name in arrays for ext in ("", ".json")]
        assert len(expected) == 18
        assert sorted(os.listdir(oracle_runs[0])) == sorted(expected)
        for trace in ("deep_trace", "final_trace"):
            levels = json.load(open(os.path.join(oracle_runs[0], trace + ".json")))["levels"]
            pops = load_array(os.path.join(oracle_runs[0], trace + "_dissimilarities.f64"))
            assert pops.shape == (len(levels) + 1, MICRO_CONFIG["n_particles"])

    def test_oracle_solves_reference_self_transport_once(self, pipeline, monkeypatch):
        from latent_abcss import diagnostics
        from latent_abcss.workflows import PipelineConfig, invert_artifacts

        root, cfg, data, model = pipeline
        solves = {"self": [], "cross": []}

        def counted(kind, solve):
            def run(c, *args):
                tp = solve(c, *args)
                solves[kind].append(tp.converged)
                return tp

            return run

        monkeypatch.setattr(diagnostics, "self_transport", counted("self", diagnostics.self_transport))
        monkeypatch.setattr(diagnostics, "_plain_entropic_ot", counted("cross", diagnostics._plain_entropic_ot))
        result = invert_artifacts(
            PipelineConfig.from_json(cfg),
            os.path.join(model, "model.ckpt"),
            str(root / "yobs.f64"),
            data,
            str(root / "inv_counted"),
            truth_path=str(root / "truth.f64"),
            oracle=True,
        )
        n_refs = 2  # posterior and prior; the Dirac truth has closed forms and no solve
        n_calls = len(result.metrics.wasserstein_by_eps)
        assert n_calls == len(result.deep_trace.level_samples) + 1
        assert set(result.metrics.wasserstein_by_eps[0][1]) == {"posterior", "prior", "truth"}
        # each cloud reference's self term once, each row's self term once
        assert len(solves["self"]) == n_refs + n_calls
        assert len(solves["cross"]) == n_calls * n_refs
        oracle = result.summary["oracle"]
        exhausted = solves["self"].count(False) + solves["cross"].count(False)
        assert oracle["budget_exhausted_solves"] == exhausted == len(oracle["budget_exhausted"])

    def test_oracle_inversion_never_loads_scipy(self, pipeline, tmp_path):
        # scipy's LAPACK runs its own OpenBLAS pool (tests/test_rng_linalg.py
        # scans the imports), and importing scipy.sparse alone costs a
        # process ~15 MB; a successful run needs neither, so a fresh
        # interpreter that runs gendata, train and an oracle inversion ends
        # with no scipy module loaded
        data, model, inv = (str(tmp_path / name) for name in ("data", "model", "inv"))
        inputs = {**_inputs(pipeline), "--dataset": data, "--checkpoint": os.path.join(model, "model.ckpt")}
        argvs = [_argv("gendata", inputs, data), _argv("train", inputs, model), _argv("invert --oracle", inputs, inv)]
        code = (
            f"import sys; from latent_abcss.cli import main; print([main(argv) for argv in {argvs!r}]); "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(latent_abcss.__file__))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.stdout.splitlines()[-2:] == ["[0, 0, 0]", "[]"], out.stderr
        # and the inversion still measured its posterior: one row per eps_n,
        # a finite value in every divergence column
        table = read_csv_columns(os.path.join(inv, "wasserstein.csv"))
        rows, divergences = table.pop("eps_n").size, list(table.values())
        assert rows and divergences
        assert all(col.size == rows and np.isfinite(col).all() for col in divergences)

    def test_oracle_inversion_builds_one_decoder_view(self, pipeline, monkeypatch):
        # the sampler's g2, the final decode and the audit's g1 share one frozen f32 decoder
        from latent_abcss import jgnn
        from latent_abcss.workflows import PipelineConfig, run_inversion

        built, build = [], jgnn._decoder_view

        def counted(model):
            view = build(model)
            if view is not model:
                built.append(view)
            return view

        monkeypatch.setattr(jgnn, "_decoder_view", counted)
        monkeypatch.setattr(workflows, "_decoder_view", counted)
        root, cfg, data, model = pipeline
        files = json.load(open(os.path.join(data, "manifest.json")))["files"]
        result = run_inversion(
            load_model(os.path.join(model, "model.ckpt")),
            load_ray_matrix(os.path.join(data, files["ray_matrix"])),
            load_array(str(root / "yobs.f64")),
            PipelineConfig.from_json(cfg),
            RngStream(7, 3),
            truth=load_array(str(root / "truth.f64")),
            oracle=True,
        )
        assert len(built) == 1
        assert result.solutions_x.dtype == result.solutions_y.dtype == np.float64

    def test_budget_exhausted_solves_are_named(self, pipeline, monkeypatch):
        from dataclasses import replace

        from latent_abcss import workflows
        from latent_abcss.workflows import PipelineConfig, invert_artifacts

        root, cfg, data, model = pipeline
        # two iterations end every diagnostic solve but the Dirac's
        monkeypatch.setattr(workflows, "ORACLE_OT", replace(workflows.ORACLE_OT, max_iter=2))
        out = root / "inv_exhausted"
        result = invert_artifacts(
            PipelineConfig.from_json(cfg),
            os.path.join(model, "model.ckpt"),
            str(root / "yobs.f64"),
            data,
            str(out),
            truth_path=str(root / "truth.f64"),
            oracle=True,
        )
        oracle = json.load(open(out / "summary.json"))["oracle"]
        assert oracle == json.loads(json.dumps(result.summary["oracle"]))
        listed = oracle["budget_exhausted"]
        assert oracle["budget_exhausted_solves"] == len(listed) > 0
        # every solve ends on the budget, so the list is the audit's order: the
        # reference self terms (no row), then each row's self term (no reference)
        # and cross terms, the deep levels from the top and the selected row last
        row_eps = [s["eps_n"] for s in listed if s["eps_n"] is not None and s["reference"] is None]
        expected = [{"kind": "self", "reference": ref, "eps_n": None} for ref in ("posterior", "prior")]
        for eps_n in row_eps:
            solves = (("self", None), ("cross", "posterior"), ("cross", "prior"))
            expected += [{"kind": kind, "reference": ref, "eps_n": eps_n} for kind, ref in solves]
        assert listed == expected
        assert row_eps[-1] == result.selected_eps_n
        assert row_eps[:-1] == sorted(row_eps[:-1], reverse=True)
        assert sorted(row_eps) == [eps_n for eps_n, _ in result.metrics.wasserstein_by_eps]

    def test_oracle_decodes_each_distinct_state_once(self, monkeypatch):
        from types import SimpleNamespace

        from latent_abcss import workflows

        gen = np.random.default_rng(3)
        states = gen.standard_normal((6, 4))
        # Metropolis-like populations: each row repeats an earlier state
        pops = [states[gen.integers(0, k, size=9)] for k in (6, 3, 1)]
        trace = SimpleNamespace(
            levels=[SimpleNamespace(threshold=t) for t in (5.0, 2.0)], level_samples=pops
        )
        decoded = []

        def g1(z):
            decoded.append(z.copy())
            return 2.0 * z

        monkeypatch.setattr(workflows, "g1_of_latent", lambda model: g1)
        m_sub = 7
        out = list(workflows._deep_level_solutions(None, trace, 10.0, 4, m_sub))
        assert len(out) == len(decoded) == len(pops)
        for (_, fields, weights), z, pop in zip(out, decoded, pops):
            distinct = np.unique(pop[:m_sub], axis=0)
            assert z.shape == distinct.shape
            assert np.unique(z, axis=0).shape == distinct.shape
            np.testing.assert_array_equal(fields, 2.0 * z)
            assert abs(weights.sum() - 1.0) <= 1e-12
            # each decoded state carries the share of the rows that hold it
            for row, w in zip(z, weights):
                assert w * m_sub == pytest.approx(np.sum(np.all(pop[:m_sub] == row, axis=1)))

    @pytest.mark.parametrize(
        "grid, message, columns",
        [("1000,5000,25", "no curvature peak: curve is flat or affine", {True}),
         ("1e-6,0.3,25", "curve has 1 points, fewer than window 5", {False}),
         ("1e-6,1e-5,25", "no grid point is reached by the run", set())],
        ids=["flat", "short", "unreached"],
    )
    def test_failed_selection_exits_4_with_its_curve(self, pipeline, capsys, grid, message, columns):
        out = pipeline[0] / f"inv_exit4_{grid}"
        assert main(_argv("invert", _inputs(pipeline), str(out)) + ["--eps-grid", grid]) == 4
        assert f"diagnostic failure [invert]: {message}" in capsys.readouterr().err
        arrays = [f"deep_trace_{part}.f64{ext}" for part in ("dissimilarities", "samples") for ext in ("", ".json")]
        assert sorted(os.listdir(out)) == sorted(["curve.csv", "summary.json", "deep_trace.json", *arrays])
        assert set(json.load(open(out / "summary.json"))) == {"error", "provenance"}
        # a selection that fails keeps the smoothed and curvature columns it
        # computed; an unreached grid leaves the header alone
        header, *rows = [line.split(",") for line in (out / "curve.csv").read_text().splitlines()]
        assert header == ["eps", "eps_n", "log10_p", "smoothed", "curvature"]
        assert {bool(row[3]) for row in rows} == {bool(row[4]) for row in rows} == columns

    def test_eps_grid_override(self, pipeline):
        out = str(pipeline[0] / "inv_grid")
        assert main(_argv("invert", _inputs(pipeline), out) + ["--eps-grid", "1e-4,60,30"]) == 0
        lines = open(os.path.join(out, "curve.csv")).read().strip().splitlines()
        assert len(lines) <= 31


class TestEvaluateAndOracle:
    def test_evaluate_aggregates(self, pipeline, oracle_runs):
        root = pipeline[0]
        agg = str(root / "agg.csv")
        rc = main(["evaluate", "--runs", *oracle_runs, "--out", agg])
        assert rc == 0
        lines = open(agg).read().strip().splitlines()
        assert lines[0] == "inversion,pairing,count,mean,median,p05,p95"
        pooled = [l for l in lines if l.startswith("pooled,")]
        assert {p.split(",")[1] for p in pooled} == {"train", "post", "ours", "prior"}
        dist = open(str(root / "agg_pooled.csv")).readline().strip()
        assert dist == "train,post,ours,prior"

    def test_evaluate_rerun_identical(self, pipeline, oracle_runs):
        root = pipeline[0]
        a, b = str(root / "agg_a.csv"), str(root / "agg_b.csv")
        for out in (a, b):
            assert main(["evaluate", "--runs", oracle_runs[0], "--out", out]) == 0
        assert open(a).read() == open(b).read()

    def test_evaluate_creates_the_output_directory(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text("rmse_solutions_truth,rmse_prior_truth\n0.25,0.5\n")
        out = tmp_path / "new" / "agg.csv"
        assert main(["evaluate", "--runs", str(run), "--out", str(out)]) == 0
        assert sorted(os.listdir(out.parent)) == ["agg.csv", "agg_pooled.csv"]

    def test_oracle_posterior_artifacts(self, pipeline):
        root, cfg, data, model = pipeline
        out = str(root / "oracle")
        rc = main(["oracle-posterior", "--config", cfg, "--dataset", data, "--yobs", str(root / "yobs.f64"), "--out", out])
        assert rc == 0
        mean = load_array(os.path.join(out, "posterior_mean.f64"))
        cov = load_array(os.path.join(out, "posterior_cov.f64"))
        assert mean.shape == (30,)
        assert cov.shape == (30, 30)

    def test_oracle_posterior_factors_only_the_innovation(self, pipeline, monkeypatch):
        # the command writes mean and covariance; only sampling needs a factor
        from latent_abcss import analytic_posterior
        from latent_abcss.workflows import compute_oracle_posterior

        root, cfg, data, model = pipeline
        plain = analytic_posterior.cholesky
        factored = []

        def counted(m):
            factored.append(np.shape(m))
            return plain(m)

        monkeypatch.setattr(analytic_posterior, "cholesky", counted)
        config = PipelineConfig.from_json(cfg)
        lazy, eager = str(root / "oracle_lazy"), str(root / "oracle_eager")
        compute_oracle_posterior(config, data, str(root / "yobs.f64"), lazy)
        n_rays = load_array(str(root / "yobs.f64")).size
        assert factored == [(n_rays, n_rays)]

        # factoring every GaussianDist on construction writes the same bytes
        init = analytic_posterior.GaussianDist.__post_init__

        def eager_init(self):
            init(self)
            self.chol

        monkeypatch.setattr(analytic_posterior.GaussianDist, "__post_init__", eager_init)
        compute_oracle_posterior(config, data, str(root / "yobs.f64"), eager)
        assert (30, 30) in factored
        assert tree_digest(lazy) == tree_digest(eager)


def test_each_command_reads_only_its_dataset_files(pipeline, tmp_path):
    # invert without --truth and oracle-posterior never read the training couples, and train never
    # reads the ray matrix: each writes the same tree from a dataset copy without those files
    data, inputs = pipeline[2], _inputs(pipeline)
    for command, unread in (
        ("invert", ("train_x.f64", "train_y.f64")),
        ("oracle-posterior", ("train_x.f64", "train_y.f64")),
        ("train", ("ray_matrix.bin",)),
    ):
        partial = str(tmp_path / f"{command}_data")
        shutil.copytree(data, partial)
        for name in unread:
            for suffix in ("", ".json"):
                os.remove(os.path.join(partial, name + suffix))
        trees = []
        for dataset in (data, partial):
            out = str(tmp_path / f"{command}_{len(trees)}")
            assert main(_argv(command, {**inputs, "--dataset": dataset}, out)) == 0
            trees.append(tree_digest(out))
        assert trees[0] == trees[1], command


def test_every_json_artifact_is_strict_json(pipeline):
    """NaN and Infinity are not JSON; every artifact must parse without them."""
    root = pipeline[0]
    assert main(_argv("invert --oracle", _inputs(pipeline), str(root / "inv_strict"))) == 0

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    paths = [os.path.join(b, f) for b, _, fs in os.walk(root) for f in fs if f.endswith(".json")]
    assert any(p.endswith("final_trace.json") for p in paths)
    for path in paths:
        with open(path) as fh:
            json.loads(fh.read(), parse_constant=reject)


# --- refused inputs: one table row per command x input x corruption ---------------------
#
# A row's ``args`` are a command, its flags and last the option it corrupts.
# The runner copies that option's valid input, applies the row's edit to the
# copy (for a flag, the edit is the flag's value), forbids every expensive stage,
# runs the command and checks the exit code, the stderr fragment ("{path}"
# stands for the edited input) and that --out was never created.  Each row is
# the case ``test_refused_input[id]``; ``TestGendata``'s two bad-setting tests
# build their rows from their own parameters.

Row = namedtuple("Row", "id args corruption edit fragment code", defaults=(2,))

MALFORMED = {"truncated", "not JSON", "not UTF-8", "missing key", "wrong type", "wrong shape", "non-finite"}
CORRUPTIONS = MALFORMED | {
    "missing", "directory", "unknown key", "out of range", "mismatched", "unused flag", "repeated",
}
GUARDED = ("subsim_run", "_train_loop", "sample_fields", "linear_gaussian_posterior")
METRICS = "rmse_solutions_truth,rmse_prior_truth\n0.25,{}\n"


@pytest.fixture
def refused(pipeline, tmp_path, monkeypatch, capsys):
    """Check that a row is refused with its code and fragment before any sampler, training or posterior work."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "metrics.csv").write_text(METRICS.format(0.5))
    valid = {**_inputs(pipeline), "--runs": str(run)}

    def forbidden(*args, **kwargs):
        raise AssertionError("an expensive stage started before the input was refused")

    def check(row):
        base, inputs, flag = tempfile.mkdtemp(dir=tmp_path), dict(valid), []
        *command, option = row.args.split()
        if option in inputs:
            source = inputs[option]
            copy = os.path.join(base, os.path.basename(source))
            if os.path.isdir(source):
                shutil.copytree(source, copy)
            for suffix in ("", ".json"):
                if os.path.isfile(source + suffix):
                    shutil.copy(source + suffix, copy + suffix)
            inputs[option] = row.edit(copy) or copy
        else:
            flag = [option, row.edit]
        out = os.path.join(base, "out")
        argv = _argv(" ".join(command), inputs, os.path.join(out, "agg.csv") if command == ["evaluate"] else out)
        with monkeypatch.context() as guard:
            for name in GUARDED:
                guard.setattr(workflows, name, forbidden)
            try:
                code = main(argv + flag)
            except SystemExit as exc:  # argparse refuses an unknown flag itself
                code = exc.code
        err = capsys.readouterr().err
        assert code == row.code, err
        assert row.fragment.format(path=inputs.get(option)) in err, err
        assert not os.path.exists(out)

    return check


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _with(value, index):
    def edit(arr):
        arr = arr.copy()
        arr[index] = value
        return arr

    return edit


# edits of a copied input, each at the copy's path + ``name``; a returned path replaces the copy
def _missing(path):
    return path + "_missing"


def _truncated(name="", n_bytes=8):
    return lambda path: os.truncate(path + name, os.path.getsize(path + name) - n_bytes)


def _text(name, text):
    return lambda path: _write(path + name, text)


def _bytes(blob):
    def write(path):
        with open(path, "wb") as fh:
            fh.write(blob)

    return write


def _directory(name=""):
    def replace(path):
        os.remove(path + name)
        os.mkdir(path + name)

    return replace


def _removed(name):
    return lambda path: os.remove(path + name)


def _array(name, edit):
    return lambda path: save_array(path + name, edit(load_array(path + name)))


def _json(name, edit):
    def rewrite(path):
        doc = json.load(open(path + name))
        edit(doc)
        _write(path + name, json.dumps(doc))

    return rewrite


def _without(field):
    """Drop ``field``, a dotted key path, from a dataset's manifest."""
    *parents, last = field.split(".")
    return _json("/manifest.json", lambda doc: functools.reduce(dict.get, parents, doc).pop(last))


def _config(**doc):
    return lambda path: _write(path, json.dumps({**MICRO_CONFIG, **doc}))


def _other_dataset(**doc):
    """The dataset of MICRO_CONFIG changed by ``doc``, generated beside the copy."""

    def generate(path):
        _config(**doc)(path + ".json")
        assert main(["gendata", "--config", path + ".json", "--out", path + "_other"]) == 0
        return path + "_other"

    return generate


def _ray_matrix_of(**doc):
    def swap(path):
        other = _other_dataset(**doc)(path)
        for suffix in ("", ".json"):
            shutil.copy(os.path.join(other, "ray_matrix.bin" + suffix), path + "/ray_matrix.bin" + suffix)

    return swap


def _nan_path_length(path):
    a = load_ray_matrix(path + "/ray_matrix.bin")
    rays, cells = np.nonzero(a)
    a[rays[0], cells[0]] = np.nan
    save_ray_matrix(path + "/ray_matrix.bin", a)


def _ray_triples(edit):
    """Edit the stored (ray, cell, length) records of a dataset's ray matrix file in place."""

    def rewrite(path):
        triples = np.dtype([("ray", "<u4"), ("cell", "<u4"), ("length", "<f8")])
        packed = np.fromfile(path + "/ray_matrix.bin", dtype=triples)
        edit(packed)
        packed.tofile(path + "/ray_matrix.bin")

    return rewrite


def _nan_decoder_weight(path):
    blob = np.fromfile(path, dtype="<f4")
    blob[flat_size(json.load(open(path + ".json"))["encoder"]["sizes"])] = np.nan  # the decoder's first weight
    blob.tofile(path)


TALLER = _config(grid={**GRID, "n_rows": 7})
USAGE = '--eps-grid expects "min,max,count"'
AT = "malformed artifact {path}"

REFUSALS = [
    Row("gendata-config-missing", "gendata --config", "missing", _missing, "missing config file"),
    Row("gendata-config-separation-too-wide",
        "gendata --config", "out of range", _config(separation=99.0), "separation 99.0 exceeds grid width 0.5"),
    *(
        Row(f"gendata-config-removed-key-{key}", "gendata --config", "unknown key", _config(**{key: value}), f"'{key}'")
        for key, value in (("lr", 0.001), ("eps_spacing", "log"))
    ),
    Row("gendata-config-string-n_particles",
        "gendata --config", "wrong type", _config(n_particles="300"), "n_particles must be an integer, got '300'"),
    *(
        Row(f"gendata-seed-{case}", "gendata --seed", "out of range", seed, "config error [gendata]: seed must fit in 64 bits")
        for case, seed in (("negative", "-1"), ("2^64", str(2**64)))
    ),
    # datasets are noise free, training uses the whole dataset, and only the oracle reads noise_std
    Row("gendata-noise-std-unused", "gendata --noise-std", "unused flag", "0.3", "unrecognized arguments"),
    Row("train-train-size-unused", "train --train-size", "unused flag", "50", "unrecognized arguments"),
    Row("invert-noise-std-without-oracle",
        "invert --noise-std", "unused flag", "0.3", "config error [invert]: --noise-std sets the oracle's noise"),
    Row("train-dataset-missing", "train --dataset", "missing", _missing, "missing artifacts"),
    Row("train-dataset-array-without-sidecar",
        "train --dataset", "missing", _removed("/train_x.f64.json"), "missing artifacts"),
    Row("train-dataset-array-truncated", "train --dataset", "truncated", _truncated("/train_x.f64"), AT + "/train_x.f64"),
    Row("train-dataset-nan-cell", "train --dataset", "non-finite",
        _array("/train_x.f64", _with(NAN, (5, 2))), "train_x.f64 holds a NaN or infinite value"),
    Row("train-config-batch-larger-than-split", "train --config", "out of range", _config(batch_size=128),
        "config error [train]: batch_size 128 exceeds the dataset's 108 training couples (12 of 120 held out"),
    Row("train-dataset-rows-short-of-manifest", "train --dataset", "wrong shape",
        _array("/train_y.f64", lambda a: a[:100]), "train_y.f64 has shape (100, 4), the manifest implies (120, 4)"),
    Row("invert-eps-grid-two-parts", "invert --eps-grid", "wrong shape", "5,4", USAGE),
    Row("invert-eps-grid-letters", "invert --eps-grid", "wrong type", "a,b,c", USAGE),
    Row("invert-eps-grid-fractional-count", "invert --eps-grid", "wrong type", "1e-4,50,2.5", USAGE),
    Row("invert-eps-grid-inf-max", "invert --eps-grid", "non-finite", "1e-4,inf,30", "eps_max must be a finite number"),
    Row("invert-eps-grid-inf-max-four-parts", "invert --eps-grid", "wrong shape", "1e-4,inf,30,lin", USAGE),
    Row("invert-eps-grid-lin-spacing", "invert --eps-grid", "wrong shape", "1e-4,50,25,lin", USAGE),
    Row("invert-eps-grid-log-spacing", "invert --eps-grid", "wrong shape", "1e-4,50,25,log", USAGE),
    Row("invert-yobs-short", "invert --yobs", "mismatched",
        _array("", lambda y: y[:-1]), "observation has 3 travel times, the dataset has 4 rays"),
    Row("invert-truth-long", "invert --oracle --truth", "mismatched",
        _array("", lambda x: np.append(x, 0.5)), "truth has 31 cells, the dataset has 30"),
    Row("invert-dataset-other-cells", "invert --dataset", "mismatched",
        _other_dataset(grid={**GRID, "n_rows": 7}), "dimension 30 differs from the dataset's 35 cells"),
    Row("invert-dataset-other-rays",
        "invert --dataset", "mismatched", _other_dataset(n_rcv=3), "dimension 4 differs from the dataset's 6 rays"),
    Row("invert-oracle-config-other-grid", "invert --oracle --config", "mismatched", TALLER, "config grid"),
    *(
        Row(f"invert-yobs-{bad}", "invert --yobs", "non-finite",
            _array("", _with(bad, 1)), "observation holds a NaN or infinite value")
        for bad in (NAN, INF)
    ),
    Row("invert-truth-nan", "invert --oracle --truth", "non-finite",
        _array("", _with(NAN, 0)), "truth holds a NaN or infinite value"),
    Row("invert-dataset-nan-cell", "invert --oracle --dataset", "non-finite",
        _array("/train_x.f64", _with(NAN, (5, 2))), "train_x.f64 holds a NaN or infinite value"),
    Row("invert-truth-missing", "invert --oracle --truth", "missing", _missing, "missing artifacts"),
    Row("invert-yobs-sidecar-without-blob", "invert --yobs", "missing", _removed(""), "missing artifacts"),
    Row("invert-checkpoint-truncated", "invert --checkpoint", "truncated", _truncated(n_bytes=4), AT),
    Row("invert-checkpoint-manifest-not-json", "invert --checkpoint", "not JSON", _text(".json", "{not json"), AT),
    Row("invert-checkpoint-manifest-without-standardizer", "invert --checkpoint", "missing key",
        _json(".json", lambda doc: doc.pop("standardizer")), AT + ": KeyError('standardizer')"),
    Row("invert-checkpoint-manifest-wrong-type", "invert --checkpoint", "wrong type",
        _json(".json", lambda doc: doc["encoder"].update(sizes="abc")), AT),
    Row("invert-yobs-truncated", "invert --yobs", "truncated", _truncated(), AT),
    Row("invert-yobs-sidecar-directory", "invert --yobs", "directory", _directory(".json"), AT),
    Row("invert-dataset-manifest-not-json",
        "invert --dataset", "not JSON", _text("/manifest.json", "not json"), AT + "/manifest.json"),
    *(
        Row(f"{command.split()[0]}-dataset-manifest-without-{field}",
            f"{command} --dataset", "missing key", _without(field), AT + "/manifest.json")
        for command, fields in [
            ("invert --oracle", ("n_cells", "n_rays", "config.grid")),
            ("oracle-posterior", ("n_rays", "config.grid")),
        ]
        for field in fields
    ),
    Row("oracle-posterior-yobs-missing", "oracle-posterior --yobs", "missing", _missing, "missing artifacts"),
    Row("oracle-posterior-yobs-long", "oracle-posterior --yobs", "mismatched",
        _array("", lambda y: np.append(y, 1.0)), "observation has 5 travel times, the dataset has 4 rays"),
    Row("oracle-posterior-config-other-grid", "oracle-posterior --config", "mismatched", TALLER, "config grid"),
    Row("oracle-posterior-yobs-nan", "oracle-posterior --yobs", "non-finite",
        _array("", _with(NAN, 0)), "observation holds a NaN or infinite value"),
    Row("oracle-posterior-ray-matrix-nan", "oracle-posterior --dataset", "non-finite",
        _nan_path_length, "{path}/ray_matrix.bin holds a NaN or infinite value"),
    Row("evaluate-runs-missing", "evaluate --runs", "missing", _missing, "missing artifacts"),
    Row("evaluate-non-numeric-cell",
        "evaluate --runs", "wrong type", _text("/metrics.csv", METRICS.format("oops")), AT + "/metrics.csv"),
    *(
        Row(f"evaluate-row-{case}", "evaluate --runs", "wrong shape",
            _text("/metrics.csv", "sample,rmse_solutions_truth,rmse_prior_truth\n" + rows),
            "{path}/metrics.csv " + refusal)
        for case, rows, refusal in (
            ("extra-cell", "0,0.5,0.25,9.9\n1,0.7,0.5\n", "line 2 has 4 cells, its header 3"),
            ("missing-cell", "0,0.5,0.25\n1,0.7\n", "line 3 has 2 cells, its header 3"),
        )
    ),
    Row("gendata-config-not-json", "gendata --config", "not JSON", _text("", "{not"), "is not valid JSON"),
    Row("gendata-config-directory", "gendata --config", "directory", _directory(),
        "config error [gendata]: cannot read config {path}"),
    Row("gendata-config-not-utf8", "gendata --config", "not UTF-8", _bytes(b"\xff\xfe{"),
        "config error [gendata]: cannot read config {path}"),
    Row("invert-checkpoint-missing", "invert --checkpoint", "missing", _missing, "missing artifacts"),
    Row("invert-checkpoint-nan-weight",
        "invert --checkpoint", "non-finite", _nan_decoder_weight, AT + ": ValueError('checkpoint {path} holds a NaN"),
    Row("invert-checkpoint-short-std_y", "invert --checkpoint", "wrong shape",
        _json(".json", lambda doc: doc["standardizer"]["std_y"].pop()), "std_y has shape (3,), the model implies (4,)"),
    Row("invert-checkpoint-zero-std_x", "invert --checkpoint", "out of range",
        _json(".json", lambda doc: doc["standardizer"]["std_x"].__setitem__(0, 0.0)), "std_x has an entry that is not"),
    Row("invert-truth-truncated", "invert --oracle --truth", "truncated", _truncated(), AT),
    Row("invert-ray-matrix-nan", "invert --oracle --dataset", "non-finite",
        _nan_path_length, "{path}/ray_matrix.bin holds a NaN or infinite value"),
    Row("invert-ray-matrix-6-rays", "invert --dataset", "wrong shape",
        _ray_matrix_of(n_rcv=3), "{path}/ray_matrix.bin has shape (6, 30), the manifest implies (4, 30)"),
    Row("invert-ray-matrix-cell-index-30", "invert --dataset", "out of range",
        _ray_triples(lambda packed: packed["cell"].__setitem__(0, 30)),
        "ray matrix file {path}/ray_matrix.bin has cell index 30, outside its header's 30 cells"),
    Row("invert-ray-matrix-header-shape-too-large", "invert --dataset", "out of range",
        _json("/ray_matrix.bin.json", lambda doc: doc.update(n_rays=10**7, n_cells=10**7)),
        "ray matrix file {path}/ray_matrix.bin declares shape (10000000, 10000000), too large to hold"),
    Row("oracle-posterior-ray-matrix-repeated-pair", "oracle-posterior --dataset", "repeated",
        _ray_triples(lambda packed: packed.__setitem__(1, packed[0])),
        "ray matrix file {path}/ray_matrix.bin stores a (ray, cell) pair twice"),
    Row("evaluate-nan-cell",
        "evaluate --runs", "non-finite", _text("/metrics.csv", METRICS.format("nan")), AT + "/metrics.csv"),
    Row("evaluate-no-truth-column", "evaluate --runs", "missing key",
        _text("/metrics.csv", "sample,resim_rmse_model,resim_rmse_obs\n0,0.5,0.25\n"), "no run has a truth column"),
]


@pytest.mark.parametrize("row", REFUSALS, ids=[row.id for row in REFUSALS])
def test_refused_input(refused, row):
    refused(row)


@pytest.mark.parametrize(
    "command, out",
    [(command, "{file}") for command in ("gendata", "train", "invert", "oracle-posterior")]
    + [("invert", "{file}/sub"), ("evaluate", "{file}/agg.csv"), ("evaluate", "{dir}")],
)
def test_unusable_out_is_refused(pipeline, tmp_path, monkeypatch, capsys, command, out):
    # an --out that cannot be an output directory (for evaluate, a CSV file) is
    # a config error, raised before any expensive stage and leaving it as it was
    run, taken = tmp_path / "run", tmp_path / "dir"
    run.mkdir()
    (run / "metrics.csv").write_text(METRICS.format(0.5))
    taken.mkdir()
    (taken / "kept.txt").write_text("kept")
    offending = taken / "kept.txt" if "{file}" in out else taken
    path = out.format(file=offending, dir=taken)

    def forbidden(*args, **kwargs):
        raise AssertionError("an expensive stage started before --out was refused")

    for name in GUARDED + (("read_csv_columns",) if out == "{dir}" else ()):
        monkeypatch.setattr(workflows, name, forbidden)
    code = main(_argv(command, {**_inputs(pipeline), "--runs": str(run)}, path))
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"config error [{command}]" in err and str(offending) in err, err
    assert sorted(os.listdir(taken)) == ["kept.txt"]
    assert (taken / "kept.txt").read_text() == "kept"


def test_every_path_option_has_missing_and_malformed_rows():
    # a path-valued option added later fails here until the table refuses its bad inputs
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for p in sub.choices.values() for a in p._actions if a.type is None and a.nargs != 0]
    paths = {o for a in actions for o in a.option_strings} - {"--out", "--eps-grid"}  # an output, a number triple
    assert paths >= {"--config", "--dataset", "--checkpoint", "--yobs", "--truth", "--runs"}
    for option in paths:
        kinds = {row.corruption for row in REFUSALS if row.args.split()[-1] == option}
        assert "missing" in kinds and kinds & MALFORMED, option
    assert {row.corruption for row in REFUSALS} <= CORRUPTIONS
