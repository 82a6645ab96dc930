"""Pipeline commands: artifacts, determinism, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import latent_abcss
from latent_abcss.cli import main
from latent_abcss.gp_prior import build_covariance
from latent_abcss.jgnn import generate, load_model
from latent_abcss.rng_linalg import RngStream, add_jitter, cholesky, load_array, sample_mvn, save_array
from latent_abcss.tomography import NoiseModel, add_noise, load_ray_matrix
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


def tree_digest(root):
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode())
            h.update(open(path, "rb").read())
    return h.hexdigest()


def test_cli_import_leaves_numpy_unloaded():
    # --threads must reach the BLAS pool, which is sized when numpy loads
    src = os.path.dirname(os.path.dirname(latent_abcss.__file__))
    code = "import sys, latent_abcss.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


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

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["gendata", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO_CONFIG, "separation": 99.0}))
        assert main(["gendata", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value", [("lr", 0.001), ("eps_spacing", "log")])
    def test_removed_config_key_exits_2(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO_CONFIG, key: value}))
        assert main(["gendata", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_non_numeric_setting_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO_CONFIG, "n_particles": "300"}))
        assert main(["gendata", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error [gendata]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"seed": 1.5}, "seed"),
            ({"epochs": 2.5}, "epochs"),
            ({"n_particles": 100.0}, "n_particles"),
            ({"seed": True}, "seed"),
            ({"hidden": [12.5, 8]}, "hidden[0]"),
            ({"grid": {**MICRO_CONFIG["grid"], "n_cols": 5.0}}, "grid.n_cols"),
        ],
    )
    def test_non_integer_setting_exits_2(self, tmp_path, capsys, doc, name):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO_CONFIG, **doc}))
        out = tmp_path / "o"
        assert main(["gendata", "--config", str(bad), "--out", str(out)]) == 2
        assert f"config error [gendata]: {name} must be an integer" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("gendata", {"separation": NAN}, "separation must be a finite number, got nan"),
            ("gendata", {"noise_std": NAN}, "noise_std must be a finite number, got nan"),
            ("gendata", {"noise_std": INF}, "noise_std must be a finite number, got inf"),
            ("gendata", {"sinkhorn_tol": NAN}, "sinkhorn_tol must be a finite number, got nan"),
            ("gendata", {"sinkhorn_tol": INF}, "sinkhorn_tol must be a finite number, got inf"),
            ("gendata", {"grid": {**MICRO_CONFIG["grid"], "cell_size": INF}}, "grid.cell_size must be a finite"),
            ("gendata", {"gp": {**MICRO_CONFIG["gp"], "lengthscale": INF}}, "gp.lengthscale must be a finite"),
            ("gendata", {"gp": {**MICRO_CONFIG["gp"], "variance": INF}}, "gp.variance must be a finite"),
            ("gendata", {"gp": {**MICRO_CONFIG["gp"], "mean": NAN}}, "gp.mean must be a finite number, got nan"),
            ("gendata", {"gp": {**MICRO_CONFIG["gp"], "mean": INF}}, "gp.mean must be a finite number, got inf"),
            ("gendata", {"gp": {**MICRO_CONFIG["gp"], "mean": -INF}}, "gp.mean must be a finite number, got -inf"),
            ("gendata", {"eps_count": 3}, "smoothing_window must be odd and in [3, eps_count = 3]"),
            ("gendata", {"smoothing_window": 4}, "smoothing_window must be odd and in [3, eps_count = 25]"),
            ("invert --oracle --noise-std nan", {}, "noise_std must be a finite number, got nan"),
        ],
    )
    def test_non_finite_or_inconsistent_setting_exits_2(self, pipeline, tmp_path, capsys, command, doc, message):
        # refused at config load, before any sampling or training
        root, _, data, model = pipeline
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO_CONFIG, **doc}))
        out = tmp_path / "o"
        name, *flags = command.split()
        argv = [name, *flags, "--config", str(bad), "--out", str(out)]
        if name == "invert":
            argv += ["--checkpoint", os.path.join(model, "model.ckpt"), "--yobs", str(root / "yobs.f64")]
            argv += ["--dataset", data]
        assert main(argv) == 2
        assert f"config error [{name}]: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, workdir, tmp_path, capsys, seed):
        _, cfg = workdir
        out = tmp_path / "o"
        assert main(["gendata", "--config", cfg, "--out", str(out), "--seed", seed]) == 2
        assert "config error [gendata]: seed must fit in 64 bits" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_flags_without_effect_are_refused(tmp_path, capsys):
    # datasets are noise free, and training uses the whole dataset
    out = str(tmp_path / "o")
    for argv in (["gendata", "--noise-std", "0.3"], ["train", "--dataset", out, "--train-size", "50"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", out])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert not os.path.exists(out)


def test_invert_noise_std_needs_oracle(tmp_path, capsys):
    # only the exact posterior reads noise_std, so without --oracle the flag would change nothing
    out = str(tmp_path / "o")
    argv = ["invert", "--config", str(tmp_path / "none.json"), "--checkpoint", "m.ckpt", "--yobs", "y.f64"]
    assert main(argv + ["--dataset", "d", "--noise-std", "0.3", "--out", out]) == 2
    assert "config error [invert]: --noise-std sets the oracle's noise and needs --oracle" in capsys.readouterr().err
    assert not os.path.exists(out)


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

    def test_missing_dataset_exits_2(self, workdir, tmp_path):
        _, cfg = workdir
        rc = main(["train", "--config", cfg, "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_dataset_array_without_sidecar_exits_2(self, pipeline, tmp_path, capsys):
        _, cfg, data, _ = pipeline
        partial = str(tmp_path / "partial")
        shutil.copytree(data, partial)
        os.remove(os.path.join(partial, "train_x.f64.json"))
        assert main(["train", "--config", cfg, "--dataset", partial, "--out", str(tmp_path / "m")]) == 2
        assert "missing artifacts" in capsys.readouterr().err

    def test_truncated_dataset_array_exits_2(self, pipeline, tmp_path, capsys):
        _, cfg, data, _ = pipeline
        partial = str(tmp_path / "partial")
        shutil.copytree(data, partial)
        _truncate(os.path.join(partial, "train_x.f64"), 8)
        assert main(["train", "--config", cfg, "--dataset", partial, "--out", str(tmp_path / "m")]) == 2
        assert "malformed artifact" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m" / "model.ckpt")

    def test_non_finite_dataset_cell_exits_2(self, pipeline, tmp_path, capsys):
        bad = _dataset_edited(pipeline, tmp_path, "train_x", _with_nan)
        assert main(["train", "--config", pipeline[1], "--dataset", bad, "--out", str(tmp_path / "m")]) == 2
        assert "train_x.f64 holds a NaN or infinite value" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m" / "model.ckpt")

    def test_dataset_rows_short_of_the_manifest_exit_2(self, pipeline, tmp_path, capsys):
        bad = _dataset_edited(pipeline, tmp_path, "train_y", lambda a: a[:100])
        assert main(["train", "--config", pipeline[1], "--dataset", bad, "--out", str(tmp_path / "m")]) == 2
        assert "train_y.f64 has shape (100, 4), the manifest implies (120, 4)" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m" / "model.ckpt")


def _with_nan(arr):
    arr = arr.copy()
    arr[5, 2] = np.nan
    return arr


def _dataset_edited(pipeline, tmp_path, name, edit):
    """A copy of the pipeline's dataset with ``name``'s array replaced by ``edit(array)``."""
    data = str(tmp_path / "data")
    shutil.copytree(pipeline[2], data)
    path = os.path.join(data, name + ".f64")
    save_array(path, edit(load_array(path)))
    return data


@pytest.fixture(scope="module")
def oracle_runs(pipeline):
    """Two identical oracle inversions, ``inv`` and ``inv_da``, of the test couple."""
    root, cfg, data, model = pipeline
    outs = []
    for name in ("inv", "inv_da"):
        out = str(root / name)
        rc = main(
            [
                "invert",
                "--config",
                cfg,
                "--checkpoint",
                os.path.join(model, "model.ckpt"),
                "--yobs",
                str(root / "yobs.f64"),
                "--dataset",
                data,
                "--out",
                out,
                "--oracle",
                "--truth",
                str(root / "truth.f64"),
            ]
        )
        assert rc == 0
        outs.append(out)
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
        latent = load_array(os.path.join(out, "solutions_latent.f64"))
        x, y = generate(load_model(os.path.join(model, "model.ckpt")), latent)
        np.testing.assert_array_equal(load_array(os.path.join(out, "solutions_x.f64")), x)
        np.testing.assert_array_equal(load_array(os.path.join(out, "solutions_y.f64")), y)

    def test_rerun_byte_identical(self, oracle_runs):
        assert tree_digest(oracle_runs[0]) == tree_digest(oracle_runs[1])

    def test_artifact_file_list(self, oracle_runs):
        # each trace is its JSON, the final samples and one (n_levels + 1, n_particles) dissimilarity array
        arrays = [f"solutions_{s}.f64" for s in ("latent", "x", "y")]
        arrays += [f"{t}_{part}.f64" for t in ("deep_trace", "final_trace") for part in ("dissimilarities", "samples")]
        traces = ["deep_trace.json", "final_trace.json"]
        expected = ["curve.csv", "metrics.csv", "summary.json", "wasserstein.csv", *traces]
        expected += [name + ext for name in arrays for ext in ("", ".json")]
        assert len(expected) == 20
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
        n_refs = 3  # posterior, prior, truth
        n_calls = len(result.metrics.wasserstein_by_eps)
        assert n_calls == len(result.deep_trace.level_samples) + 1
        # each reference's self term once, each row's self term once
        assert len(solves["self"]) == n_refs + n_calls
        assert len(solves["cross"]) == n_calls * n_refs
        oracle = result.summary["oracle"]
        exhausted = solves["self"].count(False) + solves["cross"].count(False)
        assert oracle["budget_exhausted_solves"] == exhausted == len(oracle["budget_exhausted"])

    def test_oracle_inversion_never_reaches_scipy_lapack(self, pipeline, monkeypatch):
        # scipy's LAPACK runs its own OpenBLAS pool (tests/test_rng_linalg.py
        # scans the imports); a successful run must not need it
        from latent_abcss import rng_linalg
        from latent_abcss.workflows import PipelineConfig, run_inversion

        def refuse(*args, **kwargs):
            raise AssertionError("scipy's dpotrf ran on a positive-definite matrix")

        monkeypatch.setattr(rng_linalg, "dpotrf", refuse)
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
            train_x=load_array(os.path.join(data, files["train_x"])),
        )
        assert result.metrics.wasserstein_by_eps
        assert all(np.isfinite(v) for _, divs in result.metrics.wasserstein_by_eps for v in divs.values())

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
        assert all(set(s) == {"kind", "reference", "eps_n"} for s in listed)
        # reference self terms carry no row; the solutions' self term no reference
        refs_self = [s["reference"] for s in listed if s["eps_n"] is None]
        assert refs_self and set(refs_self) <= {"posterior", "prior"}
        assert all(s["kind"] == "self" for s in listed if s["eps_n"] is None)
        row_eps = {eps_n for eps_n, _ in result.metrics.wasserstein_by_eps}
        for s in listed:
            if s["eps_n"] is not None:
                assert s["eps_n"] in row_eps
                assert (s["kind"] == "self") == (s["reference"] is None)

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

    def test_eps_grid_override(self, pipeline):
        root, cfg, data, model = pipeline
        out = str(root / "inv_grid")
        rc = main(
            [
                "invert",
                "--config",
                cfg,
                "--checkpoint",
                os.path.join(model, "model.ckpt"),
                "--yobs",
                str(root / "yobs.f64"),
                "--dataset",
                data,
                "--out",
                out,
                "--eps-grid",
                "1e-4,60,30",
            ]
        )
        assert rc == 0
        lines = open(os.path.join(out, "curve.csv")).read().strip().splitlines()
        assert len(lines) <= 31

    def test_bad_eps_grid_exits_2(self, pipeline, capsys):
        root, cfg, data, model = pipeline
        usage = "--eps-grid expects"
        bounds = "eps_max must be a finite number"
        for grid, message in (
            ("5,4", usage),
            ("a,b,c", usage),
            ("1e-4,50,2.5", usage),
            ("1e-4,inf,30", bounds),
            ("1e-4,inf,30,lin", usage),
            ("1e-4,50,25,lin", usage),
            ("1e-4,50,25,log", usage),
        ):
            rc = main(
                [
                    "invert",
                    "--config",
                    cfg,
                    "--checkpoint",
                    os.path.join(model, "model.ckpt"),
                    "--yobs",
                    str(root / "yobs.f64"),
                    "--dataset",
                    data,
                    "--out",
                    str(root / "inv_bad"),
                    "--eps-grid",
                    grid,
                ]
            )
            assert rc == 2, grid
            assert message in capsys.readouterr().err, grid
            assert not os.path.exists(root / "inv_bad"), grid


class TestInvertInputChecks:
    def _invert(self, pipeline, yobs, data=None, truth=None, cfg=None, ckpt=None):
        root, own_cfg, own_data, model = pipeline
        argv = [
            "invert",
            "--config",
            cfg or own_cfg,
            "--checkpoint",
            ckpt or os.path.join(model, "model.ckpt"),
            "--yobs",
            yobs,
            "--dataset",
            data or own_data,
            "--out",
            str(root / "inv_refused"),
        ]
        return main(argv + (["--oracle", "--truth", truth] if truth else []))

    def test_yobs_length_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        short = str(tmp_path / "short.f64")
        save_array(short, load_array(str(root / "yobs.f64"))[:-1])
        assert self._invert(pipeline, short) == 2
        assert "travel times" in capsys.readouterr().err

    def test_truth_length_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        truth = str(tmp_path / "truth_long.f64")
        save_array(truth, np.append(load_array(str(root / "truth.f64")), 0.5))
        assert self._invert(pipeline, str(root / "yobs.f64"), truth=truth) == 2
        assert "truth has 31 cells" in capsys.readouterr().err

    def test_checkpoint_dataset_cell_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        root, cfg, _, _ = pipeline
        taller = tmp_path / "taller.json"
        taller.write_text(json.dumps({**MICRO_CONFIG, "grid": {"n_rows": 7, "n_cols": 5, "cell_size": 0.1}}))
        other = str(tmp_path / "data7x5")
        assert main(["gendata", "--config", str(taller), "--out", other]) == 0
        assert self._invert(pipeline, str(root / "yobs.f64"), data=other) == 2
        assert "35 cells" in capsys.readouterr().err

    def test_checkpoint_dataset_ray_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        wider = tmp_path / "wider.json"
        wider.write_text(json.dumps({**MICRO_CONFIG, "n_rcv": 3}))
        other = str(tmp_path / "data_6rays")
        assert main(["gendata", "--config", str(wider), "--out", other]) == 0
        assert self._invert(pipeline, str(root / "yobs.f64"), data=other) == 2
        assert "6 rays" in capsys.readouterr().err
        assert not os.path.exists(root / "inv_refused" / "deep_trace.json")

    def test_oracle_config_grid_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        # checkpoint and dataset agree; only the invert config's grid differs
        root = pipeline[0]
        taller = tmp_path / "taller.json"
        taller.write_text(json.dumps({**MICRO_CONFIG, "grid": {**MICRO_CONFIG["grid"], "n_rows": 7}}))
        rc = self._invert(
            pipeline, str(root / "yobs.f64"), truth=str(root / "truth.f64"), cfg=str(taller)
        )
        assert rc == 2
        assert "config grid" in capsys.readouterr().err
        assert not os.path.exists(root / "inv_refused" / "deep_trace.json")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_yobs_exits_2(self, pipeline, tmp_path, capsys, bad):
        root = pipeline[0]
        yobs = str(tmp_path / "yobs_bad.f64")
        y = load_array(str(root / "yobs.f64"))
        y[1] = bad
        save_array(yobs, y)
        assert self._invert(pipeline, yobs) == 2
        assert "observation holds a NaN or infinite value" in capsys.readouterr().err
        assert not os.path.exists(root / "inv_refused" / "deep_trace.json")

    def test_non_finite_truth_with_oracle_exits_2(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        truth = str(tmp_path / "truth_nan.f64")
        x = load_array(str(root / "truth.f64"))
        x[0] = np.nan
        save_array(truth, x)
        assert self._invert(pipeline, str(root / "yobs.f64"), truth=truth) == 2
        assert "truth holds a NaN or infinite value" in capsys.readouterr().err
        assert not os.path.exists(root / "inv_refused" / "summary.json")

    def test_non_finite_dataset_cell_exits_2(self, pipeline, tmp_path, capsys):
        # a NaN training field would reach summary.json's train-to-truth RMSE
        root = pipeline[0]
        bad = _dataset_edited(pipeline, tmp_path, "train_x", _with_nan)
        assert self._invert(pipeline, str(root / "yobs.f64"), data=bad, truth=str(root / "truth.f64")) == 2
        assert "train_x.f64 holds a NaN or infinite value" in capsys.readouterr().err
        assert not os.path.exists(root / "inv_refused" / "summary.json")

    def test_missing_truth_exits_2(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        missing = str(tmp_path / "missing.f64")
        assert self._invert(pipeline, str(root / "yobs.f64"), truth=missing) == 2
        assert "missing artifacts" in capsys.readouterr().err

    def test_yobs_sidecar_without_blob_exits_2(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        yobs = str(tmp_path / "sidecar_only.f64")
        shutil.copy(str(root / "yobs.f64.json"), yobs + ".json")
        assert self._invert(pipeline, yobs) == 2
        assert "missing artifacts" in capsys.readouterr().err


    def _broken_checkpoint(self, pipeline, tmp_path, edit):
        model = str(tmp_path / "model")
        shutil.copytree(pipeline[3], model)
        edit(os.path.join(model, "model.ckpt"))
        return os.path.join(model, "model.ckpt")

    def test_truncated_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        ckpt = self._broken_checkpoint(pipeline, tmp_path, lambda p: _truncate(p, 4))
        assert self._invert(pipeline, str(pipeline[0] / "yobs.f64"), ckpt=ckpt) == 2
        assert "malformed artifact" in capsys.readouterr().err

    def test_checkpoint_manifest_not_json_exits_2(self, pipeline, tmp_path, capsys):
        ckpt = self._broken_checkpoint(pipeline, tmp_path, lambda p: open(p + ".json", "w").write("{not json"))
        assert self._invert(pipeline, str(pipeline[0] / "yobs.f64"), ckpt=ckpt) == 2
        assert "malformed artifact" in capsys.readouterr().err

    def test_checkpoint_manifest_without_standardizer_exits_2(self, pipeline, tmp_path, capsys):
        def drop_standardizer(path):
            doc = json.load(open(path + ".json"))
            del doc["standardizer"]
            json.dump(doc, open(path + ".json", "w"))

        ckpt = self._broken_checkpoint(pipeline, tmp_path, drop_standardizer)
        assert self._invert(pipeline, str(pipeline[0] / "yobs.f64"), ckpt=ckpt) == 2
        assert "standardizer" in capsys.readouterr().err

    def test_checkpoint_manifest_wrong_type_exits_2(self, pipeline, tmp_path, capsys):
        def garble_sizes(path):
            doc = json.load(open(path + ".json"))
            doc["encoder"]["sizes"] = "abc"
            json.dump(doc, open(path + ".json", "w"))

        ckpt = self._broken_checkpoint(pipeline, tmp_path, garble_sizes)
        assert self._invert(pipeline, str(pipeline[0] / "yobs.f64"), ckpt=ckpt) == 2
        assert "malformed artifact" in capsys.readouterr().err

    def test_truncated_yobs_exits_2(self, pipeline, tmp_path, capsys):
        yobs = str(tmp_path / "yobs.f64")
        for suffix in ("", ".json"):
            shutil.copy(str(pipeline[0] / "yobs.f64") + suffix, yobs + suffix)
        _truncate(yobs, 8)
        assert self._invert(pipeline, yobs) == 2
        assert "malformed artifact" in capsys.readouterr().err

    def test_dataset_manifest_not_json_exits_2(self, pipeline, tmp_path, capsys):
        data = str(tmp_path / "data")
        shutil.copytree(pipeline[2], data)
        open(os.path.join(data, "manifest.json"), "w").write("not json")
        assert self._invert(pipeline, str(pipeline[0] / "yobs.f64"), data=data) == 2
        assert "malformed artifact" in capsys.readouterr().err
        assert not os.path.exists(pipeline[0] / "inv_refused" / "deep_trace.json")

    @pytest.mark.parametrize("field", ["n_cells", "n_rays", "config.grid"])
    def test_dataset_manifest_without_field_exits_2(self, pipeline, tmp_path, capsys, field):
        data = _dataset_without(pipeline, tmp_path, field)
        root = pipeline[0]
        rc = self._invert(pipeline, str(root / "yobs.f64"), data=data, truth=str(root / "truth.f64"))
        assert rc == 2
        assert f"malformed artifact {data}" in capsys.readouterr().err
        assert not os.path.exists(root / "inv_refused" / "deep_trace.json")


def _truncate(path, n_bytes):
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-n_bytes])


def _dataset_without(pipeline, tmp_path, field):
    """A copy of the pipeline's dataset whose manifest lacks ``field``, a dotted key path."""
    data = str(tmp_path / "data")
    shutil.copytree(pipeline[2], data)
    path = os.path.join(data, "manifest.json")
    doc = json.load(open(path))
    *parents, last = field.split(".")
    node = doc
    for key in parents:
        node = node[key]
    del node[last]
    json.dump(doc, open(path, "w"))
    return data


class TestOraclePosteriorInputChecks:
    def _oracle(self, pipeline, yobs, cfg=None, data=None):
        root, own_cfg, own_data, _ = pipeline
        out = str(root / "oracle_refused")
        argv = ["oracle-posterior", "--config", cfg or own_cfg, "--dataset", data or own_data, "--yobs", yobs]
        return main(argv + ["--out", out])

    def test_missing_yobs_exits_2(self, pipeline, tmp_path, capsys):
        assert self._oracle(pipeline, str(tmp_path / "missing.f64")) == 2
        assert "missing artifacts" in capsys.readouterr().err

    def test_yobs_length_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        long = str(tmp_path / "long.f64")
        save_array(long, np.append(load_array(str(root / "yobs.f64")), 1.0))
        assert self._oracle(pipeline, long) == 2
        assert "4 rays" in capsys.readouterr().err

    def test_config_grid_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        taller = tmp_path / "taller.json"
        taller.write_text(json.dumps({**MICRO_CONFIG, "grid": {**MICRO_CONFIG["grid"], "n_rows": 7}}))
        assert self._oracle(pipeline, str(root / "yobs.f64"), cfg=str(taller)) == 2
        assert "config grid" in capsys.readouterr().err

    def test_non_finite_yobs_exits_2(self, pipeline, tmp_path, capsys):
        root = pipeline[0]
        yobs = str(tmp_path / "yobs_nan.f64")
        y = load_array(str(root / "yobs.f64"))
        y[0] = np.nan
        save_array(yobs, y)
        assert self._oracle(pipeline, yobs) == 2
        assert "observation holds a NaN or infinite value" in capsys.readouterr().err
        assert not os.path.exists(root / "oracle_refused" / "posterior_mean.f64")

    @pytest.mark.parametrize("field", ["n_rays", "config.grid"])
    def test_dataset_manifest_without_field_exits_2(self, pipeline, tmp_path, capsys, field):
        data = _dataset_without(pipeline, tmp_path, field)
        assert self._oracle(pipeline, str(pipeline[0] / "yobs.f64"), data=data) == 2
        assert f"malformed artifact {data}" in capsys.readouterr().err
        assert not os.path.exists(pipeline[0] / "oracle_refused" / "posterior_mean.f64")


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

    def test_evaluate_missing_run_exits_2(self, tmp_path):
        rc = main(["evaluate", "--runs", str(tmp_path / "ghost"), "--out", str(tmp_path / "agg.csv")])
        assert rc == 2

    def test_evaluate_creates_the_output_directory(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text("rmse_solutions_truth,rmse_prior_truth\n0.25,0.5\n")
        out = tmp_path / "new" / "agg.csv"
        assert main(["evaluate", "--runs", str(run), "--out", str(out)]) == 0
        assert sorted(os.listdir(out.parent)) == ["agg.csv", "agg_pooled.csv"]

    def test_evaluate_non_numeric_cell_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text("rmse_solutions_truth,rmse_prior_truth\n0.25,oops\n")
        rc = main(["evaluate", "--runs", str(run), "--out", str(tmp_path / "agg.csv")])
        assert rc == 2
        assert f"malformed artifact {run / 'metrics.csv'}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "agg.csv")

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


def test_every_json_artifact_is_strict_json(pipeline):
    """NaN and Infinity are not JSON; every artifact must parse without them."""
    root, cfg, data, model = pipeline
    out = str(root / "inv_strict")
    argv = ["invert", "--config", cfg, "--checkpoint", os.path.join(model, "model.ckpt")]
    argv += ["--yobs", str(root / "yobs.f64"), "--dataset", data, "--out", out]
    assert main(argv + ["--oracle", "--truth", str(root / "truth.f64")]) == 0

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    paths = [os.path.join(b, f) for b, _, fs in os.walk(root) for f in fs if f.endswith(".json")]
    assert any(p.endswith("final_trace.json") for p in paths)
    for path in paths:
        with open(path) as fh:
            json.loads(fh.read(), parse_constant=reject)
