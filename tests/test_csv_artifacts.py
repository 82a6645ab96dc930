"""Byte-exact format of every CSV artifact and of the JSON sidecars.

Each writer gets a hand-built input and its file is compared with a literal
string.  CSV: a header row, floats in shortest round-trip ``repr``, ints and
labels as they are, and an empty cell where a value is absent.  JSON: keys
sorted, one-space indent, a trailing newline.
"""

import numpy as np

from latent_abcss.diagnostics import MetricsReport, ThresholdCurve, curve_to_csv
from latent_abcss.jgnn import TrainHistory
from latent_abcss.rng_linalg import save_array
from latent_abcss.workflows import evaluate_runs


def read(path):
    with open(path) as fh:
        return fh.read()


def test_train_history(tmp_path):
    history = TrainHistory(
        mse_x=[1.0, 0.5],
        mse_y=[0.25, 1 / 3],
        ot_term=[2.0, 1e-20],
        lam=[150.0, 75.0],
        val_mse_x=[0.1, 0.2],
        val_mse_y=[3.5, 1e300],
    )
    path = str(tmp_path / "history.csv")
    history.to_csv(path)
    assert read(path) == (
        "epoch,mse_x,mse_y,ot_term,lambda,val_mse_x,val_mse_y\n"
        "0,1.0,0.25,2.0,150.0,0.1,3.5\n"
        "1,0.5,0.3333333333333333,1e-20,75.0,0.2,1e+300\n"
    )


def test_metrics_report_columns_of_different_lengths(tmp_path):
    report = MetricsReport(
        rmse_solutions_truth=np.array([0.5, 0.25, 0.125]),
        rmse_prior_truth=np.array([2.0]),
        resim_rmse_obs=np.array([0.1, 0.2]),
    )
    path = str(tmp_path / "metrics.csv")
    report.to_csv(path)
    assert read(path) == (
        "sample,rmse_solutions_truth,rmse_prior_truth,resim_rmse_obs\n"
        "0,0.5,2.0,0.1\n"
        "1,0.25,,0.2\n"
        "2,0.125,,\n"
    )


def test_metrics_report_every_column_in_declaration_order(tmp_path):
    # the Wasserstein table has a file of its own and no column here
    report = MetricsReport(
        resim_rmse_obs=np.array([6.0]),
        resim_rmse_model=np.array([5.0]),
        rmse_train_truth=np.array([4.0]),
        rmse_prior_truth=np.array([3.0]),
        rmse_posterior_truth=np.array([2.0]),
        rmse_solutions_truth=np.array([1.0]),
        wasserstein_by_eps=[(0.5, {"ours": 0.25})],
    )
    path = str(tmp_path / "metrics.csv")
    report.to_csv(path)
    names = (
        "rmse_solutions_truth,rmse_posterior_truth,rmse_prior_truth,rmse_train_truth,resim_rmse_model,resim_rmse_obs"
    )
    assert read(path) == f"sample,{names}\n0,1.0,2.0,3.0,4.0,5.0,6.0\n"
    assert list(report.summary().items()) == [(f"median_{n}", float(i)) for i, n in enumerate(names.split(","), 1)]


def test_evaluate_pairings_keep_their_order(tmp_path):
    run = tmp_path / "r"
    run.mkdir()
    # the run's columns come in the reverse of the pairing order, with one that pairs with nothing
    (run / "metrics.csv").write_text(
        "sample,resim_rmse_obs,rmse_prior_truth,rmse_solutions_truth,rmse_posterior_truth,rmse_train_truth\n"
        "0,9.0,4.0,3.0,2.0,1.0\n"
    )
    out = str(tmp_path / "agg.csv")
    report = evaluate_runs([str(run)], out)
    rows = [line.split(",")[:3] for line in read(out).splitlines()[1:]]
    assert rows == [[inv, p, "1"] for inv in ("r", "pooled") for p in ("train", "post", "ours", "prior")]
    assert read(report["pooled_csv"]) == "train,post,ours,prior\n1.0,2.0,3.0,4.0\n"


def test_curve_without_smoothing(tmp_path):
    curve = ThresholdCurve(
        eps=np.array([0.01, 2.5]),
        eps_n=np.array([0.1, 0.5]),
        log_p=np.array([-2.0, 0.0]),
    )
    path = str(tmp_path / "curve.csv")
    curve_to_csv(curve, path)
    assert read(path) == (
        "eps,eps_n,log10_p,smoothed,curvature\n"
        "0.01,0.1,-2.0,,\n"
        "2.5,0.5,0.0,,\n"
    )


def test_evaluate_aggregate_and_pooled(tmp_path):
    runs = []
    for name, ours, prior in (("a", [1.0, 3.0], [0.5]), ("b", [2.0], None)):
        run = tmp_path / name
        run.mkdir()
        MetricsReport(
            rmse_solutions_truth=np.array(ours),
            rmse_prior_truth=None if prior is None else np.array(prior),
        ).to_csv(str(run / "metrics.csv"))
        runs.append(str(run))
    out = str(tmp_path / "agg.csv")
    report = evaluate_runs(runs, out)
    assert read(out) == (
        "inversion,pairing,count,mean,median,p05,p95\n"
        "a,ours,2,2.0,2.0,1.1,2.9\n"
        "a,prior,1,0.5,0.5,0.5,0.5\n"
        "b,ours,1,2.0,2.0,2.0,2.0\n"
        "pooled,ours,3,2.0,2.0,1.1,2.9\n"
        "pooled,prior,1,0.5,0.5,0.5,0.5\n"
    )
    assert read(report["pooled_csv"]) == (
        "train,post,ours,prior\n"
        ",,1.0,0.5\n"
        ",,3.0,\n"
        ",,2.0,\n"
    )


def test_array_sidecar_with_provenance(tmp_path):
    path = str(tmp_path / "a.f64")
    save_array(path, np.zeros((2, 3)), {"seed": 7, "command": "gendata"})
    assert read(path + ".json") == (
        "{\n"
        ' "dtype": "f64",\n'
        ' "order": "row-major",\n'
        ' "provenance": {\n'
        '  "command": "gendata",\n'
        '  "seed": 7\n'
        " },\n"
        ' "shape": [\n'
        "  2,\n"
        "  3\n"
        " ]\n"
        "}\n"
    )
