"""Tests for the benchmark's own code: span arithmetic, percentiles, names."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from tracer import LAYERS, Tracer, package_bindings, tail_percentile, valid_metric_name  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    outer, inner, other = ("sinkhorn", "entropic_ot"), ("sinkhorn", "_plain"), ("neural", "f")
    # outer [0, 10] > inner [1, 6] > other [2, 5]; then outer > other [7, 8]
    for t, op, key in (
        (0, "in", outer), (1, "in", inner), (2, "in", other), (5, "out", None),
        (6, "out", None), (7, "in", other), (8, "out", None), (10, "out", None),
    ):
        clock.now = float(t)
        tr.enter(key) if op == "in" else tr.exit()
    assert tr.stat(*other).calls == 2
    assert tr.stat(*other).self_s == pytest.approx(4.0)
    assert tr.stat(*inner).self_s == pytest.approx(2.0)
    assert tr.stat(*inner).incl_s == pytest.approx(5.0)
    assert tr.stat(*outer).self_s == pytest.approx(4.0)
    assert tr.layer_self() == pytest.approx({"sinkhorn": 6.0, "neural": 4.0})
    assert tr.covered_s() == pytest.approx(10.0)
    assert tr.edges == {(inner, other): 1, (outer, inner): 1, (outer, other): 1, (None, outer): 1}


def test_nested_calls_within_one_layer_on_the_package():
    import latent_abcss.workflows  # noqa: F401  (every traced module loaded)
    from latent_abcss import diagnostics, sinkhorn
    from latent_abcss.sinkhorn import SinkhornConfig

    original = sinkhorn._plain_entropic_ot
    gen = np.random.default_rng(0)
    xs, ys = gen.standard_normal((6, 2)), gen.standard_normal((5, 2))
    tr = Tracer(
        sample_keys=[("sinkhorn", "_plain_entropic_ot")],
        observers={("sinkhorn", "_plain_entropic_ot"): lambda t, a, _: t.count("entries", a["c"].size)},
    )
    with tr:
        assert diagnostics._plain_entropic_ot is not original
        cost = sinkhorn.entropic_ot(xs, ys, SinkhornConfig(reg=1.0, max_iter=5, debiased=True)).cost
    assert sinkhorn._plain_entropic_ot is original
    assert diagnostics._plain_entropic_ot is original
    assert np.isfinite(cost)

    top = tr.stat("sinkhorn", "entropic_ot")
    assert top.calls == 1
    assert tr.stat("sinkhorn", "_plain_entropic_ot").calls == 3
    assert tr.edges[(("sinkhorn", "entropic_ot"), ("sinkhorn", "_plain_entropic_ot"))] == 3
    assert tr.stat("sinkhorn", "_logsumexp").calls == 3 * 5 * 2
    assert len(tr.samples[("sinkhorn", "_plain_entropic_ot")]) == 3
    assert tr.counters["entries"] == 6 * 5 + 6 * 6 + 5 * 5  # cross and both self costs
    # one top-level span: the layer's self time is exactly its inclusive time
    assert tr.layer_self()["sinkhorn"] == pytest.approx(top.incl_s, rel=1e-9, abs=1e-12)
    assert tr.covered_s() == pytest.approx(top.incl_s, rel=1e-9, abs=1e-12)
    assert set(tr.layer_self()) == {"sinkhorn"}


def test_install_catches_closures_and_methods_then_restores():
    import latent_abcss.workflows  # noqa: F401
    from latent_abcss import jgnn, rng_linalg
    from latent_abcss.rng_linalg import RngStream

    model = jgnn.JGNNModel.init(3, 2, 2, RngStream(1), hidden=(4,))
    g2 = jgnn.g2_of_latent(model)
    before = rng_linalg.RngStream.__dict__["generator"]
    bound = package_bindings()
    with Tracer() as tr:
        assert package_bindings() != bound
        g2(np.zeros((4, 2)))
        RngStream(3).split(1).generator()
    assert rng_linalg.RngStream.__dict__["generator"] is before
    assert package_bindings() == bound
    assert tr.stat("jgnn", "generate").calls == 1
    assert tr.stat("neural", "mlp_forward").calls == 1
    assert tr.stat("rng_linalg", "RngStream.generator").calls == 1
    assert {layer for layer, _ in tr.stats} <= set(LAYERS)


def test_by_setup_median_weighs_each_setup_once():
    stages = [{"run": 0, "secs": 1.0}, {"run": 1, "secs": 3.0}, None, {"run": 0, "secs": 1.2}]
    assert run.by_setup_median(stages, "secs") == pytest.approx(0.5 * (1.1 + 3.0))
    # a fifth stage repeating set-up 0 moves set-up 0's figure, not its weight
    stages.append({"run": 0, "secs": 50.0})
    assert run.by_setup_median(stages, "secs") == pytest.approx(0.5 * (1.2 + 3.0))


@pytest.mark.parametrize("n", [11, 12, 50, 99, 100, 101, 250, 1000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    value, q_used = tail_percentile(values, 90)
    beyond = sum(v > value for v in values)
    assert beyond >= 10
    if n >= 100:
        assert q_used == 90
        assert value == np.sort(values)[int(np.ceil(0.9 * n)) - 1]
    else:
        assert beyond == 10
        assert q_used < 90


def test_tail_percentile_refuses_ten_or_fewer():
    assert tail_percentile([1.0] * 10, 90) == (None, None)
    assert tail_percentile([], 50) == (None, None)


def test_metric_names():
    for good in ("setup_s", "sinkhorn.solve_ms_p90", "a-b.c_d", "9lives"):
        assert valid_metric_name(good)
    for bad in ("", "_x", ".x", "a b", "a/b", "é", "x" * 65, None):
        assert not valid_metric_name(bad)
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for key, spec in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in doc[key]} == spec
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_thread_variables_match_the_cli(monkeypatch):
    from latent_abcss.cli import _set_threads

    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "0")  # restored after the test
    _set_threads(3)
    pinned = {k for k, v in os.environ.items() if k.endswith("_NUM_THREADS") and v == "3"}
    assert pinned == set(run.THREAD_VARS)
