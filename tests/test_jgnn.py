"""Joint generative model: loss, schedule, training on a linear toy problem."""

import threading
import weakref

import numpy as np
import pytest

from latent_abcss import jgnn
from latent_abcss.jgnn import (
    JGNNModel,
    TrainConfig,
    TrainingDiverged,
    Standardizer,
    encode,
    g1_of_latent,
    g2_of_latent,
    generate,
    jgnn_loss,
    lambda_schedule,
    load_model,
    save_model,
    train,
    _decoder_view,
)
from latent_abcss.neural import _BLOCK, Layer, MLPParams, adam_step, mlp_forward, refresh_spectral
from latent_abcss.rng_linalg import RngStream
from latent_abcss.sinkhorn import SinkhornConfig, _plain_entropic_ot, cost_matrix, entropic_ot

DIM_X, DIM_Y, DIM_Z = 8, 20, 10


def linear_toy_dataset(n, seed=0):
    """Couples from a known linear generative truth: x = M z, y = A x."""
    gen = RngStream(seed, 77).generator()
    m = gen.standard_normal((DIM_X, DIM_Z)) / np.sqrt(DIM_Z)
    a = gen.standard_normal((DIM_Y, DIM_X)) / np.sqrt(DIM_X)
    z = gen.standard_normal((n, DIM_Z))
    xs = z @ m.T
    ys = xs @ a.T
    return xs, ys, a


def small_train_config(epochs=700, seed=3):
    return TrainConfig(
        epochs=epochs,
        batch_size=64,
        lambda_halving_period=150,
        sinkhorn_tol=1e-9,
        seed=seed,
    )


@pytest.fixture(scope="module")
def trained_toy():
    xs, ys, a = linear_toy_dataset(2000)
    model = JGNNModel.init(DIM_X, DIM_Y, DIM_Z, RngStream(1), hidden=(64, 64))
    best, history = train(xs, ys, model, small_train_config())
    return xs, ys, a, best, history


class TestLambdaSchedule:
    def test_initial_value(self):
        assert lambda_schedule(0, small_train_config()) == 150.0

    def test_one_halving(self):
        cfg = TrainConfig(lambda_halving_period=500)
        assert lambda_schedule(500, cfg) == 75.0

    def test_floor_arithmetic(self):
        cfg = TrainConfig(lambda_halving_period=500)
        assert lambda_schedule(499, cfg) == 150.0
        assert lambda_schedule(1499, cfg) == pytest.approx(150.0 * 0.25)
        assert lambda_schedule(1500, cfg) == pytest.approx(150.0 * 0.5**3)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lambda_schedule(-1, small_train_config())


class TestStandardizer:
    @pytest.mark.parametrize("n", [None, 5], ids=["one_1d_couple", "five_couples"])
    def test_standardized_rows_are_the_per_variable_formulas(self, n):
        gen = RngStream(50).generator()
        xs = 3.0 * gen.standard_normal((6,) if n is None else (n, 6)) + 1.0
        ys = gen.standard_normal((4,) if n is None else (n, 4)) - 2.0
        mean, std = gen.standard_normal(10), gen.uniform(0.5, 2, 10)
        want = np.atleast_2d(np.hstack([(xs - mean[:6]) / std[:6], (ys - mean[6:]) / std[6:]]))
        got = Standardizer(mean, std).standardize(np.concatenate([np.atleast_2d(xs), np.atleast_2d(ys)], axis=1))
        assert got.shape == want.shape == (n or 1, 10)
        assert got.tobytes() == want.tobytes()
        # encode feeds the encoder those rows
        model = JGNNModel.init(6, 4, 3, RngStream(51), hidden=(8,))
        model.standardizer = Standardizer(mean, std)
        z, _ = mlp_forward(model.encoder, want)
        assert encode(model, xs, ys).tobytes() == z.tobytes()

    def test_fit_is_the_per_variable_fit(self):
        # a column's mean and std are the same bits on its block as on the [x | y] rows
        gen = RngStream(52).generator()
        xs, ys = 5.0 * gen.standard_normal((90, 30)) + 2.0, gen.standard_normal((90, 4))
        ys[:, 1] = 0.25  # a constant column takes the std floor
        rows = gen.permutation(90)[:81]
        fitted = Standardizer.fit(np.concatenate([xs, ys], axis=1)[rows])
        floor = jgnn._STD_FLOOR
        mean = np.concatenate([xs[rows].mean(axis=0), ys[rows].mean(axis=0)])
        std = np.concatenate([np.maximum(xs[rows].std(axis=0), floor), np.maximum(ys[rows].std(axis=0), floor)])
        assert fitted.mean.tobytes() == mean.tobytes()
        assert fitted.std.tobytes() == std.tobytes()
        assert fitted.std[31] == floor


class TestJgnnLoss:
    def _tiny_model(self):
        return JGNNModel.init(4, 3, 2, RngStream(11), hidden=(8, 8))

    def test_perfect_reconstruction_lambda_zero(self):
        model = self._tiny_model()
        gen = RngStream(12).generator()
        z = gen.standard_normal((6, 2))
        batch = np.hstack(generate(model, z))  # identity standardizer: already std space
        res = jgnn_loss(batch, model, 0.0, SinkhornConfig(), gen.standard_normal((6, 2)))
        # feeding the model's own decode back through encode+decode is not
        # exact, but the latent term must vanish at lambda = 0
        assert res.loss == pytest.approx(res.mse_x + res.mse_y)

    def test_identical_encodings_and_draws_zero_latent_term(self):
        model = self._tiny_model()
        gen = RngStream(13).generator()
        xb = gen.standard_normal((5, 4))
        yb = gen.standard_normal((5, 3))
        z = encode(model, xb, yb)
        cfg = SinkhornConfig(reg=100.0, max_iter=40)
        # ot_cost leaves out OT(p, p) / 2; with it, the debiased divergence
        # vanishes when the draws coincide with the encodings
        res = jgnn_loss(np.hstack([xb, yb]), model, 1.0, cfg, z.copy())
        pp_cost = _plain_entropic_ot(cost_matrix(z, z), cfg).cost
        assert res.ot_cost - 0.5 * pp_cost == pytest.approx(0.0, abs=1e-9)

    def test_two_solves_per_batch_and_none_for_frozen_plans(self, monkeypatch):
        from latent_abcss import jgnn

        costs = []

        def counted(c, cfg, *args):
            costs.append(c)
            return _plain_entropic_ot(c, cfg, *args)

        monkeypatch.setattr(jgnn, "_plain_entropic_ot", counted)
        model = self._tiny_model()
        gen = RngStream(15).generator()
        xb, yb, draws = gen.standard_normal((6, 4)), gen.standard_normal((6, 3)), gen.standard_normal((6, 2))
        batch = np.hstack([xb, yb])
        fresh = jgnn_loss(batch, model, 0.7, SinkhornConfig(), draws)
        z = encode(model, xb, yb)
        # the cross solve, then the encodings' self solve; none over the draws
        assert [c.tolist() for c in costs] == [cost_matrix(z, draws).tolist(), cost_matrix(z, z).tolist()]
        frozen = jgnn_loss(batch, model, 0.7, SinkhornConfig(), draws, frozen_plans=fresh.plans)
        assert len(costs) == 2
        assert frozen.loss == fresh.loss

    def test_non_finite_batch_rejected(self):
        model = self._tiny_model()
        gen = RngStream(16).generator()
        xb = gen.standard_normal((6, 4))
        xb[2, 1] = np.nan
        batch = np.hstack([xb, gen.standard_normal((6, 3))])
        with pytest.raises(ValueError, match="non-finite loss"):
            jgnn_loss(batch, model, 1.0, SinkhornConfig(), gen.standard_normal((6, 2)))

    def test_gradient_matches_finite_differences(self):
        model = self._tiny_model()
        refresh_spectral(model.encoder)
        refresh_spectral(model.decoder)
        gen = RngStream(14).generator()
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
        assert worst < 1e-4

    def test_empty_batch_rejected(self):
        model = self._tiny_model()
        with pytest.raises(ValueError):
            jgnn_loss(np.empty((0, 7)), model, 1.0, SinkhornConfig(), np.empty((0, 2)))


class TestTrain:
    def test_linear_toy_reconstruction(self, trained_toy):
        xs, ys, a, best, history = trained_toy
        # validation reconstruction MSE (standardized) well below unit variance
        assert history.val_mse_x[-1] < 0.05 or min(history.val_mse_x) < 0.05

    def test_loss_trend_decreasing(self, trained_toy):
        _, _, _, _, history = trained_toy
        total = np.asarray(history.mse_x) + np.asarray(history.mse_y)
        n = len(total)
        assert np.median(total[-n // 10 :]) < np.median(total[: n // 10])

    def test_aggregate_encodings_match_prior(self, trained_toy):
        xs, ys, _, best, _ = trained_toy
        z = encode(best, xs, ys)
        assert np.all(np.abs(z.mean(axis=0)) < 0.2)
        assert np.all(z.var(axis=0) > 0.5) and np.all(z.var(axis=0) < 1.5)

    def test_joint_consistency_heads_respect_physics(self, trained_toy):
        _, _, a, best, _ = trained_toy
        z = RngStream(21).generator().standard_normal((500, DIM_Z))
        gx, gy = generate(best, z)
        rel = np.linalg.norm(gx @ a.T - gy, axis=1) / np.maximum(np.linalg.norm(gy, axis=1), 1e-9)
        assert np.median(rel) < 0.15

    def test_generated_couples_beat_constant_fake(self, trained_toy):
        xs, ys, _, best, _ = trained_toy
        z = RngStream(22).generator().standard_normal((400, DIM_Z))
        gx, gy = generate(best, z)
        gen_cloud = np.concatenate([gx, gy], axis=1)
        data_cloud = np.concatenate([xs[-400:], ys[-400:]], axis=1)
        fake = np.tile(data_cloud.mean(axis=0), (400, 1))
        cfg = SinkhornConfig(reg=5.0, max_iter=200, debiased=True)
        d_gen = entropic_ot(gen_cloud, data_cloud, cfg).cost
        d_fake = entropic_ot(fake, data_cloud, cfg).cost
        assert d_gen < d_fake

    def test_roundtrip_reconstruction_quality(self, trained_toy):
        xs, ys, _, best, history = trained_toy
        z = encode(best, xs[:200], ys[:200])
        gx, gy = generate(best, z)
        std_x = best.standardizer.std[:DIM_X]
        mse = np.mean(((gx - xs[:200]) / std_x) ** 2)
        assert mse < max(4.0 * min(history.val_mse_x), 0.08)

    def test_degenerate_single_couple_dataset(self, monkeypatch):
        x0 = np.full(3, 1.3)
        y0 = np.full(2, -0.4)
        xs = np.tile(x0, (64, 1))
        ys = np.tile(y0, (64, 1))
        model = JGNNModel.init(3, 2, 2, RngStream(30), hidden=(8,))
        monkeypatch.setattr(jgnn, "_LAMBDA0", 1.0)
        cfg = TrainConfig(epochs=60, batch_size=16, lambda_halving_period=20, seed=1)
        best, _ = train(xs, ys, model, cfg)
        gx, gy = generate(best, RngStream(31).generator().standard_normal((5, 2)))
        np.testing.assert_allclose(gx, np.tile(x0, (5, 1)), atol=0.05)
        np.testing.assert_allclose(gy, np.tile(y0, (5, 1)), atol=0.05)

    def test_same_seed_identical_history(self):
        xs, ys, _ = linear_toy_dataset(300, seed=5)
        cfg = TrainConfig(epochs=5, batch_size=64, seed=9)
        h1 = train(xs, ys, JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(2), hidden=(16,)), cfg)[1]
        h2 = train(xs, ys, JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(2), hidden=(16,)), cfg)[1]
        np.testing.assert_array_equal(h1.mse_x, h2.mse_x)
        np.testing.assert_array_equal(h1.val_mse_y, h2.val_mse_y)
        np.testing.assert_array_equal(h1.ot_term, h2.ot_term)

    def test_non_finite_couple_diverges_at_epoch_zero(self):
        xs, ys, _ = linear_toy_dataset(300, seed=6)
        xs[18, 3] = np.nan  # a training couple (seed 4), so the standardizer sees it
        cfg = TrainConfig(epochs=3, batch_size=64, seed=4)
        model = JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(5), hidden=(8,))
        with pytest.raises(TrainingDiverged, match="epoch 0") as info:
            train(xs, ys, model, cfg)
        assert info.value.epoch == 0
        assert info.value.history.mse_x == [] and info.value.history.ot_term == []

    def test_non_finite_validation_couple_diverges(self):
        # a held-out couple (seed 4): training losses stay finite, validation does not;
        # without the check, train would return the initial weights
        xs, ys, _ = linear_toy_dataset(300, seed=6)
        xs[17, 3] = np.nan
        cfg = TrainConfig(epochs=3, batch_size=64, seed=4)
        model = JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(5), hidden=(8,))
        with pytest.raises(TrainingDiverged, match="epoch 0") as info:
            train(xs, ys, model, cfg)
        history = info.value.history
        assert np.isfinite(history.mse_x).all() and np.isnan(history.val_mse_x).all()
        assert len(history.val_mse_x) == 1

    def test_batch_larger_than_the_training_split_is_refused(self):
        # 100 couples hold out 10; library callers get a ValueError, the CLI a config error
        xs, ys, _ = linear_toy_dataset(100, seed=5)
        model = JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(2), hidden=(8,))
        with pytest.raises(ValueError, match="^dataset leaves 90 training couples for batch size 91$"):
            train(xs, ys, model, TrainConfig(epochs=1, batch_size=91, seed=9))

    def test_batch_of_the_whole_training_split_trains(self):
        xs, ys, _ = linear_toy_dataset(100, seed=5)
        model = JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(2), hidden=(8,))
        _, history = train(xs, ys, model, TrainConfig(epochs=2, batch_size=90, seed=9))
        assert len(history.mse_x) == 2 and np.isfinite(history.val_mse_x).all()

    def test_every_gemm_and_adam_gradient_is_f32(self, monkeypatch):
        # a stray f64 factor (say, an activation derivative) upcasts the backward
        # GEMMs silently: every other test still passes, only slower
        xs, ys, _ = linear_toy_dataset(300, seed=5)
        seen = {"forward": 0, "backward": 0, "adam": 0}
        forward, backward, step = jgnn.mlp_forward, jgnn.mlp_backward, jgnn.adam_step

        def f32(*arrays):
            return all(a.dtype == np.float32 for a in arrays)

        def spy_forward(params, x):
            out, cache = forward(params, x)
            assert f32(params.flat, out, *(c[k] for c in cache for k in ("x", "s")))
            seen["forward"] += 1
            return out, cache

        def spy_backward(params, cache, output_gradient, input_gradient=True):
            grad, gx = backward(params, cache, output_gradient, input_gradient)
            assert f32(params.flat, grad) and (gx is None or f32(gx))
            seen["backward"] += 1
            return grad, gx

        def spy_step(state, params, grad, block_prefix):
            assert f32(params.flat, grad)
            seen["adam"] += 1
            return step(state, params, grad, block_prefix)

        monkeypatch.setattr(jgnn, "mlp_forward", spy_forward)
        monkeypatch.setattr(jgnn, "mlp_backward", spy_backward)
        monkeypatch.setattr(jgnn, "adam_step", spy_step)
        model = JGNNModel.init(DIM_X, DIM_Y, DIM_Z, RngStream(2), hidden=(32, 16))
        train(xs, ys, model, TrainConfig(epochs=2, batch_size=64, seed=9))
        # 4 batches per epoch: two forwards, two backwards and two Adam steps each;
        # and one validation forward through both networks per epoch
        assert seen == {"forward": 2 * 4 * 2 + 2 * 2, "backward": 2 * 4 * 2, "adam": 2 * 4 * 2}

    def test_best_validation_figure_is_the_checkpoints(self, tmp_path, monkeypatch):
        # the returned f32 weights are the checkpoint blob, and their forward
        # gives the best epoch's recorded validation MSE exactly
        xs, ys, _ = linear_toy_dataset(400, seed=7)
        monkeypatch.setattr(jgnn, "_LAMBDA0", 5.0)
        cfg = TrainConfig(epochs=6, batch_size=64, seed=11)
        best, history = train(xs, ys, JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(8), hidden=(24,)), cfg)
        totals = np.add(history.val_mse_x, history.val_mse_y)
        best_epoch = int(np.argmin(totals))
        assert history.best_epoch == best_epoch
        n_val = max(1, int(round(jgnn._VAL_FRACTION * len(xs))))
        val = RngStream(cfg.seed, stream_id=17).split(0).generator().permutation(len(xs))[:n_val]
        mean, std = best.standardizer.mean, best.standardizer.std
        rows = np.hstack([(xs[val] - mean[:DIM_X]) / std[:DIM_X], (ys[val] - mean[DIM_X:]) / std[DIM_X:]])
        path = str(tmp_path / "model.ckpt")
        save_model(path, best)
        blob = open(path, "rb").read()
        for model in (best, load_model(path)):
            enc, dec = model.encoder, model.decoder
            assert enc.flat.dtype == dec.flat.dtype == np.float32
            assert enc.flat.tobytes() + dec.flat.tobytes() == blob
            z, _ = mlp_forward(enc, rows)
            out, _ = mlp_forward(dec, z)
            vmx = float(np.mean((out[:, :DIM_X] - rows[:, :DIM_X]) ** 2))
            vmy = float(np.mean((out[:, DIM_X:] - rows[:, DIM_X:]) ** 2))
            assert (vmx, vmy) == (history.val_mse_x[best_epoch], history.val_mse_y[best_epoch])

    def test_mismatched_inputs_rejected_before_any_work(self, monkeypatch):
        xs, ys, _ = linear_toy_dataset(300, seed=5)
        model = JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(3), hidden=(8,))
        narrow = JGNNModel.init(DIM_X - 1, DIM_Y, 4, RngStream(3), hidden=(8,))
        # fitting the standardizer is the first work on the data
        monkeypatch.setattr(jgnn, "Standardizer", None)
        cases = [
            (narrow, xs, ys, "^data has dim_x 8 and dim_y 20, the model 7 and 20$"),
            (model, xs, ys[:-1], "^xs has 300 rows but ys has 299$"),
            (model, xs[:-1], ys, "^xs has 299 rows but ys has 300$"),
        ]
        for net, x, y, match in cases:
            with pytest.raises(ValueError, match=match):
                train(x, y, net, TrainConfig(epochs=1, batch_size=64))

    def test_passed_model_is_left_untouched(self):
        xs, ys, _ = linear_toy_dataset(300, seed=5)
        model = JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(3), hidden=(16,))

        def state():
            nets = [net.flat.tobytes() for net in (model.encoder, model.decoder)]
            return nets, {k: v.tobytes() for k, v in vars(model.standardizer).items()}

        before = state()
        best, _ = train(xs, ys, model, TrainConfig(epochs=2, batch_size=64, seed=9))
        assert state() == before
        # the fitted standardizer is on the returned model only
        assert best.standardizer is not model.standardizer
        assert best.standardizer.mean.tobytes() != before[1]["mean"]

    def test_previous_steps_gradients_are_freed_before_the_next_loss(self, monkeypatch):
        # a step's loss result is dropped once both Adam steps have read it, so
        # its two gradient vectors do not live beside the next step's
        loss, grads, alive = jgnn.jgnn_loss, [], []

        def tracked(*args, **kwargs):
            alive.append([ref() is not None for ref in grads])
            res = loss(*args, **kwargs)
            grads[:] = [weakref.ref(res.encoder_grad), weakref.ref(res.decoder_grad)]
            return res

        monkeypatch.setattr(jgnn, "jgnn_loss", tracked)
        xs, ys, _ = linear_toy_dataset(300, seed=5)
        train(xs, ys, JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(3), hidden=(16,)), TrainConfig(epochs=2, batch_size=64))
        assert alive == [[]] + [[False, False]] * 7

    def test_dataset_smaller_than_batch_rejected(self):
        xs, ys, _ = linear_toy_dataset(50)
        with pytest.raises(ValueError, match="batch"):
            train(xs, ys, JGNNModel.init(DIM_X, DIM_Y, 4, RngStream(3), hidden=(8,)), TrainConfig(epochs=1))


def _spy_adam(monkeypatch):
    """Record each Adam step as (network, ran off the main thread, live thread count)."""
    calls = []

    def spy(state, params, grad, block_prefix):
        on_worker = threading.current_thread() is not threading.main_thread()
        calls.append((block_prefix.split()[0], on_worker, threading.active_count()))
        return adam_step(state, params, grad, block_prefix)

    monkeypatch.setattr(jgnn, "adam_step", spy)
    return calls


class TestAdamInTurn:
    def _train(self, hidden, epochs=2):
        xs, ys, _ = linear_toy_dataset(300, seed=5)
        model = JGNNModel.init(DIM_X, DIM_Y, DIM_Z, RngStream(2), hidden=hidden)
        return train(xs, ys, model, TrainConfig(epochs=epochs, batch_size=128, seed=9))

    def test_large_decoder_steps_on_the_main_thread(self, monkeypatch):
        # a default-width decoder (10 -> 512 -> 512 -> 28, ~8.6 Adam blocks) with the BLAS
        # pool unpinned still steps in turn on the calling thread, and starts no thread
        assert JGNNModel.init(DIM_X, DIM_Y, DIM_Z, RngStream(2), hidden=(512, 512)).decoder.flat.size >= 8 * _BLOCK
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        calls = _spy_adam(monkeypatch)
        n_threads = threading.active_count()
        self._train((512, 512))
        assert [call[:2] for call in calls] == [("encoder", False), ("decoder", False)] * 4
        assert max(call[2] for call in calls) == n_threads == threading.active_count()

    @pytest.mark.parametrize("net", ["encoder", "decoder"])
    def test_non_finite_gradient_diverges(self, monkeypatch, net):
        loss = jgnn.jgnn_loss

        def poisoned(*args, **kwargs):
            res = loss(*args, **kwargs)
            getattr(res, f"{net}_grad")[0] = np.nan
            return res

        monkeypatch.setattr(jgnn, "jgnn_loss", poisoned)
        calls = _spy_adam(monkeypatch)
        with pytest.raises(TrainingDiverged, match="epoch 0") as info:
            self._train((16,))
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == f"non-finite gradient in {net} layer 0 weights"
        assert info.value.history.mse_x == []
        # an encoder error comes before the decoder's step
        assert [call[0] for call in calls] == ["encoder", "decoder"][: 1 + (net == "decoder")]


class TestGenerateEncode:
    def test_generate_deterministic_and_ordered(self, trained_toy):
        _, _, _, best, _ = trained_toy
        z = RngStream(40).generator().standard_normal((7, DIM_Z))
        x1, y1 = generate(best, z)
        x2, y2 = generate(best, z)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        x_single, _ = generate(best, z[3])
        # the decode runs in f32, where a one-row GEMM and the batched one round differently (~3e-7)
        assert np.max(np.abs(x_single[0] - x1[3])) <= 1e-5 * np.max(np.abs(x1[3]))

    def test_encode_batch_order_preserved(self, trained_toy):
        xs, ys, _, best, _ = trained_toy
        z = encode(best, xs[:10], ys[:10])
        z_perm = encode(best, xs[:10][::-1], ys[:10][::-1])
        np.testing.assert_allclose(z, z_perm[::-1])

    def test_latent_dim_checked(self, trained_toy):
        _, _, _, best, _ = trained_toy
        with pytest.raises(ValueError, match="latent"):
            generate(best, np.zeros((2, DIM_Z + 1)))

    def test_f32_model_encodes_and_decodes_as_its_f64_widening(self, trained_toy):
        # encode and the decoder's sigma fold widen a copy, so the f32 model gives the f64 bits
        xs, ys, _, best, _ = trained_toy
        wide = JGNNModel(best.encoder.copy(np.float64), best.decoder.copy(np.float64), DIM_X, DIM_Y, DIM_Z,
                         best.standardizer)
        np.testing.assert_array_equal(encode(best, xs[:9], ys[:9]), encode(wide, xs[:9], ys[:9]))
        z = RngStream(46).generator().standard_normal((5, DIM_Z))
        for got, want in zip(generate(best, z), generate(wide, z)):
            np.testing.assert_array_equal(got, want)
        assert best.encoder.flat.dtype == best.decoder.flat.dtype == np.float32  # only copies were widened

    def test_g2_callable_matches_generate(self, trained_toy):
        _, _, _, best, _ = trained_toy
        z = RngStream(41).generator().standard_normal((4, DIM_Z))
        np.testing.assert_array_equal(g2_of_latent(best)(z), generate(best, z)[1])

    def test_g1_callable_matches_generate(self, trained_toy):
        _, _, _, best, _ = trained_toy
        z = RngStream(41).generator().standard_normal((4, DIM_Z))
        np.testing.assert_array_equal(g1_of_latent(best)(z), generate(best, z)[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_decoded_maps_return_f64(self, trained_toy, dtype):
        _, _, _, best, _ = trained_toy
        z = RngStream(45).generator().standard_normal((3, DIM_Z)).astype(dtype)
        for out in (*generate(best, z), g1_of_latent(best)(z), g2_of_latent(best)(z)):
            assert out.dtype == np.float64


@pytest.fixture(scope="module")
def full_scale_model():
    """Untrained model at the pipeline's full-scale shapes (81 travel times)."""
    model = JGNNModel.init(2000, 81, 20, RngStream(5), hidden=(512, 512))
    for _ in range(3):
        refresh_spectral(model.decoder)
    gen = RngStream(6).generator()
    for layer in model.decoder.layers:
        layer.bias += 0.1 * gen.standard_normal(layer.bias.shape)
    mean_x, std_x = gen.standard_normal(2000), gen.uniform(0.5, 2.0, 2000)
    mean_y, std_y = gen.standard_normal(81), gen.uniform(0.5, 2.0, 81)
    model.standardizer = Standardizer(np.concatenate([mean_x, mean_y]), np.concatenate([std_x, std_y]))
    return model


class TestHeadSplit:
    """The head-split maps against a full decode through the training forward."""

    @pytest.mark.parametrize("n", [1, 7, 100, 1000])
    @pytest.mark.parametrize("hidden", [None, (24, 16), ()])
    def test_heads_match_full_decode(self, full_scale_model, n, hidden):
        if hidden is None:
            model = full_scale_model
        else:
            # 13 travel times, and with no hidden layer no trunk at all
            model = JGNNModel.init(30, 13, 4, RngStream(7), hidden=hidden)
            mean, std = np.r_[np.full(30, 0.5), np.ones(13)], np.r_[np.full(30, 0.2), np.full(13, 3.0)]
            model.standardizer = Standardizer(mean, std)
        z = RngStream(43, n).generator().standard_normal((n, model.latent_dim))
        out, _ = mlp_forward(model.decoder, z)
        ref = out * model.standardizer.std + model.standardizer.mean
        x_ref, y_ref = ref[:, : model.dim_x], ref[:, model.dim_x :]
        for got, ref in ((g1_of_latent(model)(z), x_ref), (g2_of_latent(model)(z), y_ref)):
            assert got.shape == ref.shape
            assert got.dtype == np.float64
            # the maps decode in f32: within f32 rounding of the f64 forward
            assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_trunk_fold_is_the_identity_forward(self, full_scale_model):
        """A spectral layer's forward on the identity batch is the f64 fold weights / sigma, bit for bit;
        the trunk holds that fold rounded once to f32."""
        decoder, trunk = full_scale_model.decoder, _decoder_view(full_scale_model).trunk
        for layer, folded in zip(decoder.layers, trunk.layers):
            assert layer.spectral
            alone = MLPParams([Layer(layer.weights, np.zeros_like(layer.bias), "linear", u=layer.u, v=layer.v)])
            out, _ = mlp_forward(alone, np.eye(layer.weights.shape[1]))
            fold = layer.weights / layer.sigma()
            np.testing.assert_array_equal(out.T.view(np.uint64), fold.view(np.uint64))
            np.testing.assert_array_equal(folded.weights.view(np.uint32), fold.astype(np.float32).view(np.uint32))

    @pytest.mark.parametrize("hidden", [None, ()])
    def test_view_is_f32(self, full_scale_model, hidden):
        model = full_scale_model if hidden is None else JGNNModel.init(30, 13, 4, RngStream(7), hidden=hidden)
        view = _decoder_view(model)
        assert (view.trunk is None) == (hidden == ())
        arrays = [a for head in (view.x_head, view.y_head) for a in head[:2]]
        if view.trunk is not None:
            arrays += [view.trunk.flat] + [getattr(l, n) for l in view.trunk.layers for n in ("weights", "bias")]
        assert all(a.dtype == np.float32 for a in arrays)
        # the model itself is untouched: an initialized model keeps f64 parameters
        assert model.decoder.flat.dtype == np.float64

    @pytest.mark.parametrize("make", [g1_of_latent, g2_of_latent])
    def test_latent_dim_checked(self, full_scale_model, make):
        with pytest.raises(ValueError, match="latent"):
            make(full_scale_model)(np.zeros((2, 21)))


class TestCheckpointIO:
    def test_roundtrip_preserves_outputs_to_f32(self, trained_toy, tmp_path):
        _, _, _, best, _ = trained_toy
        path = str(tmp_path / "model.ckpt")
        save_model(path, best, extra={"note": "test"})
        loaded = load_model(path)
        z = RngStream(42).generator().standard_normal((6, DIM_Z))
        x1, y1 = generate(best, z)
        x2, y2 = generate(loaded, z)
        np.testing.assert_allclose(x1, x2, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(y1, y2, rtol=1e-4, atol=1e-4)

    def test_roundtrip_drift_pinned(self, trained_toy, tmp_path):
        # the f32 checkpoint moves outputs by ~1e-8 relative; 1e-6 pins that
        _, _, _, best, _ = trained_toy
        path = str(tmp_path / "model.ckpt")
        save_model(path, best)
        z = RngStream(44).generator().standard_normal((100, DIM_Z))
        for mem, disk in zip(generate(best, z), generate(load_model(path), z)):
            assert np.max(np.abs(mem - disk)) <= 1e-6 * np.max(np.abs(mem))

    def test_blob_is_per_layer_w_b_u_v_in_f32(self, trained_toy, tmp_path):
        # reference: the per-block packing the single vector cast replaced
        _, _, _, best, _ = trained_toy
        path = str(tmp_path / "model.ckpt")
        save_model(path, best)
        layers = [l for net in (best.encoder, best.decoder) for l in net.layers]
        packed = np.concatenate([a.ravel() for l in layers for a in (l.weights, l.bias, l.u, l.v)])
        assert open(path, "rb").read() == packed.astype("<f4").tobytes()
        loaded = load_model(path)
        for want, got in zip(layers, [l for net in (loaded.encoder, loaded.decoder) for l in net.layers]):
            for name in ("weights", "bias", "u", "v"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name).astype(np.float32))
            assert (got.activation, got.spectral) == (want.activation, want.spectral)

    def test_init_holds_f64_and_trained_and_loaded_hold_f32(self, trained_toy, tmp_path):
        _, _, _, best, _ = trained_toy
        path = str(tmp_path / "model.ckpt")
        save_model(path, best)
        init, loaded = JGNNModel.init(DIM_X, DIM_Y, DIM_Z, RngStream(1), hidden=(8,)), load_model(path)
        for model, dtype in ((init, np.float64), (best, np.float32), (loaded, np.float32)):
            for net in (model.encoder, model.decoder):
                arrays = [net.flat] + [getattr(l, n) for l in net.layers for n in ("weights", "bias", "u", "v")]
                assert all(a.dtype == dtype for a in arrays)
                # every layer array is a view of the one vector: no widened copy beside it
                assert all(np.shares_memory(a, net.flat) for a in arrays[1:])
        assert loaded.encoder.flat.base is loaded.decoder.flat.base  # both views of the blob as read

    def test_save_load_save_is_byte_identical(self, trained_toy, tmp_path):
        _, _, _, best, _ = trained_toy
        first, second = str(tmp_path / "first.ckpt"), str(tmp_path / "second.ckpt")
        save_model(first, best, extra={"best_epoch": 3})
        save_model(second, load_model(first), extra={"best_epoch": 3})
        for ext in ("", ".json"):
            assert open(first + ext, "rb").read() == open(second + ext, "rb").read()

    def test_manifest_is_json(self, trained_toy, tmp_path):
        import json

        _, _, _, best, _ = trained_toy
        path = str(tmp_path / "model.ckpt")
        save_model(path, best)
        doc = json.loads((tmp_path / "model.ckpt.json").read_text())
        assert doc["latent_dim"] == DIM_Z
        assert doc["weights_dtype"] == "f32"

    @pytest.mark.parametrize("delta", [-4, 4])
    def test_blob_size_checked_against_manifest(self, trained_toy, tmp_path, delta):
        _, _, _, best, _ = trained_toy
        path = str(tmp_path / "model.ckpt")
        save_model(path, best)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:delta] if delta < 0 else blob + bytes(delta))
        with pytest.raises(ValueError, match="model.ckpt has .* bytes, manifest implies"):
            load_model(path)
