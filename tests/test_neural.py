"""Dense-network kernels: forward, reverse-mode gradients, Adam, spectral norm."""

import math
import warnings

import numpy as np
import pytest

from latent_abcss.neural import (
    _BLOCK,
    _GRAD_LIMIT,
    LEAKY_SLOPE,
    AdamState,
    Layer,
    MLPParams,
    _activate,
    adam_step,
    mlp_backward,
    mlp_forward,
    refresh_spectral,
)
from latent_abcss.rng_linalg import RngStream


def jacobi_top_singular_value(w, sweeps=50):
    """Oracle: top singular value via Jacobi eigenvalue sweeps on w'w."""
    a = w.T @ w
    n = a.shape[0]
    for _ in range(sweeps):
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-15:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return float(np.sqrt(np.max(np.diag(a))))


def _loss_and_grads(net, x):
    out, cache = mlp_forward(net, x)
    grad, _ = mlp_backward(net, cache, out)  # loss = 0.5 * sum(out^2)
    return 0.5 * float(np.sum(out * out)), grad


class TestMlpForward:
    def test_identity_linear_layer(self):
        net = MLPParams([Layer(np.eye(3), np.zeros(3), "linear", spectral=False)])
        x = np.arange(6.0).reshape(2, 3)
        out, _ = mlp_forward(net, x)
        np.testing.assert_array_equal(out, x)

    def test_two_layer_hand_composition(self):
        w1 = np.array([[1.0, 2.0], [0.5, -1.0]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0, 1.0]])
        b2 = np.array([0.3])
        net = MLPParams(
            [
                Layer(w1, b1, "leaky_relu", spectral=False),
                Layer(w2, b2, "linear", spectral=False),
            ]
        )
        x = np.array([[0.4, -0.3]])
        s = w1 @ x[0] + b1
        hand = w2 @ np.where(s > 0.0, s, LEAKY_SLOPE * s) + b2
        out, _ = mlp_forward(net, x)
        np.testing.assert_allclose(out[0], hand, rtol=1e-12)

    def test_leaky_slope(self):
        net = MLPParams([Layer(np.eye(1), np.zeros(1), "leaky_relu", spectral=False)])
        out, _ = mlp_forward(net, np.array([[-2.0]]))
        np.testing.assert_allclose(out, [[-2.0 * LEAKY_SLOPE]])

    def test_leaky_relu_matches_masked_form_bit_for_bit(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 3 * tiny, -3 * tiny,
             1e-310, -1e-310, np.finfo(np.float64).max, -np.finfo(np.float64).max]
        )
        s = np.concatenate([special, RngStream(11).generator().standard_normal(4096)])
        masked = np.where(s > 0.0, s, LEAKY_SLOPE * s)
        np.testing.assert_array_equal(_activate(s, "leaky_relu").view(np.uint64), masked.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_runs_in_the_parameters_dtype(self, dtype):
        gen = RngStream(12).generator()
        layers = [
            Layer(gen.standard_normal((5, 3)).astype(dtype), np.zeros(5), "leaky_relu"),
            Layer(gen.standard_normal((2, 5)).astype(dtype), np.zeros(2), "linear", spectral=False),
        ]
        net = MLPParams(layers)
        assert net.flat.dtype == dtype
        assert all(getattr(l, n).dtype == dtype for l in net.layers for n in ("weights", "bias", "u", "v"))
        for x_dtype in (np.float64, np.float32):
            out, cache = mlp_forward(net, gen.standard_normal((4, 3)).astype(x_dtype))
            assert out.dtype == dtype
            assert all(c["x"].dtype == c["s"].dtype == dtype for c in cache)

    def test_non_float_weights_become_f64(self):
        layer = Layer(np.eye(2, dtype=np.int64), [0, 0], "linear")
        assert all(getattr(layer, n).dtype == np.float64 for n in ("weights", "bias", "u", "v"))

    def test_input_dimension_checked(self):
        net = MLPParams([Layer(np.eye(3), np.zeros(3), "linear")])
        with pytest.raises(ValueError, match="input dim"):
            mlp_forward(net, np.ones((2, 4)))


class TestMlpBackward:
    def test_scalar_chain_rule(self):
        # loss = 0.5 y^2 with y = w x, w = 1, x = 2 -> dL/dw = y x = 4
        net = MLPParams([Layer(np.array([[1.0]]), np.zeros(1), "linear", spectral=False)])
        out, cache = mlp_forward(net, np.array([[2.0]]))
        grad, gx = mlp_backward(net, cache, out)
        assert net.blocks(grad)[0][0][0, 0] == pytest.approx(4.0)
        assert gx[0, 0] == pytest.approx(2.0)  # dL/dx = y w

    def test_zero_output_gradient(self):
        net = MLPParams.init([3, 4, 2], ["leaky_relu", "linear"], RngStream(0))
        out, cache = mlp_forward(net, np.ones((5, 3)))
        grad, gx = mlp_backward(net, cache, np.zeros_like(out))
        assert grad.shape == net.flat.shape
        np.testing.assert_array_equal(grad, 0.0)
        np.testing.assert_array_equal(gx, 0.0)

    @pytest.mark.parametrize("act", ["leaky_relu", "linear"])
    def test_finite_difference_all_activations(self, act):
        rng = RngStream(1)
        net = MLPParams.init([4, 6, 3], [act, "linear"], rng, spectral=[True, False])
        refresh_spectral(net)
        x = RngStream(2).generator().standard_normal((7, 4))
        _, grad = _loss_and_grads(net, x)
        h = 1e-5
        worst = 0.0
        for layer, (dw, db, _, _) in zip(net.layers, net.blocks(grad)):
            for arr, g in ((layer.weights, dw), (layer.bias, db)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp, _ = _loss_and_grads(net, x)
                    arr[idx] = orig - h
                    lm, _ = _loss_and_grads(net, x)
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    worst = max(worst, abs(fd - g[idx]) / max(abs(fd), 1e-6))
        assert worst < 1e-4

    def test_stale_cache_rejected(self):
        net = MLPParams.init([3, 2], ["linear"], RngStream(3))
        _, cache = mlp_forward(net, np.ones((4, 3)))
        with pytest.raises(ValueError, match="shape"):
            mlp_backward(net, cache, np.ones((5, 2)))

    def test_skipping_input_gradient_keeps_parameter_gradient(self):
        net = MLPParams.init([6, 5, 4], ["leaky_relu", "linear"], RngStream(4))
        refresh_spectral(net)
        x = RngStream(5).generator().standard_normal((9, 6))
        out, cache = mlp_forward(net, x)
        full, gx = mlp_backward(net, cache, out)
        skipped, none = mlp_backward(net, cache, out, input_gradient=False)
        assert gx.shape == x.shape and none is None
        np.testing.assert_array_equal(skipped.view(np.uint64), full.view(np.uint64))
        for _, _, du, dv in net.blocks(skipped):
            np.testing.assert_array_equal(du, 0.0)
            np.testing.assert_array_equal(dv, 0.0)

    def test_spectral_correction_matches_full_matrix_form(self):
        """Reference: dW = dW_eff/sigma - <dW_eff, W>/sigma^2 * outer(u, v), on whole matrices."""
        n_out, n_in = 300, 200
        net = MLPParams.init([n_in, n_out], ["linear"], RngStream(13), spectral=[True])
        refresh_spectral(net)
        x = RngStream(14).generator().standard_normal((17, n_in))
        g = RngStream(15).generator().standard_normal((17, n_out))
        _, cache = mlp_forward(net, x)
        grad, _ = mlp_backward(net, cache, g)
        layer, sigma = net.layers[0], cache[0]["sigma"]
        dw = np.empty((n_out, n_in))
        np.matmul(g.T, x, out=dw)
        inner = float(np.sum(dw * layer.weights))
        dw /= sigma
        dw -= (inner / sigma**2) * np.outer(layer.u, layer.v)
        np.testing.assert_allclose(net.blocks(grad)[0][0], dw, rtol=1e-13, atol=1e-13 * np.abs(dw).max())

    def test_linear_layer_matches_unit_derivative_form(self):
        """Reference: the linear layer's backward with its all-ones derivative multiplied in."""
        net = MLPParams.init([7, 4], ["linear"], RngStream(16), spectral=[False])
        x = RngStream(17).generator().standard_normal((10, 7))
        g = RngStream(18).generator().standard_normal((10, 4))
        _, cache = mlp_forward(net, x)
        grad, gx = mlp_backward(net, cache, g)
        ds = g * np.ones_like(cache[0]["s"])
        dw = np.empty((4, 7))
        np.matmul(ds.T, x, out=dw)
        dw_got, db_got = net.blocks(grad)[0][:2]
        np.testing.assert_array_equal(dw_got.view(np.uint64), dw.view(np.uint64))
        np.testing.assert_array_equal(db_got.view(np.uint64), np.sum(ds, axis=0).view(np.uint64))
        np.testing.assert_array_equal(gx.view(np.uint64), (ds @ net.layers[0].weights).view(np.uint64))


def power_iterate(w, u, steps):
    """(normalized weights, sigma) of a one-layer spectral net after ``steps`` refreshes.

    The normalized weights are read off the forward pass on the identity
    batch, so they are exactly what the network applies.
    """
    net = MLPParams([Layer(w, np.zeros(w.shape[0]), "linear", u=np.asarray(u, dtype=np.float64))])
    for _ in range(steps):
        refresh_spectral(net)
    out, _ = mlp_forward(net, np.eye(w.shape[1]))
    return out.T, net.layers[0].sigma()


class TestSpectralNormalize:
    """One power iteration per refresh, sigma read from the frozen (u, v)."""

    def test_diagonal_converges_to_top_singular_value(self):
        w = np.diag([3.0, 1.0])
        wn, sigma = power_iterate(w, [0.6, 0.8], 200)
        assert sigma == pytest.approx(3.0, rel=1e-6)
        np.testing.assert_allclose(wn, np.diag([1.0, 1.0 / 3.0]), rtol=1e-6)

    def test_orthogonal_matrix_unchanged(self):
        theta = 0.7
        w = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        wn, sigma = power_iterate(w, [1.0, 0.0], 1)
        assert sigma == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(wn, w, rtol=1e-12)

    def test_zero_matrix_floors_sigma(self):
        wn, sigma = power_iterate(np.zeros((3, 2)), [1.0, 0.0, 0.0], 1)
        assert sigma == pytest.approx(1e-12)
        assert np.all(np.isfinite(wn))

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((5, 3))
        u = rng.standard_normal(5)
        _, sigma = power_iterate(w, u / np.linalg.norm(u), 300)
        assert sigma == pytest.approx(jacobi_top_singular_value(w), rel=0.01)

    def test_normalized_operator_norm_near_one(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((8, 8))
        u = rng.standard_normal(8)
        wn, _ = power_iterate(w, u / np.linalg.norm(u), 100)
        top = jacobi_top_singular_value(wn, sweeps=80)
        assert abs(top - 1.0) < 0.05


def scaled_moment_adam(p, m, v, grad, lr, t):
    """Reference: one Adam step on f32 scaled moments M = m/(1 - b1), V = v/(1 - b2), in place."""
    k = math.sqrt((1.0 - 0.999) / (1.0 - 0.999**t))
    alpha = lr * (1.0 - 0.9) / ((1.0 - 0.9**t) * k)
    g = grad.astype(np.float32)
    m[...] = np.float32(0.9) * m + g
    v[...] = np.float32(0.999) * v + g * g
    p -= np.float32(alpha) * m / (np.sqrt(v) + np.float32(1e-8 / k))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


class TestAdamStep:
    def _one_layer(self, w0):
        return MLPParams([Layer(np.array([[w0]]), np.zeros(1), "linear", spectral=False)])

    @staticmethod
    def _weight_grad(net, dw):
        # flat layout of a 1x1 layer: [w, b, u, v]
        grad = np.zeros_like(net.flat)
        grad[0] = dw
        return grad

    def test_first_step_magnitude_is_lr(self):
        net = self._one_layer(5.0)
        state = AdamState(lr=0.001)
        adam_step(state, net, self._weight_grad(net, 1.0))
        assert net.layers[0].weights[0, 0] == pytest.approx(5.0 - 0.001, abs=1e-6)

    def test_zero_gradient_no_motion(self):
        net = self._one_layer(2.0)
        state = AdamState(lr=0.001)
        for _ in range(10):
            adam_step(state, net, self._weight_grad(net, 0.0))
        assert net.layers[0].weights[0, 0] == pytest.approx(2.0)

    def test_converges_on_quadratic(self):
        # minimize (w - 3)^2 from w = 0; at lr = 0.001 the 1e-2 ball is
        # reached just before step 5800
        net = self._one_layer(0.0)
        state = AdamState(lr=0.001)
        for _ in range(5000):
            w = net.layers[0].weights[0, 0]
            adam_step(state, net, self._weight_grad(net, 2.0 * (w - 3.0)))
        assert abs(net.layers[0].weights[0, 0] - 3.0) < 0.1
        for _ in range(1000):
            w = net.layers[0].weights[0, 0]
            adam_step(state, net, self._weight_grad(net, 2.0 * (w - 3.0)))
        assert abs(net.layers[0].weights[0, 0] - 3.0) < 1e-2

    def test_non_finite_gradient_names_block(self):
        net = MLPParams.init([2, 2], ["linear"], RngStream(6))
        state = AdamState(lr=0.001)
        grad = np.zeros_like(net.flat)
        net.blocks(grad)[0][0][...] = np.nan
        with pytest.raises(ValueError, match="layer 0 weights"):
            adam_step(state, net, grad)

    def test_non_finite_bias_of_later_layer_named(self):
        net = MLPParams.init([2, 3, 2], ["leaky_relu", "linear"], RngStream(6))
        grad = np.zeros_like(net.flat)
        net.blocks(grad)[1][1][0] = np.inf
        with pytest.raises(ValueError, match="encoder layer 1 bias"):
            adam_step(AdamState(lr=0.001), net, grad, "encoder layer")

    @pytest.mark.parametrize(
        "sizes",
        [[5, 7, 6, 3], [300, 200, 100, 3]],
        ids=["one_adam_block", "several_adam_blocks"],
    )
    def test_matches_per_block_update(self, sizes):
        """Reference: the scaled-moment update per (layer, W/b) block; and textbook f64 Adam."""

        def per_block_step(state, blocks, grads, lr):
            if not state["m"]:
                state["m"] = [np.zeros(b.shape, np.float32) for b in blocks]
                state["v"] = [np.zeros(b.shape, np.float32) for b in blocks]
            state["t"] += 1
            for target, grad, m, v in zip(blocks, grads, state["m"], state["v"]):
                scaled_moment_adam(target, m, v, grad, lr, state["t"])

        def textbook_step(state, blocks, grads, lr):
            if not state["m"]:
                state["m"] = [np.zeros_like(b) for b in blocks]
                state["v"] = [np.zeros_like(b) for b in blocks]
            state["t"] += 1
            bc1 = 1.0 - 0.9 ** state["t"]
            bc2 = 1.0 - 0.999 ** state["t"]
            for target, grad, m, v in zip(blocks, grads, state["m"], state["v"]):
                m *= 0.9
                m += (1.0 - 0.9) * grad
                v *= 0.999
                v += (1.0 - 0.999) * grad * grad
                target -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)

        acts = ["leaky_relu", "leaky_relu", "linear"]
        net = MLPParams.init(sizes, acts, RngStream(8), spectral=[True, True, False])
        refresh_spectral(net)
        if sizes[0] > 5:  # flat spans full Adam blocks and ends in a partial one
            assert net.flat.size > 2 * _BLOCK and net.flat.size % _BLOCK
        ref_blocks = [a.copy() for l in net.layers for a in (l.weights, l.bias)]
        textbook_blocks = [a.copy() for a in ref_blocks]
        ref_state = {"t": 0, "m": [], "v": []}
        textbook_state = {"t": 0, "m": [], "v": []}
        u_v = [(l.u.copy(), l.v.copy()) for l in net.layers]
        gen = RngStream(9).generator()
        x, target = gen.standard_normal((11, sizes[0])), gen.standard_normal((11, 3))
        state = AdamState(lr=0.01)
        for _ in range(60):
            out, cache = mlp_forward(net, x)
            grad, _ = mlp_backward(net, cache, out - target)
            grads = [b for dw, db, _, _ in net.blocks(grad) for b in (dw, db)]
            per_block_step(ref_state, ref_blocks, grads, 0.01)
            textbook_step(textbook_state, textbook_blocks, grads, 0.01)
            adam_step(state, net, grad)
        assert state.m.dtype == state.v.dtype == np.float32
        for k, (layer, (u, v)) in enumerate(zip(net.layers, u_v)):
            assert_same_bits(layer.weights, ref_blocks[2 * k])
            assert_same_bits(layer.bias, ref_blocks[2 * k + 1])
            np.testing.assert_allclose(layer.weights, textbook_blocks[2 * k], rtol=0.0, atol=1e-6)
            np.testing.assert_allclose(layer.bias, textbook_blocks[2 * k + 1], rtol=0.0, atol=1e-6)
            np.testing.assert_array_equal(layer.u, u)
            np.testing.assert_array_equal(layer.v, v)
            for flat_moment, ref_moment in ((state.m, ref_state["m"]), (state.v, ref_state["v"])):
                dw, db, du, dv = net.blocks(flat_moment)[k]
                assert_same_bits(dw, ref_moment[2 * k])
                assert_same_bits(db, ref_moment[2 * k + 1])
                np.testing.assert_array_equal(du, 0.0)
                np.testing.assert_array_equal(dv, 0.0)
        assert state.t == ref_state["t"] == 60

    @pytest.mark.parametrize("t0", [354, 355, 400])
    def test_steps_past_unit_bias_correction_match_formula(self, t0):
        # 1 - 0.9**t rounds to exactly 1.0 from t = 356 on; the update takes no branch there
        assert 1.0 - 0.9**355 != 1.0 and 1.0 - 0.9**356 == 1.0
        net64 = MLPParams.init([300, 200, 100, 3], ["leaky_relu", "leaky_relu", "linear"], RngStream(21))
        gen = RngStream(22).generator()
        m0 = gen.standard_normal(net64.flat.size).astype(np.float32)
        v0 = gen.random(net64.flat.size).astype(np.float32)
        grad = gen.standard_normal(net64.flat.size)
        # f64 parameters, and the f32 ones training updates: the step is subtracted in their dtype
        for net in (net64, net64.copy(np.float32)):
            m, v = m0.copy(), v0.copy()
            state = AdamState(lr=0.01, t=t0, m=m.copy(), v=v.copy())
            p = net.flat.copy()
            adam_step(state, net, grad)
            scaled_moment_adam(p, m, v, grad, 0.01, t0 + 1)
            assert state.m.dtype == state.v.dtype == np.float32
            for got, want in ((net.flat, p), (state.m, m), (state.v, v)):
                assert_same_bits(got, want)

    def test_non_finite_in_last_block_writes_nothing(self):
        net = MLPParams.init([300, 200, 100, 3], ["leaky_relu", "leaky_relu", "linear"], RngStream(19))
        assert net.flat.size > _BLOCK
        state = AdamState(lr=0.01)
        grad = RngStream(20).generator().standard_normal(net.flat.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither a step nor a refusal warns
            adam_step(state, net, grad)
            before = [a.copy() for a in (net.flat, state.m, state.v)]
            bad = net.blocks(grad)[2][0][-1, -1:]
            assert np.shares_memory(bad, grad[(grad.size - 1) // _BLOCK * _BLOCK :])  # in the last, partial block
            # NaN; 1e39, finite in f64 but inf once rounded to Adam's f32; and
            # 1e20, finite in f32 but a square that overflows Adam's f32 moments
            for value, kind in ((np.nan, "non-finite"), (1e39, "out-of-range"), (1e20, "out-of-range")):
                bad[...] = value
                with pytest.raises(ValueError, match=f"^{kind} gradient in layer 2 weights$"):
                    adam_step(state, net, grad)
        for after, kept in zip((net.flat, state.m, state.v), before):
            assert_same_bits(after, kept)
        assert state.t == 1


class TestAdamRange:
    """Adam refuses any gradient entry its f32 second moment could overflow on, before writing."""

    def test_limit_is_an_f32_value_below_the_overflow_bound(self):
        assert float(np.float32(_GRAD_LIMIT)) == _GRAD_LIMIT
        assert 5.7e17 < _GRAD_LIMIT < math.sqrt(float(np.finfo(np.float32).max) * (1.0 - 0.999))

    @pytest.mark.parametrize("value", [1e20, -_GRAD_LIMIT, np.nan, np.inf, -np.inf])
    def test_refused_f32_entry_writes_nothing(self, value):
        net = MLPParams.init([300, 200, 100, 3], ["leaky_relu", "leaky_relu", "linear"], RngStream(23))
        state = AdamState(lr=0.01)
        grad = RngStream(24).generator().standard_normal(net.flat.size).astype(np.float32)
        kind = "out-of-range" if np.isfinite(value) else "non-finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in a cast, a square or a comparison
            adam_step(state, net, grad)
            before = [a.copy() for a in (net.flat, state.m, state.v)]
            net.blocks(grad)[1][1][3] = value
            with pytest.raises(ValueError, match=f"^{kind} gradient in layer 1 bias$"):
                adam_step(state, net, grad)
        for after, kept in zip((net.flat, state.m, state.v), before):
            assert_same_bits(after, kept)
        assert state.t == 1

    def test_entries_just_below_the_limit_keep_the_moments_finite(self):
        # under a constant g, V tends to g^2 / (1 - beta2); 12000 steps take it
        # within 1e-5 of that fixed point, which must stay below f32's maximum
        net = MLPParams([Layer(np.zeros((1, 1)), np.zeros(1), "linear", spectral=False)])
        below = float(np.nextafter(np.float32(_GRAD_LIMIT), np.float32(0.0)))
        grad = np.array([below, -below, 0.0, 0.0])
        state = AdamState(lr=0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(12000):
                adam_step(state, net, grad)
        assert np.isfinite(state.v).all() and np.isfinite(state.m).all()
        assert state.v[0] > 0.99 * below**2 / (1.0 - 0.999)
        np.testing.assert_allclose(net.flat[:2], [-12.0, 12.0], rtol=1e-3)


class TestMixedPrecision:
    """f32 copies of a network, and gradients in the parameters' dtype."""

    def _nets(self):
        net64 = MLPParams.init([30, 40, 20, 5], ["leaky_relu", "leaky_relu", "linear"], RngStream(25))
        refresh_spectral(net64)
        return net64, net64.copy(np.float32)

    def test_copy_to_f32_is_a_rounded_twin(self):
        net64, net32 = self._nets()
        assert net32.flat.dtype == np.float32 and not np.shares_memory(net32.flat, net64.flat)
        assert_same_bits(net32.flat, net64.flat.astype(np.float32))
        for l32, l64 in zip(net32.layers, net64.layers):
            assert (l32.activation, l32.spectral) == (l64.activation, l64.spectral)
            assert all(np.shares_memory(getattr(l32, n), net32.flat) for n in ("weights", "bias", "u", "v"))

    @pytest.mark.parametrize("input_gradient", [True, False])
    def test_backward_runs_in_the_parameters_dtype(self, input_gradient):
        net64, net32 = self._nets()
        gen = RngStream(26).generator()
        x, g = gen.standard_normal((64, 30)), gen.standard_normal((64, 5))
        grads = {}
        for net in (net64, net32):
            _, cache = mlp_forward(net, x)
            grads[net.flat.dtype] = mlp_backward(net, cache, g, input_gradient=input_gradient)
        (p64, x64), (p32, x32) = grads[np.dtype(np.float64)], grads[np.dtype(np.float32)]
        assert p32.dtype == np.float32
        # within f32 rounding of the f64 gradients (64-term sums, three layers deep)
        assert np.max(np.abs(p32 - p64)) <= 1e-5 * np.max(np.abs(p64))
        if input_gradient:
            assert x32.dtype == np.float32
            assert np.max(np.abs(x32 - x64)) <= 1e-5 * np.max(np.abs(x64))
        else:
            assert x32 is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_leaky_layer_gradients_are_the_bits_of_the_derivative_product(self, dtype):
        net = MLPParams.init([7, 5], ["leaky_relu"], RngStream(27), spectral=[False]).copy(dtype)
        gen = RngStream(28).generator()
        x, g = gen.standard_normal((50, 7)).astype(dtype), gen.standard_normal((50, 5)).astype(dtype)
        _, cache = mlp_forward(net, x)
        s = cache[0]["s"]
        assert s.dtype == dtype and (s > 0).any() and (s <= 0).any()
        ds_ref = g * np.where(s > 0, 1, LEAKY_SLOPE).astype(dtype)
        dw, db, _, _ = net.blocks(mlp_backward(net, cache, g)[0])[0]
        assert_same_bits(db, np.sum(ds_ref, axis=0))
        assert_same_bits(dw, ds_ref.T @ cache[0]["x"])


class TestFlatParameters:
    def test_layer_arrays_stay_views_of_the_vector(self):
        net = MLPParams.init([4, 6, 5, 2], ["leaky_relu", "leaky_relu", "linear"], RngStream(10))

        def assert_views(params):
            for layer in params.layers:
                for arr in (layer.weights, layer.bias, layer.u, layer.v):
                    assert np.shares_memory(arr, params.flat)

        assert_views(net)
        refresh_spectral(net)
        assert_views(net)
        out, cache = mlp_forward(net, np.ones((3, 4)))
        adam_step(AdamState(lr=0.001), net, mlp_backward(net, cache, out)[0])
        assert_views(net)
        twin = net.copy()
        assert_views(twin)
        assert not np.shares_memory(twin.flat, net.flat)
        np.testing.assert_array_equal(twin.flat, net.flat)

    def test_vector_is_layer_by_layer_w_b_u_v(self):
        net = MLPParams.init([3, 4, 2], ["leaky_relu", "linear"], RngStream(12))
        packed = np.concatenate([a.ravel() for l in net.layers for a in (l.weights, l.bias, l.u, l.v)])
        np.testing.assert_array_equal(net.flat, packed)

    def test_packing_copies_the_given_arrays(self):
        w = np.eye(2)
        net = MLPParams([Layer(w, np.zeros(2), "linear", spectral=False)])
        net.flat[:] = 7.0
        np.testing.assert_array_equal(w, np.eye(2))

    def test_from_flat_checks_length(self):
        with pytest.raises(ValueError, match="does not match"):
            MLPParams.from_flat(np.zeros(5), [2, 2], ["linear"], [False])
