"""Dense-network kernels: forward, reverse-mode gradients, Adam, spectral norm."""

import numpy as np
import pytest

from latent_abcss.neural import (
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
    grads, _ = mlp_backward(net, cache, out)  # loss = 0.5 * sum(out^2)
    return 0.5 * float(np.sum(out * out)), grads


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

    def test_input_dimension_checked(self):
        net = MLPParams([Layer(np.eye(3), np.zeros(3), "linear")])
        with pytest.raises(ValueError, match="input dim"):
            mlp_forward(net, np.ones((2, 4)))


class TestMlpBackward:
    def test_scalar_chain_rule(self):
        # loss = 0.5 y^2 with y = w x, w = 1, x = 2 -> dL/dw = y x = 4
        net = MLPParams([Layer(np.array([[1.0]]), np.zeros(1), "linear", spectral=False)])
        out, cache = mlp_forward(net, np.array([[2.0]]))
        grads, gx = mlp_backward(net, cache, out)
        assert grads[0][0][0, 0] == pytest.approx(4.0)
        assert gx[0, 0] == pytest.approx(2.0)  # dL/dx = y w

    def test_zero_output_gradient(self):
        net = MLPParams.init([3, 4, 2], ["leaky_relu", "linear"], RngStream(0))
        out, cache = mlp_forward(net, np.ones((5, 3)))
        grads, gx = mlp_backward(net, cache, np.zeros_like(out))
        for dw, db in grads:
            np.testing.assert_array_equal(dw, 0.0)
            np.testing.assert_array_equal(db, 0.0)
        np.testing.assert_array_equal(gx, 0.0)

    @pytest.mark.parametrize("act", ["leaky_relu", "linear"])
    def test_finite_difference_all_activations(self, act):
        rng = RngStream(1)
        net = MLPParams.init([4, 6, 3], [act, "linear"], rng, spectral=[True, False])
        refresh_spectral(net)
        x = RngStream(2).generator().standard_normal((7, 4))
        _, grads = _loss_and_grads(net, x)
        h = 1e-5
        worst = 0.0
        for k, layer in enumerate(net.layers):
            for arr, g in ((layer.weights, grads[k][0]), (layer.bias, grads[k][1])):
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


class TestAdamStep:
    def _one_layer(self, w0):
        return MLPParams([Layer(np.array([[w0]]), np.zeros(1), "linear", spectral=False)])

    def test_first_step_magnitude_is_lr(self):
        net = self._one_layer(5.0)
        state = AdamState()
        adam_step(state, net, [(np.array([[1.0]]), np.zeros(1))])
        assert net.layers[0].weights[0, 0] == pytest.approx(5.0 - 0.001, abs=1e-6)

    def test_zero_gradient_no_motion(self):
        net = self._one_layer(2.0)
        state = AdamState()
        for _ in range(10):
            adam_step(state, net, [(np.zeros((1, 1)), np.zeros(1))])
        assert net.layers[0].weights[0, 0] == pytest.approx(2.0)

    def test_converges_on_quadratic(self):
        # minimize (w - 3)^2 from w = 0; at lr = 0.001 the 1e-2 ball is
        # reached just before step 5800
        net = self._one_layer(0.0)
        state = AdamState()
        for _ in range(5000):
            w = net.layers[0].weights[0, 0]
            adam_step(state, net, [(np.array([[2.0 * (w - 3.0)]]), np.zeros(1))])
        assert abs(net.layers[0].weights[0, 0] - 3.0) < 0.1
        for _ in range(1000):
            w = net.layers[0].weights[0, 0]
            adam_step(state, net, [(np.array([[2.0 * (w - 3.0)]]), np.zeros(1))])
        assert abs(net.layers[0].weights[0, 0] - 3.0) < 1e-2

    def test_non_finite_gradient_names_block(self):
        net = MLPParams.init([2, 2], ["linear"], RngStream(6))
        state = AdamState()
        with pytest.raises(ValueError, match="layer 0 weights"):
            adam_step(state, net, [(np.full((2, 2), np.nan), np.zeros(2))])
