"""Minimal dense-network machinery: forward/backward, Adam, spectral norm.

Nothing here is a general autodiff system.  Networks are plain stacks of
affine layers with fixed activations, gradients are hand-derived reverse-mode
passes over a cached forward, and spectral normalization follows the usual
one-power-iteration-per-step recipe with persistent direction vectors.

During differentiation the per-layer direction vectors (u, v) are treated as
constants, so the effective weight ``W / (u' W v)`` is a smooth function of
``W`` and analytic gradients match finite differences exactly.  The vectors
are refreshed once per optimizer step via :func:`refresh_spectral`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng_linalg import RngStream

__all__ = [
    "Layer",
    "MLPParams",
    "AdamState",
    "LEAKY_SLOPE",
    "mlp_forward",
    "mlp_backward",
    "refresh_spectral",
    "adam_step",
]

LEAKY_SLOPE = 0.2
_SIGMA_FLOOR = 1e-12

_ACTIVATIONS = ("leaky_relu", "linear")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _activate(s: np.ndarray, kind: str) -> np.ndarray:
    if kind == "leaky_relu":
        # equals np.where(s > 0, s, LEAKY_SLOPE * s) bit for bit, as 0 < slope < 1
        return np.maximum(s, LEAKY_SLOPE * s)
    return s


def _activate_grad(s: np.ndarray, kind: str) -> np.ndarray:
    if kind == "leaky_relu":
        return np.where(s > 0.0, 1.0, LEAKY_SLOPE)
    return np.ones_like(s)


@dataclass
class Layer:
    """Affine layer ``act(x @ W.T + b)`` with optional spectral normalization."""

    weights: np.ndarray          # (out, in)
    bias: np.ndarray             # (out,)
    activation: str
    spectral: bool = True
    u: np.ndarray = None         # persistent left direction, (out,)
    v: np.ndarray = None         # cached right direction, (in,)

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        out_dim, in_dim = self.weights.shape
        if self.bias.shape != (out_dim,):
            raise ValueError("bias shape does not chain with weights")
        if self.u is None:
            self.u = np.ones(out_dim) / np.sqrt(out_dim)
        if self.v is None:
            w_tu = self.weights.T @ self.u
            self.v = w_tu / max(float(np.linalg.norm(w_tu)), _SIGMA_FLOOR)

    def sigma(self) -> float:
        """Top-singular-value estimate from the frozen (u, v) pair."""
        return max(float(self.u @ self.weights @ self.v), _SIGMA_FLOOR)


class MLPParams:
    """An ordered stack of :class:`Layer`."""

    def __init__(self, layers: list[Layer]):
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    @classmethod
    def init(
        cls,
        sizes: list[int],
        activations: list[str],
        rng: RngStream,
        spectral: list[bool] | None = None,
    ) -> "MLPParams":
        """Uniform(-1, 1)/sqrt(fan_in) weights, zero biases, random unit u."""
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        if spectral is None:
            spectral = [True] * len(activations)
        gen = rng.generator()
        layers = []
        for k, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
            w = gen.uniform(-1.0, 1.0, size=(n_out, n_in)) / np.sqrt(n_in)
            u = gen.standard_normal(n_out)
            u /= max(float(np.linalg.norm(u)), _SIGMA_FLOOR)
            layers.append(
                Layer(w, np.zeros(n_out), activations[k], spectral=bool(spectral[k]), u=u)
            )
        return cls(layers)

    def copy(self) -> "MLPParams":
        return MLPParams(
            [
                Layer(
                    l.weights.copy(),
                    l.bias.copy(),
                    l.activation,
                    spectral=l.spectral,
                    u=l.u.copy(),
                    v=l.v.copy(),
                )
                for l in self.layers
            ]
        )


def refresh_spectral(params: MLPParams) -> None:
    """Advance each spectral layer's (u, v) by one power iteration, in place."""
    for layer in params.layers:
        if not layer.spectral:
            continue
        v = layer.weights.T @ layer.u
        v /= max(float(np.linalg.norm(v)), _SIGMA_FLOOR)
        u = layer.weights @ v
        u /= max(float(np.linalg.norm(u)), _SIGMA_FLOOR)
        layer.v = v
        layer.u = u


def mlp_forward(params: MLPParams, x: np.ndarray):
    """Batched forward pass.

    Each layer flagged ``spectral`` divides its weights by its sigma
    estimate before use.

    Args:
        params: the network.
        x: input batch, shape (n, in_dim).

    Returns:
        (output batch, cache) where the cache feeds :func:`mlp_backward`.
    """
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if h.shape[1] != params.in_dim:
        raise ValueError(f"input dim {h.shape[1]} does not match first layer {params.in_dim}")
    cache = []
    for layer in params.layers:
        use_sn = layer.spectral
        sigma = layer.sigma() if use_sn else 1.0
        # dividing by exactly 1.0 would only copy the weights
        w_eff = layer.weights / sigma if use_sn else layer.weights
        s = h @ w_eff.T + layer.bias
        cache.append({"x": h, "s": s, "sigma": sigma, "use_sn": use_sn})
        h = _activate(s, layer.activation)
    return h, cache


def mlp_backward(params: MLPParams, cache, output_gradient: np.ndarray):
    """Reverse-mode gradients of a cached forward pass.

    Returns:
        (grads, input_gradient): ``grads`` is a list of (dW, db) matching
        ``params.layers``; ``input_gradient`` has the input batch shape.
    """
    g = np.atleast_2d(np.asarray(output_gradient, dtype=np.float64))
    if len(cache) != len(params.layers):
        raise ValueError("cache does not match network depth")
    if g.shape != cache[-1]["s"].shape:
        raise ValueError("output gradient shape does not match cached forward")
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    for k in range(len(params.layers) - 1, -1, -1):
        layer, ck = params.layers[k], cache[k]
        ds = g * _activate_grad(ck["s"], layer.activation)
        d_weff = ds.T @ ck["x"]
        db = ds.sum(axis=0)
        if ck["use_sn"]:
            sigma = ck["sigma"]
            # W_eff = W / (u'Wv) with u, v frozen:
            # dW = dW_eff/sigma - <dW_eff, W>/sigma^2 * u v'
            inner = float(np.sum(d_weff * layer.weights))
            dw = d_weff / sigma - (inner / sigma**2) * np.outer(layer.u, layer.v)
            g = ds @ (layer.weights / sigma)
        else:
            dw = d_weff
            g = ds @ layer.weights
        grads[k] = (dw, db)
    return grads, g


@dataclass
class AdamState:
    """First/second moment buffers, one pair per (dW, db) block."""

    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    lr: float = 0.001


def adam_step(state: AdamState, params: MLPParams, grads, block_prefix: str = "layer"):
    """Standard bias-corrected Adam update, applied in place.

    Raises:
        ValueError: naming the offending block if a gradient is non-finite.
    """
    if not state.m:
        for layer in params.layers:
            state.m.append([np.zeros_like(layer.weights), np.zeros_like(layer.bias)])
            state.v.append([np.zeros_like(layer.weights), np.zeros_like(layer.bias)])
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for k, (layer, (dw, db)) in enumerate(zip(params.layers, grads)):
        for name, target, grad, m, v in (
            ("weights", layer.weights, dw, state.m[k][0], state.v[k][0]),
            ("bias", layer.bias, db, state.m[k][1], state.v[k][1]),
        ):
            if not np.all(np.isfinite(grad)):
                raise ValueError(f"non-finite gradient in {block_prefix} {k} {name}")
            if grad.shape != target.shape:
                raise ValueError(f"gradient shape mismatch in {block_prefix} {k} {name}")
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            target -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state
