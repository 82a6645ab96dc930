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

import math
from dataclasses import dataclass

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
    "flat_size",
]

LEAKY_SLOPE = 0.2
_SIGMA_FLOOR = 1e-12

_ACTIVATIONS = ("leaky_relu", "linear")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Adam streams its vectors in blocks of this many entries, so that the
# block-sized arrays a training step's Adam block touches (the f32
# parameters, gradient, moments and two scratch buffers, 128 KiB each;
# 768 KiB in all) stay in a 2 MiB L2 cache.  The work is element-wise, so
# results do not depend on the block size.
_BLOCK = 32768

# Adam refuses a gradient entry of this magnitude or more.  Under a constant
# g the f32 second moment V = v / (1 - beta2) tends to g^2 / (1 - beta2), so
# |g| < sqrt(f32 max (1 - beta2)) keeps V finite; 1% off covers f32's rounding
# of beta2 and of each update.  The limit is an f32 value, so comparing it
# with an f32 gradient casts nothing that overflows.
_GRAD_LIMIT = float(np.float32(0.99 * math.sqrt(float(np.finfo(np.float32).max) * (1.0 - ADAM_BETA2))))


def _activate(s: np.ndarray, kind: str) -> np.ndarray:
    if kind == "leaky_relu":
        # equals np.where(s > 0, s, LEAKY_SLOPE * s) bit for bit, as 0 < slope < 1
        return np.maximum(s, LEAKY_SLOPE * s)
    return s


def _activate_grad(s: np.ndarray) -> np.ndarray:
    """Leaky ReLU's derivative in the dtype of ``s``; a linear layer's is 1 and is never formed."""
    return np.where(s > 0.0, s.dtype.type(1.0), s.dtype.type(LEAKY_SLOPE))


@dataclass
class Layer:
    """Affine layer ``act(x @ W.T + b)`` with optional spectral normalization.

    Its arrays take the weights' dtype: f32 weights stay f32 (a trained or
    loaded network, the frozen decoder of inference), anything else becomes
    f64.
    """

    weights: np.ndarray          # (out, in)
    bias: np.ndarray             # (out,)
    activation: str
    spectral: bool = True
    u: np.ndarray = None         # persistent left direction, (out,)
    v: np.ndarray = None         # cached right direction, (in,)

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        weights = np.asarray(self.weights)
        dtype = np.float32 if weights.dtype == np.float32 else np.float64
        self.weights = np.asarray(weights, dtype=dtype)
        self.bias = np.asarray(self.bias, dtype=dtype)
        out_dim, in_dim = self.weights.shape
        if self.bias.shape != (out_dim,):
            raise ValueError("bias shape does not chain with weights")
        if self.u is None:
            self.u = np.ones(out_dim, dtype) / dtype(np.sqrt(out_dim))
        if self.v is None:
            w_tu = self.weights.T @ self.u
            self.v = w_tu / max(float(np.linalg.norm(w_tu)), _SIGMA_FLOOR)

    def sigma(self) -> float:
        """Top-singular-value estimate from the frozen (u, v) pair."""
        return max(float(self.u @ self.weights @ self.v), _SIGMA_FLOOR)


_BLOCKS = ("weights", "bias", "u", "v")


def _layout(sizes: list[int]):
    """Every block's (layer, name, slice, shape) in vector order, and the vector length.

    The one statement of the parameter layout: per layer W (out x in,
    row-major), b, u, v.  The checkpoint blob has the same order.
    """
    blocks, start = [], 0
    for k, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        for name, shape in zip(_BLOCKS, ((n_out, n_in), (n_out,), (n_out,), (n_in,))):
            blocks.append((k, name, slice(start, start + math.prod(shape)), shape))
            start += math.prod(shape)
    return blocks, start


def flat_size(sizes: list[int]) -> int:
    """Length of the parameter vector of a network with layer widths ``sizes``."""
    return _layout(sizes)[1]


class MLPParams:
    """An ordered stack of :class:`Layer` whose arrays are views of one vector, ``flat``.

    ``flat`` has the layers' dtype: f64 for an initialized network, f32 for
    a trained or loaded one (see ``jgnn.train``) and the frozen decoder's
    trunk.
    """

    def __init__(self, layers: list[Layer]):
        """Pack the layers' arrays into a fresh vector and rebind them as views of it."""
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")
        self.sizes = [layers[0].weights.shape[1]] + [l.weights.shape[0] for l in layers]
        self.flat = np.empty(flat_size(self.sizes), np.result_type(*(l.weights for l in layers)))
        self.layers = layers
        for layer, views in zip(layers, self.blocks(self.flat)):
            for name, view in zip(_BLOCKS, views):
                view[...] = getattr(layer, name)
                setattr(layer, name, view)

    @classmethod
    def from_flat(cls, flat: np.ndarray, sizes, activations, spectral) -> "MLPParams":
        """The network whose layer arrays are views of ``flat`` itself."""
        if flat.shape != (flat_size(sizes),) or not len(activations) == len(spectral) == len(sizes) - 1:
            raise ValueError("parameter vector does not match the layer sizes")
        net = cls.__new__(cls)
        net.sizes, net.flat = list(sizes), flat
        net.layers = [
            Layer(w, b, act, spectral=bool(sn), u=u, v=v)
            for (w, b, u, v), act, sn in zip(net.blocks(flat), activations, spectral)
        ]
        return net

    def blocks(self, vec: np.ndarray) -> list[tuple]:
        """Per layer, the (W, b, u, v) views of ``vec``, a vector laid out like ``flat``."""
        views = [vec[s].reshape(shape) for _, _, s, shape in _layout(self.sizes)[0]]
        return [tuple(views[i : i + 4]) for i in range(0, len(views), 4)]

    @classmethod
    def init(cls, sizes: list[int], activations: list[str], rng: RngStream, spectral: list[bool] | None = None):
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
            layers.append(Layer(w, np.zeros(n_out), activations[k], spectral=bool(spectral[k]), u=u))
        return cls(layers)

    def copy(self, dtype=None) -> "MLPParams":
        """A network on a fresh vector, in ``dtype`` (default: the same dtype)."""
        acts, sn = [l.activation for l in self.layers], [l.spectral for l in self.layers]
        return MLPParams.from_flat(self.flat.astype(dtype or self.flat.dtype), self.sizes, acts, sn)


def refresh_spectral(params: MLPParams) -> None:
    """Advance each spectral layer's (u, v) by one power iteration, in place."""
    for layer in params.layers:
        if not layer.spectral:
            continue
        v = layer.weights.T @ layer.u
        v /= max(float(np.linalg.norm(v)), _SIGMA_FLOOR)
        u = layer.weights @ v
        u /= max(float(np.linalg.norm(u)), _SIGMA_FLOOR)
        layer.v[...] = v
        layer.u[...] = u


def mlp_forward(params: MLPParams, x: np.ndarray):
    """Batched forward pass in the dtype of ``params.flat``.

    A ``spectral`` layer divides ``x @ W.T`` by its sigma estimate in place,
    forming no ``W / sigma``; on the identity batch with zero bias this is
    exactly ``weights / sigma``, the fold of inference copies of the layer.
    The input is cast to the parameters' dtype, so an f32 network (the
    frozen decoder's trunk) computes and returns f32.

    Args:
        params: the network.
        x: input batch, shape (n, in_dim).

    Returns:
        (output batch, cache) where the cache, per layer ``x``, ``s`` and
        ``sigma`` (None if not spectral), feeds :func:`mlp_backward`.
    """
    h = np.atleast_2d(np.asarray(x, dtype=params.flat.dtype))
    if h.shape[1] != params.sizes[0]:
        raise ValueError(f"input dim {h.shape[1]} does not match first layer {params.sizes[0]}")
    cache = []
    for layer in params.layers:
        sigma = layer.sigma() if layer.spectral else None
        s = h @ layer.weights.T
        if sigma is not None:
            s /= sigma
        s += layer.bias
        cache.append({"x": h, "s": s, "sigma": sigma})
        h = _activate(s, layer.activation)
    return h, cache


def mlp_backward(params: MLPParams, cache, output_gradient: np.ndarray, input_gradient: bool = True):
    """Reverse-mode gradients of a cached forward pass, in the dtype of ``params.flat``.

    The output gradient is cast to the parameters' dtype, so an f32 network
    (training's) makes every GEMM and both returned gradients f32.

    Args:
        input_gradient: False skips the first layer's input-gradient GEMM,
            for callers that discard that gradient.

    Returns:
        (grad, input_gradient): ``grad`` is one vector in the layout of
        ``params.flat``, zero in the u and v slots; ``input_gradient`` has
        the input batch shape, or is None when not asked for.
    """
    g = np.atleast_2d(np.asarray(output_gradient, dtype=params.flat.dtype))
    if len(cache) != len(params.layers):
        raise ValueError("cache does not match network depth")
    if g.shape != cache[-1]["s"].shape:
        raise ValueError("output gradient shape does not match cached forward")
    # every W and b slot is written below; only u and v need zeros
    grad = np.empty_like(params.flat)
    blocks = params.blocks(grad)
    for k in range(len(params.layers) - 1, -1, -1):
        layer, ck = params.layers[k], cache[k]
        dw, db, du, dv = blocks[k]
        du[...] = 0.0
        dv[...] = 0.0
        ds = g if layer.activation == "linear" else g * _activate_grad(ck["s"])
        np.sum(ds, axis=0, out=db)
        a, x = ds, ck["x"]
        if ck["sigma"] is not None:
            # W / (u'Wv), u and v frozen: dW = dW_eff/sigma - <dW_eff, W>/sigma^2 u v' with
            # <dW_eff, W> = sigma <ds, s - b>, so dW = [ds; -<ds, s - b> u']' [x; v'] / sigma
            a = np.vstack([ds, -float(np.vdot(ds, ck["s"] - layer.bias)) * layer.u])
            a /= ck["sigma"]
            x = np.vstack([x, layer.v])
        np.matmul(a.T, x, out=dw)
        g = a[: ds.shape[0]] @ layer.weights if k > 0 or input_gradient else None
    return grad, g


@dataclass
class AdamState:
    """Adam's step count and scaled moment vectors, in the network's parameter layout.

    ``m`` and ``v`` hold Kingma & Ba's moments without their (1 - beta)
    factors, M = m_t / (1 - beta1) and V = v_t / (1 - beta2), as f32
    vectors; both are None, which :func:`adam_step` reads as zero, before
    the first step.
    """

    lr: float
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: MLPParams, grad: np.ndarray, block_prefix: str = "layer"):
    """Bias-corrected Adam update of ``params.flat``, applied in place.

    Kingma & Ba's update with both bias corrections and the (1 - beta)
    factors moved into three scalars of the step count t ("Adam", ICLR 2015,
    section 2).  With k = sqrt((1 - b2) / (1 - b2^t)),
    alpha = lr (1 - b1) / ((1 - b1^t) k) and eps' = eps / k, it runs

        g' = f32(g),  M <- b1 M + g',  V <- b2 V + g'^2,
        p <- p - alpha M / (sqrt(V) + eps'),

    which is lr m_hat / (sqrt(v_hat) + eps) up to f32 rounding.  The step is
    computed in f32 and subtracted from the parameters in their own dtype
    (f32 in training).  ``grad``, f32 or f64, is a vector in the layout of
    ``params.flat``; its zero u and v entries leave zero moments and a zero
    step there.  The whole gradient is checked before anything is written;
    the update then runs over ``_BLOCK``-sized slices with two scratch
    buffers, so it streams through cache instead of making whole-vector
    temporaries.

    Raises:
        ValueError: naming the offending block if a gradient entry is NaN,
            infinite, or of magnitude ``_GRAD_LIMIT`` (~5.8e17) or more,
            where the f32 second moment could overflow.
    """
    if grad.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grad.shape} does not fit {block_prefix} parameters {params.flat.shape}")
    # min and max carry a NaN through, and a NaN fails either comparison
    if not (-_GRAD_LIMIT < grad.min() and grad.max() < _GRAD_LIMIT):
        first = np.flatnonzero(~(np.abs(grad) < _GRAD_LIMIT))[0]
        layer, name = next((k, name) for k, name, s, _ in _layout(params.sizes)[0] if first < s.stop)
        kind = "non-finite" if not np.isfinite(grad[first]) else "out-of-range"
        raise ValueError(f"{kind} gradient in {block_prefix} {layer} {name}")
    if state.m is None:
        state.m, state.v = np.zeros(grad.size, np.float32), np.zeros(grad.size, np.float32)
    state.t += 1
    k = math.sqrt((1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2**state.t))
    alpha = state.lr * (1.0 - ADAM_BETA1) / ((1.0 - ADAM_BETA1**state.t) * k)
    eps = ADAM_EPS / k
    n = min(_BLOCK, grad.size)
    g32, step = np.empty(n, np.float32), np.empty(n, np.float32)
    for start in range(0, grad.size, _BLOCK):
        blk = slice(start, start + _BLOCK)
        p, m, v = params.flat[blk], state.m[blk], state.v[blk]
        g, a = g32[: p.size], step[: p.size]
        g[...] = grad[blk]
        m *= ADAM_BETA1
        m += g
        g *= g
        v *= ADAM_BETA2
        v += g
        np.sqrt(v, out=g)
        g += eps
        np.multiply(m, alpha, out=a)
        a /= g
        p -= a
    return params, state
