"""Joint generative model over (field, travel-time) couples and its training.

One encoder maps a couple to a latent vector; one decoder maps latents back
through a shared trunk that splits into a field head and a travel-time head.
Training minimizes reconstruction MSE of both variables (each normalized by
its dimension) on ``[x | y]`` rows, standardized column by column by one
:class:`Standardizer` fitted to the training rows, plus a scheduled multiple
of the entropic transport cost between the batch encodings and fresh draws
from the standard-normal latent prior.  That latent term is what pushes the
aggregate encoding distribution onto the prior, so that decoding prior
draws samples the learned joint distribution.

Training updates f32 copies of the networks, so every GEMM of the loss and
of validation is f32.  The reconstruction residual, the transport costs,
Sinkhorn and the latent term's point gradients stay f64; an f32 Gibbs kernel
would underflow once |c| / reg exceeds ~87.  Trained and loaded models stay
f32; :func:`encode` and the decoder's fold widen a transient copy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .rng_linalg import RngStream, write_csv, write_json
from .neural import AdamState, Layer, MLPParams, _activate, adam_step, flat_size
from .neural import mlp_backward, mlp_forward, refresh_spectral
from .sinkhorn import SinkhornConfig, _plain_entropic_ot, cost_matrix, ot_point_gradient

__all__ = [
    "Standardizer",
    "JGNNModel",
    "TrainConfig",
    "TrainHistory",
    "TrainingDiverged",
    "FrozenPlans",
    "lambda_schedule",
    "jgnn_loss",
    "train",
    "generate",
    "encode",
    "g1_of_latent",
    "g2_of_latent",
    "save_model",
    "load_model",
]

_STD_FLOOR = 1e-12
# Adam's step size for both networks, and the share of couples held out for validation
_LEARNING_RATE = 0.001
_VAL_FRACTION = 0.1
# the latent term's weight at epoch 0, halved every lambda_halving_period epochs
_LAMBDA0 = 150.0
# the latent term's Sinkhorn regularization and budget (TrainConfig sets the
# tol stop).  reg 10 rather than the heavier smoothing used for plain cost
# estimates: above ~the squared cloud diameter the debiased cost's scale
# sensitivity fades to mean-matching only, and the encodings never spread to
# the prior; at reg 10 the aggregate-matching invariant is reached quickly
_SINKHORN_REG = 10.0
_SINKHORN_MAX_ITER = 40


@dataclass
class Standardizer:
    """Per-column affine map of ``[x | y]`` rows into network space, ``(v - mean) / std``."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> "Standardizer":
        return cls(rows.mean(axis=0), np.maximum(rows.std(axis=0), _STD_FLOOR))

    def standardize(self, rows: np.ndarray) -> np.ndarray:
        """Standardize the f64 ``[x | y]`` rows in place and return them."""
        rows -= self.mean
        rows /= self.std
        return rows


class JGNNModel:
    """Encoder, decoder with two heads, latent prior, standardization."""

    def __init__(
        self,
        encoder: MLPParams,
        decoder: MLPParams,
        dim_x: int,
        dim_y: int,
        latent_dim: int,
        standardizer: Standardizer | None = None,
    ):
        if (encoder.sizes[0], encoder.sizes[-1]) != (dim_x + dim_y, latent_dim):
            raise ValueError("encoder dimensions do not match (dim_x + dim_y) -> latent")
        if (decoder.sizes[0], decoder.sizes[-1]) != (latent_dim, dim_x + dim_y):
            raise ValueError("decoder dimensions do not match latent -> (dim_x + dim_y)")
        self.encoder = encoder
        self.decoder = decoder
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.latent_dim = latent_dim
        dim = dim_x + dim_y
        self.standardizer = standardizer or Standardizer(np.zeros(dim), np.ones(dim))

    @classmethod
    def init(
        cls,
        dim_x: int,
        dim_y: int,
        latent_dim: int,
        rng: RngStream,
        hidden: tuple[int, ...],
    ) -> "JGNNModel":
        """Fresh model; output heads are exempt from spectral normalization.

        A strictly norm-capped decoder cannot expand a low-dimensional latent
        onto high-dimensional standardized outputs, so the final affine layer
        of both networks keeps raw weights while every hidden layer is
        normalized.
        """
        acts = ["leaky_relu"] * len(hidden) + ["linear"]
        sn = [True] * len(hidden) + [False]
        encoder = MLPParams.init(
            [dim_x + dim_y, *hidden, latent_dim], acts, rng.split(0), spectral=sn
        )
        decoder = MLPParams.init(
            [latent_dim, *hidden, dim_x + dim_y], acts, rng.split(1), spectral=sn
        )
        return cls(encoder, decoder, dim_x, dim_y, latent_dim)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5000
    batch_size: int = 128
    lambda_halving_period: int = 500
    sinkhorn_tol: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.lambda_halving_period) < 1:
            raise ValueError("epochs, batch_size and lambda_halving_period must be positive")
        if not self.sinkhorn_tol >= 0:  # NaN fails too
            raise ValueError("sinkhorn_tol must be nonnegative")


@dataclass
class TrainHistory:
    """Per-epoch training metrics (standardized space), and the epoch of the returned networks."""

    mse_x: list = field(default_factory=list)
    mse_y: list = field(default_factory=list)
    ot_term: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    val_mse_x: list = field(default_factory=list)
    val_mse_y: list = field(default_factory=list)
    best_epoch: int | None = None

    def to_csv(self, path: str) -> None:
        cols = (self.mse_x, self.mse_y, self.ot_term, self.lam, self.val_mse_x, self.val_mse_y)
        write_csv(
            path,
            ["epoch", "mse_x", "mse_y", "ot_term", "lambda", "val_mse_x", "val_mse_y"],
            ((e, *row) for e, row in enumerate(zip(*cols))),
        )


class TrainingDiverged(RuntimeError):
    """A training or validation loss became non-finite; carries the history up to the failure."""

    def __init__(self, epoch: int, history: TrainHistory):
        self.epoch = epoch
        self.history = history
        super().__init__(f"training loss became non-finite at epoch {epoch}")


def lambda_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Latent-term weight: start at ``_LAMBDA0``, halve every halving period."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return _LAMBDA0 * 0.5 ** (epoch // cfg.lambda_halving_period)


@dataclass
class FrozenPlans:
    """The cross plan (encodings to draws) and the encodings' self plan.

    Held fixed for differentiation; the prior draws' self term carries no
    gradient and is not part of the loss (see :func:`jgnn_loss`).
    """

    plan_zp: np.ndarray
    plan_zz: np.ndarray


@dataclass
class LossResult:
    loss: float
    mse_x: float
    mse_y: float
    ot_cost: float
    encoder_grad: np.ndarray
    decoder_grad: np.ndarray
    plans: FrozenPlans


def jgnn_loss(
    batch: np.ndarray,
    model: JGNNModel,
    lam: float,
    sinkhorn_cfg: SinkhornConfig,
    prior_draws: np.ndarray,
    frozen_plans: "FrozenPlans | None" = None,
) -> LossResult:
    """Loss and gradients for one batch of standardized ``[x | y]`` rows, the encoder's input.

    loss = MSE_x + MSE_y + lam * (OT(z, p) - OT(z, z) / 2)

    where each MSE is normalized by its variable's dimension and the batch
    size, z are the batch encodings, p the prior draws, and each OT is a
    plain entropic transport cost <P, C> at the configured budget.  The
    latent term (``ot_cost``) is the debiased Sinkhorn divergence

        S(z, p) = OT(z, p) - OT(z, z) / 2 - OT(p, p) / 2

    plus OT(p, p) / 2, which does not depend on the model, carries no
    gradient and is not solved.  The plain cost at a large regularization
    degenerates toward the independent-coupling energy, whose minimizer
    collapses the encodings onto the prior mean; the self term cancels that
    pressure, so the batch encodings spread to match the prior instead.

    Transport plans are treated as constants during differentiation
    (envelope-style).  Each batch makes two Sinkhorn solves, for P_zp and
    P_zz; passing ``frozen_plans`` skips them and evaluates the loss for
    those fixed plans, which is the exact function the analytic gradient
    differentiates; the finite-difference checks rely on this.
    """
    batch = np.atleast_2d(batch)
    n = batch.shape[0]
    if n == 0:
        raise ValueError("batch must be nonempty")
    if prior_draws.shape != (n, model.latent_dim):
        raise ValueError("prior draws must match (batch, latent_dim)")

    z, enc_cache = mlp_forward(model.encoder, batch)
    out, dec_cache = mlp_forward(model.decoder, z)
    residual = out - batch
    mse_x, mse_y = _block_mses(residual, model.dim_x)

    c_zp = cost_matrix(z, prior_draws)
    c_zz = cost_matrix(z, z)
    if frozen_plans is None:
        frozen_plans = FrozenPlans(
            _plain_entropic_ot(c_zp, sinkhorn_cfg).plan, _plain_entropic_ot(c_zz, sinkhorn_cfg).plan
        )
    plan_zp, plan_zz = frozen_plans.plan_zp, frozen_plans.plan_zz
    ot_cost = float(np.sum(plan_zp * c_zp)) - 0.5 * float(np.sum(plan_zz * c_zz))
    loss = mse_x + mse_y + lam * ot_cost
    if not np.isfinite(loss):
        raise ValueError("non-finite loss")

    # the residual, scaled in place block by block, is d(MSE_x + MSE_y) / d out
    residual *= 2.0
    residual[:, : model.dim_x] /= n * model.dim_x
    residual[:, model.dim_x :] /= n * model.dim_y
    dec_grad, dz_rec = mlp_backward(model.decoder, dec_cache, residual)
    # self-transport: z enters both sides, so the envelope gradient sums the
    # source-side terms of the plan and of its transpose
    dz_zz = ot_point_gradient(z, z, plan_zz) + ot_point_gradient(z, z, plan_zz.T)
    dz = dz_rec + lam * (ot_point_gradient(z, prior_draws, plan_zp) - 0.5 * dz_zz)
    # the decoder's input gradient feeds dz; the encoder's would be discarded
    enc_grad, _ = mlp_backward(model.encoder, enc_cache, dz, input_gradient=False)
    return LossResult(loss, mse_x, mse_y, ot_cost, enc_grad, dec_grad, frozen_plans)


def _block_mses(residual: np.ndarray, dim_x: int) -> tuple[float, float]:
    """The mean squares of a ``[x | y]`` residual's field block and travel-time block."""
    rx, ry = residual[:, :dim_x], residual[:, dim_x:]
    return float(np.mean(rx * rx)), float(np.mean(ry * ry))


def _n_val(n: int) -> int:
    """How many of ``n`` couples :func:`train` holds out for validation."""
    return max(1, int(round(_VAL_FRACTION * n)))


def train(
    xs: np.ndarray,
    ys: np.ndarray,
    model: JGNNModel,
    cfg: TrainConfig,
) -> tuple[JGNNModel, TrainHistory]:
    """Mini-batch Adam training in f32; returns the best-validation checkpoint.

    ``model``'s networks are copied to f32 once, and Adam updates those
    copies in place; each step's spectral refresh, the loss and its
    gradients and the validation forward all run on them, so every network
    GEMM is f32, while the residual, transport costs and Sinkhorn stay f64.
    The couples are concatenated once into ``[x | y]`` rows, a
    :class:`Standardizer` is fitted to the training rows and standardizes
    the whole array in place; a batch is one gather of it.
    ``model`` itself is left as it is: the fitted standardizer goes on the
    returned model only.

    What training keeps is that one array, the f32 networks, their best
    snapshot, Adam's moments and the current step's loss and gradients,
    dropped once both Adam steps have read them.  ``xs``, ``ys`` and
    ``model`` stay referenced by the caller for the whole call, so a
    caller that needs none of them afterwards, as
    :func:`workflows.train_from_dataset` does, calls
    :func:`_prepare_training` and :func:`_train_loop` itself and keeps no
    reference to them in between.

    A seeded fraction of the couples is held out; after every epoch the
    validation reconstruction MSE (standardized space) is computed on the
    f32 networks, the weights :func:`save_model` stores.  The networks of
    the first epoch with the lowest total, ``history.best_epoch``, are
    snapshotted, and the returned model's networks are that f32 snapshot,
    so they are its checkpoint's values bit for bit and their forward gives
    the recorded validation figures exactly.
    Deterministic per seed.

    Each batch takes the encoder's Adam step, then the decoder's, on the
    calling thread; the package starts no thread, so BLAS is its only
    parallelism.

    Raises:
        ValueError: before any work, if ``xs`` and ``ys`` differ in rows,
            their columns from ``model``'s dimensions, or the training split
            is smaller than a batch.
        TrainingDiverged: on a non-finite batch loss or validation MSE, or a
            gradient entry Adam refuses (NaN, infinite or beyond f32 range).
    """
    return _train_loop(*_prepare_training(xs, ys, model, cfg), cfg)


def _prepare_training(
    xs: np.ndarray, ys: np.ndarray, model: JGNNModel, cfg: TrainConfig
) -> tuple[np.ndarray, JGNNModel]:
    """:func:`train`'s checks, then its f64 ``[x | y]`` rows and an f32 copy of ``model``'s networks.

    The returned model's standardizer is the identity; neither return value
    refers to ``xs``, ``ys`` or ``model``.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    if xs.shape[0] != ys.shape[0]:
        raise ValueError(f"xs has {xs.shape[0]} rows but ys has {ys.shape[0]}")
    if (xs.shape[1], ys.shape[1]) != (model.dim_x, model.dim_y):
        raise ValueError(
            f"data has dim_x {xs.shape[1]} and dim_y {ys.shape[1]}, the model {model.dim_x} and {model.dim_y}"
        )
    n_train = xs.shape[0] - _n_val(xs.shape[0])
    if n_train < cfg.batch_size:
        raise ValueError(f"dataset leaves {n_train} training couples for batch size {cfg.batch_size}")
    nets = (model.encoder.copy(np.float32), model.decoder.copy(np.float32))
    return np.concatenate([xs, ys], axis=1), JGNNModel(*nets, model.dim_x, model.dim_y, model.latent_dim)


def _train_loop(data: np.ndarray, model: JGNNModel, cfg: TrainConfig) -> tuple[JGNNModel, TrainHistory]:
    """:func:`train`'s loop on the rows and f32 model :func:`_prepare_training` returned.

    Standardizes ``data`` in place with a fit on its training rows and steps
    ``model``'s networks in place; returns the best snapshot with that
    standardizer, and the history.  Each step's loss result, gradients
    included, is dropped once the Adam steps and the epoch sums have read
    it, before the next step allocates its own.
    """
    n = data.shape[0]
    rng = RngStream(cfg.seed, stream_id=17)
    sinkhorn_cfg = SinkhornConfig(reg=_SINKHORN_REG, max_iter=_SINKHORN_MAX_ITER, tol=cfg.sinkhorn_tol)

    n_val = _n_val(n)
    perm = rng.split(0).generator().permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    standardizer = Standardizer.fit(data[train_idx])
    standardizer.standardize(data)
    val = data[val_idx]

    enc_state = AdamState(lr=_LEARNING_RATE)
    dec_state = AdamState(lr=_LEARNING_RATE)
    history = TrainHistory()
    n_batches = train_idx.size // cfg.batch_size
    dims = (model.dim_x, model.dim_y, model.latent_dim)
    nets = (model.encoder, model.decoder)
    best_val = np.inf
    best = [net.copy() for net in nets]

    for epoch in range(cfg.epochs):
        lam = lambda_schedule(epoch, cfg)
        order = rng.split(1, epoch).generator().permutation(train_idx.size)
        ep_mx = ep_my = ep_ot = 0.0
        for b in range(n_batches):
            idx = train_idx[order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]
            for net in nets:
                refresh_spectral(net)
            draws = rng.split(2, epoch, b).generator().standard_normal((cfg.batch_size, model.latent_dim))
            try:
                res = jgnn_loss(data[idx], model, lam, sinkhorn_cfg, draws)
                adam_step(enc_state, model.encoder, res.encoder_grad, "encoder layer")
                adam_step(dec_state, model.decoder, res.decoder_grad, "decoder layer")
            except ValueError as err:
                raise TrainingDiverged(epoch, history) from err
            ep_mx += res.mse_x
            ep_my += res.mse_y
            ep_ot += res.ot_cost
            del res  # its two gradients would otherwise live through the next jgnn_loss

        z, _ = mlp_forward(model.encoder, val)
        out, _ = mlp_forward(model.decoder, z)
        vmx, vmy = _block_mses(out - val, model.dim_x)
        history.mse_x.append(ep_mx / n_batches)
        history.mse_y.append(ep_my / n_batches)
        history.ot_term.append(ep_ot / n_batches)
        history.lam.append(lam)
        history.val_mse_x.append(vmx)
        history.val_mse_y.append(vmy)
        if not np.isfinite(vmx + vmy):  # a NaN would never beat best_val, leaving the initial weights
            raise TrainingDiverged(epoch, history)
        if vmx + vmy < best_val:
            best_val = vmx + vmy
            history.best_epoch = epoch
            for snapshot, net in zip(best, nets):
                snapshot.flat[...] = net.flat

    return JGNNModel(*best, *dims, standardizer), history


@dataclass(frozen=True)
class _DecoderView:
    """The decoder frozen for inference in f32, built once per model.

    ``trunk`` holds non-spectral f32 copies of every layer but the output
    layer, sigma folded in as ``weights / sigma`` in f64 (a spectral
    :func:`mlp_forward` on the identity batch, bit for bit) and rounded once
    to f32, or is ``None`` with no hidden layer.  The output layer is split
    into a field head (rows ``[:dim_x]``) and a travel-time head (rows
    ``[dim_x:]``), each ``(w_eff, bias, activation, mean, std)``: its f32
    rows of the layer and the f64 standardizer slice of its columns, which
    de-standardize its output.  A view made for one variable has the other
    head set to ``None``, so its rows are never evaluated.  The fold runs on an f64 copy of the decoder, so an
    f32 model (trained or loaded) and its f64 widening give the same view.
    """

    latent_dim: int
    trunk: MLPParams | None
    x_head: tuple | None
    y_head: tuple | None


def _decoder_view(model: JGNNModel | _DecoderView) -> _DecoderView:
    """The frozen f32 decoder of ``model``; a view is returned as it is."""
    if isinstance(model, _DecoderView):
        return model
    *trunk, out = [
        Layer(
            (l.weights / l.sigma() if l.spectral else l.weights).astype(np.float32),
            l.bias.astype(np.float32),
            l.activation,
            spectral=False,
        )
        for l in model.decoder.copy(np.float64).layers
    ]
    std = model.standardizer
    x_head, y_head = (
        (out.weights[rows], out.bias[rows], out.activation, std.mean[rows], std.std[rows])
        for rows in (slice(None, model.dim_x), slice(model.dim_x, None))
    )
    return _DecoderView(model.latent_dim, MLPParams(trunk) if trunk else None, x_head, y_head)


def _apply(h: np.ndarray, head: tuple | None) -> np.ndarray | None:
    """One head's f32 output, cast to f64 and de-standardized in place; ``None`` for no head."""
    if head is None:
        return None
    w_eff, bias, activation, mean, std = head
    v = _activate(h @ w_eff.T + bias, activation).astype(np.float64)
    v *= std
    v += mean
    return v


def generate(model: JGNNModel | _DecoderView, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a latent batch into (fields, travel times), de-standardized.

    The latents are checked as given, then cast to f32: the trunk runs once
    and each head is one GEMM over its own rows, all in f32; each head's
    output is cast to f64 and de-standardized in place by its own slice of
    the standardizer (``*= std``, then ``+= mean``), so both returned
    arrays are f64.  :func:`g1_of_latent` and :func:`g2_of_latent` pass
    their frozen one-head decoder view as ``model``; the variable whose head
    it dropped comes back as ``None``.  A caller decoding many batches of
    one model builds the view once with :func:`_decoder_view`.
    """
    view = _decoder_view(model)
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.shape[1] != view.latent_dim:
        raise ValueError(f"latent dim {z.shape[1]} does not match model {view.latent_dim}")
    h = z.astype(np.float32)
    if view.trunk is not None:
        h, _ = mlp_forward(view.trunk, h)
    return _apply(h, view.x_head), _apply(h, view.y_head)


def encode(model: JGNNModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Deterministic f64 encoding of raw couples into the latent space, on an f64 copy of the encoder."""
    rows = np.concatenate([np.atleast_2d(x), np.atleast_2d(y)], axis=1, dtype=np.float64)
    z, _ = mlp_forward(model.encoder.copy(np.float64), model.standardizer.standardize(rows))
    return z


def g1_of_latent(model: JGNNModel | _DecoderView):
    """Latent -> field map as a plain callable; decodes only the field head.

    The decoder is frozen when the callable is made: later changes to
    ``model`` do not reach it.  Given a decoder view, it reuses that view.
    """
    view = replace(_decoder_view(model), y_head=None)
    return lambda z: generate(view, z)[0]


def g2_of_latent(model: JGNNModel | _DecoderView):
    """Latent -> travel-time map as a plain callable (drives the sampler).

    Decodes only the travel-time head, from a decoder frozen when the
    callable is made, or from the decoder view it is given.
    """
    view = replace(_decoder_view(model), x_head=None)
    return lambda z: generate(view, z)[1]


# --- checkpoints: JSON manifest + packed little-endian f32 blob ---


def _mlp_manifest(params: MLPParams) -> dict:
    return {
        "sizes": params.sizes,
        "activations": [l.activation for l in params.layers],
        "spectral": [bool(l.spectral) for l in params.layers],
    }


def save_model(path: str, model: JGNNModel, extra: dict | None = None) -> None:
    """Write ``path`` (f32 weight blob) and ``path.json`` (manifest).

    The blob is the encoder's parameter vector, then the decoder's, as
    little-endian f32: per layer W, b, u, v (see ``neural.MLPParams``).
    """
    std, d = model.standardizer, model.dim_x
    manifest = {
        "dim_x": model.dim_x,
        "dim_y": model.dim_y,
        "latent_dim": model.latent_dim,
        "encoder": _mlp_manifest(model.encoder),
        "decoder": _mlp_manifest(model.decoder),
        "standardizer": {
            "mean_x": std.mean[:d].tolist(),
            "std_x": std.std[:d].tolist(),
            "mean_y": std.mean[d:].tolist(),
            "std_y": std.std[d:].tolist(),
        },
        "weights_dtype": "f32",
    }
    if extra:
        manifest.update(extra)
    blob = np.concatenate([model.encoder.flat, model.decoder.flat], dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(blob.tobytes())
    write_json(path + ".json", manifest)


def load_model(path: str) -> JGNNModel:
    """Read a checkpoint written by :func:`save_model`; its networks are f32 views of the blob.

    Raises:
        ValueError: if the blob size differs from what the manifest implies,
            a weight is not finite, or a standardizer vector does not have
            its dimension's length, holds a non-finite mean or a std that is
            not positive.
        KeyError: if the manifest lacks a key.
    """
    with open(path + ".json") as fh:
        manifest = json.load(fh)
    nets = [manifest[net] for net in ("encoder", "decoder")]
    n_enc, n_dec = (flat_size(net["sizes"]) for net in nets)
    size = os.path.getsize(path)
    if size != 4 * (n_enc + n_dec):
        raise ValueError(f"checkpoint {path} has {size} bytes, manifest implies {4 * (n_enc + n_dec)}")
    flat = np.fromfile(path, dtype="<f4")
    if not np.isfinite(flat).all():
        raise ValueError(f"checkpoint {path} holds a NaN or infinite weight")
    encoder, decoder = (
        MLPParams.from_flat(part, net["sizes"], net["activations"], net["spectral"])
        for part, net in zip((flat[:n_enc], flat[n_enc:]), nets)
    )
    dim_x, dim_y, latent_dim = (int(manifest[k]) for k in ("dim_x", "dim_y", "latent_dim"))
    doc, std = manifest["standardizer"], {}
    for key, dim in (("mean_x", dim_x), ("std_x", dim_x), ("mean_y", dim_y), ("std_y", dim_y)):
        std[key] = v = np.asarray(doc[key], dtype=np.float64)
        if v.shape != (dim,):
            raise ValueError(f"checkpoint standardizer {key} has shape {v.shape}, the model implies ({dim},)")
        kind = "finite and positive" if key.startswith("std") else "finite"
        if not (np.isfinite(v).all() and (kind == "finite" or (v > 0).all())):
            raise ValueError(f"checkpoint standardizer {key} has an entry that is not {kind}")
    standardizer = Standardizer(*(np.concatenate([std[k + "_x"], std[k + "_y"]]) for k in ("mean", "std")))
    return JGNNModel(encoder, decoder, dim_x, dim_y, latent_dim, standardizer)
