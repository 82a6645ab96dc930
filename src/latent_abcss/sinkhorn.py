"""Entropic optimal transport between point clouds.

Discrete measures, uniform unless probability weights are given, are coupled
by Sinkhorn fixed-point iterations of log-domain dual potentials on the
squared-Euclidean cost ``C[i, j] = ||x_i - y_j||^2``.  A cloud with repeated
points is the same measure as its distinct points weighted by multiplicity,
and the iteration on the two is the same map (equal rows of ``C`` get equal
potentials), so the transport diagnostics solve on the distinct points.
Each log-sum-exp is one product with the Gibbs kernel ``exp(-C/reg)``,
which at small regularizations (down to 1e-3) absorbs the potentials to
stay in the normal floats.  A cloud against itself has one potential,
which :func:`self_transport` iterates with the symmetric averaged update.
A solve's transport cost comes from the potentials and ``K * c`` alone,
and the coupling is formed only when a caller reads it (training does;
the transport diagnostics read only the cost).
Iteration counts are a fixed budget rather than a convergence guarantee
(small budgets are a deliberate training-time setting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SinkhornConfig",
    "TransportPlan",
    "cost_matrix",
    "entropic_ot",
    "ot_point_gradient",
    "self_transport",
]


@dataclass(frozen=True)
class SinkhornConfig:
    """Entropic-OT settings.

    ``debiased`` makes :func:`entropic_ot` subtract the two self-transport
    costs, so the value vanishes on identical clouds.  The training latent
    term and the transport diagnostics form their own divergences and do
    not use it: training from two plain solves, the diagnostics from plain
    cross solves and :func:`self_transport` self terms.

    ``max_iter`` is a hard budget.  With ``tol`` zero (the default, and the
    training setting) the budget is simply spent; a positive ``tol`` stops
    early once neither dual potential moves by more than ``tol`` in sup
    norm, which reaches the identical fixed point at small regularizations
    without burning the full budget.
    """

    reg: float = 100.0
    max_iter: int = 40
    debiased: bool = False
    tol: float = 0.0

    def __post_init__(self):
        if not self.reg > 0:
            raise ValueError("reg must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol >= 0:  # NaN fails too: its stop would never fire
            raise ValueError("tol must be nonnegative")


@dataclass
class TransportPlan:
    """Transport cost of a Sinkhorn coupling, how the solve ended, and the coupling.

    ``iterations`` counts the Sinkhorn iterations run; ``converged`` is True
    when the ``tol`` stop ended the solve and False when the budget did.

    ``plan``, the n x m nonnegative coupling, is formed the first time it
    is read, so a caller that needs only ``cost`` skips its n x m
    exponential.  It is formed from the solve's cost matrix, which must not
    change before then.
    """

    cost: float
    iterations: int
    converged: bool
    _plan: object = field(repr=False, compare=False)  # the coupling, or the function that forms it

    @property
    def plan(self) -> np.ndarray:
        if callable(self._plan):
            self._plan = self._plan()
        return self._plan


def cost_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise ``||x - y||^2``; clouds are (n, d) and (m, d).

    The cost is one GEMM, ``||x||^2 + ||y||^2 - 2 x y^T``, on clouds shifted
    to a common centre to limit cancellation, clamped at zero.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"point dimensions differ: {xs.shape[1]} vs {ys.shape[1]}")
    centre = 0.5 * (xs.mean(axis=0) + ys.mean(axis=0))
    with np.errstate(invalid="ignore"):  # inf - inf: non-finite either way
        xs = xs - centre
        ys = ys - centre
    return _gemm_cost(xs, ys, _squared_norms(xs), _squared_norms(ys))


def _squared_norms(xs: np.ndarray) -> np.ndarray:
    """``||x_i||^2`` of each row."""
    return np.einsum("ij,ij->i", xs, xs)


def _gemm_cost(xs, ys, xs_sq, ys_sq) -> np.ndarray:
    """``xs_sq[i] + ys_sq[j] - 2 x_i . y_j``, clamped at zero: one GEMM.

    ``xs_sq`` and ``ys_sq`` are the rows' squared norms; the clouds should
    share a centre near their own means to limit cancellation.
    """
    c = xs @ ys.T
    c *= -2.0
    c += xs_sq[:, None]
    c += ys_sq[None, :]
    return np.maximum(c, 0.0, out=c)


_KERNEL_MAX_EXPONENT = 300.0  # the plain Gibbs kernel's bound on |C|/reg
_ABSORB_AT = 50.0  # an offset potential past this many reg is absorbed into the kernel


def _logsumexp(kernel, shift, axis) -> np.ndarray:
    """``log sum kernel * exp(shift)`` along ``axis`` (which ``shift`` spans): one product, max-shifted."""
    mx = shift.max()
    w = np.exp(shift - mx)
    return np.log(kernel @ w if axis == 1 else w @ kernel) + mx


def _cost_and_plan(c, reg, gibbs, f, g, log_a, log_b):
    """Transport cost of a solve's coupling, and the function that forms the coupling.

    ``gibbs`` is the solve's :func:`_gibbs` triple ``(K, F, G)``, and ``f``,
    ``g`` its potentials less ``F``, ``G``.  The cost is ``u @ (K * c) @ v``,
    with ``u = exp(f/reg + log a)`` and ``v = exp(g/reg + log b)`` each scaled
    by its largest entry and the scales multiplied back after: one pass over
    ``K``, which it overwrites with ``K * c``, and two products.  The coupling
    is formed from ``c`` and the whole potentials ``F + f``, ``G + g``.
    """
    kernel, fa, ga = gibbs
    alpha = f / reg + log_a
    beta = g / reg + log_b
    top_a, top_b = alpha.max(), beta.max()
    kc = np.multiply(kernel, c, out=kernel)
    cost = float(np.exp(alpha - top_a) @ kc @ np.exp(beta - top_b)) * math.exp(top_a + top_b)
    if fa is not None:
        f, g = fa + f, ga + g

    def plan():
        p = c / -reg
        p += (f / reg + log_a)[:, None]
        p += (g / reg + log_b)[None, :]
        return np.exp(p, out=p)

    return cost, plan


def _check_weights(w, n: int, name: str) -> np.ndarray:
    """``w`` as n finite positive probability weights summing to 1 within 1e-12."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights {name} have shape {w.shape}, expected ({n},)")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError(f"weights {name} must be finite and positive")
    total = float(np.sum(w))
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights {name} sum to {total!r}, not 1")
    return w


def _gibbs(c: np.ndarray, reg: float, f=None, g=None, symmetric=False):
    """``(K, f, g)``: the kernel ``exp((f_i + g_j - c_ij) / reg)`` of a solve on ``c`` and the potentials it absorbed.

    A solve's first call passes no potentials and chooses for the solve.
    With every ``|c|/reg`` under the bound (see :func:`_plain_entropic_ot`;
    ``c.max() / -reg`` is the least entry of ``-c/reg`` exactly, and NaN
    fails both tests) nothing is absorbed: ``K = exp(-c/reg)``, ``f = g =
    None``.  Otherwise it absorbs (Schmitzer, SIAM J. Sci. Comput. 2019)
    ``F_i = min_j c_ij`` and ``G_j = min_i (c_ij - F_i)``, so each row and
    column of ``K`` holds a 1 and none exceeds it, or on a ``symmetric``
    cost ``F = G = min_j c_ij / 2``.  Later calls pass the potentials to absorb.
    """
    if f is None:
        if -_KERNEL_MAX_EXPONENT < c.max() / -reg and c.min() / -reg < _KERNEL_MAX_EXPONENT:
            kernel = np.divide(c, -reg)
            return np.exp(kernel, out=kernel), None, None
        f = c.min(axis=1)
        if symmetric:
            f = g = 0.5 * f
    kernel = np.subtract(c, f[:, None])
    if g is None:
        g = kernel.min(axis=0)
    kernel -= g[None, :]
    kernel /= -reg
    return np.exp(kernel, out=kernel), f, g


def _plain_entropic_ot(c: np.ndarray, cfg: SinkhornConfig, a=None) -> TransportPlan:
    """Sinkhorn coupling for the cost matrix ``c`` from weighted points to uniform ones.

    ``a`` (n) gives the rows' probability weights, ``None`` is uniform
    ``1/n``; the columns weigh ``1/m`` each.

    Each half step is one product with the :func:`_gibbs` kernel.  With
    every ``|c|/reg`` under 300 that is ``K = exp(-c/reg)``, in [e^-300,
    e^300]; each kernel sum has a term of at least e^-300, and a weight
    ``exp(s - max s)`` that underflows drops a term below e^-408, far under
    eps of the sum.  Otherwise the loop iterates the potentials less the
    absorbed ``F``, ``G`` from ``-F``, ``-G`` (zero potentials), and the
    kernel absorbs the whole potentials afresh once one passes ``50 reg``;
    each sum keeps a term near 1, and the iterates are the log-domain
    loop's to rounding.  A NaN or infinite cost gives a NaN ``cost``.

    Raises:
        ValueError: on weights of the wrong length, non-finite or
            non-positive weights, or weights that do not sum to 1.
    """
    n, m = c.shape
    reg = cfg.reg
    log_a = -np.log(n) if a is None else np.log(_check_weights(a, n, "a"))
    log_b = -np.log(m)
    gibbs = kernel, fa, ga = _gibbs(c, reg)
    tol = cfg.tol
    f = np.zeros(n) if fa is None else -fa
    g = np.zeros(m) if ga is None else -ga
    for iterations in range(1, cfg.max_iter + 1):
        f_new = -reg * _logsumexp(kernel, g / reg + log_b, 1)
        g_new = -reg * _logsumexp(kernel, f_new / reg + log_a, 0)
        converged = bool(tol > 0.0 and abs(f_new - f).max() < tol and abs(g_new - g).max() < tol)
        f, g = f_new, g_new
        if converged:
            break
        if fa is not None and max(abs(f).max(), abs(g).max()) > _ABSORB_AT * reg:
            gibbs = kernel, fa, ga = _gibbs(c, reg, fa + f, ga + g)
            f, g = np.zeros(n), np.zeros(m)
    cost, plan = _cost_and_plan(c, reg, gibbs, f, g, log_a, log_b)
    return TransportPlan(cost, iterations, converged, plan)


def self_transport(c: np.ndarray, cfg: SinkhornConfig, a=None) -> TransportPlan:
    """Sinkhorn self-coupling for the symmetric cost matrix ``c`` of weighted points.

    ``a`` (n) gives the points' probability weights; ``None`` is uniform.
    The self problem has one dual potential, f = g, and this solves for it
    with the symmetric averaged update of Feydy et al. ("Interpolating
    between Optimal Transport and MMD using Sinkhorn Divergences", AISTATS
    2019, §3): f <- (f + T(f)) / 2, with
    T(f)_i = -reg log sum_j a_j exp((f_j - c_ij) / reg) the half step that
    :func:`_plain_entropic_ot` alternates.  On a self problem that
    alternating loop can creep towards its fixed point and run out its
    budget; the averaged update converges in a few dozen iterations at the
    audit settings.  The kernel, which absorbs one symmetric potential, the
    sup-norm ``tol`` stop on the potential and the coupling
    ``exp((f_i + f_j - c_ij) / reg) a_i a_j`` are those of
    :func:`_plain_entropic_ot`.

    Raises:
        ValueError: on a non-square ``c``, or weights of the wrong length,
            non-finite or non-positive weights, or weights that do not sum to 1.
    """
    n, m = c.shape
    if n != m:
        raise ValueError(f"a self-transport cost is square, not {n} x {m}")
    reg = cfg.reg
    log_a = -np.log(n) if a is None else np.log(_check_weights(a, n, "a"))
    gibbs = kernel, fa, _ = _gibbs(c, reg, symmetric=True)
    tol = cfg.tol
    f = np.zeros(n) if fa is None else -fa
    for iterations in range(1, cfg.max_iter + 1):
        f_new = 0.5 * (f - reg * _logsumexp(kernel, f / reg + log_a, 1))
        converged = bool(tol > 0.0 and abs(f_new - f).max() < tol)
        f = f_new
        if converged:
            break
        if fa is not None and abs(f).max() > _ABSORB_AT * reg:
            gibbs = kernel, fa, _ = _gibbs(c, reg, fa + f, fa + f)
            f = np.zeros(n)
    cost, plan = _cost_and_plan(c, reg, gibbs, f, f, log_a, log_a)
    return TransportPlan(cost, iterations, converged, plan)


def entropic_ot(xs, ys, cfg: SinkhornConfig) -> TransportPlan:
    """Sinkhorn coupling of two uniform point clouds.

    Args:
        xs, ys: point clouds of shape (n, d) and (m, d).
        cfg: regularization, iteration budget, debiasing.

    Returns:
        :class:`TransportPlan` for the (xs, ys) pair; with ``cfg.debiased``
        the cost has the two self-transport costs subtracted while the plan
        remains the cross coupling.

    Raises:
        ValueError: on dimension mismatch or non-finite cost entries.
    """
    c = cost_matrix(xs, ys)
    if not np.all(np.isfinite(c)):
        raise ValueError("non-finite cost entries")
    result = _plain_entropic_ot(c, cfg)
    if cfg.debiased:
        self_x = _plain_entropic_ot(cost_matrix(xs, xs), cfg).cost
        self_y = _plain_entropic_ot(cost_matrix(ys, ys), cfg).cost
        result.cost = result.cost - 0.5 * self_x - 0.5 * self_y
    return result


def ot_point_gradient(xs, ys, plan: np.ndarray) -> np.ndarray:
    """Gradient of the transport cost in the source points, plan held fixed.

    d/dx_i sum_j plan[i,j] c(x_i, y_j); treating the converged plan as a
    constant skips differentiating through the iterations, which is the
    standard envelope-style approximation.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    row = plan.sum(axis=1)
    return 2.0 * (row[:, None] * xs - plan @ ys)
