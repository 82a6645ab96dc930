"""Probability-content diagnostics and evaluation metrics.

A single deep subset-simulation run induces an estimate of the prior mass of
the tolerance region at *every* tested tolerance, not just the final one: the
per-level populations restrict the estimator piecewise.  The log of that
curve, smoothed, carries two readable features -- where the run stagnates
(close to the squared noise floor) and where the curve bends hardest, which
is where the tolerance should be set.  The rest of this module is the metric
toolbox used to audit solutions: RMSE pairings, debiased transport
divergences against reference ensembles, and resimulation checks through the
true forward operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import zip_longest

import numpy as np

from .rng_linalg import write_csv
from .sinkhorn import (
    SinkhornConfig,
    _check_weights,
    _gemm_cost,
    _plain_entropic_ot,
    _squared_norms,
    self_transport,
)
from .subsim import SubSimTrace
from .tomography import forward

__all__ = [
    "ThresholdCurve",
    "MetricsReport",
    "default_eps_grid",
    "normalize_eps",
    "probability_curve",
    "analyze_curve",
    "rmse_batch",
    "ReferenceSet",
    "prepare_references",
    "wasserstein_diagnostics",
    "resimulation_report",
    "curve_to_csv",
    "curve_summary",
]


def default_eps_grid(eps_min: float, eps_max: float, count: int) -> np.ndarray:
    """Log-spaced squared-tolerance grid (ns^2)."""
    if not (0 < eps_min < eps_max < np.inf) or count < 2:
        raise ValueError("need 0 < eps_min < eps_max < inf and at least two grid points")
    return np.geomspace(eps_min, eps_max, count)


def normalize_eps(eps, n_obs: int):
    """Map a squared tolerance (ns^2) to a per-measurement scale (ns)."""
    eps = np.asarray(eps, dtype=np.float64)
    if np.any(eps < 0) or n_obs < 1:
        raise ValueError("eps must be nonnegative and n_obs at least 1")
    return np.sqrt(eps / n_obs)


@dataclass
class ThresholdCurve:
    """Probability-content curve on the reached part of a tolerance grid.

    :func:`probability_curve` gives ``eps``, ``eps_n`` and ``log_p``;
    :func:`analyze_curve` fills ``smoothed``, ``curvature`` and
    ``selected_index``, in that order.  The selected and stagnation
    tolerances are read from the selection, and are None until it succeeds.
    """

    eps: np.ndarray
    eps_n: np.ndarray
    log_p: np.ndarray
    smoothed: np.ndarray | None = None
    curvature: np.ndarray | None = None
    selected_index: int | None = None

    @property
    def selected_eps_n(self) -> float | None:
        return None if self.selected_index is None else float(self.eps_n[self.selected_index])

    @property
    def stagnation_eps_n(self) -> float | None:
        """The smallest reached grid value, where the run stagnates."""
        return None if self.selected_index is None else float(self.eps_n[0])


def probability_curve(trace: SubSimTrace, n_obs: int, eps_grid: np.ndarray) -> ThresholdCurve:
    """Piecewise probability estimate over a whole tolerance grid.

    For a tolerance t between two consecutive level thresholds, the level
    population just above it estimates the conditional mass below t, and the
    level factor alpha^j accounts for the mass of that population's own
    region.  Grid points below everything the run reached are dropped; when
    the run reaches none, the curve is empty and :func:`analyze_curve`
    refuses it.
    """
    if not trace.level_dissimilarities:
        raise ValueError("empty trace")
    grid = np.asarray(eps_grid, dtype=np.float64)
    alpha = trace.config.level_fraction
    n = trace.config.n_particles
    thresholds = np.array([lvl.threshold for lvl in trace.levels])
    pops = trace.level_dissimilarities

    p = np.empty(grid.size)
    for i, t in enumerate(grid):
        j = int(np.count_nonzero(thresholds > t))
        p[i] = alpha**j * np.count_nonzero(pops[j] <= t) / n
    reached = p > 0
    return ThresholdCurve(
        eps=grid[reached],
        eps_n=normalize_eps(grid[reached], n_obs),
        log_p=np.log10(p[reached]),
    )


def _local_quadratic(x: np.ndarray, y: np.ndarray, window: int):
    """Moving local least-squares quadratic: (value, slope, second derivative)."""
    if window % 2 == 0 or window < 3:
        raise ValueError("window must be odd and at least 3")
    n = x.size
    if n < window:
        raise ValueError(f"curve has {n} points, fewer than window {window}")
    half = window // 2
    val = np.empty(n)
    d1 = np.empty(n)
    d2 = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        t = x[lo:hi] - x[i]
        deg = min(2, t.size - 1)
        design = np.vander(t, deg + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(design, y[lo:hi], rcond=None)
        val[i] = coef[0]
        d1[i] = coef[1]
        d2[i] = 2.0 * coef[2] if deg >= 2 else 0.0
    return val, d1, d2


def analyze_curve(curve: ThresholdCurve, window: int) -> ThresholdCurve:
    """Smooth the curve, take the curvature of the smoothed curve, and pick its knee.

    Smoothing fits a moving local least-squares quadratic to log10 p over
    the normalized-tolerance axis; endpoints fall back to shrunken
    one-sided windows, so a curve that is exactly quadratic passes through
    unchanged.  The curvature |f''| / (1 + f'^2)^(3/2) against eps_n comes
    from the same fit of the smoothed curve.  The stagnation point is the
    smallest reached grid value; the selection is the curvature argmax
    strictly above it, ties broken toward larger tolerances.

    ``curve`` gets ``smoothed``, then ``curvature``, then ``selected_index``,
    and is returned.  A step that fails leaves the ones before it, so a
    curve whose selection fails still has both columns for ``curve.csv``.

    Raises:
        ValueError: on an empty curve (no grid point reached), an even
            window or one below 3, or a curve with fewer points than the
            window (nothing set); or when the curve has no usable curvature
            peak (columns set).
    """
    if curve.eps.size == 0:
        raise ValueError("no grid point is reached by the run")
    curve.smoothed, _, _ = _local_quadratic(curve.eps_n, curve.log_p, window)
    _, d1, d2 = _local_quadratic(curve.eps_n, curve.smoothed, window)
    curve.curvature = np.abs(d2) / np.power(1.0 + d1 * d1, 1.5)
    # the window leaves at least two candidates above the stagnation point
    cand = curve.curvature[1:]
    x_range = float(curve.eps_n[-1] - curve.eps_n[0])
    # rounding leaves a flat curve at level c a curvature that scales with |c|,
    # so the floor takes the curve's level as well as its range
    y_range = float(np.max(curve.smoothed) - np.min(curve.smoothed))
    y_level = float(np.max(np.abs(curve.smoothed)))
    flat_tol = 1e-8 * ((y_range + y_level) / max(x_range, 1e-300) ** 2 + 1e-300)
    if float(np.max(cand)) <= flat_tol:
        raise ValueError("no curvature peak: curve is flat or affine")
    # argmax with ties toward the larger tolerance
    curve.selected_index = cand.size - int(np.argmax(cand[::-1]))
    return curve


def rmse_batch(samples: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-row RMSE of a sample batch against one reference vector."""
    samples = np.atleast_2d(samples)
    reference = np.asarray(reference, dtype=np.float64).ravel()
    if samples.shape[1] != reference.size:
        raise ValueError(f"length mismatch: {samples.shape[1]} vs {reference.size}")
    d = samples - reference[None, :]
    d *= d  # in place: no second full-size temporary
    return np.sqrt(np.mean(d, axis=1))


@dataclass(frozen=True)
class ReferenceSet:
    """Reference clouds prepared once for every divergence against them.

    ``rows`` stacks every reference's points, shifted by ``centre`` (the
    mean of all of them), and ``squared_norms`` holds each row's
    ``||r||^2``; ``slices`` gives each reference's rows by name, and
    ``self_costs`` its self-transport cost OT(r, r).  ``exhausted`` names
    the references whose self solve ended on its iteration budget, in
    ``slices`` order.
    """

    centre: np.ndarray
    rows: np.ndarray
    squared_norms: np.ndarray
    slices: dict[str, slice]
    self_costs: dict[str, float]
    exhausted: tuple[str, ...]


def prepare_references(clouds: dict[str, np.ndarray], ot_cfg: SinkhornConfig) -> ReferenceSet:
    """Centre, stack and self-solve the reference clouds, once per inversion.

    Each cloud is a uniform point cloud in the flattened field space; a
    single vector is a Dirac (one point).  The references do not depend on
    the solutions, so their self terms are solved here (by
    :func:`~latent_abcss.sinkhorn.self_transport`) and every
    :func:`wasserstein_diagnostics` call against them reuses them.  A
    Dirac's self term is 0, with no solve: its only coupling with itself
    moves nothing.

    Raises:
        ValueError: with no clouds, or clouds of different point dimensions.
    """
    if not clouds:
        raise ValueError("need at least one reference ensemble")
    parts = [np.atleast_2d(np.asarray(c, dtype=np.float64)) for c in clouds.values()]
    dims = sorted({p.shape[1] for p in parts})
    if len(dims) > 1:
        raise ValueError(f"reference point dimensions differ: {dims}")
    rows = np.concatenate(parts)
    centre = rows.mean(axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf: non-finite either way
        rows -= centre
    squared_norms = _squared_norms(rows)
    ends = np.cumsum([p.shape[0] for p in parts])
    slices = {name: slice(end - p.shape[0], end) for name, p, end in zip(clouds, parts, ends)}
    self_costs, exhausted = {}, []
    for name, s in slices.items():
        if s.stop - s.start == 1:
            self_costs[name] = 0.0
            continue
        tp = self_transport(_gemm_cost(rows[s], rows[s], squared_norms[s], squared_norms[s]), ot_cfg)
        self_costs[name] = tp.cost
        if not tp.converged:
            exhausted.append(name)
    return ReferenceSet(centre, rows, squared_norms, slices, self_costs, tuple(exhausted))


def wasserstein_diagnostics(
    solutions: np.ndarray,
    references: ReferenceSet,
    ot_cfg: SinkhornConfig,
    weights: np.ndarray | None = None,
) -> tuple[dict[str, float], list[tuple[str, str | None]]]:
    """Debiased transport divergence of the solutions against each reference.

    S(s, r) = OT(s, r) - OT(s, s)/2 - OT(r, r)/2, keyed by reference name
    (``ot_cfg.debiased`` is not read).  OT(r, r) comes prepared with
    ``references``; OT(s, s) is one
    :func:`~latent_abcss.sinkhorn.self_transport` solve per call and each
    OT(s, r) one alternating Sinkhorn solve, of which only the cost is
    read.  Against a one-point reference (a Dirac, such as the truth) the
    only coupling gives each solution its own weight, so OT(s, r) is the
    weighted mean of the solutions' costs to that point, with no solve.
    ``weights`` gives the solutions' probability weights (uniform when
    None): a cloud with repeated rows may be passed as its distinct rows
    weighted by multiplicity, which is the same measure on fewer points.

    The solutions are shifted to the references' centre and normed once;
    their costs are two GEMMs, one against all reference rows (a column
    slice per reference) and one with themselves.  The cost is
    shift-invariant, so these agree with
    :func:`~latent_abcss.sinkhorn.cost_matrix` to rounding.

    Returns the divergences and the solves that ended on their iteration
    budget, as ``(kind, reference)`` pairs: ``("self", None)`` for the
    solutions' self term first, then ``("cross", name)`` in ``slices``
    order (a Dirac makes no solve).

    Raises:
        ValueError: on weights of the wrong length, non-finite or
            non-positive weights, or weights that do not sum to 1 within
            1e-12, or on solutions of another point dimension than the
            references; all before any solve.
    """
    solutions = np.atleast_2d(np.asarray(solutions, dtype=np.float64))
    if weights is not None:
        weights = _check_weights(weights, solutions.shape[0], "of the solutions")
    if solutions.shape[1] != references.rows.shape[1]:
        raise ValueError(
            f"point dimensions differ: {solutions.shape[1]} vs {references.rows.shape[1]}"
        )
    with np.errstate(invalid="ignore"):
        solutions = solutions - references.centre
    sq = _squared_norms(solutions)
    tp = self_transport(_gemm_cost(solutions, solutions, sq, sq), ot_cfg, weights)
    self_s = tp.cost
    exhausted = [] if tp.converged else [("self", None)]
    cross = _gemm_cost(solutions, references.rows, sq, references.squared_norms)
    out = {}
    for name, cols in references.slices.items():
        if cols.stop - cols.start == 1:
            to_dirac = cross[:, cols.start]
            ot = float(to_dirac.mean() if weights is None else weights @ to_dirac)
        else:
            tp = _plain_entropic_ot(cross[:, cols], ot_cfg, weights)
            ot = tp.cost
            if not tp.converged:
                exhausted.append(("cross", name))
        out[name] = ot - 0.5 * self_s - 0.5 * references.self_costs[name]
    return out, exhausted


def resimulation_report(
    solutions_x: np.ndarray,
    model_ys: np.ndarray,
    a,
    y_obs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Push solutions through the dense ray matrix ``a`` (``tomography.forward``) and audit both gaps.

    Returns per-sample RMSE of the resimulated travel times against the
    generator's travel times (generator fidelity) and against the observed
    vector (noise-level consistency).
    """
    solutions_x = np.atleast_2d(solutions_x)
    model_ys = np.atleast_2d(model_ys)
    if solutions_x.shape[0] != model_ys.shape[0]:
        raise ValueError("solutions and generated travel times are misaligned")
    y_r = forward(a, solutions_x)
    rmse_model = np.sqrt(np.mean((y_r - model_ys) ** 2, axis=1))
    rmse_obs = rmse_batch(y_r, y_obs)
    return rmse_model, rmse_obs


@dataclass
class MetricsReport:
    """Per-sample metric vectors for one inversion."""

    rmse_solutions_truth: np.ndarray | None = None
    rmse_posterior_truth: np.ndarray | None = None
    rmse_prior_truth: np.ndarray | None = None
    rmse_train_truth: np.ndarray | None = None
    resim_rmse_model: np.ndarray | None = None
    resim_rmse_obs: np.ndarray | None = None
    wasserstein_by_eps: list = field(default_factory=list)  # (eps_n, {name: value})

    def _vectors(self) -> dict:
        """The per-sample vectors that are set, by name, in declaration order."""
        named = ((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "wasserstein_by_eps")
        return {name: v for name, v in named if v is not None}

    def summary(self) -> dict:
        return {f"median_{name}": float(np.median(v)) for name, v in self._vectors().items()}

    def to_csv(self, path: str) -> None:
        present = self._vectors()
        if not present:
            raise ValueError("metrics report is empty")
        cols = [np.asarray(v, dtype=np.float64).tolist() for v in present.values()]
        n_rows = max(len(col) for col in cols)
        write_csv(path, ["sample", *present], zip_longest(range(n_rows), *cols))


def curve_to_csv(curve: ThresholdCurve, path: str) -> None:
    """One row per reached grid point."""
    absent = [None] * curve.eps.size
    cols = (curve.eps, curve.eps_n, curve.log_p, curve.smoothed, curve.curvature)
    write_csv(
        path,
        ["eps", "eps_n", "log10_p", "smoothed", "curvature"],
        zip(*(absent if c is None else np.asarray(c, dtype=np.float64).tolist() for c in cols)),
    )


def curve_summary(curve: ThresholdCurve) -> dict:
    """The JSON-ready selection summary."""
    out = {
        "selected_eps_n": curve.selected_eps_n,
        "stagnation_eps_n": curve.stagnation_eps_n,
        "p_hat_at_selected": None,
    }
    if curve.selected_index is not None:
        out["p_hat_at_selected"] = float(10.0 ** curve.log_p[curve.selected_index])
    return out
