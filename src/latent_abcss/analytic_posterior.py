"""Exact Gaussian posterior for the linear-Gaussian test case.

With a Gaussian prior on the field, a linear forward map and Gaussian noise,
the posterior is Gaussian in closed form.  It is the ground-truth reference
every approximate-inference accuracy claim is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng_linalg import RngStream, cholesky, sample_mvn

__all__ = ["GaussianDist", "linear_gaussian_posterior", "posterior_sample"]


@dataclass
class GaussianDist:
    """Mean, covariance, and a lower Cholesky factor computed on first use."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).ravel()
        self.cov = np.asarray(self.cov, dtype=np.float64)
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise ValueError(
                f"covariance shape {self.cov.shape} does not match mean length {self.mean.size}"
            )

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower factor of ``cov``; raises ``NotPositiveDefiniteError`` here, not at init."""
        return cholesky(self.cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def linear_gaussian_posterior(
    prior: GaussianDist, a, noise_cov, y_obs
) -> GaussianDist:
    """Condition a Gaussian prior on linear observations.

    For observation model ``y = A x + eta`` with ``eta ~ N(0, Cn)``, where
    ``a`` is the dense operator ``A`` (the ray matrix, as ``tomography`` holds it):

        mean = m + C A' S^-1 (y - A m)
        cov  = C - C A' S^-1 A C,      S = A C A' + Cn

    The transposed gain ``S^-1 A C`` comes from one LU solve of the
    innovation system, not an inverse; factoring ``S`` by Cholesky is kept
    only as the check that it is positive definite.  The posterior
    covariance is symmetrized to absorb rounding drift.

    Raises:
        NotPositiveDefiniteError: if the innovation matrix is singular.
    """
    amat = np.asarray(a, dtype=np.float64)
    y = np.asarray(y_obs, dtype=np.float64).ravel()
    cn = np.asarray(noise_cov, dtype=np.float64)
    n_obs, n_dim = amat.shape
    if n_dim != prior.dim:
        raise ValueError(f"operator expects {n_dim} cells, prior has {prior.dim}")
    if y.size != n_obs or cn.shape != (n_obs, n_obs):
        raise ValueError("observation vector / noise covariance dimensions are inconsistent")

    cat = prior.cov @ amat.T                      # C A', shape (n_dim, n_obs)
    innovation = amat @ cat + cn
    innovation = (innovation + innovation.T) / 2.0
    cholesky(innovation)                          # SPD check only
    gain_t = np.linalg.solve(innovation, cat.T)   # S^-1 A C, shape (n_obs, n_dim)
    mean = prior.mean + (y - amat @ prior.mean) @ gain_t
    cov = prior.cov - cat @ gain_t
    cov = (cov + cov.T) / 2.0
    return GaussianDist(mean, cov)


def posterior_sample(d: GaussianDist, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` samples from the Gaussian using its cached factor."""
    return sample_mvn(d.mean, d.chol, n, rng)
