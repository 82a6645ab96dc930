"""Gaussian-process prior over a gridded slowness field.

The subsurface is discretized on a regular grid of square cells and the
slowness (ns/m) in each cell is modelled as a stationary Gaussian field with
an isotropic exponential kernel evaluated between cell centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng_linalg import RngStream, add_jitter, cholesky, sample_mvn

__all__ = ["Grid", "GPConfig", "exp_kernel", "build_covariance", "sample_fields"]

CELL_CAP = 4000


@dataclass(frozen=True)
class Grid:
    """Regular 2-D grid: ``n_rows`` depth cells by ``n_cols`` horizontal cells."""

    n_rows: int = 50
    n_cols: int = 40
    cell_size: float = 0.1

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("grid must have at least one cell per axis")
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def width(self) -> float:
        """Horizontal extent in meters."""
        return self.n_cols * self.cell_size

    @property
    def height(self) -> float:
        """Depth extent in meters."""
        return self.n_rows * self.cell_size

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Center coordinates per axis: x of each column, depth of each row."""
        xs = (np.arange(self.n_cols) + 0.5) * self.cell_size
        zs = (np.arange(self.n_rows) + 0.5) * self.cell_size
        return xs, zs

    def cell_centers(self) -> np.ndarray:
        """(n_cells, 2) array of (x, depth) centers, row-major cell order.

        No pipeline code calls this: ``build_covariance`` works from the
        per-axis offsets of :meth:`axes`.  It stays as the independent
        reference the prior tests build the covariance from (the
        difference-array formula of ``tests/test_gp_prior.py``).
        """
        gx, gz = np.meshgrid(*self.axes())
        return np.column_stack([gx.ravel(), gz.ravel()])


@dataclass(frozen=True)
class GPConfig:
    """Exponential-kernel hyperparameters and constant field mean."""

    lengthscale: float = 2.5
    variance: float = 0.16
    mean: float = 0.5

    def __post_init__(self):
        if not self.lengthscale > 0:
            raise ValueError("lengthscale must be positive")
        if not self.variance > 0:
            raise ValueError("variance must be positive")


def exp_kernel(h, cfg: GPConfig):
    """Isotropic exponential covariance ``variance * exp(-h / lengthscale)``."""
    h = np.asarray(h, dtype=np.float64)
    if np.any(h < 0):
        raise ValueError("distances must be nonnegative")
    # h / -l is exactly -h / l; ``out`` keeps a scalar ``h`` a 0-d array for the in-place steps
    k = np.divide(h, -cfg.lengthscale, out=np.empty(h.shape))
    np.exp(k, out=k)
    k *= cfg.variance
    return k


def build_covariance(grid: Grid, cfg: GPConfig) -> np.ndarray:
    """Dense prior covariance between all cell centers.

    Entry (i, j) is the kernel at the Euclidean distance between the centers
    of cells i and j, with ``variance`` on the diagonal.  The matrix is
    exactly symmetric: ``(a - b)**2 == (b - a)**2`` in floating point.
    Grids above ``CELL_CAP`` cells are refused: the matrix is dense N x N.
    """
    n = grid.n_cells
    if n > CELL_CAP:
        raise ValueError(f"grid has {n} cells, exceeding the cap of {CELL_CAP}")
    xs, zs = grid.axes()
    dx = np.subtract.outer(xs, xs)
    dx *= dx
    dz = np.subtract.outer(zs, zs)
    dz *= dz
    # cell k sits in row k // n_cols and column k % n_cols, so each squared
    # distance is one row pair's dz**2 plus one column pair's dx**2
    dist = np.add(dz[:, None, :, None], dx[None, :, None, :]).reshape(n, n)
    np.sqrt(dist, out=dist)
    return exp_kernel(dist, cfg)


def sample_fields(
    grid: Grid,
    cfg: GPConfig,
    n: int | tuple[int, ...],
    rng: RngStream,
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Draw prior fields ``N(mean * 1, C)`` via one Cholesky factor of ``C``.

    With an integer ``n``, returns an (n, n_cells) array drawn from ``rng``.
    With a tuple of counts, the covariance is built and factored once and
    one array is returned per count, the i-th drawn from ``rng.split(i)``.
    Gaussian tails can dip below zero, so a draw may hold non-positive
    slowness cells; ``generate_dataset`` counts them in the dataset
    manifest.  Fine grids make the exponential-kernel matrix numerically
    singular, so :func:`add_jitter`'s relative diagonal jitter is applied
    before factoring.  Deterministic for a given stream.
    """
    low = cholesky(add_jitter(build_covariance(grid, cfg)))
    mean = np.full(grid.n_cells, cfg.mean)
    if isinstance(n, tuple):
        return tuple(sample_mvn(mean, low, k, rng.split(i)) for i, k in enumerate(n))
    return sample_mvn(mean, low, n, rng)
