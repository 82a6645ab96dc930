"""Cross-borehole acquisition geometry and the straight-ray linear forward map.

Sources sit in one borehole and receivers in another; each (source, receiver)
pair contributes one ray.  A ray's travel time is the path-length-weighted sum
of the slowness it crosses, which makes the forward map a linear operator:
one matrix row per ray, one column per grid cell, entries in meters.  That
operator is a plain dense ``(rays, cells)`` float64 array.  A ray crosses
few cells, so the ray matrix file stores only the nonzero entries.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .rng_linalg import RngStream, write_json
from .gp_prior import Grid

__all__ = [
    "AcquisitionGeometry",
    "NoiseModel",
    "build_geometry",
    "trace_ray",
    "assemble_matrix",
    "forward",
    "add_noise",
    "save_ray_matrix",
    "load_ray_matrix",
]

_TRIPLE_DTYPE = np.dtype([("ray", "<u4"), ("cell", "<u4"), ("length", "<f8")])


@dataclass(frozen=True)
class AcquisitionGeometry:
    """Borehole x-positions plus the depth lists of sources and receivers."""

    source_x: float
    receiver_x: float
    source_depths: np.ndarray
    receiver_depths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "source_depths", np.asarray(self.source_depths, dtype=np.float64))
        object.__setattr__(
            self, "receiver_depths", np.asarray(self.receiver_depths, dtype=np.float64)
        )
        for name, d in (("source", self.source_depths), ("receiver", self.receiver_depths)):
            if d.ndim != 1 or d.size < 1:
                raise ValueError(f"{name} depths must be a nonempty 1-D list")
            if d.size > 1 and not np.all(np.diff(d) > 0):
                raise ValueError(f"{name} depths must be strictly increasing")

    @property
    def separation(self) -> float:
        return self.receiver_x - self.source_x

    @property
    def n_rays(self) -> int:
        return self.source_depths.size * self.receiver_depths.size


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. Gaussian measurement noise with standard deviation ``std`` (ns)."""

    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("noise std must be nonnegative")


def build_geometry(
    grid: Grid, n_src: int, n_rcv: int, depth_min: float, depth_max: float, separation: float
) -> AcquisitionGeometry:
    """Place the two boreholes symmetrically about the grid center.

    Depths are spaced linearly and inclusively between ``depth_min`` and
    ``depth_max``; the boreholes sit ``separation`` meters apart.
    """
    if separation > grid.width:
        raise ValueError(f"separation {separation} exceeds grid width {grid.width}")
    if separation <= 0:
        raise ValueError("separation must be positive")
    if not (0 <= depth_min <= depth_max <= grid.height):
        raise ValueError(
            f"depth range [{depth_min}, {depth_max}] outside grid depth [0, {grid.height}]"
        )
    source_x = (grid.width - separation) / 2.0
    return AcquisitionGeometry(
        source_x=source_x,
        receiver_x=source_x + separation,
        source_depths=np.linspace(depth_min, depth_max, n_src),
        receiver_depths=np.linspace(depth_min, depth_max, n_rcv),
    )


def trace_ray(grid: Grid, p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-cell crossing lengths of the segment ``p0 -> p1``.

    Points are (x, depth) in meters and must lie inside the grid.  Returns
    (cell indices, lengths) with lengths summing to the segment length; the
    segment is cut at every grid line and each piece is attributed to the
    cell containing its midpoint, so zero-length boundary touches contribute
    nothing.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    for p in (p0, p1):
        if not (0 <= p[0] <= grid.width and 0 <= p[1] <= grid.height):
            raise ValueError(f"ray endpoint {tuple(p)} outside grid")
    delta = p1 - p0
    total = float(np.hypot(delta[0], delta[1]))
    if total == 0.0:
        return np.empty(0, dtype=np.intp), np.empty(0)

    ts = [np.array([0.0, 1.0])]
    cs = grid.cell_size
    for axis, n_axis in ((0, grid.n_cols), (1, grid.n_rows)):
        if delta[axis] != 0.0:
            lines = np.arange(1, n_axis) * cs
            t = (lines - p0[axis]) / delta[axis]
            ts.append(t[(t > 0.0) & (t < 1.0)])
    t_all = np.unique(np.concatenate(ts))
    dt = np.diff(t_all)
    keep = dt > 0.0
    mids = p0[None, :] + (t_all[:-1] + t_all[1:])[:, None] / 2.0 * delta[None, :]
    cols = np.clip((mids[:, 0] / cs).astype(np.intp), 0, grid.n_cols - 1)
    rows = np.clip((mids[:, 1] / cs).astype(np.intp), 0, grid.n_rows - 1)
    cells = (rows * grid.n_cols + cols)[keep]
    lengths = dt[keep] * total

    # consolidate duplicate cells (possible only at corner-grazing segments)
    order = np.argsort(cells, kind="stable")
    cells, lengths = cells[order], lengths[order]
    uniq, start = np.unique(cells, return_index=True)
    summed = np.add.reduceat(lengths, start)
    return uniq, summed


def assemble_matrix(grid: Grid, geom: AcquisitionGeometry) -> np.ndarray:
    """Trace every (source, receiver) pair into per-cell path lengths, source-major row order."""
    a = np.zeros((geom.n_rays, grid.n_cells))
    i = 0
    for sz in geom.source_depths:
        for rz in geom.receiver_depths:
            cells, lengths = trace_ray(grid, (geom.source_x, sz), (geom.receiver_x, rz))
            a[i, cells] = lengths
            i += 1
    return a


def forward(a: np.ndarray, x) -> np.ndarray:
    """Travel times ``A @ slowness`` in ns.

    ``x`` may be a flat slowness vector or a batch of vectors with shape
    (n, n_cells); the result matches (one row of travel times per input row
    for batches).

    Each travel time is summed as a CSR product sums it, bit for bit: from
    0.0, over the ray's nonzero lengths in ascending cell order, adding each
    rounded product in turn.  A BLAS product orders its sums otherwise and
    would change every dataset's bits.  Rays are taken longest first, so the
    rays still summing at step k are a leading slice.  A batch's result is
    column-major, as the sparse product's was: the metrics reduce over it in
    memory order, so its layout is part of their bits.
    """
    values = np.asarray(x, dtype=np.float64)
    n_rays, n_cells = a.shape
    if values.ndim == 1:
        if values.shape[0] != n_cells:
            raise ValueError(f"field has {values.shape[0]} cells, matrix expects {n_cells}")
    elif values.shape[1] != n_cells:
        raise ValueError(f"batch has {values.shape[1]} cells, matrix expects {n_cells}")
    rays, cells = np.nonzero(a)  # row-major, so each ray's cells ascend
    lengths = a[rays, cells]
    counts = np.bincount(rays, minlength=n_rays)
    starts = np.cumsum(counts) - counts
    order = np.argsort(-counts, kind="stable")
    counts = counts[order]
    per_cell = np.ascontiguousarray(values.reshape(-1, n_cells).T)
    y = np.zeros((n_rays, per_cell.shape[1]))
    for k in range(counts.max(initial=0)):
        m = np.count_nonzero(counts > k)
        j = starts[order[:m]] + k
        y[:m] += per_cell[cells[j]] * lengths[j, None]
    out = np.empty_like(y)
    out[order] = y
    return out[:, 0] if values.ndim == 1 else out.T


def add_noise(y: np.ndarray, noise: NoiseModel, rng: RngStream) -> np.ndarray:
    """Contaminate travel times with seeded i.i.d. Gaussian noise."""
    y = np.asarray(y, dtype=np.float64)
    if noise.std == 0.0:
        return y.copy()
    return y + noise.std * rng.generator().standard_normal(y.shape)


def save_ray_matrix(path: str, a: np.ndarray, provenance: dict | None = None) -> None:
    """JSON header + packed (ray:u32, cell:u32, length:f64) triples of the nonzero entries, row-major."""
    rays, cells = np.nonzero(a)
    packed = np.empty(rays.size, dtype=_TRIPLE_DTYPE)
    packed["ray"] = rays
    packed["cell"] = cells
    packed["length"] = a[rays, cells]
    n_rays, n_cells = a.shape
    header = {"n_rays": n_rays, "n_cells": n_cells, "nnz": int(rays.size)}
    if provenance is not None:
        header["provenance"] = provenance
    write_json(path + ".json", header)
    with open(path, "wb") as fh:
        fh.write(packed.tobytes())


def load_ray_matrix(path: str) -> np.ndarray:
    """The dense operator stored by :func:`save_ray_matrix`.

    Raises:
        ValueError: naming ``path``, if the file's size differs from what
            its header implies, an index lies outside the header's shape,
            a (ray, cell) pair is stored twice, or the shape is too large
            to allocate.
    """
    with open(path + ".json") as fh:
        header = json.load(fh)
    shape = (int(header["n_rays"]), int(header["n_cells"]))
    expected = int(header["nnz"]) * _TRIPLE_DTYPE.itemsize
    size = os.path.getsize(path)
    if size != expected:
        raise ValueError(f"ray matrix file {path} has {size} bytes, header implies {expected}")
    packed = np.fromfile(path, dtype=_TRIPLE_DTYPE)
    index = (packed["ray"].astype(np.intp), packed["cell"].astype(np.intp))
    for name, idx, bound in zip(("ray", "cell"), index, shape):
        if idx.size and idx.max() >= bound:
            raise ValueError(
                f"ray matrix file {path} has {name} index {idx.max()}, outside its header's {bound} {name}s"
            )
    flat = np.ravel_multi_index(index, shape)
    if np.unique(flat).size != flat.size:
        raise ValueError(f"ray matrix file {path} stores a (ray, cell) pair twice")
    try:
        a = np.zeros(shape)
    except MemoryError as err:  # else a huge header shape exits 1 before the manifest's shape check
        raise ValueError(f"ray matrix file {path} declares shape {shape}, too large to hold") from err
    a[index] = packed["length"]
    return a
