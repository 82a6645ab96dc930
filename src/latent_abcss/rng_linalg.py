"""Seeded random streams and the dense SPD linear-algebra kernels.

Every randomized stage of the toolkit draws from an :class:`RngStream`, a
value-type handle on a counter-based (Philox) generator.  Streams are never
shared mutably: consumers split child streams instead, which keeps parallel
pipelines bit-reproducible.

The linear-algebra kernels are thin, strict wrappers around LAPACK: Cholesky
with no pivoting and no silent jitter (SPD failure is an error carrying the
failing pivot) and multivariate-normal sampling from a precomputed factor.
Every BLAS/LAPACK call of a successful run goes through numpy, so the whole
package shares numpy's one OpenBLAS thread pool; scipy's ``dpotrf``, which
links a second pool, runs only to name the failing pivot of a matrix that is
not positive definite.  ``scipy.linalg`` is imported there too, on that
failure only: a successful run never loads it (about 8 MB of resident
memory in every process).
The artifact readers and writers for flat arrays, JSON documents and CSV
tables live here too.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = [
    "RngStream",
    "NotPositiveDefiniteError",
    "cholesky",
    "sample_mvn",
    "add_jitter",
    "save_array",
    "load_array",
    "write_json",
    "write_csv",
    "read_csv_columns",
]


class NotPositiveDefiniteError(ValueError):
    """Cholesky failure; ``pivot`` is the 0-based index of the bad pivot."""

    def __init__(self, pivot: int):
        self.pivot = int(pivot)
        super().__init__(f"not positive definite: pivot {self.pivot} is not positive")


@dataclass(frozen=True)
class RngStream:
    """Reproducible, splittable random stream.

    Identical ``(seed, stream_id, path)`` values always yield bit-identical
    draw sequences; distinct values yield statistically independent streams.
    The dataclass is frozen so a stream can be passed around freely --
    consumers derive children with :meth:`split` rather than mutating state.
    """

    seed: int
    stream_id: int = 0
    path: tuple = ()

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if not (0 <= int(self.stream_id) < 2**64):
            raise ValueError("stream_id must fit in 64 bits")

    def split(self, *keys: int) -> "RngStream":
        """Derive an independent child stream keyed by ``keys``."""
        return RngStream(self.seed, self.stream_id, self.path + tuple(int(k) for k in keys))

    def generator(self) -> Generator:
        """Fresh Philox generator positioned at the start of this stream."""
        ss = SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),) + self.path)
        return Generator(Philox(seed=ss))


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def cholesky(m) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    Args:
        m: square matrix, symmetric to within a relative ``1e-10``.

    Returns:
        Lower-triangular ``L`` with ``L @ L.T == m``.

    Raises:
        NotPositiveDefiniteError: if a pivot is non-positive.
        ValueError: on asymmetry or malformed input.
    """
    a = _as_matrix(m)
    # max |a| without an |a| temporary: _as_matrix refused non-finite entries
    scale = max(float(a.max()), -float(a.min()), 1.0)
    asym = a - a.T
    if float(np.abs(asym, out=asym).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    del asym  # before the factorization allocates its own full-size buffers
    try:
        # Fortran order, as LAPACK stores a factor: the products downstream
        # then round exactly as they do on dpotrf's output
        return np.asfortranarray(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        # numpy does not say which pivot failed; LAPACK's dpotrf does
        from scipy.linalg.lapack import dpotrf

        _, info = dpotrf(a, lower=1)
        raise NotPositiveDefiniteError(info - 1) from None


# add_jitter's diagonal jitter, relative to the mean diagonal entry
_JITTER_REL = 1e-10


def add_jitter(m: np.ndarray) -> np.ndarray:
    """Copy of ``m`` with ``_JITTER_REL * trace/n`` added to the diagonal.

    Near-singular covariance matrices (fine-grid exponential kernels) need
    this before factoring; plain :func:`cholesky` never jitters on its own,
    and it is what checks the result is a finite square matrix.
    """
    out = np.array(m, dtype=np.float64)
    out[np.diag_indices_from(out)] += _JITTER_REL * np.trace(out) / out.shape[0]
    return out


def sample_mvn(mean, chol_lower, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` samples of ``N(mean, L @ L.T)`` given the lower factor ``L``.

    Returns an ``(n, d)`` array: ``mean + (L @ u).T`` with ``u`` i.i.d.
    standard normal, deterministic for a given stream.
    """
    mu = np.asarray(mean, dtype=np.float64).ravel()
    low = np.asarray(chol_lower, dtype=np.float64)
    d = low.shape[0]
    if mu.shape[0] != d:
        raise ValueError(f"dimension mismatch: mean has {mu.shape[0]}, factor has {d}")
    u = rng.generator().standard_normal((d, int(n)))
    return mu[None, :] + (low @ u).T


# --- flat array artifacts: raw little-endian f64 + JSON sidecar ---


def save_array(path: str, arr, provenance: dict | None = None) -> None:
    """Write ``arr`` as raw little-endian float64 plus a ``.json`` sidecar."""
    a = np.asarray(arr, dtype="<f8", order="C")  # keeps a 0-d shape, which ascontiguousarray makes (1,)
    with open(path, "wb") as fh:
        fh.write(a)  # the C-contiguous buffer itself, with no tobytes() copy
    sidecar = {"shape": list(a.shape), "dtype": "f64", "order": "row-major"}
    if provenance is not None:
        sidecar["provenance"] = provenance
    write_json(path + ".json", sidecar)


def load_array(path: str) -> np.ndarray:
    """Read an array written by :func:`save_array`."""
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    if sidecar.get("dtype") != "f64" or sidecar.get("order") != "row-major":
        raise ValueError(f"unsupported array artifact header: {sidecar}")
    shape = tuple(int(s) for s in sidecar["shape"])
    expected = int(np.prod(shape)) * 8
    size = os.path.getsize(path)
    if size != expected:
        raise ValueError(f"array file {path} has {size} bytes, header implies {expected}")
    data = np.fromfile(path, dtype="<f8")
    return data.reshape(shape)


# --- JSON documents and CSV tables: the two text formats of every artifact ---


def write_json(path: str, doc: dict) -> None:
    """Write ``doc`` with sorted keys, a one-space indent and a final newline; NaN or inf raises ValueError."""
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)  # refused before the file is opened
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_csv(path: str, header, rows) -> str:
    """Write a header line, then one line per row; returns ``path``.

    ``None`` is an empty cell, ``str`` and ``int`` are written as they are,
    and every other value as ``repr(float(v))``, the shortest string that
    reads back to the same double.  A Python float is the fast case: build
    numeric rows from ``ndarray.tolist()`` columns rather than indexing
    numpy scalars cell by cell.
    """

    def cell(v) -> str:
        if type(v) is float:
            return repr(v)
        if v is None:
            return ""
        if isinstance(v, (str, int)):
            return str(v)
        return repr(float(v))

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")
    return path


def read_csv_columns(path: str) -> dict[str, np.ndarray]:
    """Float columns of a numeric CSV by header name; empty cells are skipped, a ragged row is a ValueError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {h: [] for h in header}
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path} line {lineno} has {len(cells)} cells, its header {len(header)}")
            for h, c in zip(header, cells):
                if c != "":
                    cols[h].append(float(c))
    return {h: np.asarray(v) for h, v in cols.items()}
