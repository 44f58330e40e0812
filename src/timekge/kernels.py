"""Minimal dense float64 kernels.

Everything here is a pure function over numpy arrays. The kernels are
deliberately unclever: fixed accumulation order, explicit shape checks,
double precision throughout. The batched fast paths used by the models
live in :mod:`timekge.scoring`; these reference kernels are what those
paths are tested against. At the end of the module sit the block size
and the row gather (into a caller's buffer) that the batched paths share.
"""

import numpy as np

from .errors import ShapeError

# Elementwise passes over large arrays run in chunks of this many float64
# values (256 KiB), so that each chunk's temporaries stay in cache.
_CHUNK = 1 << 15


def as_f64(x) -> np.ndarray:
    """Coerce to a float64 ndarray without copying when already one."""
    return np.asarray(x, dtype=np.float64)


def matvec_t(matrix, vector) -> np.ndarray:
    """Transposed matrix-vector product ``out[j] = sum_i M[i, j] * x[i]``.

    Accumulates row by row in index order, so the result is bit-identical
    to a naive scalar loop.
    """
    m = as_f64(matrix)
    x = as_f64(vector)
    if m.ndim != 2:
        raise ShapeError(f"matvec_t: expected a 2-d matrix, got shape {m.shape}")
    if x.ndim != 1 or x.shape[0] != m.shape[0]:
        raise ShapeError(
            f"matvec_t: vector dim {x.shape} does not match matrix rows {m.shape[0]}"
        )
    out = np.zeros(m.shape[1], dtype=np.float64)
    for i in range(m.shape[0]):
        out += m[i] * x[i]
    return out


def hadamard(a, b) -> np.ndarray:
    """Elementwise product of two equal-length vectors."""
    av = as_f64(a)
    bv = as_f64(b)
    if av.shape != bv.shape:
        raise ShapeError(f"hadamard: shapes {av.shape} and {bv.shape} differ")
    return av * bv


def sum_pool(x, window: int) -> np.ndarray:
    """Sum over contiguous non-overlapping windows of size ``window``.

    Maps a vector of length ``window * d`` to one of length ``d``;
    window ``j`` covers indices ``j*window .. j*window + window - 1``.
    """
    xv = as_f64(x)
    if xv.ndim != 1:
        raise ShapeError(f"sum_pool: expected a vector, got shape {xv.shape}")
    if window < 1:
        raise ShapeError(f"sum_pool: window must be >= 1, got {window}")
    if xv.shape[0] % window != 0:
        raise ShapeError(
            f"sum_pool: length {xv.shape[0]} not divisible by window {window}"
        )
    return xv.reshape(-1, window).sum(axis=1)


def take_rows(table: np.ndarray, index: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``table[index]`` written into the front of the flat buffer ``scratch``.

    Callers pass indices already known to lie in range: ``mode="clip"``
    lets ``np.take`` write straight into the buffer, where the default
    mode would gather into a temporary first.
    """
    out = scratch[:index.size * table.shape[1]].reshape(*index.shape, table.shape[1])
    return np.take(table, index, axis=0, out=out, mode="clip")
