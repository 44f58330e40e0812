"""The block size and the row gather (into a caller's buffer) that the batched paths share."""

import numpy as np

# Elementwise passes over large arrays run in chunks of this many float64
# values (256 KiB), so that each chunk's temporaries stay in cache.
_CHUNK = 1 << 15


def take_rows(table: np.ndarray, index: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``table[index]`` written into the front of the flat buffer ``scratch``.

    Callers pass indices already known to lie in range: ``mode="clip"``
    lets ``np.take`` write straight into the buffer, where the default
    mode would gather into a temporary first.
    """
    out = scratch[:index.size * table.shape[1]].reshape(*index.shape, table.shape[1])
    return np.take(table, index, axis=0, out=out, mode="clip")
