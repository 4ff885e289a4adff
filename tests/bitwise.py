"""Bit-level comparison shared by the tests."""

import numpy as np


def same_bits(x, y) -> bool:
    """Whether x and y hold the same float64 bits in the same shape; two Nones agree."""
    if x is None or y is None:
        return x is None and y is None
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
