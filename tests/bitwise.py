"""Bit-level comparison, and the row-by-row copy of a problem, shared by the tests."""

import dataclasses

import numpy as np

import bilevelopt as bl


def same_bits(x, y) -> bool:
    """Whether x and y hold the same float64 bits in the same shape; two Nones agree."""
    if x is None or y is None:
        return x is None and y is None
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def serial(p):
    """A copy of ``p`` that evaluates every stack one row at a time.

    It has no stacked gradients, so the referee applies the row gradients
    row by row, and its values are ``rowwise`` over one-row calls of p's own.
    """
    def one_row(value):
        return bl.rowwise(lambda w, lam: value(w[None], lam)[0])

    return dataclasses.replace(p, grad1_h_many=None, grad1_g_many=None,
                               h_value=one_row(p.h_value), g_value=one_row(p.g_value))
