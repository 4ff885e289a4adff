"""Bit-level comparison, and the row-by-row copy of a problem, shared by the tests.

``serial(p)`` is ``tools/bitdump.py``'s own: a copy of p with no stacked
gradients, so the referee applies the row gradients row by row, whose
values are ``rowwise`` over one-row calls of p's own.  The copy the tests
check is the one whose results ``bitdump`` digests.
"""

import sys
from pathlib import Path

import numpy as np

TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

from bitdump import serial  # noqa: E402,F401


def same_bits(x, y) -> bool:
    """Whether x and y hold the same float64 bits in the same shape; two Nones agree."""
    if x is None or y is None:
        return x is None and y is None
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
