"""Test-suite settings.

Property tests draw their examples from a fixed derandomized stream, so a
run of the suite is reproducible; no deadline, because the first examples
pay for numpy's warm-up.  The ``sweep`` profile is the same but random, for
a wider search outside the suite: each ``--hypothesis-seed`` draws its own
reproducible set of examples,

    pytest tests/test_properties.py --hypothesis-profile=sweep --hypothesis-seed=N

The ``scan_blocks`` fixture counts the blocks of the composed affine scan,
one up-sweep each, and can force their length through ``affine._block``'s
derivation.
"""

import contextlib
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import settings

from bilevelopt import affine

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.register_profile("sweep", settings.get_profile("reproducible"), derandomize=False)
settings.load_profile("reproducible")


@contextlib.contextmanager
def _scan_blocks(steps=None, size=None):
    """Record the length of every block that the scan up-sweeps.

    Yields a namespace whose list ``up`` gets the length of each block:
    each block of the composed scan calls ``affine._upsweep`` once on its
    slice of step matrices, so the slice's length is the block's.
    With ``steps``, ``BLOCK_BYTES`` holds exactly ``steps`` step matrices of
    a state of ``size`` = n + 1 + m, so ``affine._block`` derives blocks of
    ``steps`` steps for that size.
    """
    seen = SimpleNamespace(up=[])
    upsweep = affine._upsweep

    def counted(H):
        seen.up.append(H.shape[0])
        upsweep(H)

    with contextlib.ExitStack() as stack:
        if steps is not None:
            stack.enter_context(mock.patch.object(affine, "BLOCK_BYTES", 8 * steps * size ** 2))
            assert affine._block(size, steps + 1) == steps
        stack.enter_context(mock.patch.object(affine, "_upsweep", counted))
        yield seen


def block_lengths(K, steps):
    """The block lengths of a K-step scan in blocks of ``steps``."""
    return [min(steps, K - lo) for lo in range(0, K, steps)]


@pytest.fixture(scope="session")
def scan_blocks():
    """``_scan_blocks`` and ``block_lengths``; session-scoped, so property tests may take it."""
    return _scan_blocks, block_lengths
