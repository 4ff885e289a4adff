"""Composed inner steps for problems whose inner gradients are affine in omega.

When h and g are the quadratics of a ``QuadraticBilevelSpec``,

    grad1_h(w, lam) = A_h w - (B_h lam + d_h),    grad1_g(w, lam) = A_g (w - c_g),

the averaged step with weight alpha_k is the affine map

    omega_{k+1} = M_k omega_k + t alpha_k (B_h lam + d_h) + s (1 - alpha_k) A_g c_g,
    M_k = I - t alpha_k A_h - s (1 - alpha_k) A_g.

Affine maps compose associatively, (M2, c2) o (M1, c1) = (M2 M1, M2 c1 + c2),
so the prefix compositions of a block of steps come out of a scan (Blelloch
1990, "Prefix sums and their applications") in a few batched numpy calls
instead of one Python iteration per step.  The scan is work-efficient: an
up-sweep and a down-sweep take about 2B matrix products for B steps, in
2 log2(B) batched matmuls (depth), where a doubling scan would take about
B log2(B) products.  The same maps carry the
lam-Jacobian forward (Franceschi et al. 2017, "Forward and reverse
gradient-based hyperparameter optimization"):

    J_{k+1} = M_k J_k + t alpha_k B_h,    J_0 = 0.

From omega_0 = 0 every iterate is affine in lam, omega_k = u_k + J_k lam,
where the lam-free part follows the same maps with lam left out,

    u_{k+1} = M_k u_k + t alpha_k d_h + s (1 - alpha_k) A_g c_g,    u_0 = 0,

so one scan composes the n x (1 + m) lam-free state [u | J] with the
offsets [t alpha_k d_h + s (1 - alpha_k) A_g c_g | t alpha_k B_h].
``inner_iterates`` holds each step as the block matrix
[[M_k, offset_k], [0, I]], so composing two steps is one matrix product and
the columns of the state do not mix: J_K has the bits it would have in a
scan of [omega | J].  It then forms each iterate u_k + J_k lam, and
``bilevelopt.bigsam`` records J_K on the tape; the reverse pass reads the
hypergradient of f_K(lam) = g(omega_K, lam) off it as
grad2_g + J_K^T grad1_g(omega_K, lam).

The states depend on the affine spec, the weights, t and s, never on lam,
so a model that solves one inner spec at T outer iterates needs them once.
``bilevelopt.bigsam.solve_inner`` hands ``inner_iterates`` a holder that
belongs to its ``InnerSolveSpec``, as that spec's weights do: the first
solve of an affine spec scans and keeps its states there, and later solves
of the same spec object on the same affine spec object form their
iterates from the kept states and scan nothing.  A holder keeps the states
of one affine spec, the last scanned, and only while all K + 1 of them,
(K + 1) n (1 + m) floats, fit ``BLOCK_BYTES``; above that every solve
streams its states block by block and keeps none.  The kept states live
as long as the spec object that holds them: a fresh spec, such as each
``SolveConfig.inner_spec()`` call makes, scans again.  Kept states are
laid out as the iterates read them: each column of [u | J] is one
contiguous (steps, n) slab, so a kept solve reads no state through a
stride.  A streamed block is a transposed view of the scan's buffer with
the same indexing, so both are read through one path.  Kept states are
read-only, and so are the arrays of the affine spec they were scanned
from (``bilevelopt.problems.make_quadratic``).

An iterate sums J_k lam over lam's entries in order, elementwise, and not
through a BLAS matrix-vector product, which rounds a row by its position
in the call: so an iterate has the same bits from kept states as from a
streamed block, in a block of any length.  Forming omega_k from u_k and
J_k rounds differently from scanning omega_k itself, and loses to
cancellation where u_k and J_k lam nearly cancel.  Against the exact
rational recurrence (``tests/test_exact_referee.py``, 4,000 random draws
at K <= 60), the largest relative errors were:

                          iterates   J_K       hypergradient
    u_k + J_k lam         6.5e-15    1.5e-15   4.5e-15
    omega_k scanned       1.4e-15    1.5e-15   1.5e-15
    generic loop          1.1e-15              1.7e-15

The first row's largest iterate and hypergradient errors are one draw's,
where u_K and J_K lam cancel to a fifth of their size in omega_K.

Steps are composed a block at a time with the state carried from block to
block.  A block holds as many step matrices as fill ``BLOCK_BYTES`` = 512
KiB, max(1, BLOCK_BYTES // (8 (n + 1 + m)^2)) steps, at most K; so beyond
the O(K n) iterates and O(K) weights the memory is O(BLOCK_BYTES) for any K
and any state size (one step matrix, where one alone is larger).  At small
n the scan is bound by numpy calls, 2 log2(B) per block of B steps, and
long blocks make fewer calls per step; at large n it is bound by flops,
about two (n+1+m)-square products per step, and short blocks keep their
matrices in cache.  The budget is measured (2-core Xeon, 2 MiB L2 per
core, OpenBLAS on one thread; median microseconds per step of K = 2000
steps over 40 interleaved rounds, with the steps per block in brackets,
against fixed blocks of 256 steps):

    n+1+m   256 steps      256 KiB        512 KiB        1 MiB
      3      0.53           0.29 (2000)    0.29 (2000)    0.29 (2000)
      4      0.54           0.29 (2000)    0.30 (2000)    0.29 (2000)
      8      0.68           0.55 (512)     0.49 (1024)    0.54 (2000)
     12      1.00           0.99 (227)     0.91 (455)     0.94 (910)
     21      2.30           2.64 (74)      2.28 (148)     2.36 (297)
     31      6.73           6.14 (34)      5.80 (68)      5.94 (136)
     41     12.8           10.1 (19)      10.0 (38)      10.4 (77)
     61     37.1           25.1 (8)       26.1 (17)      28.2 (35)
    101    199             62.6 (3)       94.4 (6)      115 (12)

512 KiB is no slower than fixed 256-step blocks at any of these sizes.
256 KiB is faster at n+1+m >= 61 but 15% slower at 21, and larger budgets
gain nothing at small n and lose at large n.

``inner_iterates`` returns None when a composed iterate is not finite; the
caller then reruns the generic loop, which is the reference path and names
the step that diverged.  J_K needs no check of its own: lam is finite, so a
non-finite entry of J_K makes omega_K = u_K + J_K lam non-finite (inf * 0
is NaN).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["BLOCK_BYTES", "inner_iterates"]

BLOCK_BYTES = 512 * 1024


def _block(size: int, K: int) -> int:
    """Steps per block: as many (size x size) float64 step matrices as fill ``BLOCK_BYTES``.

    At least one and at most K, or one step when K = 0.
    """
    return max(1, min(K, BLOCK_BYTES // (8 * size * size)))


def _scan(H: np.ndarray) -> None:
    """Replace each H[k] by the composition H[k] @ ... @ H[0], in place.

    An up-sweep composes pairs at strides 1, 2, 4, ..., leaving the
    composition of every aligned run of 2d steps on the run's last step; a
    down-sweep then finishes, from the widest stride down, each step that
    sits d past such a run.  About 2B products in 2 log2(B) batched matmuls
    for B steps.
    """
    B = H.shape[0]
    d = 1
    while 2 * d <= B:
        H[2 * d - 1::2 * d] = H[2 * d - 1::2 * d] @ H[d - 1::2 * d][:B // (2 * d)]
        d *= 2
    while d > 1:
        d //= 2
        later = H[3 * d - 1::2 * d]
        H[3 * d - 1::2 * d] = later @ H[2 * d - 1::2 * d][:later.shape[0]]


def _states(spec, alphas: np.ndarray, t: float, s: float) -> Iterator[Tuple[int, np.ndarray]]:
    """The lam-free states [u | J] after steps 1..K, one block at a time.

    Yields (lo, S) per block, where S[j, i] is column j of the (n, 1 + m)
    state after step lo + i + 1: S[0] holds the block's u_k and S[j] the
    j-th columns of its J_k, the slabs in which the iterates read them.
    Each block forms its steps' block matrices [[M_k, offset_k], [0, I]],
    folds the carried state into its first step, scans, and yields its
    states as a view of the block buffer: a view the next block overwrites.
    """
    n, m = spec.B_h.shape
    r = 1 + m
    K = alphas.shape[0]
    # the top rows [M_k | offset_k] of step k combine three constant rows,
    # t alpha_k [-A_h | d_h | B_h] + [I | 0] + s (1 - alpha_k) [-A_g | gc | 0],
    # and one matrix product forms them for a whole block
    rows = np.zeros((3, n, n + r))
    rows[0, :, :n] = -spec.A_h
    rows[0, :, n] = spec.d_h
    rows[0, :, n + 1:] = spec.B_h
    rows[1, :, :n] = np.eye(n)
    rows[2, :, :n] = -spec.A_g
    rows[2, :, n] = spec.A_g @ spec.c_g
    rows = rows.reshape(3, n * (n + r))
    weights = np.stack((t * alphas, np.ones(K), s * (1.0 - alphas)), axis=1)
    # one block's steps, rewritten for every block; the scan keeps their
    # [0, I] rows while its values stay finite, and a value that does not
    # fails the whole solve
    block = _block(n + r, K)
    H = np.zeros((block, n + r, n + r))
    H[:, n:, n:] = np.eye(r)
    tops = H.reshape(block, (n + r) ** 2)[:, :n * (n + r)]
    X = np.zeros((n, r))
    for lo in range(0, K, block):
        G = H[:min(block, K - lo)]
        np.matmul(weights[lo:lo + block], rows, out=tops[:G.shape[0]])
        # the block's first step starts from the carried state, so after the
        # scan the offset columns of step k hold the state X_{lo+k+1}
        G[0, :n, n:] += G[0, :n, :n] @ X
        _scan(G)
        yield lo, G[:, :n, n:].transpose(2, 0, 1)
        X = G[-1, :n, n:].copy()


@np.errstate(over="ignore", invalid="ignore")
def inner_iterates(spec, lam: np.ndarray, alphas: np.ndarray, t: float, s: float,
                   kept: Optional[dict] = None) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """omega_0..omega_K from omega_0 = 0, stacked row-wise, and J_K = d omega_K / d lam.

    One loop over the blocks of lam-free states [u_k | J_k] writes each
    block's iterates u_k + J_k lam, all with numpy's overflow warnings off.
    The blocks are ``_states``' scan, or the states that ``kept`` holds for
    ``spec``, each column of a kept block one contiguous (steps, n) slab.
    ``kept``, a dict that belongs to the ``InnerSolveSpec`` whose
    ``alphas``, ``t`` and ``s`` these are, holds the states of the one
    affine spec it last scanned, where all K + 1 fit ``BLOCK_BYTES``.  None
    if a composed iterate is not finite.
    """
    n, m = spec.B_h.shape
    K = alphas.shape[0]
    held = None if kept is None else kept.get(id(spec))
    # the held entry keeps its spec alive, so no other spec reuses its id
    blocks = _states(spec, alphas, t, s) if held is None else held[1]
    keep = [] if held is None and kept is not None and \
        8 * (K + 1) * n * (1 + m) <= BLOCK_BYTES else None
    iterates = np.empty((K + 1, n))
    iterates[0] = 0.0
    J = np.zeros((n, m))
    for lo, S in blocks:
        if keep is not None:
            # a C-order copy lays each column's slab S[j] out contiguously
            S = S.copy()
            S.flags.writeable = False
            keep.append((lo, S))
        # elementwise over lam's entries, so the bits do not depend on the block
        out = iterates[lo + 1:lo + 1 + S.shape[1]]
        np.copyto(out, S[0])
        for j, x in enumerate(lam.tolist(), 1):
            out += S[j] * x
        J = S[1:, -1].T
    if keep is not None:
        kept.clear()
        kept[id(spec)] = (spec, keep)
    # a C-order copy: the reverse pass reads J through BLAS, whose summation
    # order follows its layout, so a kept and a streamed J must share one
    return (iterates, J.copy()) if np.all(np.isfinite(iterates)) else None
