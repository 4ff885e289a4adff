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
offsets [t alpha_k d_h + s (1 - alpha_k) A_g c_g | t alpha_k B_h].  Each
step is held as the block matrix [[M_k, offset_k], [0, I]], so composing two
steps is one matrix product and the columns of the state do not mix: J_K has
the bits it would have in a scan of [omega | J].  ``bilevelopt.bigsam``
records omega_K and J_K on the tape; the reverse pass reads the hypergradient
of f_K(lam) = g(omega_K, lam) off them as grad2_g + J_K^T grad1_g.

Every library caller of a solve reads omega_K and J_K only, so
``final_iterate`` composes the final state [u_K | J_K] alone.  Per block it
runs the up-sweep, which leaves the block's last prefix unfinished, and then
only the down-sweep products on that prefix's chain (``_chain``):
popcount(B) - 1 products for a block of B steps, in the down-sweep's own
order, so [u_K | J_K] has the bits of the full scan.  The trajectory
omega_0..omega_K is formed on demand by ``inner_iterates``, which streams
the full scan (up-sweep and down-sweep) block by block at the block length
the final state was composed with, and so its last row is omega_K bit for
bit.  The tape of a composed solve calls it on the first read of its
``iterates`` and no library path makes that read.

The state depends on the affine spec, the weights, t and s, never on lam,
so a model that solves one inner spec at T outer iterates needs it once.
``bilevelopt.bigsam.solve_inner`` hands ``final_iterate`` a holder that
belongs to its ``InnerSolveSpec``, as that spec's weights do: the first
solve of an affine spec composes [u_K | J_K] and keeps it there, n (1 + m)
floats at any K, and later solves of the same spec object on the same
affine spec object form omega_K = u_K + J_K lam from it and scan nothing.
A holder keeps the state of one affine spec, the last solved.  The state
lives as long as the spec object that holds it: a fresh spec, such as each
``SolveConfig.inner_spec()`` call makes, scans again.  The kept state is
read-only, and so are the arrays of the affine spec it was composed from
(``bilevelopt.problems.make_quadratic``).

An iterate sums J_k lam over lam's entries in order, elementwise, and not
through a BLAS matrix-vector product, which rounds a row by its position
in the call: so omega_K has the same bits from the kept state as in the
last row of the trajectory, in a block of any length.  Forming omega_k from u_k and
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
the O(K) weights, and the O(K n) iterates where the trajectory is read, the
memory is O(BLOCK_BYTES) for any K and any state size (one step matrix,
where one alone is larger).  At small n the scan is bound by numpy calls,
2 log2(B) per block of B steps (about half that for the final state), and
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

``final_iterate`` returns None when omega_K, or a matrix the up-sweep
formed, is not finite; the caller then reruns the generic loop, which is
the reference path and names the step that diverged.  J_K needs no check of
its own: lam is finite, so a non-finite entry of J_K makes
omega_K = u_K + J_K lam non-finite (inf * 0 is NaN).  ``inner_iterates``
checks nothing: a trajectory read later may still hold a non-finite iterate
(say, where u_k and J_k lam overflow before they cancel), and its caller,
the tape, raises ``OracleDivergence`` naming the step.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["BLOCK_BYTES", "final_iterate", "inner_iterates"]

BLOCK_BYTES = 512 * 1024


def _block(size: int, K: int) -> int:
    """Steps per block: as many (size x size) float64 step matrices as fill ``BLOCK_BYTES``.

    At least one and at most K, or one step when K = 0.
    """
    return max(1, min(K, BLOCK_BYTES // (8 * size * size)))


def _upsweep(H: np.ndarray) -> None:
    """Compose pairs of H's steps at strides 1, 2, 4, ..., in place.

    Each aligned run of 2d steps ends holding the composition of the run,
    so step v (1-based) holds that of the lowbit(v) steps ending at v: the
    steps at powers of two hold their whole prefix.
    """
    B = H.shape[0]
    d = 1
    while 2 * d <= B:
        H[2 * d - 1::2 * d] = H[2 * d - 1::2 * d] @ H[d - 1::2 * d][:B // (2 * d)]
        d *= 2


def _downsweep(H: np.ndarray) -> None:
    """Finish an up-swept H: each H[k] becomes the composition H[k] @ ... @ H[0].

    From the widest stride down, each step v = (2j + 1) d, j >= 1, composes
    its run with the finished prefix of step v - d.  With the up-sweep,
    about 2B products in 2 log2(B) batched matmuls for B steps.
    """
    d = 1 << (H.shape[0].bit_length() - 1)
    while d > 1:
        d //= 2
        later = H[3 * d - 1::2 * d]
        H[3 * d - 1::2 * d] = later @ H[2 * d - 1::2 * d][:later.shape[0]]


def _chain(H: np.ndarray) -> None:
    """Finish the last step of an up-swept H alone, with the bits ``_downsweep`` gives it.

    The down-sweep finishes step B through its chain B, B - lowbit(B), ...
    down to the largest power of two, which the up-sweep finished: each
    link composes its run with the finished prefix of the link below.
    These are popcount(B) - 1 products, taken here in the down-sweep's
    order, from the lowest link up.
    """
    links = []
    v = H.shape[0]
    while v & (v - 1):
        links.append(v)
        v &= v - 1
    prefix = H[v - 1:v]
    for v in reversed(links):
        prefix = H[v - 1:v] @ prefix
    H[-1:] = prefix


def _upswept(spec, alphas: np.ndarray, t: float, s: float,
             block: int) -> Iterator[Tuple[int, np.ndarray]]:
    """The K steps' block matrices, ``block`` steps at a time, each block up-swept.

    Yields (lo, G) per block, G[i] the step matrix [[M_k, offset_k], [0, I]]
    of step k = lo + i, the carried state folded into its first step.  The
    caller finishes G, whole (``_downsweep``) or its last step (``_chain``),
    before it asks for the next block, which carries the state of G's last
    step; G is a view of a buffer that the next block overwrites.
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
    H = np.zeros((block, n + r, n + r))
    H[:, n:, n:] = np.eye(r)
    tops = H.reshape(block, (n + r) ** 2)[:, :n * (n + r)]
    X = np.zeros((n, r))
    for lo in range(0, K, block):
        G = H[:min(block, K - lo)]
        np.matmul(weights[lo:lo + block], rows, out=tops[:G.shape[0]])
        # the block's first step starts from the carried state, so once
        # finished the offset columns of step k hold the state X_{lo+k+1}
        G[0, :n, n:] += G[0, :n, :n] @ X
        _upsweep(G)
        yield lo, G
        X = G[-1, :n, n:].copy()


def _final_state(spec, alphas: np.ndarray, t: float, s: float,
                 block: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """u_K and J_K, read-only, J_K in C order; None if a matrix the up-sweep formed is not finite."""
    n, m = spec.B_h.shape
    state = np.zeros((n, 1 + m))
    for _, G in _upswept(spec, alphas, t, s, block):
        if not np.isfinite(G).all():
            return None
        _chain(G)
        state = G[-1, :n, n:]
    # a C-order J: the reverse pass reads it through BLAS, whose summation
    # order follows its layout, so it must be laid out as a streamed J is
    u, J = state[:, 0].copy(), state[:, 1:].copy()
    u.flags.writeable = J.flags.writeable = False
    return u, J


@np.errstate(over="ignore", invalid="ignore")
def final_iterate(spec, lam: np.ndarray, alphas: np.ndarray, t: float, s: float,
                  held: dict) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """omega_K and J_K = d omega_K / d lam from omega_0 = 0, and the block of their scan.

    ``held``, a dict that belongs to the ``InnerSolveSpec`` whose
    ``alphas``, ``t`` and ``s`` these are, keeps u_K and J_K of the one
    affine spec it last solved, with the block length they were composed
    at: ``inner_iterates`` at that block gives the trajectory whose last
    row is omega_K.  The J_K returned is the held, read-only array.  None
    if omega_K, or a matrix the up-sweep formed, is not finite; numpy's
    overflow warnings are off.
    """
    entry = held.get(id(spec))
    if entry is None:
        n, m = spec.B_h.shape
        block = _block(n + 1 + m, alphas.shape[0])
        held.clear()
        # the entry keeps its spec alive, so no other spec reuses its id
        entry = held[id(spec)] = (spec, block, _final_state(spec, alphas, t, s, block))
    _, block, state = entry
    if state is None:
        return None
    u, J = state
    # elementwise over lam's entries, as ``inner_iterates`` forms each row
    omega = u.copy()
    for j, x in enumerate(lam.tolist()):
        omega += J[:, j] * x
    return (omega, J, block) if np.all(np.isfinite(omega)) else None


@np.errstate(over="ignore", invalid="ignore")
def inner_iterates(spec, lam: np.ndarray, alphas: np.ndarray, t: float, s: float,
                   block: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """omega_0..omega_K from omega_0 = 0, stacked row-wise, and J_K = d omega_K / d lam.

    The full scan, in blocks of ``block`` steps (by default ``_block``'s),
    streams each block's lam-free states [u_k | J_k] once and writes its
    iterates u_k + J_k lam, with numpy's overflow warnings off.  The
    iterates are not checked for finiteness: the caller checks them.
    """
    n, m = spec.B_h.shape
    K = alphas.shape[0]
    iterates = np.empty((K + 1, n))
    iterates[0] = 0.0
    J = np.zeros((n, m))
    for lo, G in _upswept(spec, alphas, t, s, block or _block(n + 1 + m, K)):
        _downsweep(G)
        # S[j, i] is column j of the state after step lo + i + 1
        S = G[:, :n, n:].transpose(2, 0, 1)
        # elementwise over lam's entries, so the bits do not depend on the block
        out = iterates[lo + 1:lo + 1 + S.shape[1]]
        np.copyto(out, S[0])
        for j, x in enumerate(lam.tolist(), 1):
            out += S[j] * x
        J = S[1:, -1].T
    # a C-order copy, laid out as the final state's J
    return iterates, J.copy()
