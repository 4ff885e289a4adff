"""Composed inner steps for problems whose inner gradients are affine in omega.

When h and g are the quadratics of a ``QuadraticBilevelSpec``,

    grad1_h(w, lam) = A_h w - (B_h lam + d_h),    grad1_g(w, lam) = A_g (w - c_g),

the averaged step with weight alpha_k is the affine map

    omega_{k+1} = M_k omega_k + t alpha_k (B_h lam + d_h) + s (1 - alpha_k) A_g c_g,
    M_k = I - t alpha_k A_h - s (1 - alpha_k) A_g.

Affine maps compose associatively, (M2, c2) o (M1, c1) = (M2 M1, M2 c1 + c2),
so the prefix compositions of a block of steps come out of a scan (Blelloch
1990, "Prefix sums and their applications") in a few batched numpy calls
instead of one Python iteration per step.  The scan is work-efficient: its
up-sweep takes about B matrix products for B steps, in log2(B) batched
matmuls (depth), where a doubling scan would take about B log2(B)
products.  The same maps carry the lam-Jacobian forward (Franceschi et al.
2017, "Forward and reverse gradient-based hyperparameter optimization"):

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

The reverse pass reads omega_K and J_K only, so ``final_iterate`` composes
the final state [u_K | J_K] alone and forms no trajectory.  Per block it
runs the up-sweep, which leaves the block's last prefix unfinished, and then
only the down-sweep products on that prefix's chain (``_chain``):
popcount(B) - 1 products for a block of B steps, in the down-sweep's own
order, so [u_K | J_K] has the bits of the full scan.  The blocks are cut in
one place, ``_final_state``, at the length ``_block`` derives from
n + 1 + m and K, so no caller passes a block length.  The tape of a
composed solve holds no trajectory; the generic loop of a
``dataclasses.replace`` copy of the problem, the reference path, records
one.

The state depends on the affine spec, the weights, t and s, never on lam,
so a model that solves one inner spec at T outer iterates needs it once.
``bilevelopt.bigsam.solve_inner`` hands ``final_iterate`` a holder that
belongs to its ``InnerSolveSpec``, as that spec's weights do: the first
solve of an affine spec composes [u_K | J_K] and keeps it there, n (1 + m)
floats at any K, and later solves of the same spec object on the same
affine spec object form omega_K = u_K + J_K lam from it and scan nothing.
A holder is one slot, the affine spec last solved and its state, and it
knows an affine spec by identity (``held.get("spec") is spec``): a solve
of any other affine spec object composes that spec's state and replaces
the slot.  The state lives as long as the spec object that holds it: a
fresh spec, such as each ``SolveConfig.inner_spec()`` call makes, scans
again.  The kept state is read-only, and so are the arrays of the affine
spec it was composed from (``bilevelopt.problems.make_quadratic``).

omega_K sums J_K lam over lam's entries in order, elementwise, and not
through a BLAS matrix-vector product, which rounds a row by its position
in the call.  Forming omega_K from u_K and J_K rounds differently from
scanning omega_k itself, and loses to cancellation where u_K and J_K lam
nearly cancel.  Against the exact rational recurrence
(``tests/test_exact_referee.py``, 4,000 random draws at K <= 60), the
largest relative errors were:

                          omega_K   J_K       hypergradient
    u_K + J_K lam         6.5e-15   1.5e-15   4.5e-15
    generic loop          3.8e-15             1.7e-15

The first row's largest omega_K and hypergradient errors are one draw's,
where u_K and J_K lam cancel to a fifth of their size in omega_K.

Steps are composed a block at a time with the state carried from block to
block.  A block holds as many step matrices as fill ``BLOCK_BYTES`` = 512
KiB, max(1, BLOCK_BYTES // (8 (n + 1 + m)^2)) steps, at most K; so beyond
the O(K) weights, the memory is O(BLOCK_BYTES) for any K and any state size
(one step matrix, where one alone is larger).  At small n the scan is bound
by numpy calls, about log2(B) per block of B steps, and long blocks make
fewer calls per step; at large n it is bound by flops, about one
(n+1+m)-square product per step, and short blocks keep their matrices in
cache.  The budget was measured on the full scan, up-sweep and down-sweep,
which took about twice the products (2-core Xeon, 2 MiB L2 per core,
OpenBLAS on one thread; median microseconds per step of K = 2000 steps over
40 interleaved rounds, with the steps per block in brackets, against fixed
blocks of 256 steps):

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
omega_K = u_K + J_K lam non-finite (inf * 0 is NaN).  Those are all the
checks: no intermediate iterate omega_k = u_k + J_k lam is formed, so one
that overflows (where u_k and J_k lam overflow before they cancel) goes
unseen, and the composed solve can return a finite omega_K where the
generic loop raises ``OracleDivergence`` at that step.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["BLOCK_BYTES", "final_iterate"]

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


def _chain(H: np.ndarray) -> None:
    """Finish the last step of an up-swept H alone: H[-1] becomes H[-1] @ ... @ H[0].

    The down-sweep of the full scan would finish step B through its chain
    B, B - lowbit(B), ... down to the largest power of two, which the
    up-sweep finished: each link composes its run with the finished prefix
    of the link below.  These are popcount(B) - 1 products, taken here in
    the down-sweep's order, from the lowest link up, so step B has the
    bits the full scan gives it.
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


def _final_state(spec, alphas: np.ndarray, t: float,
                 s: float) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """u_K and J_K, read-only, J_K in C order; None if a matrix the up-sweep formed is not finite.

    The K steps' block matrices [[M_k, offset_k], [0, I]] are formed
    ``_block``'s steps at a time, the carried state folded into each
    block's first step; each block is up-swept and its last step finished
    (``_chain``), which carries the state to the next block.
    """
    n, m = spec.B_h.shape
    r = 1 + m
    K = alphas.shape[0]
    block = _block(n + r, K)
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
        # finished its last step's offset columns hold the state X_{lo+B}
        G[0, :n, n:] += G[0, :n, :n] @ X
        _upsweep(G)
        if not np.isfinite(G).all():
            return None
        _chain(G)
        # a copy: the next block overwrites G
        X = G[-1, :n, n:].copy()
    # a C-order J: the reverse pass reads it through BLAS, whose summation
    # order follows its layout
    u, J = X[:, 0].copy(), X[:, 1:].copy()
    u.flags.writeable = J.flags.writeable = False
    return u, J


@np.errstate(over="ignore", invalid="ignore")
def final_iterate(spec, lam: np.ndarray, alphas: np.ndarray, t: float, s: float,
                  held: dict) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """omega_K and J_K = d omega_K / d lam from omega_0 = 0.

    ``held``, a dict that belongs to the ``InnerSolveSpec`` whose
    ``alphas``, ``t`` and ``s`` these are, keeps one slot: the affine spec
    it last solved, under "spec", and that spec's u_K and J_K, under
    "state".  A solve of the same spec object reads the state; any other
    spec replaces the slot.  The J_K returned is the held, read-only
    array.  None if omega_K, or a matrix the up-sweep formed, is not
    finite; numpy's overflow warnings are off.
    """
    if held.get("spec") is not spec:
        held.update(spec=spec, state=_final_state(spec, alphas, t, s))
    if held["state"] is None:
        return None
    u, J = held["state"]
    # elementwise over lam's entries: see the module docstring
    omega = u.copy()
    for j, x in enumerate(lam.tolist()):
        omega += J[:, j] * x
    return (omega, J) if np.all(np.isfinite(omega)) else None
