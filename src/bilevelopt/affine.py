"""Composed inner steps for problems whose inner gradients are affine in omega.

When h and g are the quadratics of a ``QuadraticBilevelSpec``,

    grad1_h(w, lam) = A_h w - (B_h lam + d_h),    grad1_g(w, lam) = A_g (w - c_g),

the averaged step with weight alpha_k is the affine map

    omega_{k+1} = M_k omega_k + t alpha_k (B_h lam + d_h) + s (1 - alpha_k) A_g c_g,
    M_k = I - t alpha_k A_h - s (1 - alpha_k) A_g.

Affine maps compose associatively, (M2, c2) o (M1, c1) = (M2 M1, M2 c1 + c2),
so the prefix compositions of a block of steps come out of a log-depth scan
(Blelloch 1990, "Prefix sums and their applications") in a few batched numpy
calls instead of one Python iteration per step.  The same maps carry the
lam-Jacobian forward (Franceschi et al. 2017, "Forward and reverse
gradient-based hyperparameter optimization"):

    J_{k+1} = M_k J_k + t alpha_k B_h,    J_0 = 0,

so one scan composes the n x (1 + m) state [omega | J] with the offsets
[t alpha_k (B_h lam + d_h) + s (1 - alpha_k) A_g c_g | t alpha_k B_h].
``bilevelopt.bigsam`` records J_K on the tape, and the reverse pass reads
the hypergradient of f_K(lam) = g(omega_K, lam) off it as
grad2_g + J_K^T grad1_g(omega_K, lam).

Steps are composed ``BLOCK`` at a time with the state carried from block to
block, so the extra memory is O(BLOCK (n + m)^2) for any K.
``inner_iterates`` returns None when a composed value, of the iterates or of
J_K, is not finite; the caller then reruns the generic loop, which is the
reference path and names the step that diverged.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["BLOCK", "inner_iterates"]

BLOCK = 256


def _states(spec, alphas: np.ndarray, t: float, s: float, X: np.ndarray,
            b: np.ndarray, gc: np.ndarray):
    """Apply X <- M_k X + [t alpha_k b + s (1 - alpha_k) gc | t alpha_k B_h] for every step k.

    ``X`` is the (n, 1 + m) state [omega | J].  Each step is held as the
    block matrix [[M_k, offset_k], [0, I]], so composing two steps is one
    matrix product, and the columns of the state do not mix.  Yields each
    block's states X_{lo+1}..X_{hi} as one (len, n, 1 + m) array.
    """
    n, r = X.shape
    eye = np.eye(n)
    for lo in range(0, alphas.shape[0], BLOCK):
        alpha = alphas[lo:lo + BLOCK]
        ta = t * alpha
        sb = s * (1.0 - alpha)
        H = np.zeros((alpha.shape[0], n + r, n + r))
        M = H[:, :n, :n]
        M[:] = eye - ta[:, None, None] * spec.A_h - sb[:, None, None] * spec.A_g
        H[:, :n, n] = ta[:, None] * b + sb[:, None] * gc
        H[:, :n, n + 1:] = ta[:, None, None] * spec.B_h
        H[:, n:, n:] = np.eye(r)
        # the block's first step starts from the carried state, so after the
        # scan the offset columns of step k hold the state X_{lo+k+1}
        H[0, :n, n:] += M[0] @ X
        d = 1
        while d < H.shape[0]:
            H[d:] = H[d:] @ H[:-d]
            d *= 2
        X = H[-1, :n, n:]
        yield H[:, :n, n:]


def inner_iterates(spec, lam: np.ndarray, alphas: np.ndarray,
                   t: float, s: float) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """omega_0..omega_K from omega_0 = 0, stacked row-wise, and J_K = d omega_K / d lam.

    None if a composed value is not finite.
    """
    n, m = spec.B_h.shape
    X = np.zeros((n, 1 + m))
    iterates = np.empty((alphas.shape[0] + 1, n))
    iterates[0] = 0.0
    row = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for Y in _states(spec, alphas, t, s, X, spec.B_h @ lam + spec.d_h,
                         spec.A_g @ spec.c_g):
            iterates[row:row + Y.shape[0]] = Y[:, :, 0]
            row += Y.shape[0]
            X = Y[-1]
    J = X[:, 1:].copy()
    return (iterates, J) if np.all(np.isfinite(iterates)) and np.all(np.isfinite(J)) else None
