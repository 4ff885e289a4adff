"""Reverse-mode hypergradient over a recorded inner trajectory.

The outer objective seen through K inner steps is f_K(lam) = g(omega_K, lam)
with omega_{k+1} = Phi_k(omega_k, lam), the averaged step of
``bilevelopt.bigsam``.  Its gradient unrolls by the chain rule, in reverse
mode (Franceschi et al. 2017, "Forward and reverse gradient-based
hyperparameter optimization"): initialize the adjoint a = grad1_g(omega_K, lam)
and the accumulator G = grad2_g(omega_K, lam), then walk the transitions
newest to oldest, evaluating each step map's partials at the step's *input*
iterate with the averaging weight that step actually used:

    a^T dPhi_k/d(omega) = a - t*alpha * vjp11_h(a) - s*(1-alpha) * vjp11_g(a)
    a^T dPhi_k/d(lam)   =   - t*alpha * vjp12_h(a) - s*(1-alpha) * vjp12_g(a)

The g terms drop out on steps with alpha == 1.  Neither the pass nor the
finite-difference oracle knows the model: they see it only as the tape's
weights or the spec's exponent (the basic model is exponent 0, every alpha
1).  Both products belong to the step: each step's VJP,
``vjp(a, omega_side, lam_bar)`` of ``bilevelopt.problem.linearizer``, adds
the second into the accumulator and returns the first, so
``reverse_hypergradient`` makes one VJP call per step and does no mixing of
h and g itself.  The omega side is skipped on the oldest step.

Every transition contributes its lam-partial, including the very first one
(omega_0 -> omega_1): omega_0 itself is lam-independent, but the step that
produced omega_1 is not.  A central-difference oracle on f_K confirms this
bound; truncating the oldest transition leaves an O(alpha_1 * t) error that
is far above tolerance at small K.  The pass therefore takes exactly K
lam-side and K-1 omega-side step VJPs: O(K), matching the forward cost.

Where those VJPs come from sets what each costs.  Every solve that runs the
step loop records them on its tape, and the pass walks a tape's own VJPs.
A ``linearize`` hook's VJPs read the residuals their forward step saved (the
learning problems' softmax probabilities over both splits at once, and
hyper-representation's lam-bound features), so they recompute no forward
quantity, and on an averaged step they take h and g through one fused
kernel; the residuals live until the tape is dropped, O(K) arrays of the
problem's intermediate size.  VJPs of a step built from the slots (a
``replace`` copy, a user-built record) keep only the step's iterate and call
vjp11/vjp12, or the FD fallback of a slot left None, as the pass reaches
them, each recomputing its forward quantities.  A problem that declares its
affine structure (``BilevelProblem.affine``) has its solve compose the step
maps in a blocked scan that carries the lam-Jacobian J_K forward with the
iterates (``bilevelopt.affine``); its tape records J_K in place of VJPs,
and the pass reads grad2_g + J_K^T grad1_g off it without calling a VJP.
A tape with neither (hand-built), or one reversed by a problem without the
declaration, is linearized again from its iterates by the problem the pass
is given, at one more forward step each.
"""

from __future__ import annotations

import numpy as np

from .bigsam import InnerSolveSpec, Tape, final_inner_iterates_many, step_weights
# not called here, but the perfbench tracer patches it through this module
from .bigsam import final_inner_iterate  # noqa: F401
from .problem import (BilevelProblem, as_vector, central_differences, check_finite_positive,
                      finite, finite_probes, linearizer)

__all__ = ["reverse_hypergradient", "hypergradient_fd_oracle"]


def reverse_hypergradient(problem: BilevelProblem, tape: Tape) -> np.ndarray:
    """Accumulate the hypergradient of f_K at the tape's recorded lam.

    The loop makes one call per step to the step map's VJP of the module
    docstring: the tape's recorded ones, else those of ``linearizer`` at the
    tape's iterates, newest first.  A tape that records the lam-Jacobian J_K
    (the composed affine path's), reversed by a problem that declares its
    affine structure, instead gives grad2_g + J_K^T grad1_g from the same
    a = grad1_g and G = grad2_g.  A problem without the declaration (a
    ``replace`` copy, the reference) walks the loop.  Finiteness is checked
    once on the result, so an overflow on the way is not warned about.
    """
    n, m = problem.dims
    if tape.iterates.shape[1] != n or tape.lam.shape[0] != m:
        raise ValueError(
            f"tape-mismatch: tape is ({tape.iterates.shape[1]}, {tape.lam.shape[0]})-dimensional, "
            f"problem expects ({n}, {m})")
    lam = tape.lam
    omega_K = tape.final
    if tape.jacobian is not None and problem.affine is not None:
        vjps = None
    elif tape.vjps is not None:
        vjps = reversed(tape.vjps)
    else:
        step = linearizer(problem, lam)
        vjps = (step(w, ta, sb)[1] for w, (ta, sb) in
                zip(tape.iterates[-2::-1], step_weights(tape.alphas, tape.t, tape.s)[::-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.asarray(problem.grad1_g(omega_K, lam), dtype=np.float64)
        G = np.asarray(problem.grad2_g(omega_K, lam), dtype=np.float64).copy()
        if vjps is None:
            G += tape.jacobian.T @ a
        else:
            for k, vjp in zip(range(tape.K - 1, -1, -1), vjps):
                a = vjp(a, k > 0, G)
    return finite(G, "non-finite hypergradient")


def hypergradient_fd_oracle(problem: BilevelProblem, lam, spec: InnerSolveSpec,
                            eps: float = 1e-5) -> np.ndarray:
    """Central-difference hypergradient, rerunning the full inner solve per probe.

    Entry j is [f_K(lam + eps e_j) - f_K(lam - eps e_j)] / (2 eps), each
    evaluation restarting from the same omega_0, formed by
    ``central_differences``.  Deliberately independent of the VJP machinery:
    it only consumes values and the forward solver, and it runs that solver's
    generic loop even where the problem declares an affine structure.  It
    solves each block of probes that ``central_differences`` forms with one
    ``final_inner_iterates_many``, which records no VJP, and reads g on the
    block's final iterates, paired row by row with its probes, in one
    ``g_value`` call.  A problem without stacked gradients runs its row
    gradients row by row, with the bits of one solve per probe.  Every
    probe's final iterate and value must be finite:
    ``finite_probes`` names the first probe of a block where one is not,
    and a non-finite difference raises ``OracleDivergence`` too.
    The solves and g run with numpy's warnings off, so that one report
    replaces them.
    """
    check_finite_positive("eps", eps)
    m = problem.outer_dim
    lam = as_vector(lam, m, "lam")

    def solve(block, start):
        # every probe shares the schedule: a block solves as one stack
        finals = finite_probes("final iterate", final_inner_iterates_many(problem, block, spec),
                               start, m, eps)
        return finite_probes("g", problem.g_value(finals, block), start, m, eps)

    with np.errstate(all="ignore"):
        G = central_differences(solve, lam, eps, "g_value")
    return finite(G, "non-finite FD hypergradient")
