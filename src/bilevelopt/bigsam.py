"""The averaged inner solver: the schedule, the one inner loop, tapes.

One inner iteration averages a gradient step on the inner objective h with a
gradient step on the outer objective g:

    theta_{k+1} = omega_k - t * grad1_h(omega_k, lam)
    phi_{k+1}   = omega_k - s * grad1_g(omega_k, lam)
    omega_{k+1} = alpha_{k+1} * theta_{k+1} + (1 - alpha_{k+1}) * phi_{k+1}

A problem's step map applies it in the expanded form
omega - t*alpha*grad1_h - s*(1-alpha)*grad1_g.  The weight follows the one
schedule alpha_k = min(1, k^(-exponent)) of ``schedule``.  The solver knows
no model: with exponent 0 every alpha is 1 and the update is plain gradient
descent on h, which is exactly the inner solver of the basic bilevel model,
while the improved model averages with a positive exponent.  A model name
becomes an exponent in one place, ``model_exponent``, which the configs of
``bilevelopt.models`` and ``bilevelopt.oracles`` call.  The exponent
defaults to ``ALPHA_EXPONENT`` = 1/4 in ``InnerSolveSpec``,
``bigsam_standalone``, ``model_exponent`` and
``bilevelopt.models.SolveConfig``.  Steps with alpha == 1 skip the g half
entirely.  Every solve starts at omega_0 = 0.

Every solve binds lam once through ``bilevelopt.problem.linearizer``, which
returns the step map itself: ``_iterate`` makes one ``step`` call per inner
step, and a problem's hook may evaluate h and g in one fused kernel.
``solve_inner`` records each step's VJP on the ``Tape`` (the composed affine
path records omega_K and J_K = d omega_K / d lam instead, and forms the
trajectory only if it is read), and ``final_inner_iterate`` is its last
iterate.  A stack of lam rows (``final_inner_iterates_many``,
the finite-difference referee's probes) binds the same step map on a
stack; that solve keeps no VJP, so each step's is dropped at the next
step.  The reverse pass over a ``Tape`` is ``bilevelopt.hypergrad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from . import affine
from .problem import (BilevelProblem, as_vector, check_finite_positive, check_number, finite,
                      linearizer)

__all__ = ["InnerSolveSpec", "Tape", "model_exponent", "schedule", "step_weights",
           "solve_inner", "bigsam_standalone"]

MODES = ("improved", "basic")
# the improved model's averaging weight alpha_k = k^-ALPHA_EXPONENT
ALPHA_EXPONENT = 0.25


def model_exponent(mode: str, alpha_exponent: float = ALPHA_EXPONENT) -> float:
    """The alpha-exponent that runs model ``mode``: 0 for basic, ``alpha_exponent`` for improved.

    The one place a model name is read, and so the one place an unknown
    one is rejected.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return 0.0 if mode == "basic" else alpha_exponent


def check_inner_settings(t: float, s: float, exponent: float, K: int, frequency: int) -> None:
    """Reject step sizes that are not finite and positive, and a bad averaging exponent.

    The one place the float settings of an inner solve are checked, for
    ``InnerSolveSpec`` and for ``bilevelopt.models.SolveConfig`` alike,
    after their counts.  An exponent outside [0, inf) is refused: a
    negative one pins every weight at 1, as exponent 0 (the basic model)
    does.  So is one whose weights underflow within K steps, because a
    weight of 0 would drop h from its step altogether.  The exponent, and
    K, whose last weight is taken as a float, must be numbers that a float
    can hold.
    """
    check_finite_positive("t", t)
    check_finite_positive("s", s)
    if type(exponent) is not float:
        check_number("alpha_exponent", exponent)
    check_number("K", K)
    if not (math.isfinite(exponent) and exponent >= 0):
        raise ValueError(f"alpha_exponent must be finite and non-negative, got {exponent!r}")
    # the weights fall with k: the last averaged step has the smallest
    last = 1 + (K - 1) // frequency * frequency
    if K and float(last) ** -exponent == 0.0:
        raise ValueError(f"alpha_exponent {exponent!r} underflows the averaging weight "
                         f"of inner step {last} to 0")


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int; a bool, a non-integral value or one below ``least`` is rejected."""
    try:
        count = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return count


@dataclass(frozen=True)
class InnerSolveSpec:
    """Configuration of one inner solve.

    ``bigsam_frequency`` f applies the averaged step on iterations with
    k % f == 0 (0-based) and a pure h-gradient step otherwise; f = 1 averages
    every step.  Every solve starts at omega_0 = 0.

    A spec computes its weights once (``schedule``) and holds, for the
    composed affine path, the final lam-free state [u_K | J_K] of the affine
    spec it last solved: n (1 + m) floats at any K, from which its later
    solves of that affine spec form omega_K without a scan.
    """

    K: int
    t: float
    s: float
    alpha_exponent: float = ALPHA_EXPONENT
    bigsam_frequency: int = 1

    def __post_init__(self):
        object.__setattr__(self, "K", check_count("K", self.K, 0))
        object.__setattr__(self, "bigsam_frequency",
                           check_count("bigsam_frequency", self.bigsam_frequency, 1))
        check_inner_settings(self.t, self.s, self.alpha_exponent, self.K, self.bigsam_frequency)

    @cached_property
    def _alphas(self) -> np.ndarray:
        # ``schedule``'s weights
        K = self.K
        alphas = np.ones(K)
        if self.alpha_exponent != 0.0:
            # np.float_power calls libm pow on each entry, so every weight has
            # the bits of math.pow(k, -exponent) in one vectorized call;
            # np.power's SIMD loop rounds some entries differently
            freq = self.bigsam_frequency
            alphas[::freq] = np.minimum(
                np.float_power(np.arange(1, K + 1, freq, dtype=np.float64),
                               -self.alpha_exponent), 1.0)
        alphas.flags.writeable = False
        return alphas

    @cached_property
    def _affine_state(self) -> dict:
        # one slot, {"spec": affine spec, "state": its [u_K | J_K] or None}:
        # the composed path's final lam-free state of the affine spec this
        # spec last solved, which ``bilevelopt.affine.final_iterate`` keeps
        # and reads
        return {}


@dataclass(frozen=True)
class Tape:
    """Recorded inner trajectory consumed by the reverse pass.

    ``iterates`` stacks omega_0..omega_K row-wise, and ``final`` is omega_K;
    ``alphas`` holds the K averaging weights actually used (alphas[k]
    produced iterates[k+1]).  ``vjps``, recorded by every solve that runs
    the step loop, holds one VJP per step k: that of the step map at omega_k
    with the weight alphas[k].  Their saved residuals are O(K) arrays of the
    problem's intermediate size.  ``jacobian``, recorded only by the
    composed affine path, is the (n, m) J_K = d omega_K / d lam that its
    scan carried with omega_K; the reverse pass of a problem that declares
    its affine structure reads the hypergradient off it.  A tape with
    neither (hand-built) is linearized again by the reverse pass.

    The composed path's tape records ``final`` and ``jacobian`` only: its
    ``iterates`` are formed on their first read, by the streamed scan of
    ``bilevelopt.affine.inner_iterates``, which derives the block length
    the final state was composed at, with ``final`` as their last row.  No
    library path reads them.  A read whose scan forms a non-finite iterate
    raises ``OracleDivergence`` naming the inner step, and returns no rows.

    A tape is checked in one place, the dataclass constructor, which a
    hand-built tape goes through: ``iterates`` must be a 2-D array, and
    ``alphas`` and ``lam`` 1-D arrays, with one more iterate than weights,
    one VJP per step and an (n, m) ``jacobian`` where they are recorded;
    ``t`` and ``s`` finite and positive; and every iterate and weight
    finite.  Each refusal is a ``ValueError`` naming the field.
    ``solve_inner`` builds its tapes through ``_solved``, which checks
    nothing: its solver has just formed those shapes, has checked omega_K
    or the loop's iterates, and a schedule's weights are finite by
    construction.
    """

    iterates: np.ndarray
    alphas: np.ndarray
    t: float
    s: float
    lam: np.ndarray
    vjps: Optional[tuple] = field(default=None, repr=False, compare=False)
    jacobian: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name, ndim in (("iterates", 2), ("alphas", 1), ("lam", 1)):
            value = getattr(self, name)
            if not (isinstance(value, np.ndarray) and value.ndim == ndim):
                raise ValueError(f"tape {name} must be a {ndim}-D array, "
                                 f"got {getattr(value, 'shape', type(value).__name__)}")
        check_finite_positive("t", self.t)
        check_finite_positive("s", self.s)
        if self.iterates.shape[0] != self.K + 1:
            raise ValueError("tape must hold exactly one more iterate than alphas")
        if self.vjps is not None and len(self.vjps) != self.K:
            raise ValueError("tape must hold exactly one VJP per step")
        if self.jacobian is not None and not (
                isinstance(self.jacobian, np.ndarray)
                and self.jacobian.shape == (self.iterates.shape[1], self.lam.shape[0])):
            raise ValueError("tape jacobian must be (inner_dim, outer_dim)")
        if not (np.all(np.isfinite(self.iterates)) and np.all(np.isfinite(self.alphas))):
            raise ValueError("tape contains non-finite entries")

    @classmethod
    def _solved(cls, **fields) -> "Tape":
        """The tape of a solve, which has just formed and checked its fields: nothing is checked."""
        tape = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(tape, name, value)
        return tape

    @property
    def K(self) -> int:
        return self.alphas.shape[0]

    @cached_property
    def final(self) -> np.ndarray:
        # a composed solve records it; a ``dataclasses.replace`` copy reads its iterates
        return self.iterates[-1]

    # not read by the library, but the perfbench tracer's span notes read it
    @property
    def mode(self) -> str:
        """The model the weights run: "improved" iff some alpha < 1."""
        return "improved" if np.any(self.alphas < 1.0) else "basic"


class _ComposedTape(Tape):
    """The tape of a composed affine solve: omega_K and J_K recorded, the trajectory on demand.

    ``_affine`` is the affine spec of the solve's scan, which the
    trajectory's scan composes again, at the same block length, so that
    its last row has the bits of ``final``.
    """

    @cached_property
    def iterates(self) -> np.ndarray:
        iterates, _ = affine.inner_iterates(self._affine, self.lam, self.alphas, self.t, self.s)
        # row r is iterate r, made by inner step r - 1 (row 0 is the zero start)
        return finite(iterates, lambda r: f"non-finite iterate (inner step {r - 1})")


def schedule(spec: InnerSolveSpec) -> np.ndarray:
    """The spec's K averaging weights; alphas[k] produces iterate k+1.

    The steps off the averaging frequency get 1; the averaged steps get
    min(1, k^-exponent) at their 1-based index k.  Exponent 0 (the basic
    model) gives all ones, without taking the K powers.  A spec is frozen,
    so its weights are computed once, on the first call, and every later
    call, and every solve of that spec, shares that one read-only array.
    """
    return spec._alphas


def step_weights(alphas: np.ndarray, t: float, s: float) -> list:
    """The (ta, sb) = (t*alpha, s*(1-alpha)) of each step; sb is None where alpha == 1."""
    return [(t, None) if alpha == 1.0 else (t * alpha, s * (1.0 - alpha))
            for alpha in alphas.tolist()]


def _iterate(omega: np.ndarray, alphas: np.ndarray, t: float, s: float, step: Callable,
             out: Optional[np.ndarray] = None, vjps: Optional[list] = None) -> np.ndarray:
    """Run the K averaged steps from omega and return the last iterate.

    ``omega`` is one row or a stack of rows; ``step`` is the step map of
    ``linearizer`` at the solve's lam, bound beforehand, called once per
    step with that step's ``step_weights``.  When ``out`` is given, iterate
    k+1 is written into its row k+1; when ``vjps`` is given, step k appends
    its VJP.  An overflow is not warned about: the caller's finiteness check
    reports the divergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (ta, sb) in enumerate(step_weights(alphas, t, s)):
            omega, vjp = step(omega, ta, sb)
            if vjps is not None:
                vjps.append(vjp)
            if out is not None:
                out[k + 1] = omega
    return omega


def _culprit(problem: BilevelProblem, omega: np.ndarray, lam: np.ndarray, alpha: float) -> str:
    """The gradient oracles, of those the step read, that are not finite at omega.

    Run on the failure path only: a fused step no longer tells which of its
    halves went non-finite, so the slots are asked again at the step's input.
    """
    names = ("grad1_h",) if alpha == 1.0 else ("grad1_h", "grad1_g")
    with np.errstate(all="ignore"):
        bad = [name for name in names
               if not np.all(np.isfinite(getattr(problem, name)(omega, lam)))]
    return f": {', '.join(bad)}" if bad else ""


def solve_inner(problem: BilevelProblem, lam, spec: InnerSolveSpec) -> Tape:
    """Run K averaged steps from omega_0 = 0 and record the full trajectory.

    Exponent 0 (the basic model) gives alpha == 1 on every step: the averaged
    update then is plain gradient descent on h and never touches g.  No
    projection, no line search, no stopping rule beyond the fixed K.

    The loop makes one step-map call per step (K gradient evaluations of h
    plus one of g per averaged step, fused where the problem's hook fuses
    them) and records each step's VJP on the tape.  A problem that declares
    its affine structure (``BilevelProblem.affine``) instead has its K step
    maps composed by a blocked scan (``bilevelopt.affine``), which evaluates
    no gradient oracle and agrees with the loop to roundoff.  That scan
    composes the final lam-free state [u_K | J_K] and omega_K = u_K + J_K lam;
    the tape records omega_K and the lam-Jacobian J_K in place of VJPs, and
    forms the trajectory only if its ``iterates`` are read.  The spec keeps
    the state of the affine spec it last solved, so its later solves at a
    new lam scan nothing and have the bits a fresh spec's solve gives.  If
    omega_K, or a matrix the scan formed, is not finite the loop is run
    instead.  The loop's trajectory is checked for finiteness once, after
    the loop: the first non-finite iterate names the diverging step, and the
    gradient oracles that are not finite at its input name the cause.
    Either tape is built unchecked (``Tape._solved``): the solve has just
    formed its fields and checked what could diverge.
    """
    alphas = schedule(spec)
    lam = as_vector(lam, problem.outer_dim, "lam")
    if problem.affine is not None:
        composed = affine.final_iterate(problem.affine, lam, alphas, spec.t, spec.s,
                                        spec._affine_state)
        if composed is not None:
            final, jacobian = composed
            return _ComposedTape._solved(final=final, jacobian=jacobian, alphas=alphas,
                                         t=spec.t, s=spec.s, lam=lam.copy(),
                                         _affine=problem.affine)
    omega = np.zeros(problem.inner_dim)
    iterates = np.empty((spec.K + 1, problem.inner_dim))
    iterates[0] = omega
    vjps = []
    _iterate(omega, alphas, spec.t, spec.s, linearizer(problem, lam), out=iterates, vjps=vjps)
    # row r is iterate r, made by inner step r - 1 (row 0 is the zero start)
    finite(iterates, lambda r: f"non-finite iterate (inner step {r - 1}"
                               f"{_culprit(problem, iterates[r - 1], lam, alphas[r - 1])})")
    return Tape._solved(iterates=iterates, alphas=alphas, t=spec.t, s=spec.s,
                        lam=lam.copy(), vjps=tuple(vjps))


def final_inner_iterate(problem: BilevelProblem, lam, spec: InnerSolveSpec) -> np.ndarray:
    """The last iterate of ``solve_inner``, for value-only callers."""
    return solve_inner(problem, lam, spec).final


def final_inner_iterates_many(problem: BilevelProblem, lams: np.ndarray,
                              spec: InnerSolveSpec) -> np.ndarray:
    """Row-batched ``final_inner_iterate`` over a stack of outer variables.

    Every row runs the same schedule from omega_0 = 0, so this is the
    per-row recursion executed together.  ``linearizer`` binds the whole
    stack once, through the problem's hook or its stacked gradient oracles
    (its row oracles applied row by row where it has none), and ``_iterate``
    keeps no VJP: each step's is dropped at the next step.  It never reads
    ``affine``: the rows run the step loop.  A row whose solve diverged is
    returned non-finite and not reported here: the caller, which knows what
    each row stands for, names it.
    """
    lams = np.asarray(lams, dtype=np.float64)
    omegas = np.zeros((lams.shape[0], problem.inner_dim))
    return _iterate(omegas, schedule(spec), spec.t, spec.s, linearizer(problem, lams))


def bigsam_standalone(h_oracle: Tuple[Callable, Callable],
                      g_oracle: Tuple[Callable, Callable],
                      omega0, K: int, t: float, s: float,
                      alpha_exponent: float = ALPHA_EXPONENT) -> np.ndarray:
    """Averaged steps on h and g of one variable, posed for min g over argmin h.

    The oracles are (value, gradient) pairs of a single variable; only the
    gradients drive the iteration, every step of which is averaged.  The
    decaying weight alpha_k multiplies the *h* step, so the h step fades and
    the iterates approach argmin g, not g's pick on argmin h; the two agree
    where g's own minimizer lies in argmin h.  With h = w1^2/2 and
    g = (w1 - 1)^2/2 + (w2 - 3)^2/2, t = s = 0.1, from (5, 0), g's pick on
    argmin h is (0, 3) but w1 reads 0.676, 0.822 and 0.881 at K = 100, 1,000
    and 5,000, moving toward argmin g at (1, 3).  BiG-SAM (Sabach & Shtern
    2017) puts the decaying weight on the g step instead.
    """
    spec = InnerSolveSpec(K=K, t=t, s=s, alpha_exponent=alpha_exponent)
    _, h_grad = h_oracle
    _, g_grad = g_oracle
    omega = np.array(omega0, dtype=np.float64, copy=True).reshape(-1)

    def step(w, ta, sb):
        w_next = w - ta * np.asarray(h_grad(w), dtype=np.float64)
        if sb is not None:
            w_next = w_next - sb * np.asarray(g_grad(w), dtype=np.float64)
        return w_next, None

    return finite(_iterate(omega, schedule(spec), t, s, step), "non-finite final iterate")
