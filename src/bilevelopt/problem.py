"""Oracle interface for bilevel problems.

A bilevel problem couples an inner objective h(omega, lam) minimized over the
inner variable omega with an outer objective g(omega, lam) minimized over the
outer variable lam.  Solvers in this package only ever touch a problem through
the oracle record defined here: scalar values, first-order gradients, and
left-multiplied second-order vector-Jacobian products

    vjp11_h(a) = a^T d^2h/domega^2        (length n)
    vjp12_h(a) = a^T d^2h/domega dlam     (length m)

and likewise for g.  Problems may supply these analytically or leave them
None, to be taken by central differences of the problem's own gradients.

A problem may also offer one optional hook, ``linearize(lam) -> step``.  It
binds lam once per inner solve and returns the averaged step map of
``bilevelopt.bigsam``, ``step(w, ta, sb) -> (w_next, vjp)``, which takes
omega_k to omega_{k+1} = omega_k - ta * grad1_h - sb * grad1_g with
ta = t*alpha and sb = s*(1-alpha).  ``sb`` None marks a step with alpha == 1:
it reads h alone and never touches g.  A step on one lam row returns its VJP,
``vjp(a, omega_side, lam_bar)``, read from the residuals its forward saved:
it adds a^T dPhi/dlam into the accumulator ``lam_bar`` and returns
a^T dPhi/domega, or None unless ``omega_side``.  This is the shape of JAX's
``vjp`` of the step, with the lam cotangent accumulated in place so that a
step built from the slots adds its h and g terms one at a time, as the
reverse pass always has.  A hook may evaluate h and g in one fused kernel
per step.  ``linearizer(problem, lam)``, the one way the solver and the
reverse pass ask for derivatives, returns the hook's step or builds it from
the slots.  Given a stack of lam rows (the finite-difference referee's
probes), either step takes a stack of omega rows; its VJP is never called,
and the solve over a stack records none.

A problem may also offer stacked oracles, which evaluate a stack of rows in
one call: ``h_batch``/``g_batch`` for the values and
``grad1_h_many``/``grad1_g_many`` for the inner gradients.  Every reader
asks for them through ``batched(problem, name)``, which returns the stacked
oracle, else its row oracle applied row by row; the rows of either give the
row oracle's bits.

Every central difference of the package, f(x + eps e_j) - f(x - eps e_j)
over the coordinates j of x, goes through ``central_differences``, which
forms its probes in blocks of ``PROBE_BLOCK`` rows and hands each block to
one call of its oracle.  ``finite_probes`` names the first non-finite probe
of a block.

One rule reports a divergence: ``finite(value, what)`` returns the value as
float64 when every entry is finite, else raises ``OracleDivergence`` with
the message "oracle-divergence: " + ``what``, where ``what`` may be a
function of the first non-finite row's index.  The inner solve, the reverse
pass, the referees and the outer loop check their values through it.

All oracles must be pure: identical inputs produce bit-identical outputs.
Arithmetic is IEEE-754 float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    from .problems import QuadraticBilevelSpec

__all__ = [
    "OracleDivergence",
    "finite",
    "BilevelProblem",
    "fd_vjp",
    "default_fd_eps",
    "linearizer",
    "validate_first_order",
    "as_vector",
    "central_differences",
    "batched",
]

VJP_NAMES = ("h11", "h12", "g11", "g12")
VJP_SLOTS = ("vjp11_h", "vjp12_h", "vjp11_g", "vjp12_g")
# each stacked oracle and the row oracle whose bits its rows give
ROW_ORACLES = {"h_batch": "h_value", "g_batch": "g_value",
               "grad1_h_many": "grad1_h", "grad1_g_many": "grad1_g"}

# probes per stacked oracle call.  A stack of all 2n probes is bound by
# memory traffic at the zoo's sizes: on a 2-core Xeon, hyper-cleaning's FD
# hypergradient (800 probes, K = 20) took 130 ms as one stack and 96 ms in
# blocks of 64 rows.  A block also bounds the referee's memory.
PROBE_BLOCK = 64


class OracleDivergence(RuntimeError):
    """An oracle returned a non-finite value ("oracle-divergence")."""


def finite(value, what) -> np.ndarray:
    """``value`` as float64 when every entry is finite, else ``OracleDivergence``.

    The error reads "oracle-divergence: " and then ``what``: the message
    itself, or a function of the index of the first row (along axis 0) that
    holds a non-finite entry, called on the failure path only.
    """
    value = np.asarray(value, dtype=np.float64)
    ok = np.isfinite(value)
    if not ok.all():
        if callable(what):
            what = what(int(np.argmin(ok.reshape(len(ok), -1).all(axis=1))))
        raise OracleDivergence("oracle-divergence: " + what)
    return value


def as_vector(x, length: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def check_finite_positive(name: str, value) -> None:
    """Reject a step size or tolerance that is not finite and positive (NaN included)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def default_fd_eps(point: np.ndarray) -> float:
    """Central-difference step, 1e-5 scaled by the sup-norm of the evaluation point."""
    return 1e-5 * max(1.0, float(np.max(np.abs(point)))) if point.size else 1e-5


@dataclass
class BilevelProblem:
    """Oracle record for one bilevel problem instance.

    ``inner_dim`` (n) and ``outer_dim`` (m) fix the lengths of omega and lam.
    A VJP slot left as None stays None; ``linearizer`` differences this
    problem's own gradients in its place when a step asks.  ``vjp_flavor`` is
    derived: construction rebuilds it, fresh, as "analytic" or "fd-fallback".
    The library reads the slots themselves; the field stays an init field
    because an outside tracer passes it to ``replace``.

    ``answers`` carries optional closed-form attachments (inner solutions,
    outer minima) used by oracles and tests.  ``h_batch``/``g_batch`` are
    optional evaluators over a stack of omega rows, W (B, n) -> (B,): lam is
    one row, shared by every row of W, or a (B, m) stack paired row by row
    with W's.  Each row must give h_value/g_value of its pair bit for bit;
    the zoo's problems hold this at one row by construction, their row
    values being their stacked kernels on a stack of one row.
    ``grad1_h_many``/``grad1_g_many`` are the same for the inner gradients,
    (B, n) x (B, m) -> (B, n).  A stacked oracle left None is the row oracle
    applied row by row: the referees read all four through ``batched``.

    ``affine`` declares that the inner gradients are affine in omega: it holds
    the ``QuadraticBilevelSpec`` whose quadratics reproduce grad1_h, grad1_g,
    grad2_g, g and the four VJPs exactly (h itself may differ by a term in lam
    alone).  The inner solver and the reverse pass then compose the K affine
    step maps instead of calling the oracles step by step.  The field is set
    after construction, and ``init=False`` makes a ``dataclasses.replace``
    copy drop it: such a copy may swap oracles, so it takes the generic loop,
    which stays the reference path.

    ``linearize`` holds the hook of the module docstring.  On a step with
    alpha == 1 it must give bit for bit what the slot-built step gives; an
    averaged step may fuse h and g and so round differently.  A step on one
    lam row returns its VJP.  The hook must also accept a stack of lam rows,
    and then takes stacks of omega rows; no caller reads the VJP such a
    step returns, so a hook need not make it usable.  The hook is set after
    construction and dropped by a ``replace`` copy, as ``affine`` is.
    ``g_lambda_free`` and the stacked oracles stay init fields because an
    outside tracer copies problems through ``replace``.
    """

    inner_dim: int
    outer_dim: int
    g_value: Callable[[np.ndarray, np.ndarray], float]
    h_value: Callable[[np.ndarray, np.ndarray], float]
    grad1_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad2_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad1_h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    vjp11_h: Optional[Callable] = None
    vjp12_h: Optional[Callable] = None
    vjp11_g: Optional[Callable] = None
    vjp12_g: Optional[Callable] = None
    name: str = "unnamed"
    answers: dict = field(default_factory=dict)
    h_batch: Optional[Callable] = None
    g_batch: Optional[Callable] = None
    vjp_flavor: dict = field(default_factory=dict)
    # set when g never reads lam: grad2_g and vjp12_g are identically zero,
    # and the reverse pass may skip their (exactly zero) contributions
    g_lambda_free: bool = False
    # optional row-batched first-order oracles; the FD referee's probes (the
    # FD hypergradient's solves, fd_vjp's lam side) run as stacks
    grad1_h_many: Optional[Callable] = None
    grad1_g_many: Optional[Callable] = None
    affine: Optional[QuadraticBilevelSpec] = field(default=None, init=False, repr=False,
                                                   compare=False)
    linearize: Optional[Callable] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.inner_dim < 1 or self.outer_dim < 1:
            raise ValueError("dimensions must be at least 1")
        self.vjp_flavor = {attr: "fd-fallback" if getattr(self, attr) is None else "analytic"
                           for attr in VJP_SLOTS}

    @property
    def dims(self) -> tuple[int, int]:
        return (self.inner_dim, self.outer_dim)


def fd_vjp(problem: BilevelProblem, which: str, a, omega, lam, eps: float) -> np.ndarray:
    """Second-order VJP by central differences of a first-order gradient.

    For "h11" the result approximates a^T d11h via the symmetric form
    [grad1_h(omega + eps*a) - grad1_h(omega - eps*a)] / (2 eps); for "h12"
    the j-th entry differentiates a . grad1_h along the j-th lam coordinate.
    "g11"/"g12" do the same with grad1_g.  The lam side evaluates its 2m
    probes in blocks through ``batched(problem, "grad1_*_many")``, omega
    tiled over each block; a non-finite gradient names its probe.
    """
    if which not in VJP_NAMES:
        raise ValueError(f"unknown vjp selector {which!r}")
    check_finite_positive("eps", eps)
    n, m = problem.dims
    a = as_vector(a, n, "adjoint")
    omega = as_vector(omega, n, "omega")
    lam = as_vector(lam, m, "lam")
    gname = "grad1_h" if which[0] == "h" else "grad1_g"
    grad, grad_many = getattr(problem, gname), batched(problem, gname + "_many")

    if which.endswith("11"):
        gp = finite(grad(omega + eps * a, lam), f"{gname} non-finite at omega+eps*a (eps={eps})")
        gm = finite(grad(omega - eps * a, lam), f"{gname} non-finite at omega-eps*a (eps={eps})")
        return (gp - gm) / (2.0 * eps)

    def oracle(block, start):
        G = finite_probes(gname, grad_many(np.tile(omega, (len(block), 1)), block), start, m, eps)
        # one dot per row: a stacked G @ a would round differently
        return [a @ g for g in G]

    return central_differences(oracle, lam, eps)


def central_differences(oracle: Callable, x: np.ndarray, eps: float) -> np.ndarray:
    """[f(x + eps e_j) - f(x - eps e_j)] / (2 eps) for every coordinate j of x.

    The 2n probes are x + eps e_j for j = 0..n-1 and then x - eps e_j for
    j = 0..n-1.  They are formed ``PROBE_BLOCK`` at a time (the last block
    may be shorter), stacked as the rows of one (B, n) array, and
    ``oracle(block, start)`` returns their values f(probe) in order, one per
    row, where ``start`` is the index of the block's first probe among the
    2n.  A block is released before the next is formed.  Each probe is
    x + e or x - e with e = eps e_j, so every coordinate but j is x's own
    plus or minus 0.0, which differ where x holds -0.0.
    """
    n = x.shape[0]
    sides = np.stack([x + 0.0, x - 0.0])
    values = np.empty(2 * n)
    for start in range(0, 2 * n, PROBE_BLOCK):
        minus, j = np.divmod(np.arange(start, min(start + PROBE_BLOCK, 2 * n)), n)
        block = sides[minus]
        block[np.arange(len(j)), j] = np.where(minus, x[j] - eps, x[j] + eps)
        values[start:start + len(j)] = oracle(block, start)
        del block   # so that the next block is formed without it
    return (values[:n] - values[n:]) / (2.0 * eps)


def finite_probes(what: str, rows, start: int, n: int, eps: float) -> np.ndarray:
    """The values ``rows`` of probes start, start + 1, ... of lam over n coordinates, as float64.

    Every row must be finite: else ``finite``'s ``OracleDivergence`` names
    the first probe of the block whose ``what`` is not, as
    ``central_differences`` orders its probes.
    """
    def probe(row):
        i = start + row
        return f"{what} non-finite at probe lam{'+-'[i // n]}eps*e_{i % n} (eps={eps})"

    return finite(rows, probe)


def batched(problem: BilevelProblem, name: str) -> Callable:
    """The stacked oracle ``name`` of ``problem``, else its row oracle applied row by row.

    ``name`` is one of ``h_batch``, ``g_batch``, ``grad1_h_many`` and
    ``grad1_g_many``, whose row oracles are ``h_value``, ``g_value``,
    ``grad1_h`` and ``grad1_g``.  The oracle takes a (B, n) stack W and lam,
    one row shared by every row of W or a (B, m) stack paired row by row
    with W's.  The row-by-row default is the serial reference that the
    problem's own stacked oracle must match bit for bit.
    """
    if name not in ROW_ORACLES:
        raise ValueError(f"unknown stacked oracle {name!r}")
    oracle = getattr(problem, name)
    if oracle is not None:
        return oracle
    row = getattr(problem, ROW_ORACLES[name])

    def rows(W, lam):
        lams = lam if np.ndim(lam) == 2 else repeat(lam)
        return np.array([row(w, lam_row) for w, lam_row in zip(W, lams)], dtype=np.float64)

    return rows


def _fd_fallback(problem: BilevelProblem, which: str, a, omega, lam) -> np.ndarray:
    """FD-backed VJP with a VJP slot's signature, from ``problem``'s gradients.

    The adjoint is normalized before differencing so the effective step stays
    at the default scale regardless of the adjoint's magnitude, then the
    result is scaled back (fd_vjp is linear in the adjoint).
    """
    a = as_vector(a, problem.inner_dim, "adjoint")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return np.zeros(problem.inner_dim if which.endswith("11") else problem.outer_dim)
    point = omega if which.endswith("11") else lam
    eps = default_fd_eps(np.asarray(point, dtype=np.float64))
    return scale * fd_vjp(problem, which, a / scale, omega, lam, eps)


def linearizer(problem: BilevelProblem, lam) -> Callable:
    """The averaged step map ``step(w, ta, sb) -> (w_next, vjp)`` of ``problem`` at ``lam``.

    The ``linearize`` hook, else the step built from the slots, on one lam
    row or a stack of rows alike.  The VJP of a step on a stack is never
    called: ``final_inner_iterates_many`` drops it at the next step.
    """
    return (problem.linearize or partial(_slot_step, problem))(lam)


def _slot_step(problem: BilevelProblem, lam) -> Callable:
    """The step map of ``linearizer`` built from the slots, on one lam row or a stack.

    It steps in the solver's expression order, w - ta*grad1_h - sb*grad1_g
    (w - ta*grad1_h where ``sb`` is None), through
    ``batched(problem, "grad1_*_many")`` on a stack.  Its vjp, never called
    on a stack, keeps only (w, lam) and calls vjp11/vjp12, or their FD
    fallbacks, when the reverse pass reaches it; it takes no g VJP where
    ``sb`` is None and no lam side of g when ``g_lambda_free`` is set.
    """
    many = np.ndim(lam) == 2
    grad_h = batched(problem, "grad1_h_many") if many else problem.grad1_h
    grad_g = batched(problem, "grad1_g_many") if many else problem.grad1_g
    h11, h12, g11, g12 = (getattr(problem, slot) or partial(_fd_fallback, problem, which)
                          for slot, which in zip(VJP_SLOTS, VJP_NAMES))
    if problem.g_lambda_free:
        g12 = None

    def step(w, ta, sb):
        if sb is None:
            w_next = w - ta * grad_h(w, lam)
        else:
            w_next = w - ta * grad_h(w, lam) - sb * grad_g(w, lam)

        def vjp(a, omega_side, lam_bar):
            lam_bar += -ta * h12(a, w, lam)
            if sb is not None and g12 is not None:
                lam_bar += -sb * g12(a, w, lam)
            if not omega_side:
                return None
            a_next = a - ta * h11(a, w, lam)
            return a_next if sb is None else a_next - sb * g11(a, w, lam)

        return w_next, vjp

    return step


def validate_first_order(problem: BilevelProblem, omega, lam, eps: float = 1e-5) -> dict:
    """Compare grad1_g, grad2_g and grad1_h against central differences.

    Returns ``{gradient name: max_rel_err}`` and judges nothing: the caller
    holds the tolerance.  The per-component error is
    |fd - analytic| / max(1, |analytic|), returned as its maximum.  An
    analytic gradient of any shape but that of the point differenced scores
    inf, so that the check fails closed.  The differences evaluate their
    probes in blocks through
    ``batched(problem, "g_batch")``/``batched(problem, "h_batch")``: the
    omega probes against the one lam, and grad2_g's lam probes, a stack,
    against omega tiled over each block.
    """
    check_finite_positive("eps", eps)
    n, m = problem.dims
    omega = as_vector(omega, n, "omega")
    lam = as_vector(lam, m, "lam")
    g_batch, h_batch = batched(problem, "g_batch"), batched(problem, "h_batch")

    # each check's f on a block of probes
    checks = {"grad1_g": (problem.grad1_g, lambda W, _: g_batch(W, lam), omega),
              "grad2_g": (problem.grad2_g,
                          lambda L, _: g_batch(np.tile(omega, (len(L), 1)), L), lam),
              "grad1_h": (problem.grad1_h, lambda W, _: h_batch(W, lam), omega)}
    errors = {}
    for name, (grad, batch, x) in checks.items():
        analytic = np.asarray(grad(omega, lam), dtype=np.float64)
        fd = central_differences(batch, x, eps)
        errors[name] = (float(np.max(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))))
                        if analytic.shape == x.shape else math.inf)
    return errors
