"""The problem zoo.

Four families, all with analytic first-order gradients and analytic VJPs
(validated against the finite-difference fallback in the test suite):

* a closed-form scalar quadratic whose outer objective is known exactly,
* a degenerate two-dimensional quadratic whose inner problem leaves one
  coordinate free, separating the improved and basic model optima,
* data hyper-cleaning: per-sample sigmoid weights on a corrupted training
  set, tuned against a clean validation set, linear softmax model,
* toy hyper-representation: a shared linear feature map (outer) with
  independent per-task softmax heads (inner) over few-shot episodes.

Both quadratics take their seven derivative slots from the
``QuadraticBilevelSpec`` they declare, through the one builder that
``make_quadratic`` uses, and keep only their own value kernels.  Their specs
and kernels are built once, at import, and shared by every instance.  All
three quadratic makers go through one constructor, which declares the spec
as the problem's affine structure and attaches the answers.

Each zoo problem is described once: its run settings in ``ZOO_DEFAULTS``,
hyper-cleaning's synthetic data in ``HYPERCLEAN_DATA`` and its task (split,
corrupt, build, start, metric) in ``hypercleaning_task``, and its instance
in ``zoo_problem``.  The check bundles and the command line read them here.

Losses are plain sums over samples, not means.  Softmax cross-entropy is not
strongly convex in the weights, so the hyper-cleaning and hyper-representation
outer objectives add a small ridge term, ``RIDGE`` = 1e-4, on the inner
variable.

The two learning problems hold their logits class-major: C x N for
hyper-cleaning and task x way x N for hyper-representation (with a leading
batch axis in their stacked oracles), with the samples on the last,
contiguous axis.  numpy reduces a short trailing axis one row at a time, so
a softmax over a trailing class axis of length 2 costs several times the
same reduction over a leading one.  ``softmax`` and ``sample_losses``
therefore take the class axis as an argument (default -1), and the model's
kernels reduce over axis -2.  Every contraction is a (batched) matmul taken
pairwise, never a multi-operand einsum.  The flattened inner and outer
variables keep their layouts (d x C weights; task x r x way heads; d x r
map); only the kernels' intermediates are transposed.

The two learning problems are one template: a linear softmax model fit to
a training split (h) and scored on a validation split plus a ridge (g).
They differ only in where lam enters: hyper-cleaning weighs h's training
samples by sigmoid(lam), and hyper-representation maps both splits' inputs
through lam.  The template is written once, over three kernels: ``_probs``
(the softmax), ``_errors`` (P - Y in the softmax's own buffer) and
``_grad`` (a residual or a softmax response, weighted per column, projected
back into w's layout).  ``_softmax_slots`` gives one split's ``grad1``,
``vjp11`` and ``vjp12`` from its features and sample weights at lam, its
targets, its ridge and its lam part; ``_loss_sums`` gives a split's stacked
loss sums plus its ridge; ``_softmax_linearize`` gives the ``linearize``
hook of ``bilevelopt.problem``; and ``_softmax_problem`` builds the record
from the values, the two splits' slots and the hook.  The slots take a
stack of lam rows as they take one, so they are also the stacked gradients
``grad1_h_many``/``grad1_g_many``.  A maker keeps only its data checks, its
layout (``WT``, the view of w as the logit map), its features and sample
weights, its lam side (hyper-cleaning's sigmoid'(lam) term;
hyper-representation's contraction with the inputs and its ``grad2_g``),
hyper-cleaning's sigmoid-weighted h value, and its binding of the hook.

The hook binds lam once, for one row or for a stack of rows (the
finite-difference referee's probes).  On one row it binds its fused input
with lam: the two splits stacked as one input, training samples first, with
their targets stacked alike.  A step with alpha == 1 runs h's kernels on the
training split alone, exactly as the slots do.  An averaged step takes one
softmax over the fused input's logits, weights the residual per
column, [t alpha sigmoid(lam) ; s (1 - alpha)] for hyper-cleaning and
[t alpha ; s (1 - alpha)] for hyper-representation, and projects it back
once.  Either step saves its probabilities P, and its VJP takes one softmax
response over the same columns; an averaged VJP rebuilds the weights rather
than saving them and weights the response once, for both sides.  The lam
side of hyper-representation's averaged VJP contracts both splits' rows at
once.  A stack takes the one stack branch, which runs h and g apart, as
the slots do, and is value-only: it keeps no P and returns no VJP.  What no
step reads of lam, hyper-cleaning's fused input, the stacked targets and
hyper-representation's stacked inputs, the makers build once;
hyper-representation concatenates its two splits' mapped features each
time it binds a lam row.

Every zoo problem, and every ``make_quadratic`` problem, has one kernel
per value, and it is the problem's ``h_value``/``g_value``: it takes a
stack of rows, and a row's value is the kernel on a stack of one row.  A
row of a stack of any height gets that value's bits.  The learning
problems' kernels run per row of the stack, and the dot products that
reduce a row (sigmoid(lam) @ losses, w @ w) are taken one row at a time,
since a stacked reduction would round them differently; so do their
stacked gradients.  ``make_quadratic`` sums each quadratic form column by
column (``_half_forms``), with no matmul.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields
from typing import Callable, Optional

import numpy as np

from .data import (Dataset, EpisodeSet, corrupt_labels, f1_score, gen_synthetic, make_episodes,
                   split, stream)
from .problem import BilevelProblem

__all__ = [
    "QuadraticBilevelSpec",
    "make_quadratic",
    "make_closedform_quadratic",
    "make_degenerate_quadratic",
    "make_hypercleaning",
    "make_hyperrep",
    "hyperclean_f1_metric",
    "hypercleaning_task",
    "hyperrep_accuracy_metric",
    "ZooInstance",
    "zoo_problem",
    "ZOO_DEFAULTS",
    "ZOO_NAMES",
    "sigmoid",
    "softmax",
    "sample_losses",
]


# ---------------------------------------------------------------------------
# numerics helpers

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|), which never overflows, the value is 1 / (1 + e) for
    x >= 0 and e / (1 + e) otherwise.  Since e <= 1, the numerator is
    max(e, [x >= 0]), which picks the branch without a masked scatter.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0)
    out /= 1.0 + e
    return out


def _softmax_inplace(Z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``, overwriting a freshly allocated logits array."""
    Z -= Z.max(axis=axis, keepdims=True)
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=axis, keepdims=True)
    return Z


def softmax(Z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along the class axis (the last one by default)."""
    return _softmax_inplace(np.array(Z, dtype=np.float64), axis)


def sample_losses(Z: np.ndarray, Y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Per-sample softmax cross-entropy from logits Z and one-hot targets Y.

    ``axis`` is the class axis; the result drops it.
    """
    m = Z.max(axis=axis, keepdims=True)
    lse = m + np.log(np.exp(Z - m).sum(axis=axis, keepdims=True))
    return (lse - (Z * Y).sum(axis=axis, keepdims=True)).squeeze(axis)


def _softmax_jvp(P: np.ndarray, dZ: np.ndarray) -> np.ndarray:
    """Directional derivative of a softmax along a logit perturbation, class axis -2."""
    PdZ = P * dZ
    PdZ -= P * PdZ.sum(axis=-2, keepdims=True)
    return PdZ


def _onehot(y: np.ndarray, C: int) -> np.ndarray:
    return np.eye(C)[y]


# ---------------------------------------------------------------------------
# quadratics

@dataclass(frozen=True)
class QuadraticBilevelSpec:
    """h = 1/2 w' A_h w - (B_h lam + d_h)' w,  g = 1/2 (w - c_g)' A_g (w - c_g).

    A_h must be symmetric PSD (possibly singular; a singular direction is what
    makes the inner argmin set non-trivial) and A_g symmetric PD.  ``check``
    False skips the validation; only the package's own analytic instances use
    it, and the test suite validates their specs.  Their specs are built once,
    at import, and validating them there would be the process's first LAPACK
    call: on a 2-core Xeon (numpy 2.4.6, OpenBLAS) it raised the peak RSS of
    ``import bilevelopt`` from 29.6 to 30.5 MiB, about 2% of the benchmark's
    ``peak_rss_mb`` (37.5 to 56 MiB).
    """

    A_h: np.ndarray
    B_h: np.ndarray
    d_h: np.ndarray
    A_g: np.ndarray
    c_g: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if not check:
            return
        n = self.A_h.shape[0]
        m = self.B_h.shape[1]
        if self.A_h.shape != (n, n) or self.A_g.shape != (n, n):
            raise ValueError("quadratic forms must be square and matching")
        if self.B_h.shape != (n, m) or self.d_h.shape != (n,) or self.c_g.shape != (n,):
            raise ValueError("inconsistent quadratic spec shapes")
        if not (np.allclose(self.A_h, self.A_h.T) and np.allclose(self.A_g, self.A_g.T)):
            raise ValueError("quadratic forms must be symmetric")
        if np.min(np.linalg.eigvalsh(self.A_h)) < -1e-10:
            raise ValueError("A_h must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(self.A_g)) <= 0:
            raise ValueError("A_g must be positive definite")


def _frozen_spec(**arrays) -> QuadraticBilevelSpec:
    """An unvalidated spec over read-only float64 copies of ``arrays``.

    A problem that declares a spec closes over its arrays, and a solve may
    keep states scanned from them (``bilevelopt.affine``), so they must not
    change under it.
    """
    for key, value in arrays.items():
        arrays[key] = np.array(value, dtype=np.float64)
        arrays[key].flags.writeable = False
    return QuadraticBilevelSpec(**arrays, check=False)


def _quadratic_kernels(spec: QuadraticBilevelSpec, h_value: Callable, g_value: Callable) -> dict:
    """The fields of a quadratic instance: its spec's dims and seven slots, and its own values."""
    A_h, B_h, d_h, A_g, c_g = spec.A_h, spec.B_h, spec.d_h, spec.A_g, spec.c_g
    n, m = B_h.shape
    return dict(
        inner_dim=n, outer_dim=m, h_value=h_value, g_value=g_value,
        grad1_h=lambda w, lam: A_h @ w - (B_h @ lam + d_h),
        grad1_g=lambda w, lam: A_g @ (w - c_g),
        grad2_g=lambda w, lam: np.zeros(m),
        vjp11_h=lambda a, w, lam: A_h @ a,
        vjp12_h=lambda a, w, lam: -(B_h.T @ a),
        vjp11_g=lambda a, w, lam: A_g @ a,
        vjp12_g=lambda a, w, lam: np.zeros(m),
        g_lambda_free=True,
    )


# the analytic instances as quadratic specs: h = (w1 - lam)^2 / 2 up to the
# lam-only term lam^2 / 2, and g as written in each maker.  Their own value
# kernels, which take a stack of rows, are not the spec's quadratic forms:
# their roundings fix the bits of the FD referee's values and of the command
# line's outputs.  Specs and kernels are built once, here, and shared by
# every instance.
_CLOSEDFORM_SPEC = _frozen_spec(A_h=[[1.0]], B_h=[[1.0]], d_h=[0.0], A_g=[[1.0]], c_g=[0.0])
_DEGENERATE_SPEC = _frozen_spec(A_h=[[1.0, 0.0], [0.0, 0.0]], B_h=[[1.0], [0.0]],
                                d_h=[0.0, 0.0], A_g=np.eye(2), c_g=[0.0, 1.0])
_CLOSEDFORM_KERNELS = _quadratic_kernels(
    _CLOSEDFORM_SPEC,
    h_value=lambda W, lam: 0.5 * np.square(W[:, 0] - lam[..., 0]),
    g_value=lambda W, lam: 0.5 * np.square(W[:, 0]))
_DEGENERATE_KERNELS = _quadratic_kernels(
    _DEGENERATE_SPEC,
    h_value=lambda W, lam: 0.5 * np.square(W[:, 0] - lam[..., 0]),
    g_value=lambda W, lam: 0.5 * np.square(W[:, 0]) + 0.5 * np.square(W[:, 1] - 1.0))


def _affine_problem(name: str, spec: QuadraticBilevelSpec, kernels: dict,
                    **answers) -> BilevelProblem:
    """A problem on ``kernels`` that declares ``spec`` as its affine structure, with ``answers``."""
    p = BilevelProblem(name=name, **kernels, answers=answers)
    p.affine = spec
    return p


def _half_forms(W: np.ndarray, A: np.ndarray, offset=None) -> np.ndarray:
    """w'Aw / 2 - offset'w for each row w of the (B, n) stack W, with A symmetric.

    ``offset`` is None (zero), one (n,) row or a (B, n) stack.  The sum runs
    over the columns, sum_i w_i (A_ii w_i / 2 + sum_{j>i} A_ij w_j - offset_i),
    so every operation is elementwise and a row gets the same bits on a stack
    of any height; a matmul would pick its BLAS kernel by the stack's height,
    and round differently.
    """
    n = W.shape[1]
    total = None
    for i in range(n):
        u = (0.5 * A[i, i]) * W[:, i]
        for j in range(i + 1, n):
            u += A[i, j] * W[:, j]
        if offset is not None:
            u -= offset[..., i]
        u *= W[:, i]
        total = u if total is None else total + u
    return total


def make_quadratic(spec: QuadraticBilevelSpec, name: str = "quadratic") -> BilevelProblem:
    """Bilevel problem from a quadratic spec, with exact derivatives.

    The problem declares the spec as its affine structure, so the inner
    solver and the reverse pass compose its step maps.  It declares, and its
    oracles close over, read-only copies of the spec's arrays, so a caller
    that later changes its own arrays in place changes no result.  Its
    values take lam as one row or as a (B, m) stack.
    """
    spec = _frozen_spec(**{f.name: getattr(spec, f.name) for f in fields(spec)})
    A_h, B_h, d_h, A_g, c_g = spec.A_h, spec.B_h, spec.d_h, spec.A_g, spec.c_g

    def h_value(W, lam):
        offset = d_h   # B_h lam + d_h, elementwise over lam's entries: a row or a stack
        for j in range(B_h.shape[1]):
            offset = offset + B_h[:, j] * lam[..., j, None]
        return _half_forms(W, A_h, offset)

    return _affine_problem(name, spec, _quadratic_kernels(
        spec, h_value, lambda W, lam: _half_forms(W - c_g, A_g)))


def make_closedform_quadratic() -> BilevelProblem:
    """Scalar instance h = (w - lam)^2 / 2, g = w^2 / 2.

    The inner minimizer is w = lam, so the exact outer objective is
    f(lam) = lam^2 / 2 with gradient lam, minimized at lam = 0 with value 0.
    """
    return _affine_problem(
        "closedform_quadratic", _CLOSEDFORM_SPEC, _CLOSEDFORM_KERNELS,
        inner_solution=lambda lam: np.array([lam[0]]),
        f=lambda lam: 0.5 * lam[0] ** 2,
        grad_f=lambda lam: np.array([lam[0]]),
        min_f=0.0)


def make_degenerate_quadratic() -> BilevelProblem:
    """Two-dimensional witness separating the two bilevel formulations.

    h = (w1 - lam)^2 / 2 ignores w2, so the inner argmin set is the line
    {(lam, u)}.  g = w1^2/2 + (w2 - 1)^2/2 selects (lam, 1) on that line; a
    pure inner-gradient solver started at w2 = 0 never moves w2 and lands on
    (lam, 0).  The respective outer minima are 0 and 1/2, both at lam = 0.
    """
    return _affine_problem(
        "degenerate_quadratic", _DEGENERATE_SPEC, _DEGENERATE_KERNELS,
        inner_solution_improved=lambda lam: np.array([lam[0], 1.0]),
        inner_solution_basic=lambda lam: np.array([lam[0], 0.0]),
        min_f_improved=0.0,
        min_f_basic=0.5,
        formulation_gap=0.5)


# ---------------------------------------------------------------------------
# the linear softmax model of both learning problems
#
# Each kernel takes the problem's WT, its view of a row or a stack of rows w
# as the class-major logit map, and one split's features F (logits WT(w) @ F)
# and one-hot targets Y, both class-major.

# the weight of the ridge |w|^2 that g adds in both learning problems
RIDGE = 1e-4


def _probs(WT: Callable, F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The softmax of the logits WT(w) @ F over their class axis."""
    return _softmax_inplace(np.matmul(WT(w), F), axis=-2)


def _errors(WT: Callable, F: np.ndarray, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The residual P - Y in the softmax's own buffer, for a caller that keeps no P."""
    P = _probs(WT, F, w)
    P -= Y
    return P


def _grad(F: np.ndarray, R: np.ndarray, w: np.ndarray, sw=None, rg: float = 0.0) -> np.ndarray:
    """F @ (sw * R)^T in w's layout, plus 2 rg w.

    R is a fresh class-major array, which the per-column weights ``sw`` (None
    is 1) scale in place.  The residual P - Y gives the gradient at w, and
    the softmax's response dP to an adjoint a's logits the omega side of
    a's VJP, with a in place of w.
    """
    if sw is not None:
        R *= sw[..., None, :]
    out = np.matmul(F, R.swapaxes(-1, -2)).reshape(w.shape)
    if rg:
        out += (2.0 * rg) * w
    return out


def _softmax_linearize(WT: Callable, tr: tuple, va: tuple, fused: Optional[tuple], sw,
                       ridge: float, lam_side: Callable) -> Callable:
    """The ``linearize`` step of a linear softmax model at one bound lam row or a stack.

    ``tr`` and ``va`` are the splits' (features, targets): h fits the model
    to the training split, each sample weighted by ``sw`` (None is 1), and g
    scores it on the validation split plus ``ridge`` |w|^2.  ``fused`` is
    the averaged steps' (features, targets) on one lam row: the two splits
    stacked as one input, training samples first, which the maker binds
    with lam.  It is None on a stack of lam rows.
    ``lam_side(P, A, dP, ta, c, w, a)`` is the problem's lam side of a
    VJP, which the VJP subtracts from ``lam_bar``: from the saved
    probabilities P, the adjoint's logits A, the softmax's response dP, and,
    on an averaged step, the per-column weights c that scale dP (c is None
    where alpha == 1).
    """
    (Ftr, Ytr), (Fva, Yva) = tr, va
    m = Ytr.shape[-1]

    def weights(ta, sb):
        # an averaged step's per-column weights on the stacked splits,
        # [ta * sw ; sb], rebuilt by its VJP rather than kept on the tape
        c = np.empty(m + Yva.shape[-1])
        if sw is None:
            c[:m] = ta
        else:
            np.multiply(sw, ta, out=c[:m])
        c[m:] = sb
        return c

    def step(w, ta, sb):
        if fused is None:
            # a stack of lam rows (the FD referee's probes) is bound by
            # memory traffic, not by calls: fused, its largest array would
            # double, so h and g run apart, as the slots run them.  The step
            # is value-only, so it keeps no P: each residual takes its
            # softmax's own buffer
            w_next = w - ta * _grad(Ftr, _errors(WT, Ftr, Ytr, w), w, sw)
            if sb is not None:
                w_next -= sb * _grad(Fva, _errors(WT, Fva, Yva, w), w, rg=ridge)
            return w_next, None
        if sb is None:
            # alpha == 1: the training split alone, as the slots compute it
            P = _probs(WT, Ftr, w)

            def vjp(a, omega_side, lam_bar):
                A = WT(a) @ Ftr
                dP = _softmax_jvp(P, A)
                lam_bar -= lam_side(P, A, dP, ta, None, w, a)
                return a - ta * _grad(Ftr, dP, a, sw) if omega_side else None

            return w - ta * _grad(Ftr, P - Ytr, w, sw), vjp

        # one softmax over both splits' logits, whose residual, weighted per
        # column, is projected back once; the ridge shrinks w.  The VJP
        # weights the softmax's response once, for both sides
        F, Y = fused
        shrink = 1.0 - (2.0 * ridge) * sb
        P = _probs(WT, F, w)

        def vjp(a, omega_side, lam_bar):
            c = weights(ta, sb)
            A = WT(a) @ F
            dP = _softmax_jvp(P, A)
            dP *= c
            lam_bar -= lam_side(P, A, dP, ta, c, w, a)
            return shrink * a - _grad(F, dP, a) if omega_side else None

        return shrink * w - _grad(F, P - Y, w, weights(ta, sb)), vjp

    return step


def _softmax_slots(WT: Callable, F: Callable, sw: Callable, Y: np.ndarray,
                   ridge: float, lam_part: Optional[Callable]) -> tuple:
    """``grad1``, ``vjp11`` and ``vjp12`` of one split's loss sum plus ``ridge`` |w|^2.

    ``F(lam)`` is the split's features at lam, ``sw(lam)`` its per-column
    sample weights (None is 1) and Y its targets.
    ``lam_part(P, A, w, a, lam)`` is the split's lam side of a's VJP, from the
    probabilities P and a's logits A; None marks a split that never reads
    lam, whose ``vjp12`` is None.  Each slot takes one row or a stack.
    """
    def grad1(w, lam):
        FT = F(lam)
        return _grad(FT, _errors(WT, FT, Y, w), w, sw(lam), ridge)

    def vjp11(a, w, lam):
        FT = F(lam)
        return _grad(FT, _softmax_jvp(_probs(WT, FT, w), WT(a) @ FT), a, sw(lam), ridge)

    def vjp12(a, w, lam):
        FT = F(lam)
        return lam_part(_probs(WT, FT, w), WT(a) @ FT, w, a, lam)

    return grad1, vjp11, None if lam_part is None else vjp12


def _loss_sums(WT: Callable, F: np.ndarray, Y: np.ndarray, W: np.ndarray,
               ridge: float = 0.0) -> np.ndarray:
    """Each row's loss sum on one split, plus ``ridge`` |w|^2, over the (B, n) stack W.

    A row's losses sum as one flat run and w @ w is taken one row at a time:
    a stacked reduction would round them differently.
    """
    sums = sample_losses(np.matmul(WT(W), F), Y, axis=-2).reshape(len(W), -1).sum(axis=-1)
    if ridge:
        sums += ridge * np.array([w @ w for w in W])
    return sums


def _softmax_problem(name: str, n: int, m: int, h_value: Callable, g_value: Callable,
                     h_slots: tuple, g_slots: tuple, linearize: Callable,
                     grad2_g: Optional[Callable] = None, **answers) -> BilevelProblem:
    """A learning problem on its values, its two splits' slots and its hook.

    The slots take a stack of lam rows as they take one, so they are also the
    stacked gradients.  ``grad2_g`` None declares g lam-free, with zero
    ``grad2_g`` and ``vjp12_g``.
    """
    (grad1_h, vjp11_h, vjp12_h), (grad1_g, vjp11_g, vjp12_g) = h_slots, g_slots
    lam_free = grad2_g is None
    if lam_free:
        grad2_g, vjp12_g = (lambda w, lam: np.zeros(m)), (lambda a, w, lam: np.zeros(m))
    p = BilevelProblem(
        inner_dim=n, outer_dim=m, name=name, answers=answers, g_lambda_free=lam_free,
        h_value=h_value, g_value=g_value, grad1_h=grad1_h, grad1_g=grad1_g, grad2_g=grad2_g,
        vjp11_h=vjp11_h, vjp12_h=vjp12_h, vjp11_g=vjp11_g, vjp12_g=vjp12_g,
        grad1_h_many=grad1_h, grad1_g_many=grad1_g)
    p.linearize = linearize
    return p


# ---------------------------------------------------------------------------
# data hyper-cleaning

def make_hypercleaning(train: Dataset, val: Dataset) -> BilevelProblem:
    """Per-sample reweighting of a noisy training set, tuned on clean validation.

    Inner variable: flattened d x C softmax weights.  Outer variable: one
    unnormalized weight per training sample, squashed through a sigmoid in
    the inner objective

        h(w, lam) = sum_i sigmoid(lam_i) * loss_i(w),
        g(w, lam) = sum_j val_loss_j(w) + RIDGE * |w|^2.

    A sample is flagged corrupted when its weight lam_i goes negative.
    """
    if train.d != val.d:
        raise ValueError("train/validation feature dimensions differ")
    C = train.C
    if val.C != C:
        raise ValueError("bad-label: train/validation class counts differ")
    # logits are C x N, B x C x N for a stack of rows (class-major, see the
    # module docstring); W(w).T @ X.T reads the d x C weights in place.  The
    # two splits' inputs are held once, stacked as one d x (N_tr + N_val)
    # input with the training samples first; the per-split inputs are views
    # into it, which matmul reads at full speed.  The one-hot targets stay
    # contiguous per split: an elementwise op on a strided view costs about
    # a microsecond more, on every step.
    d, m = train.d, len(train)
    XT = np.empty((d, m + len(val)))
    XtrT, XvaT = XT[:, :m], XT[:, m:]
    XtrT[:], XvaT[:] = train.X.T, val.X.T
    YtrT = np.ascontiguousarray(_onehot(train.y, C).T)
    YvaT = np.ascontiguousarray(_onehot(val.y, C).T)
    # the averaged step's targets, stacked as its input is; lam-free, so
    # built once here
    YT = np.concatenate((YtrT, YvaT), axis=-1)

    def WT(w):
        # C x d view of the d x C weights
        return w.reshape(*w.shape[:-1], d, C).swapaxes(-1, -2)

    def train_losses(w):
        return sample_losses(WT(w) @ XtrT, YtrT, axis=-2)

    # h on a stack of rows takes its dot products one row at a time: a
    # stacked reduction would round them differently
    def h_value(W, lam):
        sig = np.broadcast_to(sigmoid(lam), (len(W), m))
        return np.array([s @ losses for s, losses in zip(sig, train_losses(W))])

    def h_lam(P, A, dsig):
        # the lam side of h: sigmoid'(lam) times each training sample's
        # response to the logit perturbation A, from the probabilities P
        return dsig * (A * (P - YtrT)).sum(axis=-2)

    def linearize(lam):
        sig = sigmoid(lam)
        dsig = sig * (1.0 - sig)
        return _softmax_linearize(
            WT, (XtrT, YtrT), (XvaT, YvaT), None if lam.ndim == 2 else (XT, YT),
            sig, RIDGE, lambda P, A, dP, ta, c, w, a: ta * h_lam(P[:, :m], A[:, :m], dsig))

    def h_lam_part(P, A, w, a, lam):
        # the slots' lam side, at an unbound lam
        sig = sigmoid(lam)
        return h_lam(P, A, sig * (1.0 - sig))

    return _softmax_problem(
        "hypercleaning", d * C, m, h_value, lambda W, lam: _loss_sums(WT, XvaT, YvaT, W, RIDGE),
        _softmax_slots(WT, lambda lam: XtrT, sigmoid, YtrT, 0.0, h_lam_part),
        _softmax_slots(WT, lambda lam: XvaT, lambda lam: None, YvaT, RIDGE, None), linearize,
        train_losses=train_losses,
        # dh/dlam_i = sigmoid'(lam_i) * loss_i(w)
        grad2_h=lambda w, lam: sigmoid(lam) * (1.0 - sigmoid(lam)) * train_losses(w))


def hyperclean_f1_metric(mask: np.ndarray) -> Callable:
    """Detection F1 of the negative-weight flagging rule against a known mask."""
    mask = np.asarray(mask, dtype=bool).copy()

    def metric(omega, lam):
        return f1_score(lam < 0.0, mask)

    return metric


def hypercleaning_task(ds: Dataset, n_tr: int, n_val: int, rho: float, seed: int) -> tuple:
    """Hyper-cleaning on ``ds``: ``(problem, lam0, metric, mask)``.

    Splits ``ds`` into ``n_tr`` training and ``n_val`` validation samples,
    flips the labels of a fraction ``rho`` of the training samples, and
    builds the problem, its start lam0 = 0, the detection F1 metric and the
    training split's corruption mask.  ``zoo_problem`` and ``bilevelopt
    clean`` both build their task here.
    """
    train, val = split(ds, n_tr, n_val, seed)
    train = corrupt_labels(train, rho, seed)
    problem = make_hypercleaning(train, val)
    return problem, np.zeros(problem.outer_dim), hyperclean_f1_metric(train.mask), train.mask


# ---------------------------------------------------------------------------
# toy hyper-representation

def make_hyperrep(episodes: EpisodeSet, rep_dim: int) -> BilevelProblem:
    """Shared linear representation (outer) with per-task softmax heads (inner).

    The outer variable reshapes to a d x r map applied as x -> x @ L; the
    inner variable concatenates one r x way head per task, trained on the
    episode's training split (h) and scored on its validation split (g).
    Heads of different tasks never interact: each task's loss touches only
    its own block of the inner variable.
    """
    if rep_dim < 1:
        raise ValueError("rep_dim must be at least 1")
    # copies: the oracles must not change when the caller's arrays do
    Xtr, ytr, Xva, yva = (a.copy() for a in (episodes.X_tr, episodes.y_tr,
                                             episodes.X_val, episodes.y_val))
    if ytr.size == 0 or yva.size == 0:
        raise ValueError("bad-episode: empty episode set or split")
    n_tasks, _, d = Xtr.shape
    way, r = episodes.way, rep_dim
    if max(ytr.max(), yva.max()) >= way or min(ytr.min(), yva.min()) < 0:
        raise ValueError("bad-episode: episode labels exceed way or are negative")

    # logits are task x way x sample (class-major, see the module docstring)
    def rows_and_targets(X, y):
        # X stacked over tasks as (task * sample) x d rows, and the one-hot
        # targets as task x way x sample
        return (np.ascontiguousarray(X.reshape(-1, d)),
                np.ascontiguousarray(_onehot(y, way).transpose(0, 2, 1)))

    Xtr2, YtrT = rows_and_targets(Xtr, ytr)
    Xva2, YvaT = rows_and_targets(Xva, yva)
    # both splits' rows and targets stacked task by task, training samples
    # first, one per column of the averaged step: its targets, and the
    # inputs its VJP contracts the lam side with
    Xall2 = np.concatenate((Xtr, Xva), axis=1).reshape(-1, d)
    YallT = np.concatenate((YtrT, YvaT), axis=-1)

    # WT and features take one row or a stack of rows alike
    def WT(w):
        # task x way x r view of the task x r x way heads
        return w.reshape(*w.shape[:-1], n_tasks, r, way).swapaxes(-1, -2)

    def features(X2, lam):
        # the mapped features X @ L as a task x r x sample view
        stack = lam.shape[:-1]
        return (X2 @ lam.reshape(*stack, d, r)).reshape(*stack, n_tasks, -1, r).swapaxes(-1, -2)

    def contract_inputs(X2, M):
        # sum over tasks and samples of X^T M for a task x sample x r array M
        return (X2.T @ M.reshape(-1, r)).ravel()

    def lam_part(X2, R, dP, w, a):
        # the lam side over the rows X2: R is the residual P - Y and dP the
        # softmax's response to a's heads, each weighted per column alike
        M = np.matmul(dP.transpose(0, 2, 1), WT(w))
        M += np.matmul(R.transpose(0, 2, 1), WT(a))
        return contract_inputs(X2, M)

    def lam_side(P, A, dP, ta, c, w, a):
        # alpha == 1: the training rows, scaled by ta; an averaged step: both
        # splits' rows in one contraction, the residual weighted as dP is
        if c is None:
            return ta * lam_part(Xtr2, P - YtrT, dP, w, a)
        R = P - YallT
        R *= c
        return lam_part(Xall2, R, dP, w, a)

    def linearize(lam):
        # each split's features mapped on its own, as the slots map them, for
        # one lam row or a stack of them: a BLAS may round a row of X @ L
        # differently by where the row sits in X
        FTtr, FTva = features(Xtr2, lam), features(Xva2, lam)
        # both splits' features as one task x r x (N_tr + N_val) input,
        # training samples first, laid out as features() lays them out, for
        # the averaged steps on one lam row; a stack's run the splits apart
        fused = None if lam.ndim == 2 else (
            np.concatenate([F.swapaxes(-1, -2) for F in (FTtr, FTva)],
                           axis=-2).swapaxes(-1, -2), YallT)
        return _softmax_linearize(WT, (FTtr, YtrT), (FTva, YvaT), fused, None, RIDGE, lam_side)

    def split_slots(X2, YT, ridge):
        # one split's slots, its features mapped at each call
        return _softmax_slots(
            WT, lambda lam: features(X2, lam), lambda lam: None, YT, ridge,
            lambda P, A, w, a, lam: lam_part(X2, P - YT, _softmax_jvp(P, A), w, a))

    def grad2_g(w, lam):
        R = _errors(WT, features(Xva2, lam), YvaT, w)
        return contract_inputs(Xva2, np.matmul(R.transpose(0, 2, 1), WT(w)))

    return _softmax_problem(
        "hyperrep", n_tasks * r * way, d * r,
        lambda W, lam: _loss_sums(WT, features(Xtr2, lam), YtrT, W),
        lambda W, lam: _loss_sums(WT, features(Xva2, lam), YvaT, W, RIDGE),
        split_slots(Xtr2, YtrT, 0.0), split_slots(Xva2, YvaT, RIDGE), linearize, grad2_g,
        n_tasks=n_tasks, rep_dim=r, way=way)


def hyperrep_accuracy_metric(episodes: EpisodeSet, rep_dim: int) -> Callable:
    """Mean accuracy on the episodes' validation splits with the current heads."""
    Xva, yva, way = episodes.X_val.copy(), episodes.y_val.copy(), episodes.way
    n_tasks, _, d = Xva.shape

    def metric(omega, lam):
        F = Xva @ lam.reshape(d, rep_dim)
        Z = np.matmul(F, omega.reshape(n_tasks, rep_dim, way))
        return float((np.argmax(Z, axis=-1) == yva).mean())

    return metric


# ---------------------------------------------------------------------------
# desk-scale registry

# Step sizes and budgets are per problem: the quadratic instances move on unit
# scales while the learning problems use sum-over-samples losses and need far
# smaller inner steps.  Read without building any data.
ZOO_DEFAULTS = {
    "closedform_quadratic": dict(t=0.1, s=0.1, eta=0.5, K=200, T=100),
    "degenerate_quadratic": dict(t=0.1, s=0.1, eta=0.5, K=200, T=100),
    "hyperclean_synthetic": dict(t=0.01, s=0.001, eta=1.0, K=100, T=100),
    "hyperrep_synthetic": dict(t=0.01, s=0.01, eta=0.003, K=30, T=60),
}
ZOO_NAMES = tuple(ZOO_DEFAULTS)

# hyper-cleaning's synthetic data: feature dimension, classes, the distance
# between class centers, and the training/validation split.  The zoo instance
# and ``bilevelopt clean`` both read it.
HYPERCLEAN_DATA = {"d": 10, "C": 2, "margin": 3.0, "n_tr": 400, "n_val": 400}


@dataclass(frozen=True)
class ZooInstance:
    """A ready-to-run problem: oracle record, start point, tuned constants."""

    name: str
    problem: BilevelProblem
    lam0: np.ndarray
    defaults: dict            # t, s, eta, K, T
    metric: Optional[Callable]
    data_spec: dict


def zoo_problem(name: str, seed: int = 0, rho: float = 0.5) -> ZooInstance:
    """Build a named desk-scale instance deterministically from a seed.

    Each branch builds only its problem, start point, metric and data spec;
    ``defaults`` is a copy of the problem's ``ZOO_DEFAULTS`` entry.  An
    unknown name raises ``KeyError`` before any data is built.  ``rho`` is
    hyper-cleaning's label-corruption rate, and the other problems ignore it.
    """
    if name not in ZOO_DEFAULTS:
        raise KeyError(f"unknown problem {name!r}; known: {', '.join(ZOO_NAMES)}")
    metric, spec = None, {"kind": "analytic"}
    if name == "closedform_quadratic":
        problem, lam0 = make_closedform_quadratic(), np.array([2.0])
    elif name == "degenerate_quadratic":
        problem, lam0 = make_degenerate_quadratic(), np.array([1.0])
    elif name == "hyperclean_synthetic":
        spec = {"kind": "synthetic", "n": 1000, **HYPERCLEAN_DATA, "rho": rho, "seed": seed}
        ds = gen_synthetic(seed, spec["n"], spec["d"], spec["C"], spec["margin"])
        problem, lam0, metric, _ = hypercleaning_task(ds, spec["n_tr"], spec["n_val"], rho, seed)
    else:
        spec = {"kind": "synthetic", "n": 1200, "d": 20, "C": 20, "margin": 3.0,
                "way": 5, "shot": 1, "val_per_class": 10, "n_tasks": 8,
                "rep_dim": 8, "seed": seed}
        ds = gen_synthetic(seed, spec["n"], spec["d"], spec["C"], spec["margin"])
        episodes = make_episodes(ds, spec["way"], spec["shot"], spec["val_per_class"],
                                 spec["n_tasks"], seed)
        problem = make_hyperrep(episodes, spec["rep_dim"])
        lam0 = stream(seed, "lambda0").normal(0.0, 1.0 / np.sqrt(spec["d"]),
                                              spec["d"] * spec["rep_dim"])
        metric = hyperrep_accuracy_metric(episodes, spec["rep_dim"])
    return ZooInstance(name=name, problem=problem, lam0=lam0,
                       defaults=dict(ZOO_DEFAULTS[name]), metric=metric, data_spec=spec)
