"""The quadratic problems' three solve paths against exact rational arithmetic.

Every float64 is an exact rational, and so is every input of a quadratic
problem's inner solve: the spec's matrices, lam, t, s and each alpha_k of
``schedule``.  The recurrence of ``bilevelopt.affine``,

    M_k = I - t alpha_k A_h - s (1 - alpha_k) A_g,
    omega_{k+1} = M_k omega_k + t alpha_k (B_h lam + d_h) + s (1 - alpha_k) A_g c_g,
    J_{k+1} = M_k J_k + t alpha_k B_h,    omega_0 = 0,  J_0 = 0,

evaluated exactly therefore has no rounding at all, and neither has the
hypergradient J_K^T A_g (omega_K - c_g) (g reads no lam).  ``exact_solve``
shares no code with the paths it referees.  It takes the alpha_k from
``schedule`` as given: it checks the recurrence, not the schedule, whose
bits ``tests/test_properties.py`` pins.

The paths are the composed affine scan (the problem itself, at the real
block, which holds every drawn K, and at blocks of 1, 3 and 8 steps forced
through ``affine._block``, so that block carries and odd tails are reached
at small K; each setting solves on a fresh spec object, which holds no
kept state and so scans), the generic loop (a ``replace`` copy) and the
FD-fallback copy, whose reverse pass takes central differences of the
gradient slots instead of the analytic VJPs.  The composed path records
omega_K and J_K and no trajectory; the loop paths record the trajectory,
which is checked whole.
"""

import dataclasses
from fractions import Fraction
from functools import reduce
from operator import add, mul

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bilevelopt as bl
from bilevelopt import affine

# The largest error of each path against the exact value over 4,000 random
# draws of ``cases`` (hypothesis seeds 3101 and 3102, 2,000 draws each).
# omega_K, the iterates (the loop paths' whole trajectory) and J_K are
# relative to their largest exact entry, the hypergradient to
# ``hypergradient_scale``:
#                        omega_K   iterates  J_K       hypergradient
#   composed, any block  6.5e-15             1.5e-15   4.5e-15
#   generic loop         3.8e-15   1.1e-15             1.7e-15
#   FD-fallback copy     3.8e-15   1.1e-15             3.6e-10
# The composed path records no trajectory: ``ITERATES_BOUND`` bounds its
# omega_K, and the loop paths' iterates.  It forms omega_K = u_K + J_K lam
# from lam-free states (``bilevelopt.affine``); its largest omega_K and
# hypergradient errors are one draw's (K = 57), where u_K and J_K lam cancel
# to a fifth of their size in omega_K.  Scanning omega itself, as the path
# did before it kept states, does not cancel.  The bounds were set at about
# 4x the largest errors of an earlier table (iterates 4.6e-15, J_K 1.7e-15,
# hypergradient 2.0e-15); the composed hypergradient now reaches 0.56 of
# its bound.
ITERATES_BOUND = 2e-14
JACOBIAN_BOUND = 7e-15
HYPERGRADIENT_BOUND = 8e-15
FD_FALLBACK_BOUND = 2e-6
SMALL_BLOCKS = (1, 3, 8)

# no subnormal or nearly subnormal entries: a float result that underflows
# keeps no relative precision, whichever path computed it
entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False).filter(
    lambda x: x == 0.0 or abs(x) >= 1e-6)


def matrix(n, k):
    return arrays(np.float64, (n, k), elements=entries)


@st.composite
def cases(draw):
    """(problem, inner spec, lam): a drawn ``make_quadratic`` or a zoo quadratic."""
    zoo = draw(st.sampled_from([None, "closedform_quadratic", "degenerate_quadratic"]))
    if zoo is None:
        n = draw(st.integers(1, 3))
        m = draw(st.integers(1, 3))
        U = draw(matrix(n, draw(st.integers(0, n))))
        V = draw(matrix(n, n))
        spec = bl.QuadraticBilevelSpec(
            A_h=U @ U.T, B_h=draw(matrix(n, m)), d_h=draw(matrix(n, 1))[:, 0],
            A_g=V @ V.T + draw(st.floats(0.1, 1.0)) * np.eye(n),
            c_g=draw(matrix(n, 1))[:, 0])
        problem = bl.make_quadratic(spec, name="drawn")
    else:
        problem = bl.zoo_problem(zoo).problem
        spec = problem.affine
    # every step map contracts: t * lambda_max(A_h) < 1, s * lambda_max(A_g) < 1
    t = draw(st.floats(0.05, 0.95)) / max(1.0, float(np.linalg.eigvalsh(spec.A_h)[-1]))
    s = draw(st.floats(0.05, 0.95)) / max(1.0, float(np.linalg.eigvalsh(spec.A_g)[-1]))
    inner = bl.InnerSolveSpec(K=draw(st.integers(0, 60)), t=t, s=s,
                              alpha_exponent=draw(st.floats(0.0, 1.0)),
                              bigsam_frequency=draw(st.integers(1, 3)))
    return problem, inner, draw(matrix(problem.outer_dim, 1))[:, 0]


class Binary:
    """The exact binary fraction n / 2^e.

    Every float64 is one, and sums, differences and products of them stay
    ones, so the recurrence needs no other rationals.  ``Fraction`` holds
    the same values, but reduces each result by a gcd, which made the
    recurrence at K = 60 about 20x slower.
    """

    __slots__ = ("n", "e")

    def __init__(self, x, e=None):
        if e is None:
            x = Fraction(float(x))
            x, e = x.numerator, x.denominator.bit_length() - 1
        self.n, self.e = x, e

    def __add__(self, other):
        hi, lo = (self, other) if self.e >= other.e else (other, self)
        return Binary(hi.n + (lo.n << (hi.e - lo.e)), hi.e)

    def __sub__(self, other):
        return self + Binary(-other.n, other.e)

    def __mul__(self, other):
        return Binary(self.n * other.n, self.e + other.e)

    def fraction(self) -> Fraction:
        return Fraction(self.n, 1 << self.e)


def binaries(array):
    """Each entry of a float array as a ``Binary``, in nested lists."""
    return np.vectorize(Binary, otypes=[object])(np.asarray(array, dtype=np.float64)).tolist()


def dot(xs, ys):
    return reduce(add, map(mul, xs, ys))


def exact_solve(spec, lam, alphas, t, s):
    """(omega_0..omega_K, J_K, hypergradient) of the recurrence, as Fractions."""
    A_h, B_h, A_g = binaries(spec.A_h), binaries(spec.B_h), binaries(spec.A_g)
    d_h, c_g, lam = binaries(spec.d_h), binaries(spec.c_g), binaries(lam)
    t, s, one, zero = Binary(t), Binary(s), Binary(1.0), Binary(0.0)
    n, m = len(B_h), len(lam)
    b = [dot(B_h[i], lam) + d_h[i] for i in range(n)]
    gc = [dot(A_g[i], c_g) for i in range(n)]
    omega = [zero] * n
    J = [[zero] * m for _ in range(n)]
    iterates = [omega]
    for alpha in binaries(alphas):
        ta, sb = t * alpha, s * (one - alpha)
        M = [[(one if i == j else zero) - ta * A_h[i][j] - sb * A_g[i][j] for j in range(n)]
             for i in range(n)]
        columns = list(zip(*J))
        omega = [dot(M[i], omega) + ta * b[i] + sb * gc[i] for i in range(n)]
        J = [[dot(M[i], columns[j]) + ta * B_h[i][j] for j in range(m)] for i in range(n)]
        iterates.append(omega)
    r = [dot(A_g[i], [w - c for w, c in zip(omega, c_g)]) for i in range(n)]
    G = [dot(column, r) for column in zip(*J)]
    return tuple(np.vectorize(Binary.fraction, otypes=[object])(np.array(x, dtype=object))
                 for x in (iterates, J, G))


def hypergradient_scale(spec, J, omega):
    """max_j sum_i |J_ij| (|A_g| (|omega_K| + |c_g|))_i, the size of the terms summed.

    The hypergradient can cancel to far below its terms, and an error
    relative to it alone would then read large on every path.
    """
    J, omega = np.abs(J.astype(np.float64)), np.abs(omega.astype(np.float64))
    return float(np.max(J.T @ (np.abs(spec.A_g) @ (omega + np.abs(spec.c_g))), initial=0.0))


def rel_error(got, exact, scale=None):
    """max |got - exact| / scale, the difference taken exactly; scale is max |exact| by default.

    0 where the difference is 0, and inf where it is not but the scale is.
    """
    diff = max((abs(Fraction(g) - e) for g, e in zip(np.ravel(got).tolist(), exact.flat)),
               default=Fraction(0))
    if scale is None:
        scale = max((abs(e) for e in exact.flat), default=Fraction(0))
    if diff == 0:
        return 0.0
    return float(diff / Fraction(scale)) if scale else float("inf")


def fd_fallback(problem):
    """A copy without analytic VJPs: its reverse pass differences the gradient slots."""
    copy = dataclasses.replace(problem, vjp11_h=None, vjp12_h=None, vjp11_g=None,
                               vjp12_g=None)
    assert copy.affine is None
    return copy


def composed_errors(problem, inner, lam, want):
    tape = bl.solve_inner(problem, lam, inner)
    assert tape.jacobian is not None, "the composed path fell back to the loop"
    return (rel_error(tape.final, want[0][-1]), rel_error(tape.jacobian, want[1]),
            rel_error(bl.reverse_hypergradient(problem, tape), want[2], want[3]))


def exact_case(case):
    """A case's exact (iterates, J_K, hypergradient) and its ``hypergradient_scale``."""
    problem, inner, lam = case
    iterates, J, G = exact_solve(problem.affine, lam, bl.schedule(inner), inner.t, inner.s)
    return (iterates, J, G, hypergradient_scale(problem.affine, J, iterates[-1]))


@settings(max_examples=40)
@given(cases())
def test_every_path_matches_the_exact_recurrence(scan_blocks, case):
    blocks, lengths = scan_blocks
    problem, inner, lam = case
    want = exact_case(case)
    size = sum(problem.affine.B_h.shape) + 1
    # the real block holds every drawn K, at most 60 steps, in one block
    assert affine._block(size, 60) == 60
    for block in (None,) + SMALL_BLOCKS:
        # a fresh spec holds no state, so every block setting up-sweeps its
        # blocks, once
        with blocks(block, size) as seen:
            errors = composed_errors(problem, dataclasses.replace(inner), lam, want)
        assert seen.up == lengths(inner.K, block or 60), (block, seen)
        for name, err, bound in zip(("omega_K", "J_K", "hypergradient"), errors,
                                    (ITERATES_BOUND, JACOBIAN_BOUND, HYPERGRADIENT_BOUND)):
            assert err <= bound, (block, name, err)
    for copy, bound in ((dataclasses.replace(problem), HYPERGRADIENT_BOUND),
                        (fd_fallback(problem), FD_FALLBACK_BOUND)):
        tape = bl.solve_inner(copy, lam, inner)
        assert tape.jacobian is None
        assert rel_error(tape.iterates, want[0]) <= ITERATES_BOUND
        assert rel_error(bl.reverse_hypergradient(copy, tape), want[2], want[3]) <= bound
