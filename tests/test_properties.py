"""Properties of the solver on randomly drawn quadratic bilevel problems.

Each example draws a ``QuadraticBilevelSpec`` with n <= 4 and m <= 3: a PSD
A_h of random rank (singular ones included, which is what makes the inner
argmin set non-trivial) and a PD A_g.  The step sizes stay below
1/lambda_max of their quadratic form, so every averaged step map has its
spectrum in (0, 1] and K up to 300 steps stay bounded.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bilevelopt as bl

entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def matrix(n, k):
    return arrays(np.float64, (n, k), elements=entries)


@st.composite
def quadratic_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    U = draw(matrix(n, draw(st.integers(0, n))))
    V = draw(matrix(n, n))
    spec = bl.QuadraticBilevelSpec(
        A_h=U @ U.T, B_h=draw(matrix(n, m)), d_h=draw(matrix(n, 1))[:, 0],
        A_g=V @ V.T + draw(st.floats(0.1, 1.0)) * np.eye(n), c_g=draw(matrix(n, 1))[:, 0])
    # t * lambda_max(A_h) < 1 and s * lambda_max(A_g) < 1, and neither above 1
    t = draw(st.floats(0.05, 0.95)) / max(1.0, float(np.linalg.eigvalsh(spec.A_h)[-1]))
    s = draw(st.floats(0.05, 0.95)) / max(1.0, float(np.linalg.eigvalsh(spec.A_g)[-1]))
    inner = bl.InnerSolveSpec(K=draw(st.integers(0, 300)), t=t, s=s,
                              alpha_exponent=draw(st.floats(0.0, 1.0)),
                              bigsam_frequency=draw(st.integers(1, 4)))
    lam = draw(matrix(m, 1))[:, 0]
    mode = draw(st.sampled_from(["improved", "basic"]))
    return bl.make_quadratic(spec, name="drawn"), inner, lam, mode


def loop_copy(problem):
    """A ``replace`` copy drops the affine declaration: it runs the generic loop."""
    copy = dataclasses.replace(problem)
    assert copy.affine is None
    return copy


@settings(max_examples=60)
@given(quadratic_cases())
def test_reverse_pass_matches_fd_hypergradient(case):
    # f_K is quadratic in lam, so central differences are exact up to the
    # rounding of f_K, which is what the tolerance scales with
    p, spec, lam, mode = case
    want = bl.hypergradient_fd_oracle(p, lam, spec, mode)
    f_K = abs(p.g_value(bl.solve_inner(p, lam, spec, mode).final, lam))
    for problem in (p, loop_copy(p)):
        got = bl.reverse_hypergradient(problem, bl.solve_inner(problem, lam, spec, mode))
        tol = 1e-7 * (1.0 + f_K + np.abs(want).max())
        assert np.abs(got - want).max() <= tol, (problem.affine is None, got, want)


@settings(max_examples=60)
@given(quadratic_cases())
def test_affine_path_matches_the_loop(case):
    p, spec, lam, mode = case
    fast = bl.solve_inner(p, lam, spec, mode)
    ref = bl.solve_inner(loop_copy(p), lam, spec, mode)
    assert np.array_equal(fast.alphas, ref.alphas)
    scale = 1.0 + np.abs(ref.iterates).max()
    np.testing.assert_allclose(fast.iterates, ref.iterates, rtol=0, atol=1e-10 * scale)
    G_fast = bl.reverse_hypergradient(p, fast)
    G_ref = bl.reverse_hypergradient(loop_copy(p), ref)
    np.testing.assert_allclose(G_fast, G_ref, rtol=0,
                               atol=1e-9 * (1.0 + np.abs(G_ref).max()) * scale)


@settings(max_examples=40)
@given(quadratic_cases())
def test_exponent_zero_is_basic_bit_for_bit(case):
    p, spec, lam, _ = case
    flat = dataclasses.replace(spec, alpha_exponent=0.0)
    for problem in (p, loop_copy(p)):
        imp = bl.solve_inner(problem, lam, flat, "improved")
        bas = bl.solve_inner(problem, lam, spec, "basic")
        assert np.array_equal(imp.iterates, bas.iterates)
        assert np.array_equal(imp.alphas, bas.alphas)
        assert np.array_equal(bl.reverse_hypergradient(problem, imp),
                              bl.reverse_hypergradient(problem, bas))


@given(K=st.integers(0, 500), exponent=st.floats(-1.0, 4.0), freq=st.integers(1, 10),
       mode=st.sampled_from(["improved", "basic"]))
def test_schedule_bounds(K, exponent, freq, mode):
    if exponent < 0.0:
        # a negative exponent would pin every weight at 1: basic mode in disguise
        with pytest.raises(ValueError, match="alpha_exponent"):
            bl.InnerSolveSpec(K=max(K, 1), t=0.1, s=0.1, alpha_exponent=exponent,
                              bigsam_frequency=freq)
        return
    spec = bl.InnerSolveSpec(K=max(K, 1), t=0.1, s=0.1, alpha_exponent=exponent,
                             bigsam_frequency=freq)
    alphas = bl.schedule(K, mode, spec)
    assert alphas.shape == (K,)
    assert np.all((alphas > 0.0) & (alphas <= 1.0))
    averaged = np.arange(K) % freq == 0 if mode == "improved" else np.zeros(K, bool)
    assert np.all(alphas[~averaged] == 1.0)
    assert np.all(np.diff(alphas[averaged]) <= 0.0)
