"""Properties of the solver on randomly drawn bilevel problems.

Most examples draw a ``QuadraticBilevelSpec`` with n <= 4 and m <= 3: a PSD
A_h of random rank (singular ones included, which is what makes the inner
argmin set non-trivial) and a PD A_g.  The step sizes stay below
1/lambda_max of their quadratic form, so every averaged step map has its
spectrum in (0, 1] and K up to 300 steps stay bounded.

The learning-problem properties draw hyper-cleaning instances (C in 2..4,
random sample counts and feature dimension) and hyper-representation
instances (random way, shot, task count and representation size), and check
their ``linearize`` hook's step map against the one ``linearizer`` builds
from the slots of a ``replace`` copy (bit for bit on a step with alpha == 1,
to 1e-12 on an averaged step) and its VJP against ``fd_vjp``, and their
stacked oracles against the row oracles, bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bilevelopt as bl
from bilevelopt.problem import ROW_ORACLES, batched, default_fd_eps, fd_vjp
from bitwise import same_bits

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
    if draw(st.booleans()):
        # the basic model: exponent 0
        inner = dataclasses.replace(inner, alpha_exponent=0.0)
    return bl.make_quadratic(spec, name="drawn"), inner, lam


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
    p, spec, lam = case
    want = bl.hypergradient_fd_oracle(p, lam, spec)
    f_K = abs(p.g_value(bl.solve_inner(p, lam, spec).final[None], lam)[0])
    for problem in (p, loop_copy(p)):
        got = bl.reverse_hypergradient(problem, bl.solve_inner(problem, lam, spec))
        tol = 1e-7 * (1.0 + f_K + np.abs(want).max())
        assert np.abs(got - want).max() <= tol, (problem.affine is None, got, want)


@settings(max_examples=60)
@given(quadratic_cases())
def test_affine_path_matches_the_loop(case):
    p, spec, lam = case
    fast = bl.solve_inner(p, lam, spec)
    ref = bl.solve_inner(loop_copy(p), lam, spec)
    assert np.array_equal(fast.alphas, ref.alphas)
    scale = 1.0 + np.abs(ref.iterates).max()
    np.testing.assert_allclose(fast.final, ref.final, rtol=0, atol=1e-10 * scale)
    # omega_K is affine in lam: a unit difference of the loop's is a column of J_K
    for j, e in enumerate(np.eye(p.outer_dim)):
        shifted = bl.solve_inner(loop_copy(p), lam + e, spec)
        np.testing.assert_allclose(
            fast.jacobian[:, j], shifted.final - ref.final, rtol=0,
            atol=1e-10 * (scale + np.abs(shifted.iterates).max()))
    G_fast = bl.reverse_hypergradient(p, fast)
    G_ref = bl.reverse_hypergradient(loop_copy(p), ref)
    np.testing.assert_allclose(G_fast, G_ref, rtol=0,
                               atol=1e-9 * (1.0 + np.abs(G_ref).max()) * scale)


@settings(max_examples=40)
@given(quadratic_cases())
def test_exponent_zero_is_basic_bit_for_bit(case):
    # two routes to all-ones weights: exponent 0, and a frequency beyond the
    # horizon, which averages step 1 alone, whose weight is 1 at any exponent
    p, spec, lam = case
    flat = dataclasses.replace(spec, alpha_exponent=0.0)
    beyond = dataclasses.replace(spec, bigsam_frequency=spec.K + 1)
    if spec.K:
        basic = bl.SolveConfig(t=spec.t, s=spec.s, eta=1.0, K=spec.K, T=1, mode="basic",
                               alpha_exponent=spec.alpha_exponent,
                               bigsam_frequency=spec.bigsam_frequency)
        assert basic.inner_spec() == flat
    for problem in (p, loop_copy(p)):
        imp = bl.solve_inner(problem, lam, flat)
        bas = bl.solve_inner(problem, lam, beyond)
        # the composed path records no trajectory, the loop no jacobian
        assert same_bits(imp.iterates, bas.iterates)
        assert same_bits(imp.final, bas.final) and same_bits(imp.jacobian, bas.jacobian)
        assert np.array_equal(imp.alphas, bas.alphas) and np.all(imp.alphas == 1.0)
        assert np.array_equal(bl.reverse_hypergradient(problem, imp),
                              bl.reverse_hypergradient(problem, bas))


@settings(max_examples=30)
@given(quadratic_cases())
def test_fd_fallback_vjps_pass_reverse_against_fd(case):
    # every VJP slot None: the generic loop's reverse pass differences the
    # problem's own gradients, which are affine, so only rounding is left
    p, spec, lam = case
    bare = dataclasses.replace(p, vjp11_h=None, vjp12_h=None, vjp11_g=None, vjp12_g=None)
    assert bare.affine is None and set(bare.vjp_flavor.values()) == {"fd-fallback"}
    want = bl.hypergradient_fd_oracle(p, lam, spec)
    tape = bl.solve_inner(bare, lam, spec)
    got = bl.reverse_hypergradient(bare, tape)
    f_K = abs(p.g_value(tape.final[None], lam)[0])
    tol = 1e-7 * (1.0 + f_K + np.abs(want).max())
    assert np.abs(got - want).max() <= tol, (got, want)


@st.composite
def deficient_cases(draw):
    """A PSD A_h of deficient rank with B_h lam + d_h in range(A_h), averaged on every step.

    B_h and d_h are A_h times drawn matrices, so h has a minimizer at every
    lam.  The exponent stays at least 1e-3: as it goes to 0 every alpha_k
    rounds to 1, and step K's map becomes the pure h step, whose fixed points
    are the whole of argmin h.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    U = draw(matrix(n, draw(st.integers(0, n - 1))))
    V = draw(matrix(n, n))
    A_h = U @ U.T
    spec = bl.QuadraticBilevelSpec(
        A_h=A_h, B_h=A_h @ draw(matrix(n, m)), d_h=A_h @ draw(matrix(n, 1))[:, 0],
        A_g=V @ V.T + draw(st.floats(0.1, 1.0)) * np.eye(n), c_g=draw(matrix(n, 1))[:, 0])
    t = draw(st.floats(0.05, 0.95)) / max(1.0, float(np.linalg.eigvalsh(spec.A_h)[-1]))
    s = draw(st.floats(0.05, 0.95)) / max(1.0, float(np.linalg.eigvalsh(spec.A_g)[-1]))
    inner = bl.InnerSolveSpec(K=draw(st.integers(2, 300)), t=t, s=s,
                              alpha_exponent=draw(st.floats(1e-3, 1.0)), bigsam_frequency=1)
    return spec, inner, draw(matrix(m, 1))[:, 0]


@settings(max_examples=60)
@given(deficient_cases())
def test_iterates_track_the_fixed_point_of_the_last_step_map(case):
    # Step k (alpha_k < 1 from k = 2 on) is the affine map w -> w - M_k w + r_k with
    #   M_k = t alpha_k A_h + s (1 - alpha_k) A_g,
    #   r_k = t alpha_k (B_h lam + d_h) + s (1 - alpha_k) A_g c_g,
    # whose fixed point F_k solves M_k F_k = r_k.  M_k is symmetric with its
    # spectrum in (0, 1), so e_k = omega_k - F_k = (I - M_k)(e_{k-1} + F_{k-1} - F_k)
    # gives |e_k| <= B_k, with B_2 = rho_2 |omega_1 - F_2|,
    # B_k = rho_k (B_{k-1} + |F_k - F_{k-1}|) and rho_k = 1 - lambda_min(M_k).
    # The bound is B_k plus a rounding term, 1e-14 (1 + max|omega| + |F_k|)
    # / lambda_min(M_k): the error of solving for F_k, and the rounding that
    # the steps carry, scale with the inverse of the contraction gap.
    # Measured on 3,000 draws of this strategy and 3,000 like them from
    # numpy's generator: |e_k| - B_k never exceeded 1.2e-16 of that scale, a
    # hundredth of the rounding term, and the median of |e_K| / B_K was 0.92
    # and 0.82, so the bound is not loose.  The iterates approach F_K, which
    # tends to argmin g as alpha_K -> 0, not g's pick on argmin h.  With the
    # weights swapped as in BiG-SAM (h step t (1 - alpha), g step s alpha),
    # this property fails.  The loop copy's trajectory is checked at every
    # step, the composed path's omega_K at the last.
    spec, inner, lam = case
    problem = bl.make_quadratic(spec, name="deficient")
    tape = bl.solve_inner(loop_copy(problem), lam, inner)
    alphas = tape.alphas[1:]
    assert np.all(alphas < 1.0) and tape.alphas[0] == 1.0
    ta, sb = inner.t * alphas, inner.s * (1.0 - alphas)
    M = ta[:, None, None] * spec.A_h + sb[:, None, None] * spec.A_g
    r = np.outer(ta, spec.B_h @ lam + spec.d_h) + np.outer(sb, spec.A_g @ spec.c_g)
    F = np.linalg.solve(M, r[..., None])[..., 0]
    spectrum = np.linalg.eigvalsh(M)
    assert np.all(spectrum[:, 0] > 0.0) and np.all(spectrum[:, -1] < 1.0)
    drift = np.linalg.norm(np.diff(np.vstack([tape.iterates[1], F]), axis=0), axis=1)
    bound = np.empty(inner.K - 1)
    b = 0.0
    for k, (rho, d) in enumerate(zip(1.0 - spectrum[:, 0], drift)):
        b = rho * (b + d)
        bound[k] = b
    error = np.linalg.norm(tape.iterates[2:] - F, axis=1)
    rounding = 1e-14 * (1.0 + np.abs(tape.iterates).max() + np.abs(F).max(axis=1))
    assert np.all(error <= bound + rounding / spectrum[:, 0]), (error, bound)
    composed = bl.solve_inner(problem, lam, inner)
    assert composed.jacobian is not None
    assert np.linalg.norm(composed.final - F[-1]) <= bound[-1] + rounding[-1] / spectrum[-1, 0]


@st.composite
def learning_problems(draw):
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        C = draw(st.integers(2, 4))
        n_tr, n_val = draw(st.integers(C, 40)), draw(st.integers(C, 30))
        ds = bl.gen_synthetic(seed, n_tr + n_val, draw(st.integers(C, 8)), C, 3.0)
        train, val = bl.split(ds, n_tr, n_val, seed)
        p = bl.make_hypercleaning(bl.corrupt_labels(train, 0.5, seed), val)
    else:
        way, shot, vpc = draw(st.integers(2, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
        C = way + draw(st.integers(0, 2))
        ds = bl.gen_synthetic(seed, C * (shot + vpc), draw(st.integers(C, 8)), C, 3.0)
        episodes = bl.make_episodes(ds, way, shot, vpc, draw(st.integers(1, 4)), seed)
        p = bl.make_hyperrep(episodes, draw(st.integers(1, 4)))
    return p, np.random.default_rng(seed)


def close(x, y):
    """Agreement to 1e-12 relative, with the array's scale as the floor near zero."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    scale = float(np.max(np.abs(y))) if y.size else 0.0
    return x.shape == y.shape and np.allclose(x, y, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=40)
@given(learning_problems())
def test_learning_hook_equals_slot_linearizer_and_fd(case):
    # the hook's step against the step built from the slots of a replace
    # copy: bit for bit on an alpha == 1 step, to 1e-12 on an averaged one
    # (which the hook fuses); the VJPs against fd_vjp at the same tolerance
    # as the slots' own
    p, rng = case
    slots = dataclasses.replace(p)
    assert p.linearize is not None and slots.linearize is None
    w, a = rng.normal(0, 0.5, p.inner_dim), rng.normal(0, 0.5, p.inner_dim)
    lam = rng.normal(0, 0.5, p.outer_dim)
    fd = {which: fd_vjp(p, which, a, w, lam,
                        default_fd_eps(w if which.endswith("11") else lam))
          for which in ("h11", "h12", "g11", "g12")}
    ta = float(rng.uniform(0.1, 1.0))
    for sb in (None, float(rng.uniform(0.1, 1.0))):
        agree = same_bits if sb is None else close
        sides = []
        for step in (p.linearize(lam), bl.linearizer(slots, lam)):
            w_next, vjp = step(w, ta, sb)
            lam_bar = np.zeros(p.outer_dim)
            sides.append((w_next, vjp(a, True, lam_bar), lam_bar))
        for got, want in zip(*sides):
            assert agree(got, want), sb
        _, omega_side, lam_side = sides[0]
        want_omega, want_lam = ta * fd["h11"], -ta * fd["h12"]
        if sb is not None:
            want_omega, want_lam = want_omega + sb * fd["g11"], want_lam - sb * fd["g12"]
        for got, want in ((a - omega_side, want_omega), (lam_side, want_lam)):
            err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
            assert err < 1e-6, (sb, err)
        if p.grad1_h_many is not None:
            # a stack of lam rows: the hook against the batched slots
            ws, lams = rng.normal(0, 0.5, (3, p.inner_dim)), rng.normal(0, 0.5, (3, p.outer_dim))
            got = bl.linearizer(p, lams)(ws, ta, sb)[0]
            assert same_bits(got, bl.linearizer(slots, lams)(ws, ta, sb)[0]), sb


@settings(max_examples=30)
@given(learning_problems(), st.integers(1, 9))
def test_stacked_oracles_equal_the_row_oracles(case, rows):
    # every row of a stacked oracle is the row oracle at its pair, bit for
    # bit, so that the referee's stacked probes keep the serial probes' bits
    p, rng = case
    W, L = rng.normal(0, 0.5, (rows, p.inner_dim)), rng.normal(0, 0.5, (rows, p.outer_dim))
    for many, row in ((p.grad1_h_many, p.grad1_h), (p.grad1_g_many, p.grad1_g)):
        for got, w, lam in zip(many(W, L), W, L):
            assert same_bits(got, row(w, lam))
    for value in (p.h_value, p.g_value):
        # a stack of lam rows paired with W's, and one lam row shared by
        # all: each row is that row's value on a stack of one row
        assert same_bits(value(W, L), [value(w[None], lam)[0] for w, lam in zip(W, L)])
        assert same_bits(value(W, L[0]), [value(w[None], L[0])[0] for w in W])


@given(K=st.integers(0, 500), exponent=st.just(0.0) | st.floats(-1.0, 4.0),
       freq=st.integers(1, 10))
def test_schedule_bounds(K, exponent, freq):
    if exponent < 0.0:
        # a negative exponent would pin every weight at 1: exponent 0 in disguise
        with pytest.raises(ValueError, match="alpha_exponent"):
            bl.InnerSolveSpec(K=max(K, 1), t=0.1, s=0.1, alpha_exponent=exponent,
                              bigsam_frequency=freq)
        return
    spec = bl.InnerSolveSpec(K=K, t=0.1, s=0.1, alpha_exponent=exponent,
                             bigsam_frequency=freq)
    alphas = bl.schedule(spec)
    assert alphas.shape == (K,)
    assert np.all((alphas > 0.0) & (alphas <= 1.0))
    # exponent 0, the basic model, averages no step
    averaged = np.arange(K) % freq == 0 if exponent > 0.0 else np.zeros(K, bool)
    assert np.all(alphas[~averaged] == 1.0)
    assert np.all(np.diff(alphas[averaged]) <= 0.0)


def list_schedule(spec):
    """The schedule as two list comprehensions of float ** float."""
    K = spec.K
    alphas = [1.0] * K
    freq, power = spec.bigsam_frequency, -spec.alpha_exponent
    alphas[::freq] = [a if a < 1.0 else 1.0
                      for a in [float(k) ** power for k in range(1, K + 1, freq)]]
    return np.asarray(alphas, dtype=np.float64)


@settings(max_examples=80)
@given(K=st.integers(0, 6000),
       exponent=(st.just(0.0) | st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.7, 1.3])
                 | st.floats(0.0, 3.0)),
       freq=st.integers(1, 10))
def test_schedule_equals_the_list_comprehension_bit_for_bit(K, exponent, freq):
    spec = bl.InnerSolveSpec(K=K, t=0.1, s=0.1, alpha_exponent=exponent,
                             bigsam_frequency=freq)
    got = bl.schedule(spec)
    want = list_schedule(spec)
    assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=40)
@given(quadratic_cases(), st.integers(1, 9), st.integers(0, 2 ** 16))
def test_batched_default_gives_the_row_oracles_bits(case, rows, seed):
    # a drawn quadratic has no grad1_*_many, so ``batched`` applies each
    # row gradient row by row, and its values take the stack whole; a
    # value's ``rowwise`` over one-row calls is its row-by-row reference.
    # Either way, on one shared lam row or on lam rows paired with W's,
    # every row gets the bits of that row alone
    p, _, _ = case
    assert all(getattr(p, name) is None for name in ROW_ORACLES)
    rng = np.random.default_rng(seed)
    W, L = rng.normal(0, 0.5, (rows, p.inner_dim)), rng.normal(0, 0.5, (rows, p.outer_dim))
    for name, row in ROW_ORACLES.items():
        oracle, by_row = batched(p, name), getattr(p, row)
        assert same_bits(oracle(W, L), [by_row(w, lam) for w, lam in zip(W, L)]), name
        assert same_bits(oracle(W, L[0]), [by_row(w, L[0]) for w in W]), name
    for value in (p.h_value, p.g_value):
        one_row = bl.rowwise(lambda w, lam: value(w[None], lam)[0])
        for lam in (L, L[0]):
            assert same_bits(value(W, lam), one_row(W, lam))


lattice = st.sampled_from([0.0, 0.0, -1.0, -0.5, 0.5, 1.0])


@st.composite
def tied_quadratics(draw):
    """1-D and 2-D quadratics on a coarse lattice, whose grid minima tie often.

    A_h of random rank, over a lattice heavy in zeros, gives flat argmin
    sets; a diagonal A_g and a c_g that may sit midway between two grid
    points give members of equal g.  Of the 40 examples drawn, 28 have an
    argmin set of more than one point at some grid lam, 10 a tie in g on
    one, and 27 a tie between the best values of two grid lams.
    """
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    resolution = draw(st.sampled_from([3, 4, 5, 7]))

    def mat(r, c):
        return np.array(draw(st.lists(lattice, min_size=r * c, max_size=r * c))).reshape(r, c)

    axis = np.linspace(-1.0, 1.0, resolution)
    midway = st.sampled_from(list((axis[:-1] + axis[1:]) / 2))
    U = mat(n, draw(st.integers(0, n)))
    diag = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
    spec = bl.QuadraticBilevelSpec(
        A_h=U @ U.T, B_h=mat(n, m), d_h=mat(n, 1)[:, 0], A_g=np.diag(diag),
        c_g=np.array(draw(st.lists(lattice | midway, min_size=n, max_size=n))))
    return bl.make_quadratic(spec, name="tied"), resolution


def whole_grid_min(problem, lam_box, omega_box, resolution):
    """The grid reduction with h and g both read on the whole omega grid, row by row."""
    lam_axes = [np.linspace(lo, hi, resolution) for lo, hi in lam_box]
    om_axes = [np.linspace(lo, hi, resolution) for lo, hi in omega_box]
    om_grid = np.stack([g.ravel() for g in np.meshgrid(*om_axes, indexing="ij")], axis=1)
    lam_grid = np.stack([g.ravel() for g in np.meshgrid(*lam_axes, indexing="ij")], axis=1)
    best_val, best = np.inf, None
    for lam in lam_grid:
        h = np.array([problem.h_value(w[None], lam)[0] for w in om_grid])
        g = np.array([problem.g_value(w[None], lam)[0] for w in om_grid])
        members = np.flatnonzero(h <= h.min() + 1e-6)
        pick = members[np.argmin(g[members])]
        if g[pick] < best_val:
            best_val = float(g[pick])
            best = (lam.copy(), om_grid[pick].copy())
    return best[0], best[1], best_val


@settings(max_examples=40)
@given(tied_quadratics())
def test_grid_reads_g_on_the_argmin_set_with_the_whole_grid_bits(case):
    p, resolution = case
    n, m = p.dims
    box = [(-1.0, 1.0)]
    got = bl.grid_min_oracle(p, box * m, box * n, resolution)
    want = whole_grid_min(p, box * m, box * n, resolution)
    for x, y in zip(got, want):
        assert same_bits(x, y), (got, want)


def test_the_suite_draws_derandomized_and_the_sweep_does_not(pytestconfig):
    # the suite's profile fixes every draw; the sweep profile differs only in
    # drawing from --hypothesis-seed
    suite, sweep = settings.get_profile("reproducible"), settings.get_profile("sweep")
    assert suite.derandomize and not sweep.derandomize
    assert (sweep.deadline, sweep.database) == (suite.deadline, suite.database)
    if pytestconfig.getoption("hypothesis_profile") is None:
        assert settings.default.derandomize
