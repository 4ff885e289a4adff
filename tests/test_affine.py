"""Composed affine steps of the quadratic problems against the generic loop.

A ``dataclasses.replace`` copy of a problem drops its affine declaration, so
the copy runs the generic per-step loop over the same oracles: that copy is
the reference every fast-path result is checked against.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt import affine, models
from bilevelopt.bigsam import final_inner_iterate
from bitwise import same_bits
from bilevelopt.problems import _CLOSEDFORM_SPEC, _DEGENERATE_SPEC


def random_quadratic(seed, n=4, m=3):
    """Singular PSD A_h and PD A_g that do not commute, m > 1."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    evals = rng.uniform(0.2, 2.0, n)
    evals[: 1 + seed % 2] = 0.0                  # rank n-1 or n-2
    A_h = (Q * evals) @ Q.T
    N = rng.normal(size=(n, n))
    A_g = N @ N.T / n + 0.5 * np.eye(n)
    spec = bl.QuadraticBilevelSpec(A_h=0.5 * (A_h + A_h.T), B_h=rng.normal(size=(n, m)),
                                   d_h=rng.normal(size=n), A_g=A_g, c_g=rng.normal(size=n))
    assert not np.allclose(spec.A_h @ spec.A_g, spec.A_g @ spec.A_h)
    return bl.make_quadratic(spec, name=f"random-{seed}")


PROBLEMS = {
    "closedform": bl.make_closedform_quadratic,
    "degenerate": bl.make_degenerate_quadratic,
    "random-0": lambda: random_quadratic(0),
    "random-1": lambda: random_quadratic(1),
}
# schedule name -> (alpha_exponent, bigsam_frequency); the basic model is exponent 0
SCHEDULES = {
    "improved": (0.25, 1),
    "basic": (0.0, 1),
    "every-third": (0.25, 3),
}


def state_size(p):
    """n + 1 + m: the side of a composed step matrix of problem p."""
    return sum(p.affine.B_h.shape) + 1


def kept_fits(p, K):
    """Whether the K + 1 lam-free states of problem p, n (1 + m) floats each, fit the budget."""
    n, m = p.affine.B_h.shape
    return 8 * (K + 1) * n * (1 + m) <= affine.BLOCK_BYTES


def reverse_of_streamed(p, streamed, alphas, spec, lam):
    """The reverse hypergradient of a tape built by hand from a streamed solve."""
    iterates, jacobian = streamed
    return bl.reverse_hypergradient(p, bl.Tape(iterates=iterates, alphas=alphas, t=spec.t,
                                               s=spec.s, lam=lam, jacobian=jacobian))


def _close(got, want, rtol):
    # relative to each entry, with the array's scale as the floor for entries
    # that pass through zero
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


class TestFastPathMatchesLoop:
    # K = 257 in blocks of 256 reaches one block carry and a one-step tail;
    # K = 5000 runs the real block, several of them for the random problems
    @pytest.mark.parametrize("K,steps", [(0, None), (1, None), (2, None), (257, 256),
                                         (5000, None)])
    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_iterates_and_hypergradient(self, scan_blocks, name, schedule, K, steps):
        blocks, lengths = scan_blocks
        p = PROBLEMS[name]()
        ref = dataclasses.replace(p)
        assert p.affine is not None and ref.affine is None
        expo, freq = SCHEDULES[schedule]
        spec = bl.InnerSolveSpec(K=K, t=0.2, s=0.15, alpha_exponent=expo, bigsam_frequency=freq)
        lam = np.random.default_rng(K).normal(size=p.outer_dim)
        size = state_size(p)
        with blocks(steps, size) as seen:
            fast = bl.solve_inner(p, lam, spec)
            scanned = list(seen)
            final = final_inner_iterate(p, lam, spec)
            fits = kept_fits(p, K)
        # the first solve scans; the second reads the kept states, and scans
        # again only where they do not fit the budget
        assert scanned == lengths(K, steps or affine._block(size, K))
        assert seen == scanned * (1 if fits else 2)
        loop = bl.solve_inner(ref, lam, spec)
        assert np.array_equal(fast.alphas, loop.alphas)
        _close(fast.iterates, loop.iterates, 1e-12)
        _close(bl.reverse_hypergradient(p, fast), bl.reverse_hypergradient(ref, loop), 1e-10)
        assert np.array_equal(final, fast.final)

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_exponent_zero_is_basic_bit_for_bit(self, scan_blocks, name):
        blocks, lengths = scan_blocks
        p = PROBLEMS[name]()
        lam = np.random.default_rng(4).normal(size=p.outer_dim)
        spec0 = bl.InnerSolveSpec(K=263, t=0.2, s=0.15, alpha_exponent=0.0)
        spec = bl.SolveConfig(t=0.2, s=0.15, eta=0.1, K=263, T=1, mode="basic").inner_spec()
        with blocks(256, state_size(p)) as seen:
            imp = bl.solve_inner(p, lam, spec0)
            bas = bl.solve_inner(p, lam, spec)
        assert seen == 2 * lengths(263, 256) == [256, 7, 256, 7]
        assert np.array_equal(imp.iterates, bas.iterates)
        assert np.array_equal(bl.reverse_hypergradient(p, imp),
                              bl.reverse_hypergradient(p, bas))

    def test_fast_path_calls_no_oracle_per_step(self):
        p = bl.make_degenerate_quadratic()
        calls = []

        def count(name):
            slot = getattr(p, name)

            def counted(*args):
                calls.append(name)
                return slot(*args)

            return counted

        for name in ("grad1_h", "grad1_g", "vjp11_h", "vjp12_h", "vjp11_g", "vjp12_g"):
            setattr(p, name, count(name))
        tape = bl.solve_inner(p, np.array([0.3]), bl.InnerSolveSpec(K=500, t=0.1, s=0.1))
        bl.reverse_hypergradient(p, tape)
        # the reverse pass seeds its adjoint with one grad1_g, as the loop does
        assert calls == ["grad1_g"]


def sequential(spec, lam, alphas, t, s):
    """omega_0..omega_K and J_K from the step maps applied one after another, in floats."""
    n, m = spec.B_h.shape
    b = spec.B_h @ lam + spec.d_h
    gc = spec.A_g @ spec.c_g
    omega, J = np.zeros(n), np.zeros((n, m))
    iterates = [omega]
    for alpha in alphas:
        ta, sb = t * alpha, s * (1.0 - alpha)
        M = np.eye(n) - ta * spec.A_h - sb * spec.A_g
        omega = M @ omega + ta * b + sb * gc
        J = M @ J + ta * spec.B_h
        iterates.append(omega)
    return np.array(iterates), J


class TestScanIndexing:
    """Every step's state lands on its own row, in every block and across block carries."""

    @staticmethod
    def check(K):
        p = random_quadratic(1)
        spec = bl.InnerSolveSpec(K=K, t=0.2, s=0.15)
        alphas = bl.schedule(spec)
        lam = np.random.default_rng(K).normal(size=p.outer_dim)
        iterates, J = affine.inner_iterates(p.affine, lam, alphas, spec.t, spec.s)
        want_iterates, want_J = sequential(p.affine, lam, alphas, spec.t, spec.s)
        assert iterates.shape == want_iterates.shape
        _close(iterates, want_iterates, 1e-13)
        _close(J, want_J, 1e-13)

    @pytest.mark.parametrize("block", [8, 16])
    def test_every_horizon_up_to_seventy(self, scan_blocks, block):
        blocks, lengths = scan_blocks
        size = state_size(random_quadratic(1))
        for K in range(71):
            with blocks(block, size) as seen:
                self.check(K)
            assert seen == lengths(K, block)

    # the real block of random_quadratic(1), whose state has n + 1 + m = 8
    # columns: 1024 steps
    @pytest.mark.parametrize("offset,want", [(-1, [1023]), (0, [1024]), (1, [1024, 1]),
                                             (1025, [1024, 1024, 1])])
    def test_around_the_real_block(self, scan_blocks, offset, want):
        blocks, _ = scan_blocks
        block = affine._block(state_size(random_quadratic(1)), 10 ** 9)
        assert block == 1024
        with blocks() as seen:
            self.check(block + offset)
        assert seen == want


class TestBlockSize:
    """The block is derived from the state size, so the scan's memory is bounded for any size."""

    @pytest.mark.parametrize("K", [1, 2, 7, 600, 5000])
    def test_derived_block_is_between_one_step_and_k(self, K):
        for size in range(3, 102):
            block = affine._block(size, K)
            assert 1 <= block <= K
            # one step matrix alone may exceed the budget; a block of more never does
            assert block == 1 or block * 8 * size ** 2 <= affine.BLOCK_BYTES

    def test_scan_memory_is_bounded_at_n_m_fifty(self):
        # a 256-step block of this size would hold 256 * 8 * 101^2 bytes = 20.9 MB
        p = random_quadratic(2, n=50, m=50)
        spec = bl.InnerSolveSpec(K=600, t=0.1, s=0.1)
        alphas = bl.schedule(spec)
        lam = np.random.default_rng(2).normal(size=p.outer_dim)
        tracemalloc.start()
        try:
            composed = affine.inner_iterates(p.affine, lam, alphas, spec.t, spec.s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert composed is not None
        iterates, J = composed
        # the block buffer holds at most the budget, and the scan's
        # temporaries, its weights and its constant rows less than twice
        # more (1.1 MB in all, of which 0.24 MB iterates; 32 MB in blocks of
        # 256 steps)
        assert peak < 3 * affine.BLOCK_BYTES + iterates.nbytes + J.nbytes, peak


class TestDivergence:
    def test_unstable_steps_at_a_fixed_point_match_the_loop(self):
        # w = lam = 0 is a fixed point of every step, however large t is; the
        # composed step maps overflow, so the solver falls back to the loop
        p = bl.make_closedform_quadratic()
        spec = bl.InnerSolveSpec(K=50, t=1e300, s=0.1, alpha_exponent=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            tape = bl.solve_inner(p, np.zeros(1), spec)
            G = bl.reverse_hypergradient(p, tape)
        assert np.all(tape.iterates == 0.0)
        assert np.all(G == 0.0)

    def test_non_finite_hypergradient_is_reported(self):
        # |1 - t| = 2: the iterates stay finite at this tiny lam, but the
        # lam-Jacobian grows as 2^K and overflows
        p = bl.make_closedform_quadratic()
        spec = bl.InnerSolveSpec(K=1100, t=3.0, s=0.1, alpha_exponent=0.0)
        tape = bl.solve_inner(p, np.array([1e-300]), spec)
        assert np.all(np.isfinite(tape.iterates))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(bl.OracleDivergence, match="non-finite hypergradient"):
                bl.reverse_hypergradient(p, tape)


class TestDeclaredSpecs:
    @pytest.mark.parametrize("maker", [bl.make_closedform_quadratic,
                                       bl.make_degenerate_quadratic])
    def test_spec_reproduces_the_oracle_slots(self, maker):
        p = maker()
        q = bl.make_quadratic(p.affine)
        rng = np.random.default_rng(8)
        for _ in range(10):
            w, a = rng.normal(size=(2, p.inner_dim))
            lam = rng.normal(size=p.outer_dim)
            for slot in ("grad1_h", "grad1_g", "grad2_g"):
                np.testing.assert_allclose(getattr(p, slot)(w, lam), getattr(q, slot)(w, lam),
                                           rtol=1e-14, atol=1e-14, err_msg=slot)
            for slot in ("vjp11_h", "vjp12_h", "vjp11_g", "vjp12_g"):
                np.testing.assert_allclose(getattr(p, slot)(a, w, lam),
                                           getattr(q, slot)(a, w, lam),
                                           rtol=1e-14, atol=1e-14, err_msg=slot)
            assert p.g_value(w[None], lam) == pytest.approx(q.g_value(w[None], lam), rel=1e-14)
            # h may differ only by a term in lam alone
            W = np.stack([w, rng.normal(size=p.inner_dim)])
            assert np.subtract(*p.h_value(W, lam)) == pytest.approx(
                np.subtract(*q.h_value(W, lam)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("spec", [_CLOSEDFORM_SPEC, _DEGENERATE_SPEC])
    def test_analytic_specs_pass_validation(self, spec):
        # the makers skip the eigenvalue checks; a validated copy must build
        dataclasses.replace(spec)
        assert not any(getattr(spec, f.name).flags.writeable
                       for f in dataclasses.fields(spec))

    def test_make_quadratic_takes_read_only_copies(self):
        n, m = 4, 3
        rng = np.random.default_rng(9)
        N = rng.normal(size=(n, n))
        spec = bl.QuadraticBilevelSpec(A_h=np.diag([1.0, 0.5, 0.0, 0.0]),
                                       B_h=rng.normal(size=(n, m)), d_h=rng.normal(size=n),
                                       A_g=N @ N.T + np.eye(n), c_g=rng.normal(size=n))
        p = bl.make_quadratic(spec)
        assert not any(getattr(p.affine, f.name).flags.writeable
                       for f in dataclasses.fields(p.affine))
        inner = bl.InnerSolveSpec(K=50, t=0.2, s=0.1)
        lam = rng.normal(size=m)
        before = bl.solve_inner(p, lam, inner)
        for f in dataclasses.fields(spec):
            array = getattr(spec, f.name)
            array *= 2.0
            array += 1.0
        for solve in (inner, dataclasses.replace(inner)):
            after = bl.solve_inner(p, lam, solve)
            assert same_bits(after.iterates, before.iterates)
            assert same_bits(after.jacobian, before.jacobian)
        # the oracles read the copies too
        q, w = p.affine, rng.normal(size=n)
        assert same_bits(p.grad1_h(w, lam), q.A_h @ w - (q.B_h @ lam + q.d_h))
        assert same_bits(p.grad1_g(w, lam), q.A_g @ (w - q.c_g))

    def test_makers_run_no_eigenvalue_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called while building an analytic instance")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for name in ("closedform_quadratic", "degenerate_quadratic"):
            assert bl.zoo_problem(name).problem.affine is not None

    def test_replace_copy_has_no_declaration(self):
        for maker in (bl.make_closedform_quadratic, bl.make_degenerate_quadratic,
                      lambda: random_quadratic(0)):
            p = maker()
            assert p.affine is not None
            assert dataclasses.replace(p).affine is None


class TestOneScan:
    """The solve's one scan carries J_K = d omega_K / d lam; the reverse pass reads it."""

    @pytest.fixture
    def passes(self, monkeypatch):
        count = []
        real = affine.inner_iterates

        def counted(*args):
            count.append(1)
            return real(*args)

        monkeypatch.setattr(affine, "inner_iterates", counted)
        return count

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_one_pass_per_solve_and_none_in_the_reverse_pass(self, passes, expo):
        p = bl.make_degenerate_quadratic()
        spec = bl.InnerSolveSpec(K=5000, t=0.1, s=0.1, alpha_exponent=expo)
        tape = bl.solve_inner(p, np.array([0.25]), spec)
        assert len(passes) == 1 and tape.jacobian.shape == (2, 1)
        bl.reverse_hypergradient(p, tape)
        assert len(passes) == 1

    def test_one_pass_per_outer_iteration(self, scan_blocks, passes):
        blocks, lengths = scan_blocks
        p = bl.make_degenerate_quadratic()
        config = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=600, T=3, mode="improved")
        with blocks(256, state_size(p)) as seen:
            trace = bl.run_model(p, np.array([0.25]), config)
        # the first outer iteration scans all K steps and keeps the states;
        # every outer iteration forms its iterates from them once
        assert seen == lengths(600, 256) == [256, 256, 88]
        assert len(passes) == len(trace.records) == 3

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_jacobian_is_the_loop_difference(self, scan_blocks, name, schedule):
        # omega_K is affine in lam, so a unit difference of the loop's final
        # iterate is J_K's column exactly, up to roundoff; J_K is carried
        # across a block boundary
        blocks, _ = scan_blocks
        p = PROBLEMS[name]()
        ref = dataclasses.replace(p)
        expo, freq = SCHEDULES[schedule]
        spec = bl.InnerSolveSpec(K=257, t=0.2, s=0.15, alpha_exponent=expo,
                                 bigsam_frequency=freq)
        lam = np.random.default_rng(3).normal(size=p.outer_dim)
        with blocks(256, state_size(p)) as seen:
            J = bl.solve_inner(p, lam, spec).jacobian
        assert seen == [256, 1]
        base = final_inner_iterate(ref, lam, spec)
        for j in range(p.outer_dim):
            e = np.zeros(p.outer_dim)
            e[j] = 1.0
            _close(J[:, j], final_inner_iterate(ref, lam + e, spec) - base, 1e-10)

    def test_k_zero_jacobian_is_zero(self):
        p = random_quadratic(0)
        tape = bl.solve_inner(p, np.ones(3), bl.InnerSolveSpec(K=0, t=0.2, s=0.15,
                                                               alpha_exponent=0.0))
        assert tape.jacobian.shape == (4, 3) and np.all(tape.jacobian == 0.0)

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_loop_and_hand_built_tapes_have_no_jacobian(self, name):
        p = PROBLEMS[name]()
        ref = dataclasses.replace(p)
        spec = bl.InnerSolveSpec(K=40, t=0.2, s=0.15)
        lam = np.random.default_rng(5).normal(size=p.outer_dim)
        fast = bl.solve_inner(p, lam, spec)
        assert bl.solve_inner(ref, lam, spec).jacobian is None
        hand = bl.Tape(iterates=fast.iterates, alphas=fast.alphas, t=fast.t, s=fast.s,
                       lam=fast.lam)
        assert hand.jacobian is None
        # a hand-built tape is linearized again: the declared problem takes
        # the slot-built step of its replace copy
        G = bl.reverse_hypergradient(p, hand)
        assert np.array_equal(G.view(np.uint64),
                              bl.reverse_hypergradient(ref, hand).view(np.uint64))

    def test_jacobian_shape_is_checked(self):
        with pytest.raises(ValueError, match="jacobian"):
            bl.Tape(iterates=np.zeros((2, 2)), alphas=np.ones(1), t=0.1, s=0.1,
                    lam=np.zeros(1), jacobian=np.zeros((1, 2)))


class TestKeptStates:
    """A spec's kept lam-free states change no bit of any result: reuse cannot be seen."""

    @staticmethod
    def solved(p, lam, spec):
        tape = bl.solve_inner(p, lam, spec)
        return tape.iterates, tape.jacobian, bl.reverse_hypergradient(p, tape)

    @staticmethod
    def problem_and_spec(name, schedule):
        """Problem ``name``, a K = 600 spec on ``schedule`` and two lam points."""
        p = PROBLEMS[name]()
        expo, freq = SCHEDULES[schedule]
        spec = bl.InnerSolveSpec(K=600, t=0.2, s=0.15, alpha_exponent=expo, bigsam_frequency=freq)
        lams = np.random.default_rng(6).normal(size=(2, p.outer_dim))
        return p, spec, lams

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_a_second_solve_equals_a_fresh_spec(self, scan_blocks, name, schedule):
        # K = 600 in blocks of 256: the kept states span three blocks
        blocks, lengths = scan_blocks
        p, spec, (lam0, lam1) = self.problem_and_spec(name, schedule)
        with blocks(256, state_size(p)) as seen:
            assert kept_fits(p, spec.K)
            self.solved(p, lam0, spec)
            again = self.solved(p, lam1, spec)
            fresh = self.solved(p, lam1, dataclasses.replace(spec))
        assert seen == 2 * lengths(600, 256)
        assert all(same_bits(x, y) for x, y in zip(again, fresh))

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_kept_equals_streamed(self, scan_blocks, name, schedule):
        # the scan's bits depend on its block, so each comparison runs at one
        # block length: at 256 steps the states fit and are kept, at 128 the
        # budget forces every solve to stream and keep none; a call without a
        # holder always streams
        blocks, lengths = scan_blocks
        p, spec, (lam0, lam1) = self.problem_and_spec(name, schedule)
        alphas = bl.schedule(spec)
        for steps, fits in ((256, True), (128, False)):
            solve = dataclasses.replace(spec)
            with blocks(steps, state_size(p)) as seen:
                assert kept_fits(p, spec.K) is fits
                bl.solve_inner(p, lam0, solve)
                tape = bl.solve_inner(p, lam1, solve)
                streamed = affine.inner_iterates(p.affine, lam1, alphas, spec.t, spec.s)
            assert seen == lengths(600, steps) * (2 if fits else 3)
            assert bool(solve._affine_states) is fits
            assert same_bits(tape.iterates, streamed[0])
            assert same_bits(tape.jacobian, streamed[1])
            # the reverse pass reads J through BLAS, whose summation order
            # follows the array's layout: the kept J must round as a streamed one
            assert same_bits(bl.reverse_hypergradient(p, tape), reverse_of_streamed(
                p, streamed, alphas, spec, lam1))

    @pytest.mark.parametrize("m", [1, 3])
    def test_wide_kept_hypergradient_equals_streamed(self, m):
        # n = 24 at the real block: J^T a runs BLAS's unrolled dot (m = 1) or
        # gemv (m = 3) kernels, whose sums are ordered by J's strides
        p = random_quadratic(2, n=24, m=m)
        spec = bl.InnerSolveSpec(K=600, t=0.05, s=0.05, alpha_exponent=0.25)
        lam0, lam1 = np.random.default_rng(7).normal(size=(2, m))
        alphas = bl.schedule(spec)
        assert kept_fits(p, spec.K) and affine._block(state_size(p), spec.K) < spec.K
        bl.solve_inner(p, lam0, spec)
        tape = bl.solve_inner(p, lam1, spec)
        assert spec._affine_states
        streamed = affine.inner_iterates(p.affine, lam1, alphas, spec.t, spec.s)
        assert same_bits(tape.iterates, streamed[0])
        assert same_bits(tape.jacobian, streamed[1])
        assert same_bits(bl.reverse_hypergradient(p, tape), reverse_of_streamed(
            p, streamed, alphas, spec, lam1))

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_run_model_equals_a_fresh_spec_per_outer_iteration(self, monkeypatch, name,
                                                               schedule):
        p = PROBLEMS[name]()
        expo, freq = SCHEDULES[schedule]
        config = bl.SolveConfig(t=0.2, s=0.15, eta=0.3, K=600, T=3, alpha_exponent=expo,
                                bigsam_frequency=freq, mode="improved" if expo else "basic")
        lam0 = np.random.default_rng(7).normal(size=p.outer_dim)
        kept = bl.run_model(p, lam0, config, collect_timing=False)
        real = models.solve_inner
        monkeypatch.setattr(models, "solve_inner",
                            lambda p, lam, spec: real(p, lam, dataclasses.replace(spec)))
        fresh = bl.run_model(p, lam0, config, collect_timing=False)
        assert kept.records == fresh.records
        assert same_bits(kept.final_lambda, fresh.final_lambda)
        assert same_bits(kept.final_omega, fresh.final_omega)

    def test_quad_gap_states_fit_the_budget(self, scan_blocks):
        # the benchmark's quad_gap solve: 5001 states of 2 x 2 floats, 160 KB
        blocks, lengths = scan_blocks
        p = bl.make_degenerate_quadratic()
        spec = bl.InnerSolveSpec(K=5000, t=0.1, s=0.1)
        assert kept_fits(p, 5000)
        with blocks() as seen:
            bl.solve_inner(p, np.array([0.25]), spec)
            bl.solve_inner(p, np.array([0.5]), spec)
        assert seen == lengths(5000, affine._block(state_size(p), 5000)) == [4096, 904]
        (held, states), = spec._affine_states.values()
        assert held is p.affine
        assert sum(S.nbytes for _, S in states) == 8 * 5000 * 2 * 2 <= affine.BLOCK_BYTES
        assert not any(S.flags.writeable for _, S in states)

    def test_a_holder_keeps_the_last_affine_spec_only(self, scan_blocks):
        blocks, lengths = scan_blocks
        spec = bl.InnerSolveSpec(K=40, t=0.2, s=0.15)
        first, second = random_quadratic(0), random_quadratic(1)
        with blocks() as seen:
            for p in (first, second, second, first):
                bl.solve_inner(p, np.ones(3), spec)
        assert seen == [40, 40, 40]
        (held, _), = spec._affine_states.values()
        assert held is first.affine
