"""Composed affine steps of the quadratic problems against the generic loop.

A ``dataclasses.replace`` copy of a problem drops its affine declaration, so
the copy runs the generic per-step loop over the same oracles: that copy is
the reference every fast-path result is checked against.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilevelopt as bl
from bilevelopt import affine, models
from bilevelopt.bigsam import final_inner_iterate
from bitwise import same_bits
from bilevelopt.problems import _CLOSEDFORM_SPEC, _DEGENERATE_SPEC
from test_properties import quadratic_cases


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
        want = lengths(K, steps or affine._block(size, K))
        with blocks(steps, size) as seen:
            fast = bl.solve_inner(p, lam, spec)
            G = bl.reverse_hypergradient(p, fast)
            final = final_inner_iterate(p, lam, spec)
            # the first solve up-sweeps each block once and down-sweeps none;
            # the second reads the kept final state and scans nothing
            assert (seen.up, seen.down) == (want, [])
            # the trajectory's first read streams one full scan, its second none
            iterates = fast.iterates
            assert fast.iterates is iterates
        assert (seen.up, seen.down) == (want * 2, want)
        loop = bl.solve_inner(ref, lam, spec)
        assert np.array_equal(fast.alphas, loop.alphas)
        _close(iterates, loop.iterates, 1e-12)
        _close(G, bl.reverse_hypergradient(ref, loop), 1e-10)
        assert same_bits(final, fast.final) and same_bits(iterates[-1], fast.final)

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
            assert (seen.up, seen.down) == (2 * lengths(263, 256), []) == ([256, 7, 256, 7], [])
            assert np.array_equal(imp.iterates, bas.iterates)
        assert seen.down == [256, 7, 256, 7]
        assert same_bits(imp.final, bas.final) and same_bits(imp.jacobian, bas.jacobian)
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
            assert seen.up == seen.down == lengths(K, block)

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
        assert seen.up == seen.down == want


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


    def test_a_trajectory_read_raises_where_an_iterate_overflows(self):
        # M_k = 0.5 - 50 / k: J_k peaks near 4.6e14 at k = 33 and falls to
        # 0.004 by K = 400.  At lam = 1e300 the scan and omega_K stay finite,
        # so the solve composes, but J_k lam overflows on the way; the loop
        # itself overflows there too
        spec = bl.QuadraticBilevelSpec(A_h=np.array([[50.5]]), B_h=np.eye(1), d_h=np.zeros(1),
                                       A_g=np.array([[0.5]]), c_g=np.zeros(1))
        p = bl.make_quadratic(spec)
        inner = bl.InnerSolveSpec(K=400, t=1.0, s=1.0, alpha_exponent=1.0)
        tape = bl.solve_inner(p, np.array([1e300]), inner)
        assert tape.jacobian is not None and np.all(np.isfinite(tape.final))
        assert np.all(np.isfinite(bl.reverse_hypergradient(p, tape)))
        # every read raises, and none returns the non-finite rows
        for _ in range(2):
            with pytest.raises(bl.OracleDivergence,
                               match=r"^oracle-divergence: non-finite iterate \(inner step 9\)$"):
                tape.iterates
        with pytest.raises(bl.OracleDivergence, match="non-finite iterate"):
            bl.solve_inner(dataclasses.replace(p), np.array([1e300]), inner)


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
        real = affine.final_iterate

        def counted(*args):
            count.append(1)
            return real(*args)

        monkeypatch.setattr(affine, "final_iterate", counted)
        return count

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_one_pass_per_solve_and_none_in_the_reverse_pass(self, scan_blocks, passes, expo):
        blocks, _ = scan_blocks
        p = bl.make_degenerate_quadratic()
        spec = bl.InnerSolveSpec(K=5000, t=0.1, s=0.1, alpha_exponent=expo)
        with blocks() as seen:
            tape = bl.solve_inner(p, np.array([0.25]), spec)
            assert len(passes) == 1 and tape.jacobian.shape == (2, 1)
            bl.reverse_hypergradient(p, tape)
        assert len(passes) == 1
        assert (seen.up, seen.down) == ([4096, 904], [])

    def test_one_pass_per_outer_iteration(self, scan_blocks, passes):
        blocks, lengths = scan_blocks
        p = bl.make_degenerate_quadratic()
        config = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=600, T=3, mode="improved")
        with blocks(256, state_size(p)) as seen:
            trace = bl.run_model(p, np.array([0.25]), config)
        # the first outer iteration up-sweeps all K steps and keeps the final
        # state; every outer iteration forms omega_K from it once
        assert (seen.up, seen.down) == (lengths(600, 256), []) == ([256, 256, 88], [])
        assert len(passes) == len(trace.records) == 3

    def test_run_model_up_sweeps_once_and_forms_no_trajectory(self, scan_blocks, monkeypatch):
        # the quad_gap run: T = 10 at K = 5000 in the real blocks; a tape's
        # trajectory, read once, streams one full scan
        blocks, _ = scan_blocks
        p = bl.make_degenerate_quadratic()
        config = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=5000, T=10, mode="improved")
        tapes = []
        real = models.solve_inner

        def kept(*args):
            tapes.append(real(*args))
            return tapes[-1]

        monkeypatch.setattr(models, "solve_inner", kept)
        with blocks() as seen:
            bl.run_model(p, np.array([0.25]), config)
            assert (seen.up, seen.down) == ([4096, 904], [])
            assert len(tapes) == 10 and all("iterates" not in vars(tape) for tape in tapes)
            tapes[3].iterates
        assert (seen.up, seen.down) == ([4096, 904] * 2, [4096, 904])

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
        assert (seen.up, seen.down) == ([256, 1], [])
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
    """A spec's kept final state changes no bit of any result: reuse cannot be seen."""

    @staticmethod
    def solved(p, lam, spec):
        """A solve's omega_K, J_K and reverse hypergradient, and its tape."""
        tape = bl.solve_inner(p, lam, spec)
        return (tape.final, tape.jacobian, bl.reverse_hypergradient(p, tape)), tape

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
        # K = 600 in blocks of 256: the kept state is carried over three blocks
        blocks, lengths = scan_blocks
        p, spec, (lam0, lam1) = self.problem_and_spec(name, schedule)
        with blocks(256, state_size(p)) as seen:
            self.solved(p, lam0, spec)
            again, tape = self.solved(p, lam1, spec)
            fresh, fresh_tape = self.solved(p, lam1, dataclasses.replace(spec))
            assert (seen.up, seen.down) == (2 * lengths(600, 256), [])
            assert same_bits(tape.iterates, fresh_tape.iterates)
        assert all(same_bits(x, y) for x, y in zip(again, fresh))
        assert seen.down == 2 * lengths(600, 256)

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_kept_equals_streamed(self, scan_blocks, name, schedule):
        # the scan's bits depend on its block, so each comparison runs at one
        # block length; the holder keeps the final state at either, and a
        # trajectory, the tape's or one streamed without a holder, always
        # runs the full scan
        blocks, lengths = scan_blocks
        p, spec, (lam0, lam1) = self.problem_and_spec(name, schedule)
        alphas = bl.schedule(spec)
        for steps in (256, 128):
            solve = dataclasses.replace(spec)
            want = lengths(600, steps)
            with blocks(steps, state_size(p)) as seen:
                bl.solve_inner(p, lam0, solve)
                tape = bl.solve_inner(p, lam1, solve)
                assert (seen.up, seen.down) == (want, [])
                streamed = affine.inner_iterates(p.affine, lam1, alphas, spec.t, spec.s)
                iterates = tape.iterates
            assert (seen.up, seen.down) == (want * 3, want * 2)
            assert solve._affine_state
            assert same_bits(iterates, streamed[0]) and same_bits(tape.final, streamed[0][-1])
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
        assert affine._block(state_size(p), spec.K) < spec.K
        bl.solve_inner(p, lam0, spec)
        tape = bl.solve_inner(p, lam1, spec)
        assert spec._affine_state
        streamed = affine.inner_iterates(p.affine, lam1, alphas, spec.t, spec.s)
        assert same_bits(tape.final, streamed[0][-1])
        assert same_bits(tape.jacobian, streamed[1])
        assert same_bits(bl.reverse_hypergradient(p, tape), reverse_of_streamed(
            p, streamed, alphas, spec, lam1))
        assert same_bits(tape.iterates, streamed[0])

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

    def test_quad_gap_holder_holds_two_by_two_floats(self, scan_blocks):
        # the benchmark's quad_gap solve: u_K and J_K, 2 x 2 floats in all,
        # where the trajectory is 5001 x 2
        blocks, lengths = scan_blocks
        p = bl.make_degenerate_quadratic()
        spec = bl.InnerSolveSpec(K=5000, t=0.1, s=0.1)
        with blocks() as seen:
            bl.solve_inner(p, np.array([0.25]), spec)
            bl.solve_inner(p, np.array([0.5]), spec)
        want = lengths(5000, affine._block(state_size(p), 5000))
        # one scan, in blocks of 4096 steps: the second solve reads the kept state
        assert (seen.up, seen.down) == (want, []) == ([4096, 904], [])
        held = spec._affine_state
        assert set(held) == {"spec", "state"} and held["spec"] is p.affine
        state = held["state"]
        assert [(x.shape, x.dtype) for x in state] == [((2,), np.float64), ((2, 1), np.float64)]
        assert sum(x.nbytes for x in state) == 8 * 2 * 2
        assert not any(x.flags.writeable for x in state)

    def test_a_holder_keeps_the_last_affine_spec_only(self, scan_blocks):
        blocks, lengths = scan_blocks
        spec = bl.InnerSolveSpec(K=40, t=0.2, s=0.15)
        first, second = random_quadratic(0), random_quadratic(1)
        with blocks() as seen:
            for p in (first, second, second, first):
                bl.solve_inner(p, np.ones(3), spec)
        assert (seen.up, seen.down) == ([40, 40, 40], [])
        held = spec._affine_state
        assert set(held) == {"spec", "state"} and held["spec"] is first.affine


@st.composite
def final_state_cases(draw):
    """(problem, spec, lam, block): a drawn quadratic at K near a power of two.

    The quadratic (n <= 4, m <= 3) and its step sizes come from
    ``quadratic_cases``; K lies within 2 of a power of two up to 4096, or is
    5000; the schedule is one of ``SCHEDULES``, and the block is forced to
    1, 3 or 8 steps, or left at the real one (None).
    """
    p, inner, lam = draw(quadratic_cases())
    K = draw(st.one_of(st.builds(lambda e, d: max(0, 2 ** e + d),
                                 st.integers(0, 12), st.integers(-2, 2)),
                       st.just(5000)))
    expo, freq = SCHEDULES[draw(st.sampled_from(list(SCHEDULES)))]
    spec = bl.InnerSolveSpec(K=K, t=inner.t, s=inner.s, alpha_exponent=expo,
                             bigsam_frequency=freq)
    return p, spec, lam, draw(st.sampled_from([1, 3, 8, None]))


def check_final_state(scan_blocks, p, spec, lam, block):
    """The tape's omega_K, J_K and hypergradient against the streamed and the formed trajectory."""
    blocks, lengths = scan_blocks
    alphas = bl.schedule(spec)
    size = state_size(p)
    scanned = lengths(spec.K, block or affine._block(size, spec.K))
    with blocks(block, size) as seen:
        tape = bl.solve_inner(p, lam, spec)
        assert tape.jacobian is not None, "the composed path fell back to the loop"
        G = bl.reverse_hypergradient(p, tape)
        again = bl.solve_inner(p, lam, spec)
        # the solve runs no down-sweep, and the second scans nothing
        assert (seen.up, seen.down) == (scanned, [])
        streamed = affine.inner_iterates(p.affine, lam, alphas, spec.t, spec.s)
        formed = tape.iterates
    assert seen.down == scanned * 2
    for iterates in (streamed[0], formed):
        assert same_bits(tape.final, iterates[-1])
    assert same_bits(formed, streamed[0])
    assert same_bits(tape.jacobian, streamed[1])
    assert same_bits(G, reverse_of_streamed(p, streamed, alphas, spec, lam))
    assert same_bits(again.final, tape.final) and same_bits(again.jacobian, tape.jacobian)


class TestFinalState:
    """The final-state reduction has the full scan's bits, at every block and K."""

    @settings(max_examples=40)
    @given(final_state_cases())
    def test_final_state_has_the_trajectory_bits(self, scan_blocks, case):
        check_final_state(scan_blocks, *case)

    @pytest.mark.parametrize("block", [1, 3, 8, None])
    @pytest.mark.parametrize("m", [1, 3])
    def test_wide_final_state_has_the_trajectory_bits(self, scan_blocks, m, block):
        # n = 24: J^T a runs BLAS's dot (m = 1) or gemv (m = 3) kernels, and
        # K = 1025 spans 13 real blocks of 83 steps at m = 3
        p = random_quadratic(3, n=24, m=m)
        spec = bl.InnerSolveSpec(K=1025, t=0.05, s=0.05, alpha_exponent=0.25)
        check_final_state(scan_blocks, p, spec, np.random.default_rng(8).normal(size=m), block)
