"""Composed affine steps of the quadratic problems against the generic loop.

A ``dataclasses.replace`` copy of a problem drops its affine declaration, so
the copy runs the generic per-step loop over the same oracles: that copy is
the reference every fast-path result is checked against.
"""

import dataclasses

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt import affine
from bilevelopt.bigsam import final_inner_iterate
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


def _close(got, want, rtol):
    # relative to each entry, with the array's scale as the floor for entries
    # that pass through zero
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


class TestFastPathMatchesLoop:
    @pytest.mark.parametrize("K", [0, 1, 2, affine.BLOCK + 1, 5000])
    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_iterates_and_hypergradient(self, name, schedule, K):
        p = PROBLEMS[name]()
        ref = dataclasses.replace(p)
        assert p.affine is not None and ref.affine is None
        expo, freq = SCHEDULES[schedule]
        spec = bl.InnerSolveSpec(K=K, t=0.2, s=0.15, alpha_exponent=expo, bigsam_frequency=freq)
        lam = np.random.default_rng(K).normal(size=p.outer_dim)
        fast = bl.solve_inner(p, lam, spec)
        loop = bl.solve_inner(ref, lam, spec)
        assert np.array_equal(fast.alphas, loop.alphas)
        _close(fast.iterates, loop.iterates, 1e-12)
        _close(bl.reverse_hypergradient(p, fast), bl.reverse_hypergradient(ref, loop), 1e-10)
        assert np.array_equal(final_inner_iterate(p, lam, spec), fast.final)

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_exponent_zero_is_basic_bit_for_bit(self, name):
        p = PROBLEMS[name]()
        lam = np.random.default_rng(4).normal(size=p.outer_dim)
        spec0 = bl.InnerSolveSpec(K=affine.BLOCK + 7, t=0.2, s=0.15, alpha_exponent=0.0)
        spec = bl.SolveConfig(t=0.2, s=0.15, eta=0.1, K=affine.BLOCK + 7, T=1,
                              mode="basic").inner_spec()
        imp = bl.solve_inner(p, lam, spec0)
        bas = bl.solve_inner(p, lam, spec)
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
            assert p.g_value(w, lam) == pytest.approx(q.g_value(w, lam), rel=1e-14)
            # h may differ only by a term in lam alone
            w2 = rng.normal(size=p.inner_dim)
            assert p.h_value(w, lam) - p.h_value(w2, lam) == pytest.approx(
                q.h_value(w, lam) - q.h_value(w2, lam), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("spec", [_CLOSEDFORM_SPEC, _DEGENERATE_SPEC])
    def test_analytic_specs_pass_validation(self, spec):
        # the makers skip the eigenvalue checks; a validated copy must build
        dataclasses.replace(spec)
        assert not any(getattr(spec, f.name).flags.writeable
                       for f in dataclasses.fields(spec))

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
        real = affine._states

        def counted(*args):
            count.append(1)
            return real(*args)

        monkeypatch.setattr(affine, "_states", counted)
        return count

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_one_pass_per_solve_and_none_in_the_reverse_pass(self, passes, expo):
        p = bl.make_degenerate_quadratic()
        spec = bl.InnerSolveSpec(K=5000, t=0.1, s=0.1, alpha_exponent=expo)
        tape = bl.solve_inner(p, np.array([0.25]), spec)
        assert len(passes) == 1 and tape.jacobian.shape == (2, 1)
        bl.reverse_hypergradient(p, tape)
        assert len(passes) == 1

    def test_one_pass_per_outer_iteration(self, passes):
        p = bl.make_degenerate_quadratic()
        config = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=600, T=3, mode="improved")
        trace = bl.run_model(p, np.array([0.25]), config)
        assert len(passes) == len(trace.records) == 3

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_jacobian_is_the_loop_difference(self, name, schedule):
        # omega_K is affine in lam, so a unit difference of the loop's final
        # iterate is J_K's column exactly, up to roundoff
        p = PROBLEMS[name]()
        ref = dataclasses.replace(p)
        expo, freq = SCHEDULES[schedule]
        spec = bl.InnerSolveSpec(K=affine.BLOCK + 1, t=0.2, s=0.15, alpha_exponent=expo,
                                 bigsam_frequency=freq)
        lam = np.random.default_rng(3).normal(size=p.outer_dim)
        J = bl.solve_inner(p, lam, spec).jacobian
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
