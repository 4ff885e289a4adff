"""Reverse pass vs the value-only difference-quotient oracle."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt import hypergrad
from bitwise import same_bits


def counting_problem(problem):
    """Wrap a problem so VJP invocations can be counted."""
    counts = {"vjp11_h": 0, "vjp12_h": 0, "vjp11_g": 0, "vjp12_g": 0}

    def wrap(name):
        inner = getattr(problem, name)

        def counted(a, w, lam):
            counts[name] += 1
            return inner(a, w, lam)

        return counted

    wrapped = dataclasses.replace(
        problem,
        vjp11_h=wrap("vjp11_h"), vjp12_h=wrap("vjp12_h"),
        vjp11_g=wrap("vjp11_g"), vjp12_g=wrap("vjp12_g"),
    )
    return wrapped, counts


class TestReverseAgainstOracle:
    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    @pytest.mark.parametrize("K", [1, 2, 5, 50])
    def test_quadratics(self, expo, K):
        rng = np.random.default_rng(11)
        for maker in (bl.make_closedform_quadratic, bl.make_degenerate_quadratic):
            p = maker()
            spec = bl.InnerSolveSpec(K=K, t=0.1, s=0.1, alpha_exponent=expo)
            for _ in range(3):
                lam = rng.normal(size=p.outer_dim)
                tape = bl.solve_inner(p, lam, spec)
                got = bl.reverse_hypergradient(p, tape)
                want = bl.hypergradient_fd_oracle(p, lam, spec)
                err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
                assert err < 1e-6, (p.name, expo, K, err)

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_hyperclean(self, expo):
        inst = bl.zoo_problem("hyperclean_synthetic", seed=3)
        p = inst.problem
        rng = np.random.default_rng(5)
        for K in (5, 20):
            spec = bl.InnerSolveSpec(K=K, t=0.01, s=0.001, alpha_exponent=expo)
            lam = rng.normal(0, 0.4, p.outer_dim)
            tape = bl.solve_inner(p, lam, spec)
            got = bl.reverse_hypergradient(p, tape)
            want = bl.hypergradient_fd_oracle(p, lam, spec)
            err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
            assert err < 1e-4

    def test_hyperrep(self):
        inst = bl.zoo_problem("hyperrep_synthetic", seed=3)
        p = inst.problem
        spec = bl.InnerSolveSpec(K=8, t=0.01, s=0.01)
        lam = np.random.default_rng(6).normal(0, 0.2, p.outer_dim)
        tape = bl.solve_inner(p, lam, spec)
        got = bl.reverse_hypergradient(p, tape)
        want = bl.hypergradient_fd_oracle(p, lam, spec)
        err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
        assert err < 1e-4


class TestClosedFormValues:
    def test_basic_mode_recovers_exact_outer_gradient(self):
        # with the inner problem solved to convergence, df/dlam = lam
        p = bl.make_closedform_quadratic()
        spec = bl.InnerSolveSpec(K=2000, t=0.1, s=0.1, alpha_exponent=0.0)
        tape = bl.solve_inner(p, np.array([2.0]), spec)
        G = bl.reverse_hypergradient(p, tape)
        assert G == pytest.approx(2.0, abs=1e-3)

    def test_outer_stationary_point_gives_zero(self):
        p = bl.make_closedform_quadratic()
        for expo in (0.25, 0.0):
            spec = bl.InnerSolveSpec(K=2000, t=0.1, s=0.1, alpha_exponent=expo)
            tape = bl.solve_inner(p, np.zeros(1), spec)
            G = bl.reverse_hypergradient(p, tape)
            assert G == pytest.approx(0.0, abs=1e-12)

    def test_single_step_tape(self):
        # K=1: omega_1 = t*lam (alpha_1 = 1 and omega_0 = 0), and the single
        # transition contributes t * omega_1 on top of the lam-free grad2_g
        p = bl.make_closedform_quadratic()
        lam = np.array([3.0])
        spec = bl.InnerSolveSpec(K=1, t=0.1, s=0.1)
        tape = bl.solve_inner(p, lam, spec)
        G = bl.reverse_hypergradient(p, tape)
        assert tape.final == pytest.approx(0.3)
        assert G == pytest.approx(0.1 * 0.3, abs=1e-15)
        want = bl.hypergradient_fd_oracle(p, lam, spec)
        assert G == pytest.approx(want, rel=1e-6)

    def test_k_zero_tape_is_plain_outer_gradient(self):
        p = bl.make_closedform_quadratic()
        spec = bl.InnerSolveSpec(K=0, t=0.1, s=0.1)
        tape = bl.solve_inner(p, np.array([2.0]), spec)
        G = bl.reverse_hypergradient(p, tape)
        assert np.array_equal(G, p.grad2_g(tape.final, tape.lam))


class TestOperationCount:
    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    @pytest.mark.parametrize("K", [1, 7, 40])
    def test_linear_cost_in_k(self, expo, K):
        # one lam-side VJP per transition, one omega-side VJP per interior
        # transition: K and K-1 calls respectively
        p = bl.make_degenerate_quadratic()
        spec = bl.InnerSolveSpec(K=K, t=0.1, s=0.1, alpha_exponent=expo)
        tape = bl.solve_inner(p, np.array([0.5]), spec)
        wrapped, counts = counting_problem(p)
        bl.reverse_hypergradient(wrapped, tape)
        assert counts["vjp12_h"] == K
        assert counts["vjp11_h"] == K - 1


class TestModeConsistency:
    def test_basic_tape_equals_all_ones_improved(self):
        p = bl.make_degenerate_quadratic()
        lam = np.array([0.8])
        spec0 = bl.InnerSolveSpec(K=60, t=0.1, s=0.1, alpha_exponent=0.0)
        spec = bl.SolveConfig(t=0.1, s=0.1, eta=0.1, K=60, T=1, mode="basic").inner_spec()
        tape_imp = bl.solve_inner(p, lam, spec0)
        tape_bas = bl.solve_inner(p, lam, spec)
        G_imp = bl.reverse_hypergradient(p, tape_imp)
        G_bas = bl.reverse_hypergradient(p, tape_bas)
        assert np.array_equal(G_imp, G_bas)

    def test_doubling_g_doubles_hypergradient_exactly(self):
        # basic-mode trajectories ignore g, so scaling g by 2 scales every
        # g-derived quantity in the reverse pass by exactly 2
        p = bl.zoo_problem("hyperclean_synthetic", seed=1).problem
        doubled = dataclasses.replace(
            p,
            g_value=lambda w, lam: 2.0 * p.g_value(w, lam),
            grad1_g=lambda w, lam: 2.0 * p.grad1_g(w, lam),
            grad2_g=lambda w, lam: 2.0 * p.grad2_g(w, lam),
            vjp11_g=lambda a, w, lam: 2.0 * p.vjp11_g(a, w, lam),
            vjp12_g=lambda a, w, lam: 2.0 * p.vjp12_g(a, w, lam),
        )
        lam = np.random.default_rng(0).normal(0, 0.3, p.outer_dim)
        spec = bl.InnerSolveSpec(K=15, t=0.01, s=0.001, alpha_exponent=0.0)
        tape = bl.solve_inner(p, lam, spec)
        tape2 = bl.solve_inner(doubled, lam, spec)
        assert np.array_equal(tape.iterates, tape2.iterates)
        G1 = bl.reverse_hypergradient(p, tape)
        G2 = bl.reverse_hypergradient(doubled, tape2)
        assert np.array_equal(2.0 * G1, G2)


class TestFdOracleEdges:
    def test_constant_outer_objective_gives_zero(self):
        p = bl.BilevelProblem(
            inner_dim=1, outer_dim=2, name="const-g",
            h_value=lambda w, lam: float(0.5 * (w[0] - lam[0]) ** 2),
            g_value=lambda w, lam: 7.0,
            grad1_h=lambda w, lam: np.array([w[0] - lam[0]]),
            grad1_g=lambda w, lam: np.zeros(1),
            grad2_g=lambda w, lam: np.zeros(2),
        )
        out = bl.hypergradient_fd_oracle(p, np.array([0.3, -0.2]),
                                         bl.InnerSolveSpec(K=10, t=0.1, s=0.1, alpha_exponent=0.0))
        assert np.all(out == 0.0)

    def test_affine_outer_response_is_exact(self):
        # linear dynamics + linear g make f_K affine in lam, where central
        # differences are exact up to rounding
        p = bl.BilevelProblem(
            inner_dim=1, outer_dim=1, name="affine",
            h_value=lambda w, lam: float(0.5 * (w[0] - lam[0]) ** 2),
            g_value=lambda w, lam: float(w[0] + 2.0 * lam[0]),
            grad1_h=lambda w, lam: w - lam,
            grad1_g=lambda w, lam: np.ones(1),
            grad2_g=lambda w, lam: np.array([2.0]),
            vjp11_h=lambda a, w, lam: a.copy(),
            vjp12_h=lambda a, w, lam: -a,
            vjp11_g=lambda a, w, lam: np.zeros(1),
            vjp12_g=lambda a, w, lam: np.zeros(1),
        )
        spec = bl.InnerSolveSpec(K=30, t=0.1, s=0.1, alpha_exponent=0.0)
        lam = np.array([0.4])
        fd = bl.hypergradient_fd_oracle(p, lam, spec)
        tape = bl.solve_inner(p, lam, spec)
        rev = bl.reverse_hypergradient(p, tape)
        assert fd == pytest.approx(rev, abs=1e-9)

    def test_batched_path_matches_serial(self):
        inst = bl.zoo_problem("hyperclean_synthetic", seed=2)
        p = inst.problem
        serial = dataclasses.replace(p, grad1_h_many=None, grad1_g_many=None)
        lam = np.random.default_rng(9).normal(0, 0.3, p.outer_dim)
        for expo in (0.25, 0.0):
            spec = bl.InnerSolveSpec(K=12, t=0.01, s=0.001, alpha_exponent=expo)
            batched = bl.hypergradient_fd_oracle(p, lam, spec)
            looped = bl.hypergradient_fd_oracle(serial, lam, spec)
            np.testing.assert_allclose(batched, looped, rtol=1e-10, atol=1e-12)


class TestFdOracleIndependence:
    """The FD referee runs the generic loop even where the problem is affine."""

    @pytest.mark.parametrize("maker", [bl.make_closedform_quadratic,
                                       bl.make_degenerate_quadratic])
    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_equals_fd_on_a_copy_without_the_declaration(self, maker, expo):
        p = maker()
        assert p.affine is not None
        generic = dataclasses.replace(p)
        assert generic.affine is None
        lam = np.array([0.7])
        for K in (1, 50, 300):
            spec = bl.InnerSolveSpec(K=K, t=0.1, s=0.1, alpha_exponent=expo)
            got = bl.hypergradient_fd_oracle(p, lam, spec)
            want = bl.hypergradient_fd_oracle(generic, lam, spec)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_serial_probes_never_see_the_declaration(self, monkeypatch):
        # the composed affine path is what the referee checks: its probes
        # must not run it
        from bilevelopt import affine
        calls = []
        real = affine.inner_iterates

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(affine, "inner_iterates", spy)
        spec = bl.InnerSolveSpec(K=20, t=0.1, s=0.1)
        for p in (bl.make_closedform_quadratic(), bl.make_degenerate_quadratic()):
            assert p.affine is not None
            bl.solve_inner(p, np.array([0.2]), spec)
            assert len(calls) == 1
            calls.clear()
            bl.hypergradient_fd_oracle(p, np.array([0.2]), spec)
            assert calls == []


def agree(x, y, exact):
    """Bit for bit where ``exact``, else to 1e-12 relative to y's largest entry."""
    if exact:
        return same_bits(x, y)
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


class TestRecordedReverse:
    """A problem's linearize hook against its ``replace`` copy's slot-built step.

    Bit for bit in basic mode, where every step has alpha == 1; to 1e-12
    relative in improved mode, whose averaged steps the hook fuses.  A
    tape's own VJPs, and a bare tape re-linearized by the hook, reproduce
    the hook's reverse pass bit for bit in either mode, and the FD referee,
    whose stacked probes the hook does not fuse, agrees bit for bit.
    """

    @pytest.mark.parametrize("name", ["hyperclean_synthetic", "hyperrep_synthetic"])
    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    @pytest.mark.parametrize("freq", [1, 3])
    def test_equals_the_slot_path_bit_for_bit(self, name, expo, freq):
        inst = bl.zoo_problem(name, seed=1)
        p = inst.problem
        slots = dataclasses.replace(p)
        assert p.linearize is not None and slots.linearize is None
        d = inst.defaults
        spec = bl.InnerSolveSpec(K=12, t=d["t"], s=d["s"], alpha_exponent=expo,
                                 bigsam_frequency=freq)
        lam = inst.lam0 + np.random.default_rng(freq).normal(0.0, 0.3, p.outer_dim)
        exact = expo == 0.0
        tape = bl.solve_inner(p, lam, spec)
        ref = bl.solve_inner(slots, lam, spec)
        assert len(tape.vjps) == len(ref.vjps) == spec.K
        assert agree(tape.iterates, ref.iterates, exact)
        G = bl.reverse_hypergradient(p, tape)
        want = bl.reverse_hypergradient(slots, ref)
        assert agree(G, want, exact)
        # a tape carries its own VJPs: reversed with the copy, the hook's
        # tape still walks the hook's; a tape without them is linearized
        # again by whichever problem reverses it
        assert same_bits(bl.reverse_hypergradient(slots, tape), G)
        bare = dataclasses.replace(tape, vjps=None)
        assert same_bits(bl.reverse_hypergradient(p, bare), G)
        assert agree(bl.reverse_hypergradient(slots, bare), want, exact)
        # the FD referee: the hook binds the batched probes once, the copy
        # runs the batched slots (hyper-cleaning) or the serial loop
        assert same_bits(bl.hypergradient_fd_oracle(p, lam, spec),
                         bl.hypergradient_fd_oracle(slots, lam, spec))


class TestTapeMismatch:
    def test_dimension_mismatch_rejected(self):
        p = bl.make_closedform_quadratic()
        other = bl.make_degenerate_quadratic()
        tape = bl.solve_inner(other, np.array([1.0]),
                              bl.InnerSolveSpec(K=3, t=0.1, s=0.1, alpha_exponent=0.0))
        with pytest.raises(ValueError, match="tape-mismatch"):
            bl.reverse_hypergradient(p, tape)


class TestReverseDivergence:
    @pytest.mark.parametrize("declared", [True, False])
    def test_overflow_is_reported_once_without_warnings(self, declared):
        # a finite tape whose step size overflows every product of the pass;
        # the hand-built tape records no J_K, so both problems linearize it again
        p = bl.make_closedform_quadratic()
        if not declared:
            p = dataclasses.replace(p)
        tape = bl.Tape(iterates=np.array([[0.0], [1e10], [1e20]]), alphas=np.array([1.0, 0.5]),
                       t=1e300, s=0.1, lam=np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bl.OracleDivergence, match="non-finite hypergradient"):
                bl.reverse_hypergradient(p, tape)

    def test_composed_overflow_is_reported_once_without_the_loop(self, monkeypatch):
        # basic steps never weigh g, so the solve composes a finite tape with
        # J_K and omega_K near 9.95e9, on which grad1_g = 1e300 omega_K overflows
        p = bl.make_quadratic(bl.QuadraticBilevelSpec(
            A_h=np.eye(2), B_h=np.ones((2, 1)), d_h=np.zeros(2),
            A_g=1e300 * np.eye(2), c_g=np.zeros(2)))
        spec = bl.InnerSolveSpec(K=50, t=0.1, s=0.1, alpha_exponent=0.0)
        tape = bl.solve_inner(p, np.array([1e10]), spec)
        assert tape.jacobian is not None and np.all(np.isfinite(tape.final))
        calls = []
        real = hypergrad.linearizer

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(hypergrad, "linearizer", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bl.OracleDivergence,
                               match="oracle-divergence: non-finite hypergradient"):
                bl.reverse_hypergradient(p, tape)
        assert calls == []


def serial_copy(problem):
    """A copy without stacked oracles: the FD referee applies its row oracles row by row."""
    return dataclasses.replace(problem, grad1_h_many=None, grad1_g_many=None,
                               h_batch=None, g_batch=None)


class TestFdOracleDivergence:
    """A non-finite probe value is one ``OracleDivergence`` naming the probe, not NaN."""

    @pytest.mark.parametrize("path", ["stacked", "serial"])
    def test_overflowing_g_is_reported_without_warnings(self, path):
        # the final iterates of K = 3 huge steps stay finite; g overflows on them
        p = bl.zoo_problem("hyperclean_synthetic").problem
        if path == "serial":
            p = serial_copy(p)
        spec = bl.InnerSolveSpec(K=3, t=1e200, s=1e-3, alpha_exponent=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(bl.OracleDivergence,
                               match=r"g non-finite at probe lam\+eps\*e_0 \(eps=1e-05\)"):
                bl.hypergradient_fd_oracle(p, np.zeros(p.outer_dim), spec)

    @pytest.mark.parametrize("path", ["stacked", "serial"])
    @pytest.mark.parametrize("bad,sign", [(37, -1), (3, 1), (399, -1)])
    def test_names_the_first_non_finite_probe(self, path, bad, sign):
        # g is NaN only on the probe lam -/+ eps e_bad; with m = 400 the
        # probes lam-eps*e_37 and lam-eps*e_399 sit in later blocks of 64
        p = bl.zoo_problem("hyperclean_synthetic").problem
        lam = np.zeros(p.outer_dim)

        def poisoned(value):
            def g(w, probe):
                return np.where(sign * probe[..., bad] > 0, np.nan, value(w, probe))
            return g

        p = dataclasses.replace(p, g_value=poisoned(p.g_value), g_batch=poisoned(p.g_batch))
        if path == "serial":
            p = serial_copy(p)
        probe = f"lam{'+' if sign > 0 else '-'}eps*e_{bad} "
        with pytest.raises(bl.OracleDivergence, match=re.escape(f"g non-finite at probe {probe}")):
            bl.hypergradient_fd_oracle(p, lam, bl.InnerSolveSpec(K=2, t=0.01, s=0.001,
                                                                 alpha_exponent=0.0))

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_names_the_probe_whose_inner_solve_diverged(self, expo):
        # grad1_h is NaN only where lam_30 moves down: the probe
        # lam-eps*e_30 (probe 70 of 80, in the second block of 64) diverges
        m, bad = 40, 30

        def grad1_h(w, lam):
            return w - (np.nan if lam[bad] < 0.0 else 1.0)

        p = bl.BilevelProblem(
            inner_dim=2, outer_dim=m, name="one-bad-probe",
            h_value=lambda w, lam: 0.5 * float(w @ w),
            g_value=lambda w, lam: float(w.sum()),
            grad1_h=grad1_h,
            grad1_g=lambda w, lam: w.copy(),
            grad2_g=lambda w, lam: np.zeros(m),
        )
        looped = dataclasses.replace(
            p, grad1_h_many=lambda W, L: np.array([grad1_h(w, lam) for w, lam in zip(W, L)]))
        spec = bl.InnerSolveSpec(K=3, t=0.1, s=0.1, alpha_exponent=expo)
        for copy in (p, looped):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(bl.OracleDivergence, match=re.escape(
                        f"final iterate non-finite at probe lam-eps*e_{bad} (eps=1e-05)")):
                    bl.hypergradient_fd_oracle(copy, np.zeros(m), spec)

    def test_nan_g_on_a_declared_quadratic(self):
        # g_value and g_batch poisoned alike, as the row contract asks
        p = dataclasses.replace(bl.make_degenerate_quadratic(),
                                g_value=lambda w, lam: float("nan"),
                                g_batch=lambda W, lam: np.full(len(W), np.nan))
        with pytest.raises(bl.OracleDivergence, match=r"lam\+eps\*e_0"):
            bl.hypergradient_fd_oracle(p, np.array([0.3]), bl.InnerSolveSpec(K=5, t=0.1, s=0.1))

    def test_overflowing_difference_is_reported(self):
        # every probe's value is finite, but their difference overflows
        p = bl.BilevelProblem(
            inner_dim=1, outer_dim=1, name="cliff",
            h_value=lambda w, lam: float(0.5 * w[0] ** 2),
            g_value=lambda w, lam: 1.5e308 * float(np.sign(lam[0])),
            grad1_h=lambda w, lam: w.copy(),
            grad1_g=lambda w, lam: np.zeros(1),
            grad2_g=lambda w, lam: np.zeros(1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(bl.OracleDivergence, match="non-finite FD hypergradient"):
                bl.hypergradient_fd_oracle(p, np.zeros(1), bl.InnerSolveSpec(
                    K=2, t=0.1, s=0.1, alpha_exponent=0.0))
