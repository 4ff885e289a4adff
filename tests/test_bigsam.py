"""Averaged inner steps, schedules, solvers, and tapes."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bilevelopt as bl
from bilevelopt.bigsam import final_inner_iterate, final_inner_iterates_many
from bitwise import same_bits
from tapes import hand_tape


def reference_trajectory(grad_h, grad_g, lam, omega0, K, t, s,
                         expo=0.25, freq=1):
    """Independent three-line recurrence used as the oracle for solve_inner."""
    w = np.array(omega0, dtype=float)
    traj = [w.copy()]
    alphas = []
    for k in range(K):
        if (k % freq) != 0:
            alpha = 1.0
        else:
            alpha = min(1.0, float(k + 1) ** -expo)
        theta = w - t * grad_h(w, lam)
        if alpha == 1.0:
            w = theta
        else:
            phi = w - s * grad_g(w, lam)
            w = alpha * theta + (1.0 - alpha) * phi
        traj.append(w.copy())
        alphas.append(alpha)
    return np.array(traj), np.array(alphas)


def spec(K=1, t=0.1, s=0.1, **kw):
    return bl.InnerSolveSpec(K=K, t=t, s=s, **kw)


def loop_copy(problem):
    """A ``replace`` copy: it drops the affine declaration, so it runs the loop."""
    return dataclasses.replace(problem)


class TestAlphaSchedule:
    def test_first_step_is_one(self):
        assert bl.schedule(spec())[0] == 1.0

    def test_sixteen_to_the_minus_quarter(self):
        assert bl.schedule(spec(K=16))[15] == pytest.approx(0.5)

    def test_zero_exponent_disables_averaging(self):
        assert np.all(bl.schedule(spec(K=5, alpha_exponent=0.0)) == 1.0)

    def test_basic_mode_is_all_ones(self):
        # the basic model is exponent 0, at any averaging frequency
        basic = spec(K=40, alpha_exponent=bl.bigsam.model_exponent("basic"), bigsam_frequency=3)
        assert basic.alpha_exponent == 0.0
        assert np.array_equal(bl.schedule(basic), np.ones(40))

    def test_mode_validated(self):
        # a model name is read where it becomes an exponent; the schedule takes none
        with pytest.raises(ValueError, match="mode must be one of"):
            bl.bigsam.model_exponent("augmented")
        with pytest.raises(TypeError):
            bl.schedule(spec(K=3), "improved")


class TestOneSchedulePerSpec:
    """A spec is frozen: its weights are computed once and shared, read-only."""

    def test_every_call_and_solve_shares_one_read_only_array(self):
        s = spec(K=50)
        alphas = bl.schedule(s)
        assert bl.schedule(s) is alphas
        with pytest.raises(ValueError, match="read-only"):
            alphas[0] = 0.5
        assert bl.solve_inner(bl.make_degenerate_quadratic(), [0.3], s).alphas is alphas

    def test_run_model_takes_the_powers_once(self, monkeypatch):
        # one vectorized pow over the bases 1..K, for all T solves
        bases = []
        float_power = np.float_power
        monkeypatch.setattr(np, "float_power",
                            lambda x, y: bases.append(np.copy(x)) or float_power(x, y))
        config = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=50, T=10, mode="improved")
        trace = bl.run_model(bl.make_degenerate_quadratic(), np.array([0.25]), config)
        assert len(trace.records) == 10
        assert len(bases) == 1
        assert bases[0].dtype == np.float64
        assert np.array_equal(bases[0], np.arange(1, 51))

    @given(K=st.integers(1, 20_000), exponent=st.floats(0.0, 3.0),
           frequency=st.integers(1, 7))
    def test_weights_have_libm_pow_bits(self, K, exponent, frequency):
        # the weights of one math.pow per averaged step, bit for bit
        reference = [min(1.0, math.pow(k + 1, -exponent)) if k % frequency == 0 else 1.0
                     for k in range(K)]
        assert same_bits(bl.schedule(spec(K=K, alpha_exponent=exponent,
                                          bigsam_frequency=frequency)), reference)


class TestModelExponent:
    """A model name becomes an exponent in ``model_exponent`` alone."""

    def test_basic_is_exponent_zero(self):
        assert bl.bigsam.model_exponent("basic") == 0.0
        assert bl.bigsam.model_exponent("basic", 0.7) == 0.0
        assert bl.bigsam.model_exponent("improved") == bl.bigsam.ALPHA_EXPONENT == 0.25
        assert bl.bigsam.model_exponent("improved", 0.7) == 0.7

    @pytest.mark.parametrize("mode", ["augmented", "Basic", "", None])
    def test_unknown_mode_rejected_with_one_message(self, mode):
        message = f"mode must be one of ('improved', 'basic'), got {mode!r}"
        rejections = []
        for build in (lambda: bl.bigsam.model_exponent(mode),
                      lambda: bl.SolveConfig(t=0.1, s=0.1, eta=0.1, K=3, T=1, mode=mode),
                      lambda: bl.CheckConfig(mode=mode)):
            with pytest.raises(ValueError) as info:
                build()
            rejections.append(str(info.value))
        assert rejections == [message] * 3


class TestAlphaExponentValidation:
    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_non_finite_or_negative_rejected(self, exponent):
        with pytest.raises(ValueError, match="alpha_exponent must be finite and non-negative"):
            spec(K=60, alpha_exponent=exponent)
        with pytest.raises(ValueError, match="alpha_exponent must be finite and non-negative"):
            bl.SolveConfig(t=0.1, s=0.1, eta=0.1, K=60, T=2, alpha_exponent=exponent)

    def test_underflowing_weights_rejected(self):
        # 60^-200 is 0.0 in float64: the last 19 averaged steps would drop h
        with pytest.raises(ValueError, match="underflows the averaging weight of inner step 60"):
            spec(K=60, alpha_exponent=200.0)
        with pytest.raises(ValueError, match="underflows"):
            bl.SolveConfig(t=0.1, s=0.1, eta=0.1, K=60, T=2, alpha_exponent=200.0)

    def test_bound_follows_the_last_averaged_step(self):
        # frequency 60 averages step 1 only, whose weight is 1 for any exponent
        alphas = bl.schedule(spec(K=60, alpha_exponent=200.0, bigsam_frequency=60))
        assert np.all(alphas == 1.0)
        with pytest.raises(ValueError, match="inner step 60"):
            spec(K=60, alpha_exponent=200.0, bigsam_frequency=59)
        # 60^-180 is subnormal but positive
        alphas = bl.schedule(spec(K=60, alpha_exponent=180.0))
        assert np.all(alphas > 0.0)


class TestBigsamStep:
    """One averaged step, seen through ``solve_inner`` and ``bigsam_standalone``.

    The closed-form problem runs its composed affine steps, its ``replace``
    copy the loop; both are checked, the loop's trajectory and the composed
    path's final iterate.
    """

    def setup_method(self):
        self.p = bl.make_closedform_quadratic()

    def test_hand_computed_step(self):
        # h = (w-lam)^2/2, g = w^2/2 at lam=1 from w=0: step 1 (alpha_1 = 1)
        # goes to 0.1; step 2 averages, with alpha_2 = 2^-0.25, the h step
        # 0.1 - 0.1*(0.1 - 1) = 0.19 and the g step 0.1 - 0.1*0.1 = 0.09
        alpha = 2.0 ** -0.25
        want = [0.0, 0.1, alpha * 0.19 + (1.0 - alpha) * 0.09]
        composed = bl.solve_inner(self.p, np.ones(1), spec(K=2))
        loop = bl.solve_inner(loop_copy(self.p), np.ones(1), spec(K=2))
        assert composed.alphas[1] == loop.alphas[1] == alpha
        np.testing.assert_allclose(loop.iterates[:, 0], want, rtol=1e-15)
        np.testing.assert_allclose(composed.final, want[-1:], rtol=1e-15)

    def test_alpha_one_is_pure_h_descent(self):
        def no_g(w, lam):
            raise AssertionError("an alpha == 1 step evaluated grad1_g")

        # at lam=1 from w=0 each step is w -> 0.9*w + 0.1
        composed = bl.solve_inner(self.p, np.ones(1), spec(K=3, alpha_exponent=0.0))
        loop = bl.solve_inner(dataclasses.replace(self.p, grad1_g=no_g), np.ones(1),
                              spec(K=3, alpha_exponent=0.0))
        np.testing.assert_allclose(loop.iterates[:, 0], [0.0, 0.1, 0.19, 0.271], rtol=1e-15)
        np.testing.assert_allclose(composed.final, [0.271], rtol=1e-15)
        out = bl.bigsam_standalone((None, lambda w: w), (None, no_g), np.ones(1),
                                   K=1, t=0.1, s=0.1)
        assert out == pytest.approx(0.9)

    def test_joint_stationary_point_is_fixed(self):
        # both gradients vanish at w = lam = 0
        composed = bl.solve_inner(self.p, np.zeros(1), spec(K=5))
        loop = bl.solve_inner(loop_copy(self.p), np.zeros(1), spec(K=5))
        assert np.all(composed.alphas[1:] < 1.0) and np.all(loop.alphas[1:] < 1.0)
        assert np.array_equal(loop.iterates, np.zeros((6, 1)))
        assert same_bits(composed.final, np.zeros(1))
        out = bl.bigsam_standalone((None, lambda w: w - 2.0), (None, lambda w: w - 2.0),
                                   np.full(1, 2.0), K=5, t=0.1, s=0.1)
        assert np.array_equal(out, np.full(1, 2.0))

    def test_step_params_validated(self):
        flat = (None, lambda w: np.zeros(1))
        for field, value, message in (("t", 0.0, "t must be finite and positive"),
                                      ("s", 0.0, "s must be finite and positive"),
                                      ("K", -1, "K must be"), ("K", 1.5, "K must be"),
                                      ("bigsam_frequency", 0, "bigsam_frequency")):
            kw = {"K": 3, "t": 0.1, "s": 0.1, field: value}
            with pytest.raises(ValueError, match=message):
                bl.InnerSolveSpec(**kw)
            if field != "bigsam_frequency":
                with pytest.raises(ValueError, match=message):
                    bl.bigsam_standalone(flat, flat, np.zeros(1), **kw)

    def test_divergent_gradient_raises(self):
        bad = bl.BilevelProblem(
            inner_dim=1, outer_dim=1, name="bad",
            h_value=bl.rowwise(lambda w, lam: 0.0), g_value=bl.rowwise(lambda w, lam: 0.0),
            grad1_h=lambda w, lam: np.array([np.nan]),
            grad1_g=lambda w, lam: np.zeros(1),
            grad2_g=lambda w, lam: np.zeros(1),
        )
        for expo in (0.25, 0.0):
            with pytest.raises(bl.OracleDivergence, match=r"\(inner step 0: grad1_h\)$"):
                bl.solve_inner(bad, np.zeros(1), spec(K=4, alpha_exponent=expo))
        nan = (None, lambda w: np.array([np.nan]))
        with pytest.raises(bl.OracleDivergence):
            bl.bigsam_standalone(nan, (None, lambda w: np.zeros(1)), np.zeros(1),
                                 K=4, t=0.1, s=0.1)


class TestVjpPhi:
    """The step map's VJPs, seen through ``reverse_hypergradient`` on short hand-built tapes.

    For the scalar pair h = (w-lam)^2/2, g = w^2/2 the reverse pass starts
    from a = grad1_g(omega_K) = omega_K and G = grad2_g = 0; each step adds
    its lam-side product t*alpha*a (vjp12_h(a) = -a, g is lam-free) and
    passes back the omega-side product a*(1 - t*alpha - s*(1-alpha)).
    """

    def setup_method(self):
        self.p = loop_copy(bl.make_closedform_quadratic())

    def test_lambda_hand_value(self):
        # one step at alpha = 0.5: G = 0.1*0.5*1 = 0.05
        G = bl.reverse_hypergradient(self.p, hand_tape(self.p, [0.0, 1.0], [0.5]))
        assert G == pytest.approx(0.05, rel=1e-15)

    def test_omega_hand_value(self):
        # the newer step passes back a = 1 - 0.05 - 0.05 = 0.9 to the older
        # step (alpha 1): G = 0.1*0.5*1 + 0.1*1*0.9 = 0.14
        G = bl.reverse_hypergradient(self.p, hand_tape(self.p, [0.0, 0.0, 1.0], [1.0, 0.5]))
        assert G == pytest.approx(0.14, rel=1e-15)

    def test_omega_alpha_one_collapses_to_h_jacobian(self):
        # a = 2 through an alpha = 1 step becomes 2 - 0.1*2 = 1.8, whatever s
        for s in (0.1, 0.7):
            G = bl.reverse_hypergradient(self.p,
                                         hand_tape(self.p, [0.0, 0.0, 2.0], [1.0, 1.0], s=s))
            assert G == pytest.approx(0.1 * 2.0 + 0.1 * 1.8, rel=1e-15)

    def test_identity_dynamics_when_curvature_vanishes(self):
        # h = lam * (c . w) has no curvature in w, so the adjoint
        # a = grad1_g = (0.25, -1) passes through every step unchanged and each
        # step adds -t*alpha*(a . c) = -0.5*alpha*(-0.5): 0.25*(0.5 + 1) exactly
        c = np.array([2.0, 1.0])
        flat = bl.BilevelProblem(
            inner_dim=2, outer_dim=1, name="flat",
            h_value=bl.rowwise(lambda w, lam: float(lam[0] * (c @ w))),
            g_value=bl.rowwise(lambda w, lam: float(np.array([0.25, -1.0]) @ w)),
            grad1_h=lambda w, lam: lam[0] * c,
            grad1_g=lambda w, lam: np.array([0.25, -1.0]),
            grad2_g=lambda w, lam: np.zeros(1),
            vjp11_h=lambda a, w, lam: np.zeros(2),
            vjp12_h=lambda a, w, lam: np.array([a @ c]),
            vjp11_g=lambda a, w, lam: np.zeros(2),
            vjp12_g=lambda a, w, lam: np.zeros(1),
        )
        G = bl.reverse_hypergradient(flat, hand_tape(flat, np.zeros((3, 2)), [0.5, 1.0], t=0.5,
                                                     s=0.25))
        assert np.array_equal(G, np.array([0.375]))

    def test_lambda_free_objectives_give_zero(self):
        iso = bl.BilevelProblem(
            inner_dim=1, outer_dim=1, name="iso",
            h_value=bl.rowwise(lambda w, lam: float(0.5 * w[0] ** 2)),
            g_value=bl.rowwise(lambda w, lam: float(w[0])),
            grad1_h=lambda w, lam: w.copy(),
            grad1_g=lambda w, lam: np.ones(1),
            grad2_g=lambda w, lam: np.zeros(1),
            vjp11_h=lambda a, w, lam: a.copy(),
            vjp12_h=lambda a, w, lam: np.zeros(1),
            vjp11_g=lambda a, w, lam: np.zeros(1),
            vjp12_g=lambda a, w, lam: np.zeros(1),
        )
        for iterates, alphas in (([1.0, 1.0], [0.5]), ([1.0, 1.0, 1.0], [1.0, 0.5])):
            G = bl.reverse_hypergradient(iso, hand_tape(iso, iterates, alphas, lam=(1.0,)))
            assert np.all(G == 0.0)

    def test_zero_adjoint_gives_zero(self):
        # omega_K = 0 makes a = grad1_g(omega_K) = 0
        for iterates, alphas in (([1.0, 0.0], [0.5]), ([1.0, 1.0, 0.0], [1.0, 0.5])):
            G = bl.reverse_hypergradient(self.p, hand_tape(self.p, iterates, alphas, lam=(1.0,)))
            assert np.all(G == 0.0)


class TestSolveInner:
    def test_k_zero_holds_only_start(self):
        p = bl.make_closedform_quadratic()
        inner = bl.InnerSolveSpec(K=0, t=0.1, s=0.1)
        loop = bl.solve_inner(loop_copy(p), np.array([1.0]), inner)
        assert loop.iterates.shape == (1, 1)
        composed = bl.solve_inner(p, np.array([1.0]), inner)
        for tape in (loop, composed):
            assert tape.alphas.shape == (0,)
            assert np.array_equal(tape.final, np.zeros(1))
        assert np.array_equal(composed.jacobian, np.zeros((1, 1)))

    def test_tape_lengths(self):
        p = bl.make_degenerate_quadratic()
        inner = bl.InnerSolveSpec(K=37, t=0.1, s=0.1)
        loop = bl.solve_inner(loop_copy(p), np.array([0.5]), inner)
        assert loop.iterates.shape == (38, 2)
        composed = bl.solve_inner(p, np.array([0.5]), inner)
        assert composed.final.shape == (2,) and composed.jacobian.shape == (2, 1)
        assert loop.alphas.shape == composed.alphas.shape == (37,)

    def test_matches_reference_recurrence(self):
        p = bl.make_degenerate_quadratic()
        lam = np.array([1.0])
        for expo, freq in ((0.25, 1), (0.25, 3), (0.0, 1)):
            spec = bl.InnerSolveSpec(K=200, t=0.1, s=0.1, alpha_exponent=expo,
                                     bigsam_frequency=freq)
            ref, alphas = reference_trajectory(p.grad1_h, p.grad1_g, lam,
                                               np.zeros(2), 200, 0.1, 0.1,
                                               expo=expo, freq=freq)
            loop = bl.solve_inner(loop_copy(p), lam, spec)
            np.testing.assert_allclose(loop.iterates, ref, rtol=1e-12, atol=1e-13)
            composed = bl.solve_inner(p, lam, spec)
            np.testing.assert_allclose(composed.final, ref[-1], rtol=1e-12, atol=1e-13)
            assert np.array_equal(loop.alphas, alphas) and np.array_equal(composed.alphas, alphas)

    def test_closedform_limits_per_mode(self):
        # basic descends h only: the iterate reaches the inner minimizer lam;
        # the decaying schedule leaves the final iterate at the blend point,
        # whose h-weight is alpha_K (value frozen from the recurrence above)
        p = bl.make_closedform_quadratic()
        lam = np.array([1.0])
        basic = bl.solve_inner(p, lam, bl.InnerSolveSpec(K=2000, t=0.1, s=0.1,
                                                         alpha_exponent=0.0))
        assert basic.final == pytest.approx(1.0, abs=1e-3)
        improved = bl.solve_inner(p, lam, bl.InnerSolveSpec(K=2000, t=0.1, s=0.1))
        ref, _ = reference_trajectory(p.grad1_h, p.grad1_g, lam, np.zeros(1),
                                      2000, 0.1, 0.1)
        assert improved.final == pytest.approx(ref[-1], abs=1e-12)
        assert improved.final[0] == pytest.approx(2000.0 ** -0.25, abs=2e-3)

    def test_degenerate_free_coordinate_separates_modes(self):
        # the inner objective never moves w2: basic leaves it at 0, the
        # averaged solver drives it to the outer objective's preferred 1
        p = bl.make_degenerate_quadratic()
        lam = np.array([1.0])
        improved = bl.solve_inner(p, lam, bl.InnerSolveSpec(K=5000, t=0.1, s=0.1)).final
        basic = bl.solve_inner(p, lam, bl.InnerSolveSpec(K=5000, t=0.1, s=0.1,
                                                         alpha_exponent=0.0)).final
        assert improved[1] == pytest.approx(1.0, abs=1e-6)
        assert basic[1] == 0.0
        assert basic[0] == pytest.approx(1.0, abs=1e-6)
        ref, _ = reference_trajectory(p.grad1_h, p.grad1_g, lam, np.zeros(2),
                                      5000, 0.1, 0.1)
        np.testing.assert_allclose(improved, ref[-1], atol=1e-12)

    def test_reduction_identity_exponent_zero_is_basic(self):
        for name in bl.ZOO_NAMES:
            inst = bl.zoo_problem(name)
            d = dict(K=25, t=inst.defaults["t"], s=inst.defaults["s"])
            spec0 = bl.InnerSolveSpec(**d, alpha_exponent=0.0)
            basic = bl.SolveConfig(eta=1.0, T=1, mode="basic", **d).inner_spec()
            assert basic == spec0
            imp = bl.solve_inner(inst.problem, inst.lam0, spec0)
            bas = bl.solve_inner(inst.problem, inst.lam0, basic)
            # the composed path records no trajectory, the loop no jacobian
            assert same_bits(imp.iterates, bas.iterates), name
            assert same_bits(imp.final, bas.final), name
            assert same_bits(imp.jacobian, bas.jacobian), name
            assert np.all(imp.alphas == 1.0)
            assert imp.mode == bas.mode == "basic"

    def test_frequency_beyond_horizon_equals_basic(self):
        p = bl.make_degenerate_quadratic()
        lam = np.array([1.0])
        K = 50
        freq = bl.solve_inner(p, lam, bl.InnerSolveSpec(K=K, t=0.1, s=0.1,
                                                        bigsam_frequency=K + 1))
        basic = bl.solve_inner(p, lam, bl.InnerSolveSpec(K=K, t=0.1, s=0.1,
                                                         alpha_exponent=0.0))
        # the k=0 averaged step fires but its weight is alpha_1 = 1
        assert same_bits(freq.final, basic.final) and same_bits(freq.jacobian, basic.jacobian)
        freq = bl.solve_inner(loop_copy(p), lam, bl.InnerSolveSpec(K=K, t=0.1, s=0.1,
                                                                   bigsam_frequency=K + 1))
        basic = bl.solve_inner(loop_copy(p), lam, bl.InnerSolveSpec(K=K, t=0.1, s=0.1,
                                                                    alpha_exponent=0.0))
        assert same_bits(freq.iterates, basic.iterates)

    def test_tape_mode_is_read_off_the_weights(self):
        p = bl.make_degenerate_quadratic()
        lam = np.array([1.0])
        assert bl.solve_inner(p, lam, spec(K=3)).mode == "improved"
        assert bl.solve_inner(p, lam, spec(K=3, alpha_exponent=0.0)).mode == "basic"
        # a single step's weight is alpha_1 = 1 at any exponent
        assert bl.solve_inner(p, lam, spec(K=1)).mode == "basic"
        for alphas, mode in (([1.0, 0.5], "improved"), ([1.0], "basic")):
            assert bl.Tape(iterates=None, final=np.zeros(1), alphas=np.array(alphas),
                           lam=np.zeros(1)).mode == mode
        with pytest.raises(TypeError):
            bl.Tape(iterates=None, final=np.zeros(1), alphas=np.zeros(0), lam=np.zeros(1),
                    mode="basic")

    def test_frequency_alpha_pattern(self):
        spec = bl.InnerSolveSpec(K=9, t=0.1, s=0.1, bigsam_frequency=3)
        assert bl.schedule(spec).tolist() == [
            1.0, 1.0, 1.0, 4.0 ** -0.25, 1.0, 1.0, 7.0 ** -0.25, 1.0, 1.0]

    def test_divergence_names_the_step(self):
        p = bl.make_closedform_quadratic()
        # a step size far beyond stability blows the iterates up to overflow
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(bl.OracleDivergence, match="inner step"):
                bl.solve_inner(p, np.array([1.0]),
                               bl.InnerSolveSpec(K=3000, t=1e300, s=0.1, alpha_exponent=0.0))

    def test_divergence_is_reported_once_without_warnings(self):
        # the loop's overflow is not warned about: the divergence report replaces it
        p = loop_copy(bl.make_closedform_quadratic())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bl.OracleDivergence, match=r"\(inner step 1\)$"):
                bl.solve_inner(p, np.array([1.0]), spec(K=3000, t=1e300, alpha_exponent=0.0))

    def test_mode_validated(self):
        # the solver takes no model: a mode is rejected where a config turns it
        # into an exponent, and solve_inner accepts no mode argument
        p = bl.make_closedform_quadratic()
        with pytest.raises(ValueError, match="mode must be one of"):
            bl.SolveConfig(t=0.1, s=0.1, eta=0.1, K=1, T=1, mode="augmented")
        with pytest.raises(TypeError):
            bl.solve_inner(p, np.array([1.0]), bl.InnerSolveSpec(K=1, t=0.1, s=0.1),
                           "basic")


class TestStandalone:
    def test_flat_inner_objective_lets_outer_win(self):
        c = np.array([2.0, -1.0])
        h = (lambda w: 0.0, lambda w: np.zeros(2))
        g = (lambda w: float(0.5 * np.sum((w - c) ** 2)), lambda w: w - c)
        out = bl.bigsam_standalone(h, g, np.zeros(2), K=4000, t=0.1, s=0.1)
        np.testing.assert_allclose(out, c, atol=1e-6)

    def test_constrained_minimum_on_free_coordinate(self):
        h = (lambda w: float(0.5 * w[0] ** 2), lambda w: np.array([w[0], 0.0]))
        g = (lambda w: float(0.5 * w[0] ** 2 + 0.5 * (w[1] - 3.0) ** 2),
             lambda w: np.array([w[0], w[1] - 3.0]))
        out = bl.bigsam_standalone(h, g, np.array([5.0, 0.0]), K=5000, t=0.1, s=0.1)
        np.testing.assert_allclose(out, [0.0, 3.0], atol=1e-3)

    def test_outer_minimum_off_argmin_h_pulls_toward_argmin_g(self):
        # today's behavior, pinned: the decaying weight multiplies the h step,
        # so where g's own minimizer (1, 3) lies off argmin h = {w1 = 0}, the
        # iterates move toward it and away from g's pick on argmin h, (0, 3)
        h = (lambda w: float(0.5 * w[0] ** 2), lambda w: np.array([w[0], 0.0]))
        g = (lambda w: float(0.5 * (w[0] - 1.0) ** 2 + 0.5 * (w[1] - 3.0) ** 2),
             lambda w: np.array([w[0] - 1.0, w[1] - 3.0]))
        w1 = []
        for K, want in ((100, 0.676), (1000, 0.822), (5000, 0.881)):
            out = bl.bigsam_standalone(h, g, np.array([5.0, 0.0]), K=K, t=0.1, s=0.1)
            assert out[0] == pytest.approx(want, abs=1e-3), K
            assert out[1] == pytest.approx(3.0, abs=1e-2), K
            w1.append(out[0])
        assert w1 == sorted(w1) and w1[-1] < 1.0

    @pytest.mark.parametrize("start, refused", [
        (np.array([np.nan, 0.0]), "omega0 contains non-finite entries"),
        (np.array([5.0, np.inf]), "omega0 contains non-finite entries"),
        (np.zeros((1, 2)), "omega0 must be one-dimensional, got shape (1, 2)"),
    ], ids=["nan", "inf", "2d"])
    def test_bad_start_is_refused_before_any_step(self, start, refused):
        def unreachable(w):
            raise AssertionError("a step was taken")

        oracle = (None, unreachable)
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            bl.bigsam_standalone(oracle, oracle, start, K=4, t=0.1, s=0.1)

    def test_k_zero_returns_start(self):
        h = (lambda w: 0.0, lambda w: np.zeros(1))
        g = (lambda w: 0.0, lambda w: np.zeros(1))
        start = np.array([4.0])
        out = bl.bigsam_standalone(h, g, start, K=0, t=0.1, s=0.1)
        assert np.array_equal(out, np.array([4.0])) and out is not start


class TestFinalIterateHelper:
    def test_matches_solve_inner(self):
        p = bl.make_degenerate_quadratic()
        lam = np.array([0.4])
        for expo in (0.25, 0.0):
            spec = bl.InnerSolveSpec(K=123, t=0.1, s=0.1, alpha_exponent=expo)
            tape = bl.solve_inner(p, lam, spec)
            last = final_inner_iterate(p, lam, spec)
            assert np.array_equal(tape.final, last)


def counting_problem():
    """h = (w - lam)^2 / 2, g = w^2 / 2 with every gradient and VJP slot counted."""
    calls = {}

    def counted(name, fn):
        calls[name] = 0

        def oracle(*args):
            calls[name] += 1
            return fn(*args)

        return oracle

    p = bl.BilevelProblem(
        inner_dim=1, outer_dim=1, name="counted",
        h_value=bl.rowwise(lambda w, lam: float(0.5 * (w[0] - lam[0]) ** 2)),
        g_value=bl.rowwise(lambda w, lam: float(0.5 * w[0] ** 2)),
        grad1_h=counted("grad1_h", lambda w, lam: w - lam),
        grad1_g=counted("grad1_g", lambda w, lam: w.copy()),
        grad2_g=counted("grad2_g", lambda w, lam: np.zeros(1)),
        vjp11_h=counted("vjp11_h", lambda a, w, lam: a.copy()),
        vjp12_h=counted("vjp12_h", lambda a, w, lam: -a),
        vjp11_g=counted("vjp11_g", lambda a, w, lam: a.copy()),
        vjp12_g=counted("vjp12_g", lambda a, w, lam: np.zeros(1)),
    )
    return p, calls


def hypercleaning(val_scale=1.0, train_scale=1.0, val_nan=False):
    """A small hyper-cleaning instance, its features optionally scaled or poisoned."""
    ds = bl.gen_synthetic(5, 120, 4, 2, 3.0)
    train, val = bl.split(ds, 50, 40, 5)
    train = bl.corrupt_labels(train, 0.5, 5)
    train, val = (dataclasses.replace(part, X=part.X * scale)
                  for part, scale in ((train, train_scale), (val, val_scale)))
    if val_nan:
        # Dataset rejects non-finite features: poison a copy after the check
        val.X[0, 0] = np.nan
    return bl.make_hypercleaning(train, val)


class TestAlphaOneStepsSkipG:
    """A step with alpha == 1 reads h alone: no g oracle runs and no g value reaches it."""

    def test_slot_built_step_calls_no_g_oracle(self):
        p, calls = counting_problem()
        K, lam = 7, np.array([0.3])
        for expo in (0.0, 0.25):
            for name in calls:
                calls[name] = 0
            cfg = spec(K=K, alpha_exponent=expo, bigsam_frequency=3)
            tape = bl.solve_inner(p, lam, cfg)
            bl.reverse_hypergradient(p, tape)
            averaged = int(np.sum(tape.alphas != 1.0))
            # the averaged steps of f = 3 are k = 3 and 6; k = 0 has alpha_1 = 1
            assert averaged == (2 if expo else 0)
            assert calls["grad1_h"] == K and calls["vjp12_h"] == K
            assert calls["vjp11_h"] == K - 1
            # the reverse pass seeds its adjoint with grad1_g at omega_K once
            assert calls["grad1_g"] == averaged + 1
            assert calls["vjp11_g"] == calls["vjp12_g"] == averaged

    @pytest.mark.parametrize("freq", [1, 3])
    def test_nan_validation_features_leave_basic_runs_intact(self, freq):
        clean, poisoned = hypercleaning(), hypercleaning(val_nan=True)
        cfg = spec(K=20, t=0.01, s=0.001, alpha_exponent=0.0, bigsam_frequency=freq)
        rng = np.random.default_rng(freq)
        lam = rng.normal(0.0, 0.5, clean.outer_dim)
        a = rng.normal(0.0, 0.5, clean.inner_dim)
        want = bl.solve_inner(clean, lam, cfg)
        got = bl.solve_inner(poisoned, lam, cfg)
        assert np.all(np.isfinite(got.iterates))
        assert np.array_equal(got.iterates.view(np.uint64), want.iterates.view(np.uint64))
        for vjp, ref in zip(got.vjps, want.vjps):
            lam_bar, ref_bar = np.zeros(clean.outer_dim), np.zeros(clean.outer_dim)
            assert np.array_equal(vjp(a, True, lam_bar), ref(a, True, ref_bar))
            assert np.array_equal(lam_bar, ref_bar)
        assert np.array_equal(final_inner_iterate(poisoned, lam, cfg), want.final)
        lams = lam + rng.normal(0.0, 0.1, (3, clean.outer_dim))
        stacked = final_inner_iterates_many(poisoned, lams, cfg)
        assert np.array_equal(stacked, final_inner_iterates_many(clean, lams, cfg))
        # the improved model reads g on its averaged steps, and diverges
        with pytest.raises(bl.OracleDivergence, match="grad1_g"):
            bl.solve_inner(poisoned, lam, spec(K=20, t=0.01, s=0.001))


class TestDivergenceNamesTheOracle:
    """A fused step does not tell which half overflowed: the failure path asks the slots."""

    def test_g_overflows_while_h_stays_finite(self):
        p = hypercleaning(val_scale=1e300)
        lam = np.zeros(p.outer_dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bl.OracleDivergence, match=r"\(inner step \d+: grad1_g\)$"):
                bl.solve_inner(p, lam, spec(K=5, t=0.01, s=0.001))
            # the basic model (exponent 0) never reads g
            assert np.all(np.isfinite(bl.solve_inner(
                p, lam, spec(K=5, t=0.01, s=0.001, alpha_exponent=0.0)).iterates))

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_h_overflows_while_g_stays_finite(self, expo):
        p = hypercleaning(train_scale=1e300)
        with pytest.raises(bl.OracleDivergence, match=r"\(inner step \d+: grad1_h\)$"):
            bl.solve_inner(p, np.zeros(p.outer_dim),
                           spec(K=5, t=0.01, s=0.001, alpha_exponent=expo))

    def test_no_oracle_is_named_when_both_gradients_are_finite(self):
        # the step itself overflows: t = 1e300 times a finite gradient
        p = loop_copy(bl.make_closedform_quadratic())
        with pytest.raises(bl.OracleDivergence, match=r"\(inner step 1\)$"):
            bl.solve_inner(p, np.array([1.0]), spec(K=10, t=1e300))
