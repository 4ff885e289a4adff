"""Oracle record, finite-difference VJPs, and first-order validation."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt import oracles
from bilevelopt.bigsam import final_inner_iterate, final_inner_iterates_many
from bilevelopt.oracles import CheckConfig
from bilevelopt.problem import ROW_ORACLES, OracleDivergence, batched, default_fd_eps, finite


def scalar_coupled_quadratic():
    """h = (w - lam)^2 / 2, g = w^2 / 2 with only first-order oracles supplied."""
    return bl.BilevelProblem(
        inner_dim=1, outer_dim=1, name="fd-backed",
        h_value=lambda w, lam: float(0.5 * (w[0] - lam[0]) ** 2),
        g_value=lambda w, lam: float(0.5 * w[0] ** 2),
        grad1_h=lambda w, lam: w - lam,
        grad1_g=lambda w, lam: w.copy(),
        grad2_g=lambda w, lam: np.zeros(1),
    )


class TestFinite:
    def test_finite_input_is_returned_as_float64(self):
        got = finite([1, 2, 3], "unused")
        assert got.dtype == np.float64 and np.array_equal(got, [1.0, 2.0, 3.0])
        x = np.array([[0.5, -1.0]])
        assert finite(x, lambda row: pytest.fail("called on finite input")) is x

    def test_plain_message(self):
        with pytest.raises(OracleDivergence, match=r"^oracle-divergence: non-finite thing$"):
            finite(np.array([1.0, np.inf]), "non-finite thing")

    def test_first_non_finite_row_is_named_through_the_function(self):
        stack = np.zeros((4, 3))
        stack[2, 1] = np.nan
        stack[3, 0] = np.inf
        seen = []

        def name(row):
            seen.append(row)
            return f"row {row} non-finite"

        with pytest.raises(OracleDivergence, match=r"^oracle-divergence: row 2 non-finite$"):
            finite(stack, name)
        assert seen == [2]
        with pytest.raises(OracleDivergence, match=r"^oracle-divergence: entry 1$"):
            finite(np.array([0.0, -np.inf, np.nan]), lambda row: f"entry {row}")


class TestFdVjp:
    def test_quadratic_second_derivatives(self):
        p = scalar_coupled_quadratic()
        a = np.ones(1)
        w = np.zeros(1)
        lam = np.zeros(1)
        h11 = bl.fd_vjp(p, "h11", a, w, lam, eps=1e-5)
        h12 = bl.fd_vjp(p, "h12", a, w, lam, eps=1e-5)
        # hand-computed Hessian of the quadratic: d11h = 1, d12h = -1
        assert h11 == pytest.approx(1.0, abs=1e-9)
        assert h12 == pytest.approx(-1.0, abs=1e-9)

    def test_zero_adjoint_gives_zero(self):
        p = scalar_coupled_quadratic()
        out = bl.fd_vjp(p, "h11", np.zeros(1), np.ones(1), np.ones(1), eps=1e-5)
        assert out.shape == (1,)
        assert np.all(out == 0.0)

    def test_linear_h_has_zero_curvature(self):
        p = bl.BilevelProblem(
            inner_dim=2, outer_dim=1, name="linear-h",
            h_value=lambda w, lam: float(3.0 * w[0] - w[1]),
            g_value=lambda w, lam: float(w @ w),
            grad1_h=lambda w, lam: np.array([3.0, -1.0]),
            grad1_g=lambda w, lam: 2.0 * w,
            grad2_g=lambda w, lam: np.zeros(1),
        )
        out = bl.fd_vjp(p, "h11", np.array([0.7, -0.2]), np.zeros(2), np.zeros(1), eps=1e-5)
        assert np.all(out == 0.0)

    def test_linear_in_adjoint(self):
        p = scalar_coupled_quadratic()
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=1)
            w, lam = rng.normal(size=1), rng.normal(size=1)
            one = bl.fd_vjp(p, "h11", a, w, lam, eps=1e-5)
            two = bl.fd_vjp(p, "h11", 2.0 * a, w, lam, eps=1e-5)
            assert two == pytest.approx(2.0 * one, rel=1e-6)

    def test_divergent_oracle_is_reported(self):
        p = bl.BilevelProblem(
            inner_dim=1, outer_dim=1, name="divergent",
            h_value=lambda w, lam: float(w[0]),
            g_value=lambda w, lam: 0.0,
            grad1_h=lambda w, lam: np.array([np.inf]),
            grad1_g=lambda w, lam: np.zeros(1),
            grad2_g=lambda w, lam: np.zeros(1),
        )
        with pytest.raises(OracleDivergence, match="oracle-divergence"):
            bl.fd_vjp(p, "h11", np.ones(1), np.zeros(1), np.zeros(1), eps=1e-5)

    def test_bad_selector_and_eps(self):
        p = scalar_coupled_quadratic()
        with pytest.raises(ValueError):
            bl.fd_vjp(p, "h21", np.ones(1), np.zeros(1), np.zeros(1), eps=1e-5)
        with pytest.raises(ValueError):
            bl.fd_vjp(p, "h11", np.ones(1), np.zeros(1), np.zeros(1), eps=0.0)


BAD_STEPS = [float("nan"), float("inf"), 0.0, -1.0]


class TestRefereeArguments:
    """A step or tolerance that is not finite and positive is a usage error.

    It is refused before any probe runs, so that it is never reported as a
    divergence or passed as a check.
    """

    @pytest.mark.parametrize("eps", BAD_STEPS)
    def test_fd_vjp_eps(self, eps):
        p = scalar_coupled_quadratic()
        for which in ("h11", "h12"):
            with pytest.raises(ValueError, match="eps must be finite and positive"):
                bl.fd_vjp(p, which, np.ones(1), np.zeros(1), np.zeros(1), eps=eps)

    @pytest.mark.parametrize("eps", BAD_STEPS)
    def test_validate_first_order_eps(self, eps):
        p = scalar_coupled_quadratic()
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            bl.validate_first_order(p, np.array([0.7]), np.array([-0.3]), eps=eps)

    @pytest.mark.parametrize("eps", BAD_STEPS)
    def test_hypergradient_fd_oracle_eps(self, eps):
        p = bl.make_degenerate_quadratic()
        spec = bl.InnerSolveSpec(K=5, t=0.1, s=0.1)
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            bl.hypergradient_fd_oracle(p, np.array([0.5]), spec, eps=eps)


def fallback_vjps(p, a, w, lam):
    """(vjp11_h, vjp12_h, vjp11_g, vjp12_g) at (w, lam), read off the slot-built step's VJPs.

    An h-only step with ta = -1 maps the adjoint a to a + vjp11_h and adds
    vjp12_h to its lam accumulator; an averaged step with ta = 0 and sb = -1
    does the same with g's.
    """
    step = bl.linearizer(p, lam)
    out = []
    for ta, sb in ((-1.0, None), (0.0, -1.0)):
        lam_bar = np.zeros(p.outer_dim)
        out += [step(w, ta, sb)[1](a, True, lam_bar) - a, lam_bar]
    return tuple(out)


class TestFdFallbackWiring:
    def test_unsupplied_vjps_fall_back(self):
        p = scalar_coupled_quadratic()
        assert p.vjp_flavor["vjp11_h"] == "fd-fallback"
        assert (p.vjp11_h, p.vjp12_h, p.vjp11_g, p.vjp12_g) == (None,) * 4
        a = np.array([2.0])
        w, lam = np.array([0.3]), np.array([-0.5])
        h11, h12, g11, g12 = fallback_vjps(p, a, w, lam)
        assert h11 == pytest.approx(2.0, rel=1e-7)
        assert h12 == pytest.approx(-2.0, rel=1e-7)
        assert g11 == pytest.approx(2.0, rel=1e-7)
        assert g12 == pytest.approx(0.0, abs=1e-9)

    def test_fallback_handles_large_adjoints(self):
        # the fallback normalizes the adjoint before differencing
        p = scalar_coupled_quadratic()
        a = np.array([1e8])
        got = fallback_vjps(p, a, np.zeros(1), np.zeros(1))[0]
        assert got == pytest.approx(1e8, rel=1e-6)


class TestValidateFirstOrder:
    def test_quadratic_passes_tightly(self):
        p = scalar_coupled_quadratic()
        errors = bl.validate_first_order(p, np.array([0.7]), np.array([-0.3]), eps=1e-5)
        assert set(errors) == {"grad1_g", "grad2_g", "grad1_h"}
        assert all(err < 1e-6 for err in errors.values()), errors

    def test_planted_gradient_bug_is_detected(self):
        p = scalar_coupled_quadratic()
        import dataclasses
        bad = dataclasses.replace(p, grad1_h=lambda w, lam: 2.0 * (w - lam))
        errors = bl.validate_first_order(bad, np.array([0.7]), np.array([-0.3]))
        assert errors["grad1_h"] > 1e-6
        assert errors["grad1_g"] <= 1e-6

    def test_planted_outer_gradient_bug_is_detected(self):
        # g = w^2 / 2 reads no lam, so a nonzero grad2_g is wrong
        p = scalar_coupled_quadratic()
        bad = dataclasses.replace(p, grad2_g=lambda w, lam: w.copy())
        errors = bl.validate_first_order(bad, np.array([0.7]), np.array([-0.3]))
        assert errors["grad2_g"] > 1e-6
        assert errors["grad1_g"] <= 1e-6 and errors["grad1_h"] <= 1e-6

    def test_constant_function_has_exactly_zero_error(self):
        p = bl.BilevelProblem(
            inner_dim=1, outer_dim=1, name="constant",
            h_value=lambda w, lam: 4.0,
            g_value=lambda w, lam: -1.0,
            grad1_h=lambda w, lam: np.zeros(1),
            grad1_g=lambda w, lam: np.zeros(1),
            grad2_g=lambda w, lam: np.zeros(1),
        )
        errors = bl.validate_first_order(p, np.zeros(1), np.zeros(1))
        assert errors == {"grad1_g": 0.0, "grad2_g": 0.0, "grad1_h": 0.0}


    @pytest.mark.parametrize("slot, wrong", [
        ("grad2_g", lambda w, lam: np.zeros(0)),                  # empty
        ("grad1_g", lambda w, lam: np.array([w[0] - 1.0, 0.0])),  # broadcast against FD
    ], ids=["empty", "broadcast"])
    def test_wrong_shaped_gradient_scores_inf(self, slot, wrong):
        bad = dataclasses.replace(bl.make_closedform_quadratic(), **{slot: wrong})
        errors = bl.validate_first_order(bad, np.array([0.7]), np.array([-0.3]))
        assert errors[slot] == np.inf
        assert all(err <= 1e-6 for name, err in errors.items() if name != slot), errors

    def test_empty_outer_gradient_fails_the_first_order_report(self):
        bad = dataclasses.replace(bl.make_closedform_quadratic(),
                                  grad2_g=lambda w, lam: np.zeros(0))
        reports = {r.name: r for r in bl.check_suite(bad, [CheckConfig(n_points=2, K=20)])}
        assert reports["first-order-vs-fd"].max_rel_err == np.inf
        assert not reports["first-order-vs-fd"].passed


class TestZooAnalyticVjps:
    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_analytic_vjps_match_fd(self, name):
        problem = bl.zoo_problem(name).problem
        rng = np.random.default_rng(42)
        n, m = problem.dims
        for _ in range(10):
            w = rng.normal(size=n)
            w /= max(1.0, np.linalg.norm(w))
            lam = rng.normal(size=m)
            lam /= max(1.0, np.linalg.norm(lam))
            a = rng.normal(size=n)
            a /= max(1.0, np.linalg.norm(a))
            for attr, which in (("vjp11_h", "h11"), ("vjp12_h", "h12"),
                                ("vjp11_g", "g11"), ("vjp12_g", "g12")):
                assert problem.vjp_flavor[attr] == "analytic"
                got = getattr(problem, attr)(a, w, lam)
                point = w if which.endswith("11") else lam
                want = bl.fd_vjp(problem, which, a, w, lam, default_fd_eps(point))
                err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
                assert err < 1e-4, (name, attr, err)

    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_vjp11_h_symmetric_consistency(self, name):
        problem = bl.zoo_problem(name).problem
        rng = np.random.default_rng(7)
        n, m = problem.dims
        for _ in range(5):
            a, b = rng.normal(size=n), rng.normal(size=n)
            w, lam = 0.3 * rng.normal(size=n), 0.3 * rng.normal(size=m)
            ab = float(problem.vjp11_h(a, w, lam) @ b)
            ba = float(problem.vjp11_h(b, w, lam) @ a)
            assert ab == pytest.approx(ba, rel=1e-9, abs=1e-12)

    def test_oracle_purity_bit_identical(self):
        problem = bl.zoo_problem("hyperclean_synthetic").problem
        rng = np.random.default_rng(1)
        w = rng.normal(size=problem.inner_dim)
        lam = rng.normal(size=problem.outer_dim)
        a = rng.normal(size=problem.inner_dim)
        for fn in (problem.grad1_h, problem.grad1_g):
            first, second = fn(w, lam), fn(w, lam)
            assert np.array_equal(first, second)
        first, second = problem.vjp12_h(a, w, lam), problem.vjp12_h(a, w, lam)
        assert np.array_equal(first, second)

    def test_output_lengths_match_dims(self):
        problem = bl.zoo_problem("hyperrep_synthetic").problem
        n, m = problem.dims
        rng = np.random.default_rng(2)
        w, lam, a = rng.normal(size=n), rng.normal(size=m), rng.normal(size=n)
        assert problem.grad1_h(w, lam).shape == (n,)
        assert problem.grad1_g(w, lam).shape == (n,)
        assert problem.grad2_g(w, lam).shape == (m,)
        assert problem.vjp11_h(a, w, lam).shape == (n,)
        assert problem.vjp12_h(a, w, lam).shape == (m,)
        assert problem.vjp11_g(a, w, lam).shape == (n,)
        assert problem.vjp12_g(a, w, lam).shape == (m,)


class TestNoReferenceCycles:
    """A problem must die on its last reference: no instance holds a closure over itself."""

    @pytest.mark.parametrize("name", tuple(bl.ZOO_NAMES) + ("fd-backed",))
    def test_problem_and_replace_copy_die_on_del(self, name):
        gc.collect()
        gc.disable()
        try:
            p = scalar_coupled_quadratic() if name == "fd-backed" else bl.zoo_problem(name).problem
            copy = dataclasses.replace(p)
            # a solve and its reverse pass leave nothing that points back either
            for problem in (p, copy):
                spec = bl.InnerSolveSpec(K=3, t=0.01, s=0.01)
                tape = bl.solve_inner(problem, np.zeros(problem.outer_dim), spec)
                bl.reverse_hypergradient(problem, tape)
            del tape, problem
            refs = [weakref.ref(p), weakref.ref(copy)]
            del p, copy
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestFallbackFollowsTheCopy:
    """A VJP left None is differenced from the gradients of the problem it is asked of."""

    def test_copy_with_a_swapped_gradient_differentiates_its_own(self):
        p = scalar_coupled_quadratic()
        tripled = dataclasses.replace(p, h_value=lambda w, lam: float(1.5 * (w[0] - lam[0]) ** 2),
                                      grad1_h=lambda w, lam: 3.0 * (w - lam))
        a, w, lam = np.ones(1), np.array([0.3]), np.array([0.4])
        h11, h12 = fallback_vjps(tripled, a, w, lam)[:2]
        assert h11 == pytest.approx(3.0, rel=1e-7)
        assert h12 == pytest.approx(-3.0, rel=1e-7)
        assert fallback_vjps(p, a, w, lam)[0] == pytest.approx(1.0, rel=1e-7)
        for expo in (0.25, 0.0):
            spec = bl.InnerSolveSpec(K=20, t=0.1, s=0.1, alpha_exponent=expo)
            got = bl.reverse_hypergradient(tripled, bl.solve_inner(tripled, lam, spec))
            want = bl.hypergradient_fd_oracle(tripled, lam, spec)
            assert got == pytest.approx(want, rel=1e-6), expo

    def test_copies_get_their_own_vjp_flavor(self):
        p = scalar_coupled_quadratic()
        assert dataclasses.replace(p).vjp_flavor is not p.vjp_flavor
        analytic = dataclasses.replace(p, vjp11_h=lambda a, w, lam: a.copy())
        assert analytic.vjp_flavor["vjp11_h"] == "analytic"
        assert p.vjp_flavor["vjp11_h"] == "fd-fallback"


def unstacked_quadratic():
    """The degenerate 2+1 quadratic built by ``make_quadratic``, its stacked values
    taken away: no stacked oracle at all."""
    zoo = bl.make_degenerate_quadratic()
    p = bl.make_quadratic(zoo.affine, name="unstacked")
    p.h_batch = p.g_batch = None
    assert all(getattr(p, name) is None for name in ROW_ORACLES)
    p.answers = dict(zoo.answers)
    return p


class TestBatchedDefault:
    """A stacked oracle left None is its row oracle, row by row, for every referee."""

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown stacked oracle"):
            batched(scalar_coupled_quadratic(), "vjp11_h_many")

    def test_the_problems_own_stacked_oracle_is_returned(self):
        p = bl.make_degenerate_quadratic()
        assert batched(p, "h_batch") is p.h_batch and batched(p, "g_batch") is p.g_batch

    def test_check_suite_with_the_grid_passes(self, monkeypatch):
        # every row oracle is called alone: a 41-point grid per axis keeps
        # the grid referee at about 70,000 h calls, where the default 401
        # would make 64 million
        monkeypatch.setattr(oracles, "GRID_RESOLUTION", 41)
        p = unstacked_quadratic()
        reports = bl.check_suite(p, bl.default_check_configs("degenerate_quadratic"))
        assert "grid-min-vs-analytic" in [r.name for r in reports]
        assert all(r.passed for r in reports), [r.to_dict() for r in reports]

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_batched_solve_equals_one_solve_per_row(self, expo):
        p = unstacked_quadratic()
        generic = dataclasses.replace(p)
        lams = np.random.default_rng(4).normal(0, 0.7, (5, p.outer_dim))
        spec = bl.InnerSolveSpec(K=40, t=0.2, s=0.1, alpha_exponent=expo, bigsam_frequency=2)
        got = final_inner_iterates_many(p, lams, spec)
        assert got.shape == (5, p.inner_dim)
        for row, lam in zip(got, lams):
            want = final_inner_iterate(generic, lam, spec)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


class TestStackStepsAreValueOnly:
    """``linearizer`` binds a stack of lam rows as it binds one, whoever built the step.

    For every zoo problem and its ``replace`` copy (whose step is built from
    the slots), on an alpha == 1 step and an averaged one: each row of the
    stack step is the slot-built step at that row, bit for bit.  The VJP a
    stack step returns is never called, so it is not asserted on.
    """

    @pytest.mark.parametrize("copy", [False, True], ids=["problem", "replace"])
    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_stack_rows_are_the_slot_steps_without_vjps(self, name, copy):
        z = bl.zoo_problem(name)
        slots = dataclasses.replace(z.problem)
        p = slots if copy else z.problem
        rng = np.random.default_rng(len(name))
        lams = z.lam0 + rng.normal(0, 0.3, (3, p.outer_dim))
        ws = rng.normal(0, 0.3, (3, p.inner_dim))
        for ta, sb in ((0.7, None), (0.3, 0.4)):
            got = bl.linearizer(p, lams)(ws, ta, sb)[0]
            assert got.shape == ws.shape
            for row, w, lam in zip(got, ws, lams):
                want = bl.linearizer(slots, lam)(w, ta, sb)[0]
                assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), (ta, sb)
