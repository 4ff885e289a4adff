"""Brute-force referees: grid minimum and the aggregated check suite."""

import dataclasses
import json
import time
import warnings

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt import oracles
from bilevelopt.oracles import CheckConfig, OracleReport
from bilevelopt.problems import ZOO_DEFAULTS


def two_by_two_quadratic():
    """A 2+2 quadratic built by ``make_quadratic``: A_h = A_g = I, B_h = I."""
    return bl.make_quadratic(bl.QuadraticBilevelSpec(
        A_h=np.eye(2), B_h=np.eye(2), d_h=np.zeros(2), A_g=np.eye(2), c_g=np.zeros(2)))


class TestGridMinOracle:
    def test_degenerate_problem_full_resolution(self):
        p = bl.make_degenerate_quadratic()
        lam_s, om_s, val = bl.grid_min_oracle(p, [(-2, 2)], [(-2, 2), (-2, 2)], 401)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert lam_s[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(om_s, [0.0, 1.0], atol=1e-12)

    def test_closedform_minimum(self):
        p = bl.make_closedform_quadratic()
        _, _, val = bl.grid_min_oracle(p, [(-2, 2)], [(-2, 2)], 401)
        assert abs(val - p.answers["min_f"]) <= 0.05

    def test_constant_outer_objective_any_point(self):
        p = bl.BilevelProblem(
            inner_dim=1, outer_dim=1, name="const",
            h_value=bl.rowwise(lambda w, lam: float(w[0] ** 2)),
            g_value=bl.rowwise(lambda w, lam: 3.25),
            grad1_h=lambda w, lam: 2.0 * w,
            grad1_g=lambda w, lam: np.zeros(1),
            grad2_g=lambda w, lam: np.zeros(1),
        )
        _, _, val = bl.grid_min_oracle(p, [(-1, 1)], [(-1, 1)], 3)
        assert val == 3.25

    def test_dim_limit(self):
        p = bl.zoo_problem("hyperclean_synthetic").problem
        with pytest.raises(ValueError, match="oracle-dim-limit"):
            bl.grid_min_oracle(p, [(-1, 1)] * p.outer_dim, [(-1, 1)] * p.inner_dim, 5)

    def test_resolution_floor(self):
        p = bl.make_closedform_quadratic()
        with pytest.raises(ValueError, match="resolution"):
            bl.grid_min_oracle(p, [(-1, 1)], [(-1, 1)], 2)

    def test_grid_above_the_budget_is_refused_before_any_evaluation(self):
        def unreachable(*_):
            raise AssertionError("the grid was evaluated")

        p = dataclasses.replace(two_by_two_quadratic(), h_value=unreachable, g_value=unreachable)
        with pytest.raises(ValueError, match=r"grid-budget: 401\^2 lam points x 401\^2 omega "
                                             r"points make 25856961601 h evaluations, above "
                                             r"GRID_BUDGET = 100000000"):
            bl.grid_min_oracle(p, [(-2, 2)] * 2, [(-2, 2)] * 2, 401)

    @pytest.mark.parametrize("lam_axes, omega_axes, refused", [
        # 401^(2+2) = 2.6e10 evaluations, where the budget counts 401^(1+2)
        (2, 2, "lam_box must give one axis per coordinate of lam: 1, got 2"),
        (1, 1, "omega_box must give one axis per coordinate of omega: 2, got 1"),
        (1, 3, "omega_box must give one axis per coordinate of omega: 2, got 3"),
        (0, 2, "lam_box must give one axis per coordinate of lam: 1, got 0"),
    ])
    def test_box_of_the_wrong_length_is_refused_before_any_evaluation(
            self, lam_axes, omega_axes, refused):
        def unreachable(*_):
            raise AssertionError("the grid was evaluated")

        p = dataclasses.replace(bl.make_degenerate_quadratic(), h_value=unreachable,
                                g_value=unreachable)
        with pytest.raises(ValueError, match=refused):
            bl.grid_min_oracle(p, [(-2, 2)] * lam_axes, [(-2, 2)] * omega_axes, 401)

    def test_check_suite_refuses_a_two_by_two_grid_at_once(self):
        # 401 points per axis make 2.6e10 evaluations of h: hours, were
        # the grid not refused before it starts
        p = two_by_two_quadratic()
        p.answers["min_f"] = 0.0
        cfg = CheckConfig(K=5, n_points=1, hg_points=1)
        with pytest.raises(ValueError, match="grid-budget: .* 25856961601 h evaluations"):
            bl.check_suite(p, [cfg])

    def test_deterministic(self):
        p = bl.make_degenerate_quadratic()
        a = bl.grid_min_oracle(p, [(-2, 2)], [(-2, 2), (-2, 2)], 101)
        b = bl.grid_min_oracle(p, [(-2, 2)], [(-2, 2), (-2, 2)], 101)
        assert a[2] == b[2]
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_argmin_set_uses_outer_objective(self):
        # the inner argmin band is a full line in w2; the oracle must pick
        # the member the outer objective prefers, not the first grid hit
        p = bl.make_degenerate_quadratic()
        _, om_s, _ = bl.grid_min_oracle(p, [(0.5, 0.5)], [(-2, 2), (-2, 2)], 41)
        assert om_s[1] == pytest.approx(1.0, abs=1e-12)
        assert om_s[0] == pytest.approx(0.5, abs=1e-12)


class TestCheckSuite:
    def test_empty_config_list(self):
        p = bl.make_closedform_quadratic()
        assert bl.check_suite(p, []) == []

    @pytest.mark.parametrize("name", ["closedform_quadratic", "degenerate_quadratic",
                                      "hyperclean_synthetic"])
    def test_zoo_problems_pass_default_checks(self, name):
        inst = bl.zoo_problem(name)
        reports = bl.check_suite(inst.problem, bl.default_check_configs(name))
        assert reports
        for r in reports:
            assert r.passed, (name, r.name, r.max_rel_err)

    def test_planted_sign_error_is_caught(self):
        p = bl.make_degenerate_quadratic()
        mutant = dataclasses.replace(
            p, vjp12_h=lambda a, w, lam: a[:1])     # sign flipped
        reports = bl.check_suite(mutant, [CheckConfig(K=20, hg_points=2)])
        by_name = {r.name: r for r in reports}
        assert not by_name["reverse-vs-fd-hypergradient"].passed
        assert not by_name["vjp-vs-fd"].passed
        # first-order oracles are untouched and still pass
        assert by_name["first-order-vs-fd"].passed

    def test_reports_serialize(self):
        import json
        p = bl.make_closedform_quadratic()
        reports = bl.check_suite(p, [CheckConfig(K=10, hg_points=1, n_points=2)])
        doc = json.dumps([r.to_dict() for r in reports])
        assert "first-order-vs-fd" in doc

    def test_deterministic_given_seed(self):
        # every verifier draws its sample points from its own fixed seed
        p = bl.make_degenerate_quadratic()
        cfg = [CheckConfig(K=15, hg_points=2, n_points=3)]
        a = bl.check_suite(p, cfg)
        b = bl.check_suite(p, cfg)
        # a bare config runs every check, the grid too on this 2+1 problem
        assert [r.name for r in a] == ["first-order-vs-fd", "vjp-vs-fd",
                                       "reverse-vs-fd-hypergradient", "grid-min-vs-analytic"]
        assert [(r.name, r.max_rel_err) for r in a] == [(r.name, r.max_rel_err) for r in b]
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_no_analytic_vjp_gives_no_vjp_row(self):
        # every VJP slot None: each step differences the gradients, and the
        # VJP check has nothing analytic to compare
        p = dataclasses.replace(bl.make_degenerate_quadratic(), vjp11_h=None, vjp12_h=None,
                                vjp11_g=None, vjp12_g=None)
        reports = bl.check_suite(p, [CheckConfig(K=5, n_points=1, hg_points=1)])
        assert [r.name for r in reports] == ["first-order-vs-fd",
                                             "reverse-vs-fd-hypergradient",
                                             "grid-min-vs-analytic"]
        assert all(r.passed for r in reports)

    def test_no_analytic_minimum_gives_no_grid_row(self):
        # a 2+2 problem small enough for the grid, but with nothing to compare
        # its minimum against: the grid, over budget at this size, is not
        # even attempted
        reports = bl.check_suite(two_by_two_quadratic(),
                                 [CheckConfig(K=5, n_points=1, hg_points=1)])
        assert [r.name for r in reports] == ["first-order-vs-fd", "vjp-vs-fd",
                                             "reverse-vs-fd-hypergradient"]


def drawn_two_plus_one():
    """A drawn 2+1 ``make_quadratic`` problem with its closed-form minimum as ``min_f``.

    A_h is positive definite, so the inner minimizer is unique,
    w(lam) = A_h^-1 (B_h lam + d_h) = u lam + v + c_g, and the outer
    objective 1/2 (u lam + v)' A_g (u lam + v) is least at
    lam = -u'A_g v / u'A_g u.
    """
    rng = np.random.default_rng(0)
    M, N = rng.normal(0, 0.5, (2, 2, 2))
    A_h, A_g = M @ M.T + np.eye(2), N @ N.T + np.eye(2)
    B_h, d_h, c_g = rng.normal(0, 0.5, (2, 1)), rng.normal(0, 0.3, 2), rng.normal(0, 0.3, 2)
    u, v = np.linalg.solve(A_h, B_h[:, 0]), np.linalg.solve(A_h, d_h) - c_g
    lam = -(u @ A_g @ v) / (u @ A_g @ u)
    # the minimizer lies well inside the grid's box
    assert abs(lam) < 1.5 and np.all(np.abs(u * lam + v + c_g) < 1.5)
    p = bl.make_quadratic(bl.QuadraticBilevelSpec(A_h=A_h, B_h=B_h, d_h=d_h, A_g=A_g, c_g=c_g),
                          name="drawn")
    p.answers["min_f"] = 0.5 * (v @ A_g @ v - (u @ A_g @ v) ** 2 / (u @ A_g @ u))
    return p


class TestModelFreeChecks:
    """Only the reverse-vs-FD check reads a model; the others run once per problem."""

    def test_drawn_two_plus_one_quadratic_runs_its_grid_in_under_a_second(self):
        # the grid evaluates h 401^3 times, in stacks through h_value;
        # row by row it took about 11 minutes.  CPU time, so that other
        # processes on the machine do not count
        p = drawn_two_plus_one()
        started = time.process_time()
        reports = bl.check_suite(p, [CheckConfig(K=20, n_points=2, hg_points=1)])
        elapsed = time.process_time() - started
        assert [r.name for r in reports][-1] == "grid-min-vs-analytic"
        assert all(r.passed for r in reports), [r.to_dict() for r in reports]
        assert elapsed < 1.0

    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_the_model_picks_the_checks(self, name):
        # cheap configs: the rows asked for, not their values, are under test
        p = bl.zoo_problem(name).problem
        zoo = ZOO_DEFAULTS[name]
        cheap = dict(K=2, n_points=1, hg_points=1, t=zoo["t"], s=zoo["s"])
        improved, basic = (bl.check_suite(p, [CheckConfig(mode=mode, **cheap)])
                           for mode in bl.bigsam.MODES)
        grid = ["grid-min-vs-analytic"] if max(p.dims) <= 2 else []
        assert [r.name for r in improved] == ["first-order-vs-fd", "vjp-vs-fd",
                                              "reverse-vs-fd-hypergradient"] + grid
        assert [r.name for r in basic] == ["reverse-vs-fd-hypergradient"]

    @pytest.mark.parametrize("name", ["closedform_quadratic", "degenerate_quadratic"])
    def test_the_basic_bundle_runs_the_reverse_check_alone(self, name):
        basic = bl.default_check_configs(name)[1]
        reports = bl.check_suite(bl.zoo_problem(name).problem, [basic])
        assert [r.name for r in reports] == ["reverse-vs-fd-hypergradient"]
        assert reports[0].passed
        assert {d["mode"] for d in reports[0].details} == {"basic"}

    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_each_check_is_asked_for_once_per_problem(self, name, monkeypatch):
        # stand-ins record what each default bundle asks for, without running it
        asked = []
        for check in ("_check_first_order", "_check_vjps", "_check_reverse", "_check_grid"):
            monkeypatch.setattr(oracles, check,
                                lambda problem, cfg, check=check: asked.append((check, cfg.mode)))
        assert bl.check_suite(bl.zoo_problem(name).problem, bl.default_check_configs(name)) == []
        assert asked == [("_check_first_order", "improved"), ("_check_vjps", "improved"),
                         ("_check_reverse", "improved"), ("_check_grid", "improved"),
                         ("_check_reverse", "basic")]


class TestDefaultCheckConfigs:
    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_one_bundle_per_model_at_the_zoo_step_sizes(self, name):
        improved, basic = bl.default_check_configs(name)
        assert (improved.mode, basic.mode) == bl.bigsam.MODES == ("improved", "basic")
        zoo = ZOO_DEFAULTS[name]
        for cfg in (improved, basic):
            assert (cfg.t, cfg.s) == (zoo["t"], zoo["s"])
        # the bundles differ in the model alone, which picks the checks
        assert dataclasses.replace(basic, mode="improved") == improved


class TestCheckConfigFailsClosed:
    """A config that would check nothing, or against nothing, is refused at construction."""

    @pytest.mark.parametrize("counts", [dict(n_points=0), dict(hg_points=0),
                                        dict(n_points=0, hg_points=0), dict(n_points=-2),
                                        dict(hg_points=1.5)])
    def test_zero_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="must be an integer of at least 1"):
            CheckConfig(**counts)

    @pytest.mark.parametrize("field", ["tol_grad", "tol_vjp", "tol_hg"])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-4])
    def test_tolerance_must_be_finite_and_positive(self, field, tol):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            CheckConfig(**{field: tol})

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            CheckConfig(mode="augmented")

    @pytest.mark.parametrize("solve, message", [(dict(K=-1), "K must be an integer"),
                                                (dict(K=2.5), "K must be an integer")])
    def test_bad_inner_solve_rejected(self, solve, message):
        with pytest.raises(ValueError, match=message):
            CheckConfig(**solve)

    @pytest.mark.parametrize("field", ["t", "s"])
    @pytest.mark.parametrize("value", [0.0, -0.1, float("inf"), float("nan")])
    def test_step_sizes_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive, got"):
            CheckConfig(**{field: value})

    def test_integral_counts_become_ints(self):
        cfg = CheckConfig(n_points=3.0, hg_points=2.0)
        assert (cfg.n_points, cfg.hg_points) == (3, 2)
        assert type(cfg.n_points) is int and type(cfg.hg_points) is int

    def test_inner_spec_uses_the_default_exponent(self):
        spec = CheckConfig(K=7, t=0.2, s=0.3).inner_spec()
        assert spec == bl.InnerSolveSpec(K=7, t=0.2, s=0.3)
        assert spec.alpha_exponent == bl.bigsam.ALPHA_EXPONENT == 0.25
        # the basic model solves with exponent 0
        basic = CheckConfig(K=7, t=0.2, s=0.3, mode="basic").inner_spec()
        assert basic == bl.InnerSolveSpec(K=7, t=0.2, s=0.3, alpha_exponent=0.0)


class TestValuesAreRefereed:
    """The values a problem states are the ones the referee checks.

    A ``replace`` copy of a zoo problem whose h or g is off by a factor of
    1 + 1e-3 fails at least one report of a small improved bundle.
    """

    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_a_scaled_value_fails_the_suite(self, name):
        p = bl.zoo_problem(name).problem
        cfg = dataclasses.replace(bl.default_check_configs(name)[0], n_points=2, hg_points=1)
        assert cfg.mode == "improved"
        assert all(r.passed for r in bl.check_suite(p, [cfg]))
        for value in ("h_value", "g_value"):
            exact = getattr(p, value)
            scaled = dataclasses.replace(
                p, **{value: lambda W, lam: (1.0 + 1e-3) * exact(W, lam)})
            failed = [r.name for r in bl.check_suite(scaled, [cfg]) if not r.passed]
            assert failed, value


def nan_g(problem):
    """A ``replace`` copy whose g is NaN everywhere; its gradients stay finite."""
    return dataclasses.replace(problem, g_value=lambda W, lam: np.full(len(W), np.nan))


def strict_json(doc):
    """json.dumps that refuses NaN and inf, as strict JSON does."""
    return json.dumps(doc, allow_nan=False)


class TestNonFiniteErrorsFail:
    """A NaN per-point error fails its report; ``max`` would have dropped it."""

    def test_nan_g_fails_the_first_order_check(self):
        from bilevelopt.oracles import _check_first_order
        p = nan_g(bl.make_degenerate_quadratic())
        rep = _check_first_order(p, bl.default_check_configs("degenerate_quadratic")[0])
        assert not rep.passed and np.isnan(rep.max_rel_err)
        doc = rep.to_dict()
        assert doc["max_rel_err"] == "nan" and doc["passed"] is False
        assert {"gradient": "grad1_g", "rel_err": "nan"} in doc["details"]
        strict_json(doc)

    def test_nan_g_stops_the_suite_at_the_fd_referee(self):
        p = nan_g(bl.make_degenerate_quadratic())
        with pytest.raises(bl.OracleDivergence, match=r"g non-finite at probe lam\+eps\*e_0"):
            bl.check_suite(p, bl.default_check_configs("degenerate_quadratic"))

    def test_nan_vjp_fails_the_vjp_check(self):
        from bilevelopt.oracles import _check_vjps
        p = bl.make_degenerate_quadratic()
        bad = dataclasses.replace(p, vjp11_g=lambda a, w, lam: np.full(2, np.nan))
        rep = _check_vjps(bad, CheckConfig(n_points=3))
        assert not rep.passed and np.isnan(rep.max_rel_err)
        strict_json(rep.to_dict())

    def test_wrong_shaped_vjp_fails_the_vjp_check(self):
        # one entry too many broadcasts against the FD VJP of the scalar instance
        from bilevelopt.oracles import _check_vjps
        p = bl.make_closedform_quadratic()
        bad = dataclasses.replace(p, vjp11_g=lambda a, w, lam: np.append(p.vjp11_g(a, w, lam),
                                                                         0.0))
        rep = _check_vjps(bad, CheckConfig(n_points=3))
        assert rep.name == "vjp-vs-fd" and not rep.passed
        assert rep.max_rel_err == np.inf
        assert _check_vjps(dataclasses.replace(p), CheckConfig(n_points=3)).passed

    def test_wrong_shaped_hypergradient_fails_the_reverse_check(self):
        # g's lam-gradient of the wrong shape: the reverse pass returns an
        # empty hypergradient, which would broadcast against the FD one
        bad = dataclasses.replace(bl.make_closedform_quadratic(),
                                  grad2_g=lambda w, lam: np.zeros(0))
        reports = {r.name: r for r in bl.check_suite(bad, [CheckConfig(K=10, hg_points=2)])}
        rep = reports["reverse-vs-fd-hypergradient"]
        assert not rep.passed and rep.max_rel_err == np.inf
        assert rep.to_dict()["max_rel_err"] == "inf"

    def test_nan_error_fails_the_reverse_check(self, monkeypatch):
        from bilevelopt import oracles
        real = oracles.reverse_hypergradient
        calls = []

        def second_is_nan(problem, tape):
            calls.append(1)
            G = real(problem, tape)
            return np.full_like(G, np.nan) if len(calls) == 2 else G

        monkeypatch.setattr(oracles, "reverse_hypergradient", second_is_nan)
        rep = oracles._check_reverse(bl.make_closedform_quadratic(),
                                     CheckConfig(K=10, hg_points=3))
        assert not rep.passed and np.isnan(rep.max_rel_err)
        assert [d["rel_err"] for d in rep.to_dict()["details"]][1] == "nan"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_errors_fail(self, value):
        rep = OracleReport("x", "p", float(value), 1e-6)
        assert rep.passed is False and rep.to_dict()["passed"] is False

    def test_an_error_at_the_tolerance_passes(self):
        rep = OracleReport("x", "p", 1e-6, 1e-6)
        assert rep.passed is True and rep.to_dict()["passed"] is True
        assert OracleReport("x", "p", np.nextafter(1e-6, 1.0), 1e-6).passed is False

    def test_the_verdict_follows_the_error(self):
        # ``passed`` is read off the error and the tolerance, never stored
        rep = OracleReport("x", "p", 1e-9, 1e-6)
        assert rep.passed
        assert not dataclasses.replace(rep, max_rel_err=1e-3).passed
        assert not dataclasses.replace(rep, tolerance=1e-12).passed
        with pytest.raises(TypeError):
            OracleReport("x", "p", 1e-9, 1e-6, passed=False)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_errors_encode_as_strings(self, value):
        rep = OracleReport("x", "p", float(value), 1e-6, ({"rel_err": float(value)},))
        doc = rep.to_dict()
        assert doc["max_rel_err"] == repr(float(value)) == doc["details"][0]["rel_err"]
        strict_json(doc)

    def test_finite_values_encode_as_before(self):
        rep = OracleReport("x", "p", 1.25e-12, 1e-6,
                           ({"mode": "basic", "K": 5, "rel_err": 3.5e-13},))
        assert json.dumps(rep.to_dict()) == json.dumps(
            {"name": "x", "problem": "p", "max_rel_err": 1.25e-12, "tolerance": 1e-6,
             "passed": True, "details": [{"mode": "basic", "K": 5, "rel_err": 3.5e-13}]})

    def test_check_writes_strict_json(self, tmp_path, monkeypatch):
        from bilevelopt import cli
        monkeypatch.setattr(cli, "check_suite", lambda problem, configs: [
            OracleReport("first-order-vs-fd", problem.name, float("nan"), 1e-6,
                         ({"gradient": "grad1_g", "rel_err": float("nan")},))])
        out = tmp_path / "report.json"
        assert cli.main(["check", "--problem", "closedform_quadratic", "--out", str(out)]) == 1

        def refuse(token):
            raise AssertionError(f"non-standard JSON token {token}")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert doc["all_pass"] is False and doc["reports"][0]["max_rel_err"] == "nan"


class TestGridNonFinite:
    """The grid referee reports a non-finite h or g as a divergence."""

    def test_nan_h_raises(self):
        p = bl.make_degenerate_quadratic()
        bad = dataclasses.replace(p, h_value=lambda W, lam: np.where(W[:, 0] > 1.0, np.nan,
                                                                     p.h_value(W, lam)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bl.OracleDivergence, match="h non-finite on the grid"):
                bl.grid_min_oracle(bad, [(-2, 2)], [(-2, 2), (-2, 2)], 21)

    def test_nan_g_on_the_argmin_set_raises(self):
        p = bl.make_degenerate_quadratic()
        with pytest.raises(bl.OracleDivergence, match="g non-finite on the argmin set"):
            bl.grid_min_oracle(nan_g(p), [(-2, 2)], [(-2, 2), (-2, 2)], 21)

    @pytest.mark.parametrize("oracle, message", [
        ("h_value", r"^h_value on 441 rows returned shape \(\), not \(441,\)$"),
        ("g_value", r"^g_value on 21 rows returned shape \(\), not \(21,\)$")])
    def test_scalar_nan_is_refused_as_the_wrong_shape(self, oracle, message):
        # a value that returns one 0-d NaN for the whole stack is refused
        # before it could broadcast; g sees the 21 members of the argmin
        # line w1 = lam = -2
        bad = dataclasses.replace(bl.make_degenerate_quadratic(),
                                  **{oracle: lambda W, lam: float("nan")})
        with pytest.raises(ValueError, match=message):
            bl.grid_min_oracle(bad, [(-2, 2)], [(-2, 2), (-2, 2)], 21)

    def test_nan_g_off_the_argmin_set_is_not_read(self):
        # g is NaN only where w1 > 1.5, off every argmin line w1 = lam in [-1, 1]
        p = bl.make_degenerate_quadratic()
        bad = dataclasses.replace(p, g_value=lambda W, lam: np.where(W[:, 0] > 1.5, np.nan,
                                                                     p.g_value(W, lam)))
        want = bl.grid_min_oracle(p, [(-1, 1)], [(-2, 2), (-2, 2)], 21)
        got = bl.grid_min_oracle(bad, [(-1, 1)], [(-2, 2), (-2, 2)], 21)
        assert got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])

    def test_nan_h_stops_the_suite(self):
        p = bl.make_closedform_quadratic()
        bad = dataclasses.replace(p, h_value=lambda W, lam: np.full(len(W), np.nan))
        with pytest.raises(bl.OracleDivergence, match="h non-finite on the grid"):
            bl.check_suite(bad, [CheckConfig(K=10, hg_points=1, n_points=1)])
