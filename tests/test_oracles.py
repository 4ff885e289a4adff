"""Brute-force referees: grid minimum and the aggregated check suite."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt.oracles import CheckConfig, OracleReport


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
            h_value=lambda w, lam: float(w[0] ** 2),
            g_value=lambda w, lam: 3.25,
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
        assert [(r.name, r.max_rel_err) for r in a] == [(r.name, r.max_rel_err) for r in b]
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


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


def nan_g(problem):
    """A ``replace`` copy whose g is NaN everywhere; its gradients stay finite."""
    return dataclasses.replace(problem, g_value=lambda w, lam: float("nan"),
                               g_batch=lambda W, lam: np.full(len(W), np.nan))


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

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_errors_encode_as_strings(self, value):
        rep = OracleReport("x", "p", float(value), 1e-6, False, ({"rel_err": float(value)},))
        doc = rep.to_dict()
        assert doc["max_rel_err"] == repr(float(value)) == doc["details"][0]["rel_err"]
        strict_json(doc)

    def test_finite_values_encode_as_before(self):
        rep = OracleReport("x", "p", 1.25e-12, 1e-6, True,
                           ({"mode": "basic", "K": 5, "rel_err": 3.5e-13},))
        assert json.dumps(rep.to_dict()) == json.dumps(
            {"name": "x", "problem": "p", "max_rel_err": 1.25e-12, "tolerance": 1e-6,
             "passed": True, "details": [{"mode": "basic", "K": 5, "rel_err": 3.5e-13}]})

    def test_check_writes_strict_json(self, tmp_path, monkeypatch):
        from bilevelopt import cli
        monkeypatch.setattr(cli, "check_suite", lambda problem, configs: [
            OracleReport("first-order-vs-fd", problem.name, float("nan"), 1e-6, False,
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
        bad = dataclasses.replace(p, h_batch=lambda W, lam: np.where(W[:, 0] > 1.0, np.nan,
                                                                     p.h_batch(W, lam)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bl.OracleDivergence, match="h non-finite on the grid"):
                bl.grid_min_oracle(bad, [(-2, 2)], [(-2, 2), (-2, 2)], 21)

    def test_nan_g_on_the_argmin_set_raises(self):
        p = bl.make_degenerate_quadratic()
        with pytest.raises(bl.OracleDivergence, match="g non-finite on the argmin set"):
            bl.grid_min_oracle(nan_g(p), [(-2, 2)], [(-2, 2), (-2, 2)], 21)

    def test_nan_g_off_the_argmin_set_is_not_read(self):
        # g is NaN only where w1 > 1.5, off every argmin line w1 = lam in [-1, 1]
        p = bl.make_degenerate_quadratic()
        bad = dataclasses.replace(p, g_batch=lambda W, lam: np.where(W[:, 0] > 1.5, np.nan,
                                                                     p.g_batch(W, lam)))
        want = bl.grid_min_oracle(p, [(-1, 1)], [(-2, 2), (-2, 2)], 21)
        got = bl.grid_min_oracle(bad, [(-1, 1)], [(-2, 2), (-2, 2)], 21)
        assert got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])

    def test_nan_h_stops_the_suite(self):
        p = bl.make_closedform_quadratic()
        bad = dataclasses.replace(p, h_batch=lambda W, lam: np.full(len(W), np.nan))
        with pytest.raises(bl.OracleDivergence, match="h non-finite on the grid"):
            bl.check_suite(bad, [CheckConfig(K=10, hg_points=1, n_points=1, run_grid=True)])
