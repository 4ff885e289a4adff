"""Brute-force referees: grid minimum and the aggregated check suite."""

import dataclasses

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt.oracles import CheckConfig


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
        p = bl.make_degenerate_quadratic()
        cfg = [CheckConfig(K=15, hg_points=2, n_points=3, seed=9)]
        a = bl.check_suite(p, cfg)
        b = bl.check_suite(p, cfg)
        assert [(r.name, r.max_rel_err) for r in a] == [(r.name, r.max_rel_err) for r in b]
