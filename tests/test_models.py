"""Outer-loop drivers: traces, determinism, ablations, divergence handling."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt.models import ablation_config


def outer_reference(problem, lam0, config):
    """Independent outer loop reusing only the low-level pieces."""
    lam = np.array(lam0, dtype=float)
    for it in range(config.T):
        # the basic model solves with exponent 0
        expo = 0.0 if config.mode == "basic" else config.alpha_exponent
        spec = bl.InnerSolveSpec(K=config.K, t=config.t, s=config.s, alpha_exponent=expo,
                                 bigsam_frequency=config.bigsam_frequency)
        tape = bl.solve_inner(problem, lam, spec)
        G = bl.reverse_hypergradient(problem, tape)
        if it < config.T - 1:
            lam = lam - config.eta * G
    return lam, float(problem.g_value(tape.final, lam))


class TestRunModel:
    def test_record_count_and_updates(self):
        p = bl.make_closedform_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=10, T=7)
        trace = bl.run_model(p, np.array([2.0]), cfg)
        assert len(trace.records) == 7
        assert [r.index for r in trace.records] == list(range(7))

    def test_t_one_performs_no_update(self):
        p = bl.make_closedform_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=10, T=1)
        trace = bl.run_model(p, np.array([2.0]), cfg)
        assert len(trace.records) == 1
        assert np.array_equal(trace.final_lambda, np.array([2.0]))

    def test_matches_reference_loop(self):
        p = bl.make_degenerate_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=50, T=20)
        trace = bl.run_model(p, np.array([1.0]), cfg)
        lam_ref, obj_ref = outer_reference(p, [1.0], cfg)
        assert np.array_equal(trace.final_lambda, lam_ref)
        assert trace.final_outer_value == obj_ref

    def test_basic_closedform_drives_outer_variable_home(self):
        # with the inner problem solved to convergence the exact outer
        # gradient is lam, so eta = 0.5 halves lam every update
        p = bl.make_closedform_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=2000, T=20, mode="basic")
        trace = bl.run_model(p, np.array([2.0]), cfg)
        assert abs(trace.final_lambda[0]) < 1e-3
        assert trace.final_outer_value < 1e-3

    def test_improved_closedform_outer_progress_is_damped(self):
        # the averaged inner solve leaves the iterate at the blend point, so
        # the unrolled gradient is roughly alpha_K^2 * lam and T=20 is far
        # from enough to reach the optimum (value frozen from the reference
        # loop, which agrees with the driver bit for bit)
        p = bl.make_closedform_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=2000, T=20, mode="improved")
        trace = bl.run_model(p, np.array([2.0]), cfg)
        lam_ref, obj_ref = outer_reference(p, [2.0], cfg)
        assert np.array_equal(trace.final_lambda, lam_ref)
        assert trace.final_lambda[0] == pytest.approx(1.6145, abs=5e-4)
        assert trace.final_outer_value == pytest.approx(obj_ref)

    def test_degenerate_gap_between_modes(self):
        p = bl.make_degenerate_quadratic()
        kw = dict(t=0.1, s=0.1, eta=0.5, K=5000, T=50)
        imp = bl.run_model(p, np.array([1.0]), bl.SolveConfig(mode="improved", **kw))
        bas = bl.run_model(p, np.array([1.0]), bl.SolveConfig(mode="basic", **kw))
        # basic stays on the inner-only solution: w2 frozen at 0 costs 1/2
        assert bas.final_outer_value == pytest.approx(0.5, abs=1e-6)
        # the averaged solve resolves the free coordinate; the outer descent
        # at this lam0 leaves a small residual in w1
        assert imp.final_outer_value == pytest.approx(3.53e-3, rel=0.05)
        assert imp.final_outer_value < bas.final_outer_value

    def test_determinism_bit_identical(self):
        inst = bl.zoo_problem("hyperclean_synthetic", seed=0)
        cfg = bl.SolveConfig(t=0.01, s=0.001, eta=1.0, K=20, T=10)
        one = bl.run_model(inst.problem, inst.lam0, cfg, metric=inst.metric,
                           collect_timing=False)
        two = bl.run_model(inst.problem, inst.lam0, cfg, metric=inst.metric,
                           collect_timing=False)
        assert one.records == two.records
        assert np.array_equal(one.final_lambda, two.final_lambda)
        assert np.array_equal(one.final_omega, two.final_omega)

    def test_metric_evaluated_each_iteration(self):
        inst = bl.zoo_problem("hyperclean_synthetic", seed=0)
        calls = []

        def probe(omega, lam):
            calls.append(lam.copy())
            return float(len(calls))

        cfg = bl.SolveConfig(t=0.01, s=0.001, eta=1.0, K=5, T=4)
        trace = bl.run_model(inst.problem, inst.lam0, cfg, metric=probe)
        assert len(calls) == 4
        assert [r.metric for r in trace.records] == [1.0, 2.0, 3.0, 4.0]

    def test_divergence_carries_iteration_and_partial_trace(self):
        # the poisoned gradient turns non-finite once the outer descent pulls
        # lam below 4, which happens on the second outer iteration here
        p = bl.make_closedform_quadratic()
        booby = dataclasses.replace(
            p,
            grad1_h=lambda w, lam: (w - lam) if lam[0] >= 4.0 else np.array([np.nan]))
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=20, T=50, mode="basic")
        with pytest.raises(bl.OracleDivergence, match="outer iteration 1") as info:
            bl.run_model(booby, np.array([5.0]), cfg)
        exc = info.value
        assert exc.failed_iteration == 1
        assert isinstance(exc.partial_trace, bl.ExperimentTrace)
        assert len(exc.partial_trace.records) == 1
        # the cause is the inner divergence, whose message the error repeats
        assert isinstance(exc.__cause__, bl.OracleDivergence)
        assert str(exc) == f"outer iteration 1: {exc.__cause__}"

    @pytest.mark.parametrize("lam0, failed, what", [
        (2.0, 1, "non-finite outer value and gradient norm"),   # g overflows at lam ~ -1.4e307
        (100.0, 0, "non-finite lam after the outer update"),    # eta * G overflows
    ])
    def test_outer_overflow_is_a_divergence(self, lam0, failed, what):
        p = bl.make_closedform_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=1e308, K=200, T=100)
        with pytest.raises(bl.OracleDivergence, match=f"outer iteration {failed}: .*{what}") as info:
            bl.run_model(p, np.array([lam0]), cfg)
        exc = info.value
        assert exc.failed_iteration == failed
        assert len(exc.partial_trace.records) == 1
        assert np.isfinite(exc.partial_trace.outer_values).all()
        assert isinstance(exc.__cause__, bl.OracleDivergence)

    @pytest.mark.parametrize("bad", ["outer value", "metric"])
    def test_non_finite_record_is_a_divergence(self, bad):
        p = bl.make_closedform_quadratic()
        if bad == "outer value":
            p = dataclasses.replace(
                p, g_value=lambda w, lam: 0.5 * w[0] ** 2 if lam[0] > 1.5 else np.inf)
            metric = None
        else:
            def metric(omega, lam):
                return 1.0 if lam[0] > 1.5 else np.nan
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.1, K=50, T=20)
        with pytest.raises(bl.OracleDivergence, match=f"outer iteration (\\d+): .*{bad}") as info:
            bl.run_model(p, np.array([2.0]), cfg, metric=metric)
        exc = info.value
        assert exc.failed_iteration >= 1
        assert len(exc.partial_trace.records) == exc.failed_iteration
        assert np.isfinite(exc.partial_trace.outer_values).all()
        assert isinstance(exc.__cause__, bl.OracleDivergence)


class TestTapeLifetime:
    @pytest.mark.parametrize("name", ["hyperclean_synthetic", "hyperrep_synthetic"])
    def test_a_tape_is_released_before_the_next_solve(self, name, monkeypatch):
        # a recorded tape holds O(K) saved residuals; two must never be alive together
        from bilevelopt import models
        real = models.solve_inner
        tapes = []

        def spy(*args):
            assert [ref() for ref in tapes] == [None] * len(tapes)
            tape = real(*args)
            assert tape.vjps is not None
            tapes.append(weakref.ref(tape))
            return tape

        monkeypatch.setattr(models, "solve_inner", spy)
        inst = bl.zoo_problem(name)
        d = inst.defaults
        cfg = bl.SolveConfig(t=d["t"], s=d["s"], eta=d["eta"], K=6, T=4)
        gc.collect()
        gc.disable()
        try:
            bl.run_model(inst.problem, inst.lam0, cfg)
        finally:
            gc.enable()
        assert len(tapes) == 4 and tapes[-1]() is None


class TestRunAblation:
    """One ablation cell is ``run_model`` on the config of ``ablation_config``."""

    @staticmethod
    def cells(p, cfg, frequencies):
        return [bl.run_model(p, np.array([1.0]), ablation_config(cfg, f), collect_timing=False)
                for f in frequencies]

    def test_frequency_one_equals_plain_run(self):
        p = bl.make_degenerate_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=60, T=15)
        direct = bl.run_model(p, np.array([1.0]), cfg, collect_timing=False)
        assert ablation_config(cfg, 1) == cfg
        [swept] = self.cells(p, cfg, [1])
        assert swept.records == direct.records
        assert np.array_equal(swept.final_lambda, direct.final_lambda)

    def test_zero_sentinel_runs_basic(self):
        p = bl.make_degenerate_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=60, T=15)
        basic_direct = bl.run_model(p, np.array([1.0]),
                                    dataclasses.replace(cfg, mode="basic"),
                                    collect_timing=False)
        [swept] = self.cells(p, cfg, [0])
        assert swept.records == basic_direct.records

    def test_frequency_beyond_horizon_equals_basic(self):
        p = bl.make_degenerate_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=40, T=10)
        swept = self.cells(p, cfg, [41, 0])
        assert swept[0].records == swept[1].records

    def test_requires_improved_base(self):
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=10, T=3, mode="basic")
        with pytest.raises(ValueError, match="improved"):
            ablation_config(cfg, 1)

    @pytest.mark.parametrize("frequency", [-1, -3])
    def test_negative_frequency_rejected(self, frequency):
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=10, T=3)
        with pytest.raises(ValueError, match="positive integer or the 0 sentinel"):
            ablation_config(cfg, frequency)


class TestMatchedBudgetComparisons:
    def test_unique_minimizer_collapses_the_gap(self):
        # strongly convex inner problem: both formulations share the optimum,
        # so converged runs agree on the outer value
        p = bl.make_closedform_quadratic()
        kw = dict(t=0.1, s=0.1, eta=0.5, K=200, T=400)
        imp = bl.run_model(p, np.array([2.0]), bl.SolveConfig(mode="improved", **kw))
        bas = bl.run_model(p, np.array([2.0]), bl.SolveConfig(mode="basic", **kw))
        assert abs(imp.final_outer_value - bas.final_outer_value) < 1e-4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bl.SolveConfig(t=0.0, s=0.1, eta=0.5, K=10, T=3)
        with pytest.raises(ValueError):
            bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=0, T=3)
        with pytest.raises(ValueError):
            bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=10, T=3, mode="hybrid")

    @pytest.mark.parametrize("field", ["t", "s", "eta"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -0.1])
    def test_step_sizes_must_be_finite_and_positive(self, field, value):
        kw = dict(dict(t=0.1, s=0.1, eta=0.5, K=10, T=3), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive, got"):
            bl.SolveConfig(**kw)
        if field != "eta":
            with pytest.raises(ValueError, match=f"^{field} must be finite and positive, got"):
                bl.InnerSolveSpec(**{k: kw[k] for k in ("K", "t", "s")})

    def test_inner_spec_reads_the_exponent_off_the_mode(self):
        kw = dict(t=0.1, s=0.1, eta=0.5, K=10, T=3, alpha_exponent=0.5, bigsam_frequency=2)
        improved = bl.SolveConfig(**kw).inner_spec()
        basic = bl.SolveConfig(mode="basic", **kw).inner_spec()
        assert improved == bl.InnerSolveSpec(K=10, t=0.1, s=0.1, alpha_exponent=0.5,
                                             bigsam_frequency=2)
        assert basic == dataclasses.replace(improved, alpha_exponent=0.0)

    @pytest.mark.parametrize("field, value", [("K", 20.9), ("T", 2.5), ("bigsam_frequency", 1.5),
                                              ("T", float("nan")), ("K", "20"),
                                              ("seed", 1.7), ("seed", -1)])
    def test_non_integral_counts_rejected(self, field, value):
        kw = dict(dict(t=0.1, s=0.1, eta=0.5, K=10, T=3), **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            bl.SolveConfig(**kw)

    def test_integral_float_counts_become_ints(self):
        p = bl.make_closedform_quadratic()
        cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=200.0, T=3.0, bigsam_frequency=2.0,
                             seed=5.0)
        assert (cfg.K, cfg.T, cfg.bigsam_frequency, cfg.seed) == (200, 3, 2, 5)
        assert all(type(v) is int for v in (cfg.K, cfg.T, cfg.bigsam_frequency, cfg.seed))
        trace = bl.run_model(p, np.array([2.0]), cfg, collect_timing=False)
        same = bl.run_model(p, np.array([2.0]), bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=200, T=3,
                                                                bigsam_frequency=2),
                            collect_timing=False)
        assert trace.records == same.records
