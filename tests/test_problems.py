"""The problem zoo: attached answers, learning objectives, gradients."""

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt.data import corrupt_labels, gen_synthetic, make_episodes, split
from bilevelopt.problems import sample_losses, sigmoid, softmax


class TestClosedFormQuadratic:
    def setup_method(self):
        self.p = bl.make_closedform_quadratic()

    def test_attached_answers(self):
        ans = self.p.answers
        assert ans["inner_solution"](np.array([3.0])) == pytest.approx(3.0)
        assert ans["f"](np.array([0.0])) == 0.0
        assert ans["grad_f"](np.array([2.0])) == pytest.approx(2.0)
        assert ans["min_f"] == 0.0

    def test_values(self):
        w, lam = np.array([1.5]), np.array([0.5])
        assert self.p.h_value(w, lam) == pytest.approx(0.5)
        assert self.p.g_value(w, lam) == pytest.approx(1.125)

    def test_batch_evaluators_agree_with_scalar(self):
        W = np.array([[0.0], [1.0], [-2.0]])
        lam = np.array([0.5])
        hb = self.p.h_batch(W, lam)
        gb = self.p.g_batch(W, lam)
        for i, w in enumerate(W):
            assert hb[i] == pytest.approx(self.p.h_value(w, lam))
            assert gb[i] == pytest.approx(self.p.g_value(w, lam))


class TestDegenerateQuadratic:
    def test_attached_answers_realize_the_gap(self):
        p = bl.make_degenerate_quadratic()
        lam = np.array([0.7])
        imp = p.answers["inner_solution_improved"](lam)
        bas = p.answers["inner_solution_basic"](lam)
        assert p.g_value(imp, lam) == pytest.approx(0.5 * 0.49)
        assert p.g_value(bas, lam) == pytest.approx(0.5 * 0.49 + 0.5)
        assert p.answers["min_f_improved"] == 0.0
        assert p.answers["min_f_basic"] == 0.5
        assert p.answers["formulation_gap"] == 0.5

    def test_inner_objective_ignores_second_coordinate(self):
        p = bl.make_degenerate_quadratic()
        lam = np.array([0.3])
        a = p.h_value(np.array([0.1, -5.0]), lam)
        b = p.h_value(np.array([0.1, 17.0]), lam)
        assert a == b
        assert p.grad1_h(np.array([0.1, 9.0]), lam)[1] == 0.0


class TestGeneralQuadratic:
    def test_random_instance_passes_first_order_and_vjp_checks(self):
        rng = np.random.default_rng(12)
        n, m = 3, 2
        M = rng.normal(size=(n, n))
        A_h = M @ M.T
        # deflate one direction to make the inner form singular
        evals, evecs = np.linalg.eigh(A_h)
        evals[0] = 0.0
        A_h = (evecs * evals) @ evecs.T
        A_h = 0.5 * (A_h + A_h.T)
        N = rng.normal(size=(n, n))
        A_g = N @ N.T + 0.5 * np.eye(n)
        spec = bl.QuadraticBilevelSpec(A_h=A_h, B_h=rng.normal(size=(n, m)),
                                       d_h=rng.normal(size=n), A_g=A_g,
                                       c_g=rng.normal(size=n))
        p = bl.make_quadratic(spec)
        rep = bl.validate_first_order(p, rng.normal(size=n), rng.normal(size=m))
        assert rep.passed
        tape = bl.solve_inner(p, rng.normal(size=m), bl.InnerSolveSpec(K=30, t=0.05, s=0.05))
        got = bl.reverse_hypergradient(p, tape)
        want = bl.hypergradient_fd_oracle(p, tape.lam, bl.InnerSolveSpec(K=30, t=0.05, s=0.05))
        assert np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)) < 1e-6

    def test_spec_validation(self):
        eye = np.eye(2)
        with pytest.raises(ValueError):
            bl.QuadraticBilevelSpec(A_h=-eye, B_h=np.ones((2, 1)), d_h=np.zeros(2),
                                    A_g=eye, c_g=np.zeros(2))
        with pytest.raises(ValueError):
            bl.QuadraticBilevelSpec(A_h=eye, B_h=np.ones((2, 1)), d_h=np.zeros(2),
                                    A_g=0.0 * eye, c_g=np.zeros(2))


def small_clean_problem(seed=0, rho=0.5):
    ds = gen_synthetic(seed, 120, 6, 2, 3.0)
    train, val = split(ds, 40, 40, seed)
    train = corrupt_labels(train, rho, seed)
    return bl.make_hypercleaning(train, val), train


class TestHypercleaning:
    def test_strongly_negative_weights_silence_the_loss(self):
        p, train = small_clean_problem()
        w = np.random.default_rng(0).normal(0, 0.5, p.inner_dim)
        lam = np.full(p.outer_dim, -20.0)
        total = p.answers["train_losses"](w).sum()
        assert p.h_value(w, lam) < 1e-8 * total

    def test_zero_weights_halve_the_loss_sum(self):
        p, _ = small_clean_problem()
        w = np.random.default_rng(1).normal(0, 0.5, p.inner_dim)
        lam = np.zeros(p.outer_dim)
        assert p.h_value(w, lam) == pytest.approx(
            0.5 * p.answers["train_losses"](w).sum(), rel=1e-12)

    def test_gradients_match_fd_at_random_points(self):
        p, _ = small_clean_problem()
        rng = np.random.default_rng(2)
        rep = bl.validate_first_order(p, rng.normal(0, 0.3, p.inner_dim),
                                      rng.normal(0, 0.3, p.outer_dim),
                                      eps=1e-5, tol=1e-5)
        assert rep.passed

    def test_weight_gradient_closed_form(self):
        # dh/dlam_i = sigmoid'(lam_i) * loss_i
        p, _ = small_clean_problem()
        rng = np.random.default_rng(3)
        w = rng.normal(0, 0.4, p.inner_dim)
        lam = rng.normal(0, 0.7, p.outer_dim)
        got = p.answers["grad2_h"](w, lam)
        eps = 1e-6
        for j in (0, 7, 23):
            e = np.zeros(p.outer_dim)
            e[j] = eps
            fd = (p.h_value(w, lam + e) - p.h_value(w, lam - e)) / (2 * eps)
            assert got[j] == pytest.approx(fd, rel=1e-6)

    def test_h_monotone_in_each_weight(self):
        p, _ = small_clean_problem()
        rng = np.random.default_rng(4)
        w = rng.normal(0, 0.4, p.inner_dim)
        lam = rng.normal(0, 0.5, p.outer_dim)
        base = p.h_value(w, lam)
        bump = lam.copy()
        bump[5] += 0.5
        assert p.h_value(w, bump) > base  # losses are positive
        assert p.h_value(w, lam) >= 0.0

    def test_class_count_mismatch_rejected(self):
        ds = gen_synthetic(0, 60, 6, 2, 3.0)
        ds3 = gen_synthetic(0, 60, 6, 3, 3.0)
        with pytest.raises(ValueError, match="bad-label"):
            bl.make_hypercleaning(ds, ds3)

    def test_f1_metric_flags_negative_weights(self):
        _, train = small_clean_problem()
        metric = bl.hyperclean_f1_metric(train.mask)
        lam = np.where(train.mask, -1.0, 1.0)
        assert metric(None, lam) == 1.0


def tiny_episode_problem(seed=0, way=3, shot=2, vpc=4, tasks=3, d=8, r=4):
    ds = gen_synthetic(seed, 240, d, 6, 3.0)
    eps = make_episodes(ds, way, shot, vpc, tasks, seed)
    return bl.make_hyperrep(eps, r), eps


class TestHyperrep:
    def test_identity_map_reduces_to_plain_softmax_regression(self):
        # single task, square representation fixed at the identity: the inner
        # objective is the unweighted sum of sample losses on raw features
        ds = gen_synthetic(1, 120, 5, 5, 3.0)
        eps = make_episodes(ds, 5, 3, 4, 1, 1)
        p = bl.make_hyperrep(eps, rep_dim=5)
        lam = np.eye(5).ravel()
        rng = np.random.default_rng(5)
        w = rng.normal(0, 0.4, p.inner_dim)
        e = eps.episodes[0]
        Y = np.eye(5)[e.y_tr]
        direct = sample_losses(e.X_tr @ w.reshape(5, 5), Y).sum()
        assert p.h_value(w, lam) == pytest.approx(direct, rel=1e-12)

    def test_zero_representation_gives_log_way_loss(self):
        p, eps = tiny_episode_problem()
        w = np.random.default_rng(6).normal(0, 0.3, p.inner_dim)
        n_train = sum(len(e.y_tr) for e in eps.episodes)
        assert p.h_value(w, np.zeros(p.outer_dim)) == pytest.approx(
            n_train * np.log(eps.way), rel=1e-12)

    def test_task_blocks_are_independent(self):
        p, eps = tiny_episode_problem()
        rng = np.random.default_rng(7)
        w = rng.normal(0, 0.3, p.inner_dim)
        lam = rng.normal(0, 0.3, p.outer_dim)
        block = p.answers["rep_dim"] * eps.way
        grad = p.grad1_h(w, lam)
        # perturbing task 2's head leaves other blocks' gradients unchanged
        w2 = w.copy()
        w2[2 * block:3 * block] += rng.normal(0, 0.5, block)
        grad2 = p.grad1_h(w2, lam)
        assert np.array_equal(grad[:2 * block], grad2[:2 * block])
        assert not np.array_equal(grad[2 * block:3 * block],
                                  grad2[2 * block:3 * block])

    def test_first_order_gradients(self):
        p, _ = tiny_episode_problem()
        rng = np.random.default_rng(8)
        rep = bl.validate_first_order(p, rng.normal(0, 0.2, p.inner_dim),
                                      rng.normal(0, 0.2, p.outer_dim),
                                      eps=1e-5, tol=1e-5)
        assert rep.passed

    def test_mismatched_episodes_rejected(self):
        from bilevelopt.data import Episode, EpisodeSet
        e1 = Episode(np.zeros((2, 4)), np.array([0, 1]),
                     np.zeros((3, 4)), np.array([0, 1, 1]))
        e2 = Episode(np.zeros((3, 4)), np.array([0, 1, 1]),
                     np.zeros((3, 4)), np.array([0, 1, 1]))
        bad = EpisodeSet(episodes=[e1, e2], way=2, shot=2, val_per_class=2)
        with pytest.raises(ValueError, match="bad-episode"):
            bl.make_hyperrep(bad, 2)

    def test_accuracy_metric_range_and_determinism(self):
        p, eps = tiny_episode_problem()
        metric = bl.hyperrep_accuracy_metric(eps, p.answers["rep_dim"])
        rng = np.random.default_rng(9)
        w = rng.normal(0, 0.3, p.inner_dim)
        lam = rng.normal(0, 0.3, p.outer_dim)
        acc = metric(w, lam)
        assert 0.0 <= acc <= 1.0
        assert metric(w, lam) == acc


class TestNumericsHelpers:
    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert out[0] == 0.0
        assert out[1] == 0.5
        assert out[2] == 1.0
        assert np.all(np.isfinite(out))

    def test_softmax_rows_sum_to_one(self):
        Z = np.random.default_rng(0).normal(0, 50, (20, 4))
        P = softmax(Z)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=1e-12)

    def test_sample_losses_uniform_case(self):
        Z = np.zeros((5, 4))
        Y = np.eye(4)[np.zeros(5, dtype=int)]
        np.testing.assert_allclose(sample_losses(Z, Y), np.log(4.0))


class TestZooRegistry:
    def test_names_and_determinism(self):
        for name in bl.ZOO_NAMES:
            a = bl.zoo_problem(name, seed=5)
            b = bl.zoo_problem(name, seed=5)
            assert np.array_equal(a.lam0, b.lam0)
            assert a.defaults == b.defaults

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            bl.zoo_problem("nonexistent")

    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_first_order_validation_over_seeded_points(self, name):
        problem = bl.zoo_problem(name).problem
        rng = np.random.default_rng(100)
        n, m = problem.dims
        for _ in range(10):
            w = rng.normal(size=n)
            w /= max(1.0, np.linalg.norm(w))
            lam = rng.normal(size=m)
            lam /= max(1.0, np.linalg.norm(lam))
            rep = bl.validate_first_order(problem, w, lam, tol=1e-6)
            assert rep.passed, (name, rep.max_errors())

    def test_modes_converge_to_attached_solutions_at_outer_optimum(self):
        # at lam = 0 the averaged dynamics' limit coincides with the attached
        # formulation-level solution for both named quadratics
        spec = bl.InnerSolveSpec(K=5000, t=0.1, s=0.1)
        basic = bl.InnerSolveSpec(K=5000, t=0.1, s=0.1, alpha_exponent=0.0)
        lam = np.zeros(1)
        p = bl.make_closedform_quadratic()
        out = bl.solve_inner(p, lam, spec).final
        np.testing.assert_allclose(out, p.answers["inner_solution"](lam), atol=1e-3)
        q = bl.make_degenerate_quadratic()
        out = bl.solve_inner(q, lam, spec).final
        np.testing.assert_allclose(out, q.answers["inner_solution_improved"](lam),
                                   atol=1e-3)
        out = bl.solve_inner(q, lam, basic).final
        np.testing.assert_allclose(out, q.answers["inner_solution_basic"](lam),
                                   atol=1e-3)
        # away from the optimum the basic attachments still hold for any lam
        lam = np.array([1.0])
        out = bl.solve_inner(q, lam, basic).final
        np.testing.assert_allclose(out, q.answers["inner_solution_basic"](lam),
                                   atol=1e-3)
