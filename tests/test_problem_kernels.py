"""The learning problems' class-major kernels against row-major reference formulas.

The references below are the straightforward forms of the same objectives:
samples along rows with a trailing class axis for hyper-cleaning, and
three-operand einsum contractions for hyper-representation.  Every oracle
slot of the problems built by ``make_hypercleaning`` and ``make_hyperrep``
must agree with them to rtol 1e-12 (the array's scale is the floor for
entries that pass through zero).  The ``linearize`` hook's step map must
give the slot-built step's results bit for bit on a step with alpha == 1,
and, through ``linearizer``, on a stack of lam rows; agree with them to the
same rtol on an averaged step of one row, where it fuses h and g; and agree
with the finite-difference VJPs.
"""

import dataclasses

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt.bigsam import InnerSolveSpec, schedule, step_weights
from bilevelopt.data import corrupt_labels, gen_synthetic, make_episodes, split
from bilevelopt.problem import fd_vjp
from bilevelopt.problems import sigmoid

RTOL = 1e-12


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


def masked_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def row_softmax(Z):
    Z = Z - Z.max(axis=-1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=-1, keepdims=True)


def row_losses(Z, Y):
    m = Z.max(axis=-1)
    lse = m + np.log(np.exp(Z - m[..., None]).sum(axis=-1))
    return lse - (Z * Y).sum(axis=-1)


def row_jvp(P, dZ):
    return P * dZ - P * (P * dZ).sum(axis=-1, keepdims=True)


class RowMajorHypercleaning:
    """Hyper-cleaning with samples along rows and the class axis last."""

    def __init__(self, train, val, ridge=1e-4):
        C = train.C
        self.Xtr, self.Xva = train.X, val.X
        self.Ytr, self.Yva = np.eye(C)[train.y], np.eye(C)[val.y]
        self.d, self.C, self.ridge = train.d, C, ridge

    def W(self, w):
        return w.reshape(self.d, self.C)

    def train_losses(self, w):
        return row_losses(self.Xtr @ self.W(w), self.Ytr)

    def h_value(self, w, lam):
        return float(masked_sigmoid(lam) @ self.train_losses(w))

    def g_value(self, w, lam):
        return float(row_losses(self.Xva @ self.W(w), self.Yva).sum() + self.ridge * (w @ w))

    def grad2_h(self, w, lam):
        sig = masked_sigmoid(lam)
        return sig * (1.0 - sig) * self.train_losses(w)

    def grad1_h(self, w, lam):
        P = row_softmax(self.Xtr @ self.W(w)) - self.Ytr
        return (self.Xtr.T @ (P * masked_sigmoid(lam)[:, None])).ravel()

    def grad1_g(self, w, lam):
        P = row_softmax(self.Xva @ self.W(w)) - self.Yva
        return (self.Xva.T @ P).ravel() + 2.0 * self.ridge * w

    def vjp11_h(self, a, w, lam):
        P = row_softmax(self.Xtr @ self.W(w))
        dP = row_jvp(P, self.Xtr @ self.W(a)) * masked_sigmoid(lam)[:, None]
        return (self.Xtr.T @ dP).ravel()

    def vjp12_h(self, a, w, lam):
        sig = masked_sigmoid(lam)
        P = row_softmax(self.Xtr @ self.W(w))
        return sig * (1.0 - sig) * ((self.Xtr @ self.W(a)) * (P - self.Ytr)).sum(axis=1)

    def vjp11_g(self, a, w, lam):
        P = row_softmax(self.Xva @ self.W(w))
        return (self.Xva.T @ row_jvp(P, self.Xva @ self.W(a))).ravel() + 2.0 * self.ridge * a

    def grad1_h_many(self, ws, lams):
        return np.stack([self.grad1_h(w, lam) for w, lam in zip(ws, lams)])

    def grad1_g_many(self, ws, lams):
        return np.stack([self.grad1_g(w, lam) for w, lam in zip(ws, lams)])


class EinsumHyperrep:
    """Hyper-representation with samples along rows and einsum contractions."""

    def __init__(self, episodes, rep_dim, ridge=1e-4):
        self.Xtr, self.Xva, self.yva = episodes.X_tr, episodes.X_val, episodes.y_val
        way = episodes.way
        self.Ytr, self.Yva = np.eye(way)[episodes.y_tr], np.eye(way)[self.yva]
        self.T, _, self.d = self.Xtr.shape
        self.r, self.way, self.ridge = rep_dim, way, ridge

    def W(self, w):
        return w.reshape(self.T, self.r, self.way)

    def forward(self, X, w, lam):
        F = X @ lam.reshape(self.d, self.r)
        Z = np.einsum("tnr,trc->tnc", F, self.W(w))
        return F, row_softmax(Z), Z

    def h_value(self, w, lam):
        return float(row_losses(self.forward(self.Xtr, w, lam)[2], self.Ytr).sum())

    def g_value(self, w, lam):
        Z = self.forward(self.Xva, w, lam)[2]
        return float(row_losses(Z, self.Yva).sum() + self.ridge * (w @ w))

    def grad1(self, X, Y, w, lam, rg):
        F, P, _ = self.forward(X, w, lam)
        return np.einsum("tnr,tnc->trc", F, P - Y).ravel() + 2.0 * rg * w

    def grad2_g(self, w, lam):
        _, P, _ = self.forward(self.Xva, w, lam)
        return np.einsum("tnd,tnc,trc->dr", self.Xva, P - self.Yva, self.W(w)).ravel()

    def vjp11(self, X, a, w, lam, rg):
        F, P, _ = self.forward(X, w, lam)
        dP = row_jvp(P, np.einsum("tnr,trc->tnc", F, self.W(a)))
        return np.einsum("tnr,tnc->trc", F, dP).ravel() + 2.0 * rg * a

    def vjp12(self, X, Y, a, w, lam):
        F, P, _ = self.forward(X, w, lam)
        A = self.W(a)
        dP = row_jvp(P, np.einsum("tnr,trc->tnc", F, A))
        return (np.einsum("tnd,tnc,trc->dr", X, dP, self.W(w))
                + np.einsum("tnd,tnc,trc->dr", X, P - Y, A)).ravel()

    def accuracy(self, w, lam):
        F = self.Xva @ lam.reshape(self.d, self.r)
        Z = np.einsum("tnr,trc->tnc", F, self.W(w))
        return float((np.argmax(Z, axis=-1) == self.yva).mean())


def clean_data(C, seed=0):
    ds = gen_synthetic(seed, 160, 6, C, 3.0)
    train, val = split(ds, 50, 40, seed)
    return corrupt_labels(train, 0.5, seed), val


def random_point(p, rng, scale=0.5):
    return (rng.normal(0, scale, p.inner_dim), rng.normal(0, scale, p.inner_dim),
            rng.normal(0, scale, p.outer_dim))


class TestHypercleaningKernels:
    @pytest.mark.parametrize("C", [2, 3])
    def test_every_slot_matches_row_major(self, C):
        train, val = clean_data(C)
        p = bl.make_hypercleaning(train, val)
        ref = RowMajorHypercleaning(train, val)
        rng = np.random.default_rng(C)
        for _ in range(3):
            a, w, lam = random_point(p, rng)
            _close(p.h_value(w[None], lam)[0], ref.h_value(w, lam))
            _close(p.g_value(w[None], lam)[0], ref.g_value(w, lam))
            _close(p.grad1_h(w, lam), ref.grad1_h(w, lam))
            _close(p.grad1_g(w, lam), ref.grad1_g(w, lam))
            _close(p.vjp11_h(a, w, lam), ref.vjp11_h(a, w, lam))
            _close(p.vjp12_h(a, w, lam), ref.vjp12_h(a, w, lam))
            _close(p.vjp11_g(a, w, lam), ref.vjp11_g(a, w, lam))
            _close(p.answers["train_losses"](w), ref.train_losses(w))
            _close(p.answers["grad2_h"](w, lam), ref.grad2_h(w, lam))
            assert not p.grad2_g(w, lam).any() and not p.vjp12_g(a, w, lam).any()

    @pytest.mark.parametrize("C", [2, 3])
    def test_batched_slots_match_row_major(self, C):
        train, val = clean_data(C, seed=1)
        p = bl.make_hypercleaning(train, val)
        ref = RowMajorHypercleaning(train, val)
        rng = np.random.default_rng(10 + C)
        ws = rng.normal(0, 0.5, (7, p.inner_dim))
        lams = rng.normal(0, 0.5, (7, p.outer_dim))
        _close(p.grad1_h_many(ws, lams), ref.grad1_h_many(ws, lams))
        _close(p.grad1_g_many(ws, lams), ref.grad1_g_many(ws, lams))

    def test_vjps_match_fd_at_three_classes(self):
        train, val = clean_data(3, seed=2)
        p = bl.make_hypercleaning(train, val)
        rng = np.random.default_rng(3)
        for _ in range(3):
            a, w, lam = random_point(p, rng, scale=0.3)
            for attr, which in (("vjp11_h", "h11"), ("vjp12_h", "h12"), ("vjp11_g", "g11")):
                got = getattr(p, attr)(a, w, lam)
                want = fd_vjp(p, which, a, w, lam, 1e-5)
                err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
                assert err < 1e-7, (attr, err)


def rep_episodes(way=3, shot=2, vpc=4, tasks=3, d=7, seed=0):
    ds = gen_synthetic(seed, 300, d, 6, 3.0)
    return make_episodes(ds, way, shot, vpc, tasks, seed)


class TestHyperrepKernels:
    @pytest.mark.parametrize("shape", [dict(way=3, shot=2), dict(way=5, shot=1, vpc=10, tasks=4)])
    def test_every_slot_matches_einsum(self, shape):
        eps = rep_episodes(**shape)
        r = 4
        p = bl.make_hyperrep(eps, r)
        ref = EinsumHyperrep(eps, r)
        metric = bl.hyperrep_accuracy_metric(eps, r)
        rng = np.random.default_rng(shape["way"])
        for _ in range(3):
            a, w, lam = random_point(p, rng)
            _close(p.h_value(w[None], lam)[0], ref.h_value(w, lam))
            _close(p.g_value(w[None], lam)[0], ref.g_value(w, lam))
            _close(p.grad1_h(w, lam), ref.grad1(ref.Xtr, ref.Ytr, w, lam, 0.0))
            _close(p.grad1_g(w, lam), ref.grad1(ref.Xva, ref.Yva, w, lam, ref.ridge))
            _close(p.grad2_g(w, lam), ref.grad2_g(w, lam))
            _close(p.vjp11_h(a, w, lam), ref.vjp11(ref.Xtr, a, w, lam, 0.0))
            _close(p.vjp12_h(a, w, lam), ref.vjp12(ref.Xtr, ref.Ytr, a, w, lam))
            _close(p.vjp11_g(a, w, lam), ref.vjp11(ref.Xva, a, w, lam, ref.ridge))
            _close(p.vjp12_g(a, w, lam), ref.vjp12(ref.Xva, ref.Yva, a, w, lam))
            assert metric(w, lam) == ref.accuracy(w, lam)


class TestSigmoid:
    def test_bits_match_the_masked_formula(self):
        rng = np.random.default_rng(0)
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.concatenate([
            rng.normal(0.0, 5.0, 2000), rng.normal(0.0, 300.0, 200),
            [800.0, -800.0, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 3 * tiny, -3 * tiny,
             np.finfo(np.float64).tiny, -np.finfo(np.float64).tiny, np.nan],
        ])
        got, want = sigmoid(x), masked_sigmoid(x)
        finite = ~np.isnan(x)
        assert np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))
        assert np.isnan(got[~finite]).all() and np.isnan(want[~finite]).all()
        block = x[:2200].reshape(-1, 10)
        assert np.array_equal(sigmoid(block), masked_sigmoid(block))


def assert_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


LEARNING_BUILDS = {
    "hyperclean-C2": lambda: bl.make_hypercleaning(*clean_data(2, seed=3)),
    "hyperclean-C3": lambda: bl.make_hypercleaning(*clean_data(3, seed=3)),
    "hyperrep-way3": lambda: bl.make_hyperrep(rep_episodes(way=3, shot=2), 4),
    "hyperrep-way5": lambda: bl.make_hyperrep(rep_episodes(way=5, shot=1, vpc=10, tasks=4), 4),
}


# an alpha == 1 step and an averaged one, as (ta, sb) = (t*alpha, s*(1-alpha))
WEIGHTS = ((0.7, None), (0.3, 0.4))


def slot_step(p, lam):
    """The step map a ``replace`` copy builds from the slots."""
    copy = dataclasses.replace(p)
    assert p.linearize is not None and copy.linearize is None
    return bl.linearizer(copy, lam)


def step_and_vjp(step, a, w, ta, sb, m):
    """w_next, then the VJP's omega and lam sides, then both again at omega_side False."""
    w_next, vjp = step(w, ta, sb)
    lam_bar, lam_only = np.zeros(m), np.zeros(m)
    return w_next, vjp(a, True, lam_bar), lam_bar, vjp(a, False, lam_only), lam_only


class TestLinearizeHook:
    """The hook's step map against the one built from the slots.

    A step with alpha == 1 and its VJP must match the slot-built step bit for
    bit; an averaged step fuses h and g and must agree to 1e-12 relative.
    """

    @pytest.mark.parametrize("build", list(LEARNING_BUILDS))
    def test_bound_kernels_equal_the_slots(self, build):
        p = LEARNING_BUILDS[build]()
        rng = np.random.default_rng(len(build))
        for _ in range(3):
            a, w, lam = random_point(p, rng)
            for ta, sb in WEIGHTS:
                same = assert_bits if sb is None else _close
                got = step_and_vjp(p.linearize(lam), a, w, ta, sb, p.outer_dim)
                want = step_and_vjp(slot_step(p, lam), a, w, ta, sb, p.outer_dim)
                for g, v in zip(got, want):
                    if v is None:
                        assert g is None
                    else:
                        same(g, v)
                w_next, omega_side, lam_side, skipped, lam_only = got
                assert skipped is None
                assert_bits(lam_only, lam_side)

    @pytest.mark.parametrize("build", list(LEARNING_BUILDS))
    def test_bound_stack_equals_the_batched_slots(self, build):
        p = LEARNING_BUILDS[build]()
        rng = np.random.default_rng(20 + len(build))
        ws = rng.normal(0, 0.5, (6, p.inner_dim))
        lams = rng.normal(0, 0.5, (6, p.outer_dim))
        # a stack is bound by memory traffic: the hook runs the halves apart,
        # and its step on a stack is value-only, returning no VJP
        for ta, sb in WEIGHTS:
            assert p.linearize(lams)(ws, ta, sb)[1] is None
            got = bl.linearizer(p, lams)(ws, ta, sb)[0]
            assert_bits(got, slot_step(p, lams)(ws, ta, sb)[0])

    def test_hyperrep_keeps_the_slots_bits_at_a_ragged_row_count(self):
        # the features X @ L of 27 training rows at r = 1: the BLAS rounds
        # some rows of a matrix-vector product by where they sit in X, so a
        # training row mapped among both splits' rows can differ from the
        # same row mapped with its own split, as the slots map it
        p = bl.make_hyperrep(rep_episodes(way=3, shot=3, vpc=1, tasks=3, d=20), 1)
        rng = np.random.default_rng(60)
        for _ in range(20):
            a, w, lam = random_point(p, rng)
            got = step_and_vjp(p.linearize(lam), a, w, 0.7, None, p.outer_dim)
            want = step_and_vjp(slot_step(p, lam), a, w, 0.7, None, p.outer_dim)
            for g, v in zip(got, want):
                if v is None:
                    assert g is None
                else:
                    assert_bits(g, v)
        ws, lams = rng.normal(0, 0.5, (5, p.inner_dim)), rng.normal(0, 0.5, (5, p.outer_dim))
        for ta, sb in WEIGHTS:
            assert_bits(bl.linearizer(p, lams)(ws, ta, sb)[0], slot_step(p, lams)(ws, ta, sb)[0])

    @pytest.mark.parametrize("build", list(LEARNING_BUILDS))
    def test_bound_vjps_match_fd(self, build):
        p = LEARNING_BUILDS[build]()
        rng = np.random.default_rng(30 + len(build))
        a, w, lam = random_point(p, rng, scale=0.3)
        fd = {which: fd_vjp(p, which, a, w, lam,
                            1e-5 * max(1.0, np.max(np.abs(w if which.endswith("11") else lam))))
              for which in ("h11", "h12", "g11", "g12")}
        for ta, sb in WEIGHTS:
            _, omega_side, lam_side = step_and_vjp(p.linearize(lam), a, w, ta, sb,
                                                   p.outer_dim)[:3]
            # a^T dPhi = a - ta a^T d1 grad_h - sb a^T d1 grad_g on the omega
            # side, and minus the lam-side terms of both
            want_omega, want_lam = ta * fd["h11"], -ta * fd["h12"]
            if sb is not None:
                want_omega, want_lam = want_omega + sb * fd["g11"], want_lam - sb * fd["g12"]
            for got, want in ((a - omega_side, want_omega), (lam_side, want_lam)):
                err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
                assert err < 1e-6, (ta, sb, err)


def zoo_hyperrep():
    return bl.zoo_problem("hyperrep_synthetic")


class TestLinearizeHookAccumulates:
    """The hook's VJP adds its lam side into the caller's ``lam_bar``.

    The reverse pass hands every step's VJP the one running accumulator, so
    the lam side must be added into what is already there, not written over
    it: from a random b, the result is b plus the result from zeros, bit for
    bit, on both step kinds, with and without the omega side.
    """

    @pytest.mark.parametrize("build", [*LEARNING_BUILDS, "zoo-hyperrep"])
    def test_vjp_adds_into_a_nonzero_lam_bar(self, build):
        p = zoo_hyperrep().problem if build == "zoo-hyperrep" else LEARNING_BUILDS[build]()
        rng = np.random.default_rng(40 + len(build))
        a, w, lam = random_point(p, rng, scale=0.3)
        b = rng.normal(0, 1.0, p.outer_dim)
        for ta, sb in WEIGHTS:
            _, vjp = p.linearize(lam)(w, ta, sb)
            for omega_side in (True, False):
                from_zeros, from_b = np.zeros(p.outer_dim), b.copy()
                want = vjp(a, omega_side, from_zeros)
                got = vjp(a, omega_side, from_b)
                assert_bits(from_b, b + from_zeros)
                if omega_side:
                    assert_bits(got, want)
                else:
                    assert got is None and want is None


class TestLinearizeHookAtZooSize:
    """The zoo's own hyper-representation (8 tasks, way 5, r 8) on its own schedule.

    The builds above stop at 4 tasks and r 4.  At the weights that
    ``step_weights`` gives steps 1, 2 and 30 of the zoo's improved schedule
    (step 1 has alpha == 1), the hook's step and VJP match the slot-built
    step (bit for bit on an alpha == 1 step, to 1e-12 relative on an
    averaged one) and the finite-difference VJPs to 1e-6.
    """

    @staticmethod
    def zoo_weights(z):
        t, s, K = z.defaults["t"], z.defaults["s"], z.defaults["K"]
        weights = step_weights(schedule(InnerSolveSpec(K=K, t=t, s=s)), t, s)
        return [weights[k - 1] for k in (1, 2, K)]

    def test_zoo_shape(self):
        z = zoo_hyperrep()
        assert (z.problem.answers["n_tasks"], z.problem.answers["way"],
                z.problem.answers["rep_dim"]) == (8, 5, 8)
        weights = self.zoo_weights(z)
        assert weights[0][1] is None and all(sb is not None for _, sb in weights[1:])

    def test_step_and_vjp_equal_the_slots(self):
        z = zoo_hyperrep()
        p, lam = z.problem, z.lam0
        rng = np.random.default_rng(50)
        a, w = rng.normal(0, 0.3, p.inner_dim), rng.normal(0, 0.3, p.inner_dim)
        for ta, sb in self.zoo_weights(z):
            same = assert_bits if sb is None else _close
            got = step_and_vjp(p.linearize(lam), a, w, ta, sb, p.outer_dim)
            want = step_and_vjp(slot_step(p, lam), a, w, ta, sb, p.outer_dim)
            for g, v in zip(got, want):
                if v is None:
                    assert g is None
                else:
                    same(g, v)

    def test_vjp_matches_fd(self):
        z = zoo_hyperrep()
        p, lam = z.problem, z.lam0
        rng = np.random.default_rng(51)
        a, w = rng.normal(0, 0.3, p.inner_dim), rng.normal(0, 0.3, p.inner_dim)
        fd = {which: fd_vjp(p, which, a, w, lam,
                            1e-5 * max(1.0, np.max(np.abs(w if which.endswith("11") else lam))))
              for which in ("h11", "h12", "g11", "g12")}
        for ta, sb in self.zoo_weights(z):
            _, omega_side, lam_side = step_and_vjp(p.linearize(lam), a, w, ta, sb,
                                                   p.outer_dim)[:3]
            want_omega, want_lam = ta * fd["h11"], -ta * fd["h12"]
            if sb is not None:
                want_omega, want_lam = want_omega + sb * fd["g11"], want_lam - sb * fd["g12"]
            for got, want in ((a - omega_side, want_omega), (lam_side, want_lam)):
                err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
                assert err < 1e-6, (ta, sb, err)
