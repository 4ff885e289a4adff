"""The learning problems' class-major kernels against row-major reference formulas.

The references below are the straightforward forms of the same objectives:
samples along rows with a trailing class axis for hyper-cleaning, and
three-operand einsum contractions for hyper-representation.  Every oracle
slot of the problems built by ``make_hypercleaning`` and ``make_hyperrep``
must agree with them to rtol 1e-12 (the array's scale is the floor for
entries that pass through zero).  The ``linearize`` hook's per-solve
linearizers must give the slots' results bit for bit, and agree with the
finite-difference VJPs.
"""

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt.data import corrupt_labels, gen_synthetic, make_episodes, split
from bilevelopt.problem import fd_vjp
from bilevelopt.problems import _stack_episodes, sigmoid

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
        self.Xtr, ytr, self.Xva, self.yva = _stack_episodes(episodes)
        way = episodes.way
        self.Ytr, self.Yva = np.eye(way)[ytr], np.eye(way)[self.yva]
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
            _close(p.h_value(w, lam), ref.h_value(w, lam))
            _close(p.g_value(w, lam), ref.g_value(w, lam))
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
            _close(p.h_value(w, lam), ref.h_value(w, lam))
            _close(p.g_value(w, lam), ref.g_value(w, lam))
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


def objectives(p, lin):
    """(linearizer, grad1, vjp11, vjp12, lam_free) of h and of g, from linearize's pair."""
    h, g = lin
    return ((h, p.grad1_h, p.vjp11_h, p.vjp12_h, False),
            (g, p.grad1_g, p.vjp11_g, p.vjp12_g, p.g_lambda_free))


class TestLinearizeHook:
    """The per-solve linearizers against the slots they must reproduce bit for bit."""

    @pytest.mark.parametrize("build", list(LEARNING_BUILDS))
    def test_bound_kernels_equal_the_slots(self, build):
        p = LEARNING_BUILDS[build]()
        rng = np.random.default_rng(len(build))
        for _ in range(3):
            a, w, lam = random_point(p, rng)
            for residuals in (True, False):
                lin = p.linearize(lam, residuals=residuals)
                for linearizer, grad1, vjp11, vjp12, lam_free in objectives(p, lin):
                    grad, vjp = linearizer(w)
                    assert_bits(grad, grad1(w, lam))
                    if not residuals:
                        assert vjp is None
                        continue
                    d_omega, d_lam = vjp(a, True)
                    assert_bits(d_omega, vjp11(a, w, lam))
                    if lam_free:
                        assert d_lam is None
                    else:
                        assert_bits(d_lam, vjp12(a, w, lam))
                    skipped, again = vjp(a, False)
                    assert skipped is None
                    assert (again is None) if lam_free else np.array_equal(again, d_lam)

    @pytest.mark.parametrize("C", [2, 3])
    def test_bound_stack_equals_the_batched_slots(self, C):
        p = bl.make_hypercleaning(*clean_data(C, seed=4))
        rng = np.random.default_rng(20 + C)
        ws = rng.normal(0, 0.5, (6, p.inner_dim))
        lams = rng.normal(0, 0.5, (6, p.outer_dim))
        h, g = p.linearize(lams, residuals=False)
        assert_bits(h(ws)[0], p.grad1_h_many(ws, lams))
        assert_bits(g(ws)[0], p.grad1_g_many(ws, lams))

    @pytest.mark.parametrize("build", list(LEARNING_BUILDS))
    def test_bound_vjps_match_fd(self, build):
        p = LEARNING_BUILDS[build]()
        rng = np.random.default_rng(30 + len(build))
        a, w, lam = random_point(p, rng, scale=0.3)
        h, g = p.linearize(lam)
        for which, linearizer in (("h", h), ("g", g)):
            d_omega, d_lam = linearizer(w)[1](a, True)
            for got, sel, point in ((d_omega, which + "11", w), (d_lam, which + "12", lam)):
                if got is None:
                    continue
                want = fd_vjp(p, sel, a, w, lam, 1e-5 * max(1.0, np.max(np.abs(point))))
                err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
                assert err < 1e-6, (sel, err)
