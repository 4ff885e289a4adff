"""``central_differences``: the one routine that forms the probes x +/- eps e_j.

Every referee value that differences along coordinates (``fd_vjp``'s lam
side, the three checks of ``validate_first_order`` and the FD hypergradient)
must keep the bits of the per-coordinate loop each of them used to run,
which ``reference_loop`` copies, whether the oracle evaluates a block of
probes row by row or as one stack.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt.bigsam import final_inner_iterate, final_inner_iterates_many
from bilevelopt.data import corrupt_labels, gen_synthetic, make_episodes, split
from bilevelopt.problem import PROBE_BLOCK, central_differences, fd_vjp
from bitwise import same_bits, serial


def reference_loop(f, x, eps):
    """The per-coordinate central difference, one probe pair per coordinate."""
    out = np.empty(x.shape[0])
    for j in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[j] = eps
        out[j] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return out


def zoo_point(name, seed=0):
    p = bl.zoo_problem(name, seed=0).problem
    rng = np.random.default_rng(seed)
    return (p, rng.normal(0, 0.5, p.inner_dim), rng.normal(0, 0.5, p.inner_dim),
            rng.normal(0, 0.5, p.outer_dim))


def small_hypercleaning(n_tr=30):
    ds = gen_synthetic(0, 160, 6, 2, 3.0)
    train, val = split(ds, n_tr, 40, 0)
    return bl.make_hypercleaning(corrupt_labels(train, 0.5, 0), val)


def small_hyperrep(r=3):
    ds = gen_synthetic(0, 300, 7, 6, 3.0)
    return bl.make_hyperrep(make_episodes(ds, 3, 2, 4, 3, 0), r)


def serial_f_K(p, spec):
    """f_K at one probe: one inner solve on a copy that takes the slot-built step."""
    generic = serial(p)

    def f_K(probe):
        return float(p.g_value(final_inner_iterate(generic, probe, spec)[None], probe)[0])

    return f_K


class TestProbes:
    def test_probes_are_x_plus_e_then_x_minus_e(self):
        # signed zeros tell x + e from a copy of x with x_j alone moved:
        # -0.0 + 0.0 is +0.0, while -0.0 - 0.0 stays -0.0
        x = np.array([-0.0, 1.5, 0.0, -2.0])
        eps = 1e-3
        seen = []
        central_differences(lambda block, _: [seen.append(p.copy()) or 0.0 for p in block], x, eps)
        want = []
        for plus in (True, False):
            for j in range(4):
                e = np.zeros(4)
                e[j] = eps
                want.append(x + e if plus else x - e)
        assert len(seen) == 8
        for got, ref in zip(seen, want):
            assert same_bits(got, ref)

    @pytest.mark.parametrize("n", [1, PROBE_BLOCK // 2 + 9, PROBE_BLOCK + 3])
    def test_signed_zeros_keep_their_bits_across_blocks(self, n):
        # every other coordinate -0.0 or +0.0: each row of every block is
        # x + e or x - e, bit for bit, past the block edges too
        x = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
        x[1::3] = np.random.default_rng(n).normal(0, 1.0, len(x[1::3]))
        blocks = []
        central_differences(lambda block, _: blocks.append(block.copy()) or np.zeros(len(block)),
                            x, 1e-3)
        want = [x + e for e in 1e-3 * np.eye(n)] + [x - e for e in 1e-3 * np.eye(n)]
        assert same_bits(np.concatenate(blocks), np.array(want))

    def test_equals_the_reference_loop(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 2.0, 9)

        def f(v):
            return float(np.sin(v) @ np.cosh(v) + v[0] * v[-1])

        got = central_differences(lambda block, _: [f(p) for p in block], x, 1e-5)
        assert same_bits(got, reference_loop(f, x, 1e-5))

    def test_serial_evaluator_holds_o_n_memory(self):
        # 2n probes of n floats stacked would take 2 * 2000 * 2000 * 8 bytes
        # = 64 MiB; one block of PROBE_BLOCK = 64 of them takes 1 MiB, and the
        # previous block is released before the next is formed
        n = 2000
        x = np.ones(n)
        tracemalloc.start()
        try:
            got = central_differences(lambda block, _: block[:, 0] + block[:, -1], x, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        assert got.shape == (n,)
        np.testing.assert_allclose(got[[0, -1]], 1.0, rtol=1e-9)
        assert not got[1:-1].any()


class TestCallersKeepTheirBits:
    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    @pytest.mark.parametrize("which", ["h12", "g12"])
    def test_fd_vjp_lam_side(self, name, which):
        p, a, w, lam = zoo_point(name)
        grad = p.grad1_h if which[0] == "h" else p.grad1_g
        eps = bl.default_fd_eps(lam)
        want = reference_loop(lambda probe: a @ grad(w, probe), lam, eps)
        assert same_bits(fd_vjp(p, which, a, w, lam, eps), want)

    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_validate_first_order_entries(self, name):
        p, _, w, lam = zoo_point(name, seed=1)
        eps = 1e-5
        fds = {"grad1_g": reference_loop(lambda v: p.g_value(v[None], lam)[0], w, eps),
               "grad2_g": reference_loop(lambda v: p.g_value(w[None], v)[0], lam, eps),
               "grad1_h": reference_loop(lambda v: p.h_value(v[None], lam)[0], w, eps)}
        errors = bl.validate_first_order(p, w, lam, eps=eps)
        assert set(errors) == set(fds)
        for gname, fd in fds.items():
            analytic = np.asarray(getattr(p, gname)(w, lam), dtype=np.float64)
            err = float(np.max(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))))
            assert same_bits(errors[gname], err), gname

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_fd_hypergradient_serial(self, expo):
        # a copy without batched oracles: one inner solve per probe, on a
        # replace copy
        p = serial(small_hyperrep())
        assert p.grad1_h_many is None
        lam = np.random.default_rng(2).normal(0, 0.5, p.outer_dim)
        spec = bl.InnerSolveSpec(K=8, t=0.05, s=0.05, alpha_exponent=expo)
        generic = dataclasses.replace(p)

        def f_K(probe):
            return float(p.g_value(final_inner_iterate(generic, probe, spec)[None], probe)[0])

        want = reference_loop(f_K, lam, 1e-5)
        assert same_bits(bl.hypergradient_fd_oracle(p, lam, spec), want)

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_fd_hypergradient_stacked_hyperrep(self, expo):
        # hyperrep's hook takes a stack of lam rows, which runs h and g
        # apart: the stacked solves keep the serial loop's bits
        p = small_hyperrep()
        assert p.grad1_h_many is not None and p.linearize is not None
        lam = np.random.default_rng(2).normal(0, 0.5, p.outer_dim)
        spec = bl.InnerSolveSpec(K=8, t=0.05, s=0.05, alpha_exponent=expo)
        want = reference_loop(serial_f_K(p, spec), lam, 1e-5)
        assert same_bits(bl.hypergradient_fd_oracle(p, lam, spec), want)

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    def test_fd_hypergradient_batched(self, expo):
        # hyper-cleaning solves the 2m probes as one stack; each row of a
        # stack gives what a stack of that row alone gives
        p = small_hypercleaning()
        assert p.grad1_h_many is not None
        lam = np.random.default_rng(3).normal(0, 0.5, p.outer_dim)
        spec = bl.InnerSolveSpec(K=8, t=0.05, s=0.01, alpha_exponent=expo)

        def f_K(probe):
            return p.g_value(final_inner_iterates_many(p, probe[None], spec), probe)[0]

        want = reference_loop(f_K, lam, 1e-5)
        assert same_bits(bl.hypergradient_fd_oracle(p, lam, spec), want)


class TestDivergence:
    @pytest.mark.parametrize("bad, sign", [(3, -1.0), (1, 1.0)])
    def test_fd_vjp_names_the_nonfinite_probe(self, bad, sign):
        # grad1_h goes non-finite only where lam's coordinate `bad` moves
        # toward `sign`: exactly one of the 2m probes
        def grad1_h(w, lam):
            return w * (np.nan if sign * lam[bad] > 0.0 else 1.0)

        p = bl.BilevelProblem(
            inner_dim=2, outer_dim=5, name="one-bad-probe",
            h_value=bl.rowwise(lambda w, lam: 0.5 * float(w @ w)),
            g_value=bl.rowwise(lambda w, lam: 0.0),
            grad1_h=grad1_h,
            grad1_g=lambda w, lam: np.zeros(2),
            grad2_g=lambda w, lam: np.zeros(5),
        )
        probe = f"lam{'+' if sign > 0 else '-'}eps*e_{bad} "
        with pytest.raises(bl.OracleDivergence,
                           match=re.escape(f"grad1_h non-finite at probe {probe}")):
            fd_vjp(p, "h12", np.ones(2), np.ones(2), np.zeros(5), 1e-4)

    @pytest.mark.parametrize("m, bad, sign", [(5, 3, -1.0), (5, 1, 1.0), (40, 37, -1.0),
                                              (40, 30, 1.0)])
    def test_stacked_fd_vjp_names_the_probe_as_the_serial_one(self, m, bad, sign):
        # at m = 40 the probes lam-eps*e_37 (probe 77) and lam+eps*e_30
        # (probe 30) sit in the second and the first block of 64
        def grad1_h(w, lam):
            return w * (np.nan if sign * lam[bad] > 0.0 else 1.0)

        p = bl.BilevelProblem(
            inner_dim=2, outer_dim=m, name="one-bad-probe",
            h_value=bl.rowwise(lambda w, lam: 0.5 * float(w @ w)),
            g_value=bl.rowwise(lambda w, lam: 0.0),
            grad1_h=grad1_h,
            grad1_g=lambda w, lam: np.zeros(2),
            grad2_g=lambda w, lam: np.zeros(m),
            grad1_h_many=lambda W, L: np.array([grad1_h(w, lam) for w, lam in zip(W, L)]),
        )
        messages = []
        for copy in (p, serial(p)):
            with pytest.raises(bl.OracleDivergence) as info:
                fd_vjp(copy, "h12", np.ones(2), np.ones(2), np.zeros(m), 1e-4)
            messages.append(str(info.value))
        probe = f"lam{'+' if sign > 0 else '-'}eps*e_{bad} "
        assert messages[0] == messages[1]
        assert f"grad1_h non-finite at probe {probe}" in messages[0]


class TestBlocks:
    """``central_differences`` hands its oracle ``PROBE_BLOCK`` probes at a time, in order."""

    @pytest.mark.parametrize("n", [1, PROBE_BLOCK // 2, PROBE_BLOCK // 2 + 9, PROBE_BLOCK + 3])
    def test_blocks_cover_the_probes_in_order(self, n):
        x = np.random.default_rng(n).normal(0, 1.0, n)
        seen = []

        def oracle(block, start):
            seen.append((start, block.copy()))
            return block.sum(axis=1)

        def f(v):
            return v.sum()

        got = central_differences(oracle, x, 1e-4)
        assert same_bits(got, central_differences(lambda block, _: [f(p) for p in block], x, 1e-4))
        assert same_bits(got, reference_loop(f, x, 1e-4))
        starts = list(range(0, 2 * n, PROBE_BLOCK))
        assert [start for start, _ in seen] == starts
        assert [len(block) for _, block in seen] == [min(PROBE_BLOCK, 2 * n - s) for s in starts]
        rows = np.concatenate([block for _, block in seen])
        want = [x + e for e in 1e-4 * np.eye(n)] + [x - e for e in 1e-4 * np.eye(n)]
        assert same_bits(rows, np.array(want))

    @pytest.mark.parametrize("expo", [0.25, 0.0], ids=["improved", "basic"])
    @pytest.mark.parametrize("build, m", [(lambda: small_hypercleaning(n_tr=1), 1),
                                          (lambda: small_hyperrep(r=5), 35)],
                             ids=["hyperclean-m1", "hyperrep-m35"])
    def test_fd_at_m_one_and_a_ragged_last_block(self, build, m, expo):
        # m = 1 gives one block of two probes; m = 35 gives blocks of 64 and
        # 6, a boundary that does not divide 2m
        p = build()
        assert p.outer_dim == m
        lam = np.random.default_rng(m).normal(0, 0.5, m)
        spec = bl.InnerSolveSpec(K=5, t=0.05, s=0.05, alpha_exponent=expo)
        want = reference_loop(serial_f_K(p, spec), lam, 1e-5)
        # the hook's stack step with g on the whole block, and the
        # slot-built stack step with g on one probe at a time
        one_row = bl.rowwise(lambda w, lam: p.g_value(w[None], lam)[0])
        for copy in (p, dataclasses.replace(p, g_value=one_row)):
            assert same_bits(bl.hypergradient_fd_oracle(copy, lam, spec), want)
        a, w = np.random.default_rng(m + 1).normal(0, 0.5, (2, p.inner_dim))
        eps = bl.default_fd_eps(lam)
        for which in ("h12", "g12"):
            grad = p.grad1_h if which[0] == "h" else p.grad1_g
            want = reference_loop(lambda probe: a @ grad(w, probe), lam, eps)
            assert same_bits(fd_vjp(p, which, a, w, lam, eps), want)


class TestStackedOracles:
    @pytest.mark.parametrize("name", bl.ZOO_NAMES)
    def test_batch_rows_equal_the_values(self, name):
        # a stack of lam rows is paired row by row with W's; one lam row is
        # shared by every row of W.  Each row of a stack of any height is
        # that row's value on a stack of one row
        p = bl.zoo_problem(name, seed=0).problem
        rng = np.random.default_rng(5)
        W = rng.normal(0, 0.7, (PROBE_BLOCK + 5, p.inner_dim))
        L = rng.normal(0, 0.7, (PROBE_BLOCK + 5, p.outer_dim))
        for value in (p.h_value, p.g_value):
            for B in (2, PROBE_BLOCK + 5):
                assert same_bits(value(W[:B], L[:B]),
                                 [value(w[None], lam)[0] for w, lam in zip(W[:B], L)])
                assert same_bits(value(W[:B], L[0]), [value(w[None], L[0])[0] for w in W[:B]])

    def test_fd_hypergradient_memory_is_bounded_by_the_block(self):
        # the 800 probes of the zoo's hyper-cleaning problem as one stack
        # peak at about 12.6 MiB; in blocks of 64 rows at about 1.3 MiB
        p = bl.zoo_problem("hyperclean_synthetic", seed=0).problem
        lam = np.random.default_rng(6).normal(0, 0.3, p.outer_dim)
        spec = bl.InnerSolveSpec(K=3, t=0.01, s=0.001)
        bl.hypergradient_fd_oracle(p, lam, spec)
        tracemalloc.start()
        try:
            bl.hypergradient_fd_oracle(p, lam, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak
