"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes.  Constants not fixed by a criterion (start
points, per-problem step sizes, seeds) are frozen here and documented inline.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import bilevelopt as bl
import bilevelopt.cli as cli
from bilevelopt.bigsam import final_inner_iterate
from bilevelopt.data import corrupt_labels, gen_synthetic, make_episodes, split, stream
from bilevelopt.models import ablation_config
from bilevelopt.problems import (hyperclean_f1_metric, hyperrep_accuracy_metric,
                                 make_hypercleaning, make_hyperrep)
from bitwise import same_bits


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def desk_hyperclean(seed=7, n_tr=50, d=5, n_val=20, rho=0.5):
    ds = gen_synthetic(seed, n_tr + n_val + 30, d, 2, 3.0)
    train, val = split(ds, n_tr, n_val, seed)
    train = corrupt_labels(train, rho, seed)
    return make_hypercleaning(train, val)


def test_criterion_1_hypergradient_correctness():
    started = time.monotonic()
    cells = []
    cases = [
        (bl.make_closedform_quadratic(), 0.1, 0.1, 1.0),
        (bl.make_degenerate_quadratic(), 0.1, 0.1, 1.0),
        (desk_hyperclean(), 0.01, 0.001, 0.5),
    ]
    worst = 0.0
    for problem, t, s, lam_scale in cases:
        rng = np.random.default_rng(123)
        for expo in (0.25, 0.0):    # the improved and the basic model
            for K in (5, 50, 500):
                spec = bl.InnerSolveSpec(K=K, t=t, s=s, alpha_exponent=expo)
                for _ in range(5):
                    lam = rng.normal(0.0, lam_scale, problem.outer_dim)
                    tape = bl.solve_inner(problem, lam, spec)
                    got = bl.reverse_hypergradient(problem, tape)
                    want = bl.hypergradient_fd_oracle(problem, lam, spec)
                    rel = float(np.linalg.norm(got - want)
                                / max(1.0, np.linalg.norm(want)))
                    worst = max(worst, rel)
                    cells.append(rel)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-4 and elapsed < 10.0
    report(1, ok, f"reverse vs FD hypergradient: {len(cells)} cells, "
                  f"worst rel err {worst:.2e} (tol 1e-4), runtime {elapsed:.1f}s (< 10s)")
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_2_formulation_gap():
    started = time.monotonic()
    p = bl.make_degenerate_quadratic()
    # lam0 = 0.25 (criterion leaves the start point free): close enough to
    # the optimum for the damped improved outer descent to finish in T = 50
    kw = dict(t=0.1, s=0.1, eta=0.5, K=5000, T=50)
    imp = bl.run_model(p, np.array([0.25]), bl.SolveConfig(mode="improved", **kw))
    bas = bl.run_model(p, np.array([0.25]), bl.SolveConfig(mode="basic", **kw))
    gap_ok = (abs(imp.final_outer_value - 0.0) <= 1e-3
              and abs(bas.final_outer_value - 0.5) <= 1e-3)

    # improved <= basic on every zoo problem, matched budgets to convergence
    # matched budgets chosen so both outer loops have converged; for the
    # hyper-cleaning instance the averaged solver needs a g step size on the
    # scale of t to reach its blend limit within the budget
    budgets = {
        "closedform_quadratic": dict(K=80, T=150),
        "degenerate_quadratic": None,                    # reuse the runs above
        "hyperclean_synthetic": dict(K=80, T=10, s=0.03),
        "hyperrep_synthetic": dict(K=8, T=4),
    }
    dominance = {}
    for name, budget in budgets.items():
        if budget is None:
            dominance[name] = (imp.final_outer_value, bas.final_outer_value)
            continue
        inst = bl.zoo_problem(name)
        kw2 = dict(t=inst.defaults["t"], s=inst.defaults["s"],
                   eta=inst.defaults["eta"])
        kw2.update(budget)
        vals = {}
        for mode in ("improved", "basic"):
            tr = bl.run_model(inst.problem, inst.lam0,
                              bl.SolveConfig(mode=mode, **kw2))
            vals[mode] = tr.final_outer_value
        dominance[name] = (vals["improved"], vals["basic"])
    dom_ok = all(iv <= bv + 1e-6 for iv, bv in dominance.values())
    elapsed = time.monotonic() - started
    ok = gap_ok and dom_ok and elapsed < 5.0
    report(2, ok, f"improved {imp.final_outer_value:.2e} (target 0 +/- 1e-3), "
                  f"basic {bas.final_outer_value:.6f} (target 0.5 +/- 1e-3), "
                  f"improved <= basic on {len(dominance)} zoo problems, "
                  f"runtime {elapsed:.1f}s (< 5s)")
    assert abs(imp.final_outer_value - 0.0) <= 1e-3
    assert abs(bas.final_outer_value - 0.5) <= 1e-3
    for name, (iv, bv) in dominance.items():
        assert iv <= bv + 1e-6, (name, iv, bv)
    assert elapsed < 5.0


def test_criterion_3_inner_horizon_convergence():
    started = time.monotonic()
    p = bl.make_closedform_quadratic()
    lam_grid = np.linspace(-2.0, 2.0, 81)
    gaps = []
    for K in (10, 100, 1000):
        spec = bl.InnerSolveSpec(K=K, t=0.1, s=0.1)
        best = min(float(p.g_value(final_inner_iterate(p, np.array([lv]), spec)[None],
                                   np.array([lv]))[0])
                   for lv in lam_grid)
        gaps.append(abs(best - p.answers["min_f"]))
    elapsed = time.monotonic() - started
    non_increasing = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    ok = gaps[-1] <= 1e-3 and non_increasing and elapsed < 5.0
    report(3, ok, f"|min f_K - min f| over K in (10,100,1000): "
                  f"{gaps[0]:.2e}, {gaps[1]:.2e}, {gaps[2]:.2e} "
                  f"(final <= 1e-3, non-increasing), runtime {elapsed:.1f}s (< 5s)")
    assert gaps[-1] <= 1e-3
    assert non_increasing
    assert elapsed < 5.0


def test_criterion_4_reduction_identity():
    # two routes to exponent 0: the basic model's config, and an explicit
    # exponent-0 spec (for run_model, an improved config with exponent 0)
    checked = []
    for name in bl.ZOO_NAMES:
        inst = bl.zoo_problem(name)
        d = dict(K=25, t=inst.defaults["t"], s=inst.defaults["s"])
        config = bl.SolveConfig(eta=inst.defaults["eta"], T=3, mode="basic", **d)
        spec_bas = config.inner_spec()
        spec0 = bl.InnerSolveSpec(alpha_exponent=0.0, **d)
        tape_imp = bl.solve_inner(inst.problem, inst.lam0, spec0)
        tape_bas = bl.solve_inner(inst.problem, inst.lam0, spec_bas)
        # what each tape records: the loop's trajectory, the composed path's
        # omega_K and J_K (its iterates and the loop's jacobian are None)
        traj_equal = all(same_bits(getattr(tape_imp, f), getattr(tape_bas, f))
                         for f in ("iterates", "final", "jacobian"))
        G_imp = bl.reverse_hypergradient(inst.problem, tape_imp)
        G_bas = bl.reverse_hypergradient(inst.problem, tape_bas)
        grad_equal = same_bits(G_imp, G_bas)
        run_bas = bl.run_model(inst.problem, inst.lam0, config, metric=inst.metric,
                               collect_timing=False)
        run_imp = bl.run_model(inst.problem, inst.lam0,
                               dataclasses.replace(config, mode="improved", alpha_exponent=0.0),
                               metric=inst.metric, collect_timing=False)
        runs_equal = (run_imp.records == run_bas.records
                      and same_bits(run_imp.final_lambda, run_bas.final_lambda)
                      and same_bits(run_imp.final_omega, run_bas.final_omega))
        checked.append((name, spec0 == spec_bas and traj_equal and grad_equal and runs_equal))
    ok = all(flag for _, flag in checked)
    report(4, ok, "exponent-0 improved runs bit-identical to basic on "
                  + ", ".join(name for name, _ in checked))
    for name, flag in checked:
        assert flag, name


def test_criterion_5_standalone_solver():
    h = (lambda w: float(0.5 * w[0] ** 2), lambda w: np.array([w[0], 0.0]))
    g = (lambda w: float(0.5 * w[0] ** 2 + 0.5 * (w[1] - 3.0) ** 2),
         lambda w: np.array([w[0], w[1] - 3.0]))
    out = bl.bigsam_standalone(h, g, np.array([5.0, 0.0]), K=5000, t=0.1, s=0.1)
    err = float(np.max(np.abs(out - np.array([0.0, 3.0]))))
    ok = err <= 1e-3
    report(5, ok, f"standalone averaged solve reaches (0, 3) within {err:.2e} (tol 1e-3)")
    assert err <= 1e-3


def _clean_cell(seed: int, rho: float, mode: str) -> float:
    ds = gen_synthetic(seed, 1000, 10, 2, 3.0)
    train, val = split(ds, 400, 400, seed)
    train = corrupt_labels(train, rho, seed)
    problem = make_hypercleaning(train, val)
    metric = hyperclean_f1_metric(train.mask)
    cfg = bl.SolveConfig(t=0.01, s=0.001, eta=1.0, K=100, T=100, mode=mode)
    trace = bl.run_model(problem, np.zeros(problem.outer_dim), cfg, metric=metric,
                         collect_timing=False)
    return trace.final_metric


def test_criterion_6_hypercleaning_directional():
    started = time.monotonic()
    seeds = [0, 1, 2, 3, 4]
    means = {}
    for rho in (0.5, 0.8):
        for mode in ("improved", "basic"):
            means[(rho, mode)] = float(np.mean([_clean_cell(s, rho, mode)
                                                for s in seeds]))
    gap_05 = means[(0.5, "improved")] - means[(0.5, "basic")]
    gap_08 = means[(0.8, "improved")] - means[(0.8, "basic")]
    elapsed = time.monotonic() - started
    directional = (means[(0.5, "improved")] >= means[(0.5, "basic")]
                   and means[(0.8, "improved")] >= means[(0.8, "basic")])
    hardness = gap_08 >= gap_05 - 0.02
    ok = directional and hardness and elapsed < 120.0
    report(6, ok, f"mean F1 rho=0.5: {means[(0.5, 'improved')]:.4f} vs "
                  f"{means[(0.5, 'basic')]:.4f}; rho=0.8: "
                  f"{means[(0.8, 'improved')]:.4f} vs {means[(0.8, 'basic')]:.4f}; "
                  f"gaps {gap_05:+.4f}/{gap_08:+.4f}, runtime {elapsed:.0f}s (< 120s)")
    assert directional
    assert hardness
    assert elapsed < 120.0


def test_criterion_7_frequency_ablation():
    started = time.monotonic()
    p = bl.make_degenerate_quadratic()
    # budgets frozen where the sweep is cleanly ordered: K=200 inner steps,
    # T=100 outer iterations at the quadratics' standard step sizes
    cfg = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=200, T=100)
    traces = [bl.run_model(p, np.array([1.0]), ablation_config(cfg, f), collect_timing=False)
              for f in (1, 5, 20, 0)]
    finals = [tr.final_outer_value for tr in traces]
    f1, f5, f20, basic = finals
    elapsed = time.monotonic() - started
    ordered = f1 <= f5 + 1e-6 and f5 <= f20 + 1e-6
    below_basic = f20 <= basic - 1e-3
    ok = ordered and below_basic and elapsed < 10.0
    report(7, ok, f"final objectives freq 1/5/20: {f1:.2e} <= {f5:.2e} <= {f20:.2e}, "
                  f"basic {basic:.4f} exceeds freq-20 by {basic - f20:.4f} (>= 1e-3), "
                  f"runtime {elapsed:.1f}s (< 10s)")
    assert ordered
    assert below_basic
    assert elapsed < 10.0


def test_criterion_8_property_bundle(tmp_path):
    failures = []

    def check(label, flag):
        if not flag:
            failures.append(label)

    # corruption counts and changed-label guarantee
    ds = gen_synthetic(0, 500, 6, 4, 3.0)
    out = corrupt_labels(ds, 0.8, 1)
    check("corruption-count", int(out.mask.sum()) == 400)
    check("corruption-changed", bool(np.all(out.y[out.mask] != ds.y[out.mask])))

    # F1 bounds
    rng = np.random.default_rng(0)
    f1_vals = [bl.f1_score(rng.random(40) < 0.4, rng.random(40) < 0.3)
               for _ in range(25)]
    check("f1-bounds", all(0.0 <= v <= 1.0 for v in f1_vals))

    # tape lengths and alpha range: the trajectory of the loop (a replace
    # copy); the composed path records omega_K and J_K
    p = bl.make_degenerate_quadratic()
    tape = bl.solve_inner(dataclasses.replace(p), np.array([0.5]),
                          bl.InnerSolveSpec(K=33, t=0.1, s=0.1))
    check("tape-length", tape.iterates.shape[0] == 34 and tape.alphas.shape[0] == 33)
    composed = bl.solve_inner(p, np.array([0.5]), bl.InnerSolveSpec(K=33, t=0.1, s=0.1))
    check("composed-tape", composed.final.shape == (2,) and composed.jacobian.shape == (2, 1)
          and composed.alphas.shape == (33,))
    check("alpha-range", bool(np.all((tape.alphas > 0) & (tape.alphas <= 1))))

    # VJP symmetry of the inner Hessian
    sym_ok = True
    for name in bl.ZOO_NAMES:
        prob = bl.zoo_problem(name).problem
        n, m = prob.dims
        a, b = rng.normal(size=n), rng.normal(size=n)
        w, lam = 0.2 * rng.normal(size=n), 0.2 * rng.normal(size=m)
        ab = float(prob.vjp11_h(a, w, lam) @ b)
        ba = float(prob.vjp11_h(b, w, lam) @ a)
        sym_ok &= abs(ab - ba) <= 1e-9 * max(1.0, abs(ab))
    check("vjp-symmetry", sym_ok)

    # reverse-pass operation count is linear in K: one lam-side VJP per
    # transition and one omega-side VJP per interior transition, on the loop
    # of the counting copy (a replace copy)
    from test_hypergrad import counting_problem
    K = 17
    wrapped, counts = counting_problem(p)
    tape = bl.solve_inner(wrapped, np.array([0.5]), bl.InnerSolveSpec(K=K, t=0.1, s=0.1))
    bl.reverse_hypergradient(wrapped, tape)
    check("op-count", counts["vjp12_h"] == K and counts["vjp11_h"] == K - 1)

    # CLI determinism byte-identity under --no-timing
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"t": 0.1, "s": 0.1, "eta": 0.5, "K": 20, "T": 5}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out_path in (a, b):
        code = cli.main(["solve", "--problem", "degenerate_quadratic",
                         "--config", str(cfg), "--out", str(out_path),
                         "--no-timing"])
        check("cli-exit", code == 0)
    check("cli-byte-identity", a.read_bytes() == b.read_bytes())

    ok = not failures
    report(8, ok, "property bundle (counts, bounds, lengths, symmetry, "
                  "op-count, byte-identity)"
                  + ("" if ok else f" failing: {failures}"))
    assert not failures


def _rep_cell(seed: int, mode: str) -> float:
    ds = gen_synthetic(seed, 1200, 20, 20, 3.0)
    episodes = make_episodes(ds, way=5, shot=1, val_per_class=10, n_tasks=8,
                             seed=seed)
    problem = make_hyperrep(episodes, rep_dim=8)
    metric = hyperrep_accuracy_metric(episodes, rep_dim=8)
    lam0 = stream(seed, "lambda0").normal(0.0, 1.0 / np.sqrt(20), problem.outer_dim)
    cfg = bl.SolveConfig(t=0.01, s=0.01, eta=0.003, K=30, T=60, mode=mode)
    trace = bl.run_model(problem, lam0, cfg, metric=metric, collect_timing=False)
    return trace.final_metric


def test_criterion_9_hyperrepresentation_directional():
    started = time.monotonic()
    seeds = [0, 1, 2, 3, 4]
    acc = {mode: float(np.mean([_rep_cell(s, mode) for s in seeds]))
           for mode in ("improved", "basic")}
    elapsed = time.monotonic() - started
    directional = acc["improved"] >= acc["basic"]
    above_chance = acc["improved"] > 0.2 and acc["basic"] > 0.2
    ok = directional and above_chance and elapsed < 120.0
    report(9, ok, f"mean validation accuracy improved {acc['improved']:.4f} >= "
                  f"basic {acc['basic']:.4f}, both above chance 0.2, "
                  f"runtime {elapsed:.0f}s (< 120s)")
    assert directional
    assert above_chance
    assert elapsed < 120.0
