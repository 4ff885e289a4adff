"""The benchmark's workloads: inputs built from a seed, one timed cell, a gate.

A cell is the unit that a run repeats.  For the three solve workloads it is
an improved and a basic ``run_model`` of ``T_SOLVE`` outer iterations on each
of the workload's instances; for ``verify`` it is ``check_suite`` over every
zoo problem and every default check config.  The gate tolerances are those
of the acceptance suite.  A cell that diverges, returns a non-finite value or
misses its gate is a failed cell.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

import bilevelopt as bl

from spans import SLOTS, Tracer

MODES = ("improved", "basic")
T_SOLVE = 10     # outer iterations per run; every gate holds from T = 10
# Criterion 6 compares F1 means over 5 seeds: on a single seed basic can win
# (seed 1021 at T = 10), so a hyperclean cell solves 5 instances.
HYPERCLEAN_INSTANCES = 5
FAILURES = (bl.OracleDivergence, FloatingPointError, ValueError)


@dataclass(frozen=True)
class Instance:
    problem: bl.BilevelProblem
    lam0: np.ndarray
    metric: Optional[Callable]


@dataclass(frozen=True)
class SolveInputs:
    instances: tuple                # of Instance
    configs: dict                   # mode -> SolveConfig


@dataclass
class Cell:
    seconds: dict = field(default_factory=dict)     # mode -> s spent in that mode
    units: dict = field(default_factory=dict)       # mode -> outer iterations or config passes
    failures: list = field(default_factory=list)
    reports: tuple = (0, 0)                         # verify: (passed, total)
    tallies: tuple = ({}, {})                       # traced: slot calls, slot ns

    @property
    def timed(self) -> bool:
        return all(mode in self.seconds for mode in MODES)

    @property
    def wall_s(self) -> float:
        """Time spent in the library: both modes' runs, or every check pass."""
        return sum(self.seconds.values())


def _pass() -> None:
    pass


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _configs(t, s, eta, K, T=T_SOLVE) -> dict:
    return {mode: bl.SolveConfig(t=t, s=s, eta=eta, K=K, T=T, mode=mode) for mode in MODES}


def _from_zoo(insts: list) -> SolveInputs:
    d = insts[0].defaults
    return SolveInputs(tuple(Instance(i.problem, i.lam0, i.metric) for i in insts),
                       _configs(d["t"], d["s"], d["eta"], d["K"]))


# ---------------------------------------------------------------------------
# set-up: every input of a run comes from here, and only from the seed

def setup_quad_gap(seed: int) -> SolveInputs:
    # the degenerate quadratic is analytic: the seed changes nothing
    inst = bl.zoo_problem("degenerate_quadratic", seed=seed)
    return SolveInputs((Instance(inst.problem, np.array([0.25]), None),),
                       _configs(t=0.1, s=0.1, eta=0.5, K=5000))


def setup_hyperclean(seed: int) -> SolveInputs:
    n = HYPERCLEAN_INSTANCES
    return _from_zoo([bl.zoo_problem("hyperclean_synthetic", seed=n * seed + i, rho=0.8)
                      for i in range(n)])


def setup_hyperrep(seed: int) -> SolveInputs:
    return _from_zoo([bl.zoo_problem("hyperrep_synthetic", seed=seed)])


def setup_verify(seed: int) -> list:
    return [(name, bl.zoo_problem(name, seed=seed).problem, bl.default_check_configs(name))
            for name in bl.ZOO_NAMES]


# ---------------------------------------------------------------------------
# gates

# each gate takes mode -> list of final traces, one per instance

def gate_quad_gap(finals: dict) -> list:
    out = []
    for imp, bas in zip(*(finals[m] for m in MODES)):
        if not abs(imp.final_outer_value - 0.0) <= 1e-3:
            out.append(f"improved final outer value {imp.final_outer_value!r} is not 0 +/- 1e-3")
        if not abs(bas.final_outer_value - 0.5) <= 1e-3:
            out.append(f"basic final outer value {bas.final_outer_value!r} is not 0.5 +/- 1e-3")
    return out


def gate_hyperclean(finals: dict) -> list:
    imp, bas = (float(np.mean([tr.final_metric for tr in finals[m]])) for m in MODES)
    return [] if imp >= bas else [f"mean F1 improved {imp!r} < basic {bas!r}"]


def gate_hyperrep(finals: dict) -> list:
    out = []
    for imp, bas in zip(*([tr.final_metric for tr in finals[m]] for m in MODES)):
        if not imp >= bas:
            out.append(f"accuracy improved {imp!r} < basic {bas!r}")
        if not (imp > 0.2 and bas > 0.2):
            out.append(f"accuracy improved {imp!r} / basic {bas!r} not both above chance 0.2")
    return out


def quad_gap_counts(K: int, mode: str) -> dict:
    """Oracle slot calls per outer iteration of ``run_model`` on the degenerate quadratic.

    alpha_1 = 1, so the improved forward skips ``grad1_g`` on its first step
    (K-1 calls) and the reverse pass seeds its adjoint with one more.  The
    reverse pass takes K lam-side and K-1 omega-side VJPs of h, one
    omega-side VJP of g per averaged step, and none on the lam side of g,
    which does not read lam.  ``run_model`` records one ``g_value``.
    """
    averaged = K - 1 if mode == "improved" else 0
    counts = dict.fromkeys(SLOTS, 0)
    counts.update(grad1_h=K, grad1_g=averaged + 1, grad2_g=1, vjp11_h=K - 1, vjp12_h=K,
                  vjp11_g=averaged, g_value=1)
    return counts


# ---------------------------------------------------------------------------
# cells

def _nonfinite(trace: bl.ExperimentTrace) -> bool:
    values = trace.outer_values
    metrics = trace.metrics
    return not (np.all(np.isfinite(values)) and
                (trace.final_metric is None or np.all(np.isfinite(metrics))))


def solve_cell(inputs: SolveInputs, tracer: Optional[Tracer] = None, tick: Callable = _pass,
               *, gate: Callable, counts: Optional[Callable] = None) -> Cell:
    """An improved and a basic run on every instance, then the gate.

    ``tick`` runs untimed before each mode.  With a tracer and ``counts``, the
    slot calls of each run must equal ``T * counts(K, mode)`` exactly.
    """
    cell = Cell(seconds=dict.fromkeys(MODES, 0.0), units=dict.fromkeys(MODES, 0))
    finals = {mode: [] for mode in MODES}
    for mode in MODES:
        cfg = inputs.configs[mode]
        tick()
        for inst in inputs.instances:
            before = tracer.slot_calls() if tracer is not None else {}
            started = time.perf_counter()
            try:
                with _span(tracer, "models.run_model"):
                    trace = bl.run_model(inst.problem, inst.lam0, cfg, metric=inst.metric)
            except FAILURES as exc:
                cell.failures.append(f"{mode}: {type(exc).__name__}: {exc}")
                del cell.seconds[mode]
                return cell
            cell.seconds[mode] += time.perf_counter() - started
            cell.units[mode] += cfg.T
            if _nonfinite(trace):
                cell.failures.append(f"{mode}: non-finite outer value or metric")
                return cell
            finals[mode].append(trace)
            if counts is not None and tracer is not None:
                after = tracer.slot_calls()
                got = {s: after.get(s, 0) - before.get(s, 0) for s in SLOTS}
                want = {s: cfg.T * c for s, c in counts(cfg.K, mode).items()}
                if got != want:
                    cell.failures.append(f"{mode}: slot calls {got} != closed form {want}")
    cell.failures.extend(gate(finals))
    return cell


def verify_cell(inputs: list, tracer: Optional[Tracer] = None, tick: Callable = _pass) -> Cell:
    """``check_suite`` over every zoo problem, one config at a time; every report must pass.

    ``tick`` runs untimed before each config.
    """
    cell = Cell(seconds=dict.fromkeys(MODES, 0.0), units=dict.fromkeys(MODES, 0))
    passed = total = 0
    for name, problem, configs in inputs:
        for cfg in configs:
            tick()
            started = time.perf_counter()
            try:
                with _span(tracer, "oracles.check_suite"):
                    reports = bl.check_suite(problem, [cfg])
            except FAILURES as exc:
                cell.failures.append(f"{name} {cfg.mode}: {type(exc).__name__}: {exc}")
                del cell.seconds[cfg.mode]
                return cell
            cell.seconds[cfg.mode] += time.perf_counter() - started
            cell.units[cfg.mode] += 1
            total += len(reports)
            for rep in reports:
                if rep.passed:
                    passed += 1
                else:
                    cell.failures.append(f"{name} {cfg.mode}: {rep.name} max_rel_err "
                                         f"{rep.max_rel_err!r} > tol {rep.tolerance!r}")
    cell.reports = (passed, total)
    return cell


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    cell: Callable                      # (inputs, tracer, tick) -> Cell
    wrap: Callable                      # (inputs, tracer) -> inputs with traced slots


def _wrap_solve(inputs: SolveInputs, tracer: Tracer) -> SolveInputs:
    instances = tuple(
        Instance(tracer.wrap_problem(inst.problem), inst.lam0,
                 None if inst.metric is None else tracer.wrap("models.metric", inst.metric))
        for inst in inputs.instances)
    return dataclasses.replace(inputs, instances=instances)


def _wrap_verify(inputs: list, tracer: Tracer) -> list:
    return [(name, tracer.wrap_problem(problem), configs) for name, problem, configs in inputs]


WORKLOADS = {
    "quad_gap": Workload(setup_quad_gap,
                         partial(solve_cell, gate=gate_quad_gap, counts=quad_gap_counts),
                         _wrap_solve),
    "hyperclean": Workload(setup_hyperclean, partial(solve_cell, gate=gate_hyperclean),
                           _wrap_solve),
    "hyperrep": Workload(setup_hyperrep, partial(solve_cell, gate=gate_hyperrep), _wrap_solve),
    "verify": Workload(setup_verify, verify_cell, _wrap_verify),
}
