"""Outer-loop drivers for the improved and basic bilevel models.

Each outer iteration re-initializes the inner variable, runs the inner solver
for K steps, differentiates through the recorded trajectory, and takes one
plain gradient-descent step on the outer variable.  Improved and basic runs
differ only in the averaging exponent of the inner solve, which
``SolveConfig.inner_spec`` reads off the config's mode (basic is exponent
0); every other constant is shared so comparisons are matched-budget.  One
cell of a frequency ablation is ``run_model`` on the config that
``ablation_config`` derives from a base.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from .bigsam import (ALPHA_EXPONENT, InnerSolveSpec, check_count, check_inner_settings,
                     model_exponent, solve_inner)
from .hypergrad import reverse_hypergradient
from .problem import (BilevelProblem, OracleDivergence, as_vector, check_finite_positive, finite,
                      per_row)

__all__ = ["SolveConfig", "TraceRecord", "ExperimentTrace", "run_model", "ablation_config"]


@dataclass(frozen=True)
class SolveConfig:
    """All scalars of one run: step sizes, budgets, schedule, seed, mode.

    ``K``, ``T``, ``bigsam_frequency`` and ``seed`` must be integral: 200.0 is
    200, 2.5 fails.  The seed may be 0; the other counts are at least 1.  The
    step sizes ``t``, ``s``, ``eta`` and ``alpha_exponent`` must be numbers
    that a float can hold, not bools or strings (``check_number``), and the
    step sizes finite and positive; ``t``, ``s`` and the exponent are
    checked as ``InnerSolveSpec`` checks them (``check_inner_settings``).
    A basic run solves with exponent 0, whatever ``alpha_exponent`` holds.
    """

    t: float
    s: float
    eta: float
    K: int
    T: int
    alpha_exponent: float = ALPHA_EXPONENT
    bigsam_frequency: int = 1
    seed: int = 0
    mode: str = "improved"

    def __post_init__(self):
        for name, least in (("K", 1), ("T", 1), ("bigsam_frequency", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                object.__setattr__(self, name, check_count(name, value, least))
        # the exponent is checked in a basic run too
        check_inner_settings(self.t, self.s, self.alpha_exponent, self.K, self.bigsam_frequency)
        check_finite_positive("eta", self.eta)
        model_exponent(self.mode)   # rejects an unknown mode

    def inner_spec(self) -> InnerSolveSpec:
        return InnerSolveSpec(K=self.K, t=self.t, s=self.s,
                              alpha_exponent=model_exponent(self.mode, self.alpha_exponent),
                              bigsam_frequency=self.bigsam_frequency)


@dataclass(frozen=True)
class TraceRecord:
    index: int
    outer_value: float
    grad_norm: float
    metric: Optional[float]
    wall_ms: float


@dataclass
class ExperimentTrace:
    """Per-iteration records plus the final outer and inner variables.

    Record i reflects the state *before* the i-th update, so a run with T
    outer iterations holds exactly T records and performs T-1 updates.
    """

    records: List[TraceRecord] = field(default_factory=list)
    final_lambda: Optional[np.ndarray] = None
    final_omega: Optional[np.ndarray] = None

    @property
    def outer_values(self) -> np.ndarray:
        return np.array([r.outer_value for r in self.records])

    @property
    def metrics(self) -> np.ndarray:
        return np.array([np.nan if r.metric is None else r.metric for r in self.records])

    @property
    def final_outer_value(self) -> float:
        return self.records[-1].outer_value

    @property
    def final_metric(self) -> Optional[float]:
        return self.records[-1].metric


def run_model(problem: BilevelProblem, lam0, config: SolveConfig,
              metric: Optional[Callable] = None,
              collect_timing: bool = True) -> ExperimentTrace:
    """Drive the outer variable for T iterations with unrolled hypergradients.

    Each record's outer value is f_K(lam) = g(omega_hat, lam), read as
    ``g_value`` on the stack of one row omega_hat[None], the oracle the
    referees check; a result of any shape but (1,) raises ``ValueError``.
    The optional ``metric`` evaluator is called once per outer iteration,
    after the inner solve, as metric(omega_hat, lam).  ``collect_timing``
    False zeroes the wall-clock column, for byte-level reproducibility.

    An oracle divergence mid-run aborts with an ``OracleDivergence`` that
    names the failing outer iteration in its message and carries it as
    ``failed_iteration``, beside ``partial_trace``, the trace of the
    iterations that finished; its cause is the inner divergence.  A
    non-finite outer value, gradient norm, metric or updated lam is reported
    the same way, and is never recorded.
    """
    lam = as_vector(lam0, problem.outer_dim, "lam0").copy()
    trace = ExperimentTrace()
    spec = config.inner_spec()
    omega_hat = None
    for it in range(config.T):
        started = time.monotonic()
        try:
            tape = solve_inner(problem, lam, spec)
            omega_hat = tape.final
            G = reverse_hypergradient(problem, tape)
            # the tape's saved residuals are spent: drop them before the next solve
            del tape
            wall_ms = (time.monotonic() - started) * 1e3 if collect_timing else 0.0
            # an overflow past this point is reported once, as the divergence below
            with np.errstate(over="ignore", invalid="ignore"):
                f_K = per_row("g_value", problem.g_value(omega_hat[None], lam), 1)
                record = TraceRecord(
                    index=it,
                    outer_value=float(f_K[0]),
                    grad_norm=float(np.linalg.norm(G)),
                    metric=None if metric is None else float(metric(omega_hat, lam)),
                    wall_ms=wall_ms,
                )
                if it < config.T - 1:
                    lam = lam - config.eta * G
            bad = [name for name, value in (("outer value", record.outer_value),
                                            ("gradient norm", record.grad_norm),
                                            ("metric", record.metric))
                   if value is not None and not np.isfinite(value)]
            if bad:
                raise OracleDivergence(f"oracle-divergence: non-finite {' and '.join(bad)}")
            trace.records.append(record)
            finite(lam, "non-finite lam after the outer update")
        except OracleDivergence as exc:
            error = OracleDivergence(f"outer iteration {it}: {exc}")
            error.partial_trace = trace
            error.failed_iteration = it
            raise error from exc
    trace.final_lambda = lam
    trace.final_omega = omega_hat
    return trace


def ablation_config(base_config: SolveConfig, frequency: int) -> SolveConfig:
    """The config of one ablation cell, all other constants held fixed.

    Frequency f applies the averaged step every f-th inner iteration and a
    pure inner-gradient step otherwise; the sentinel 0 runs basic mode on the
    same budget.  The frequency is a count of at least 0 (``check_count``).
    """
    if base_config.mode != "improved":
        raise ValueError("ablation requires an improved-mode base config")
    frequency = check_count("frequency", frequency, 0)
    if frequency == 0:
        return replace(base_config, mode="basic", bigsam_frequency=1)
    return replace(base_config, bigsam_frequency=frequency)
