"""Independent brute-force verifiers.

Everything here checks the fast paths against slower, structurally different
computations: analytic gradients against central differences, analytic VJPs
against the finite-difference fallback, the unrolled reverse pass against a
value-only difference quotient of f_K, and (at tiny dimension) the whole
bilevel minimum against an exhaustive grid that literally enumerates the
inner argmin set.

The referee fails closed: a ``CheckConfig`` that samples no point, or
compares against a tolerance that is not finite and positive, or names an
inner solve that ``InnerSolveSpec`` rejects, is refused at construction,
before any check runs.  Every verifier draws its points from its own fixed
seed.  The reverse-vs-FD solves of an improved config average with the
solver's default exponent, ``bilevelopt.bigsam.ALPHA_EXPONENT``, and those
of a basic config with exponent 0 (``bilevelopt.bigsam.model_exponent``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .bigsam import (InnerSolveSpec, check_count, check_finite_positive, model_exponent,
                     solve_inner)
from .hypergrad import hypergradient_fd_oracle, reverse_hypergradient
from .problem import (VJP_NAMES, VJP_SLOTS, BilevelProblem, OracleDivergence, batched,
                      default_fd_eps, fd_vjp, validate_first_order)

__all__ = ["OracleReport", "CheckConfig", "grid_min_oracle", "check_suite",
           "default_check_configs"]

ARGMIN_BAND = 1e-6   # membership band converting the exact argmin set to a grid set
GRID_TOL = 0.05         # grid minimum against the analytic one, absolute
GRID_RESOLUTION = 401   # grid points per axis
GRID_HALFWIDTH = 2.0    # every grid axis spans [-GRID_HALFWIDTH, GRID_HALFWIDTH]


def _worst(errors: list) -> float:
    """The largest of the per-point errors, NaN if any is NaN (``max`` would drop it)."""
    return float(np.max(errors)) if errors else 0.0


def _json_safe(value):
    """``value`` with every non-finite float, however nested, as its repr."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass(frozen=True)
class OracleReport:
    """One verifier's outcome; passed iff max_rel_err <= tolerance.

    A non-finite per-point error fails its report, and ``max_rel_err`` is
    then NaN or inf.  ``to_dict`` keeps every finite float a JSON number
    and writes a non-finite one as the string "nan", "inf" or "-inf", so
    that its dict always serializes to strict JSON.
    """

    name: str
    problem: str
    max_rel_err: float
    tolerance: float
    passed: bool
    details: tuple = ()

    def to_dict(self) -> dict:
        return _json_safe({"name": self.name, "problem": self.problem,
                           "max_rel_err": self.max_rel_err, "tolerance": self.tolerance,
                           "passed": bool(self.passed), "details": list(self.details)})


@dataclass(frozen=True)
class CheckConfig:
    """One bundle of checks: sampling, inner-solve constants, tolerances.

    A config that would check nothing, or check against nothing, is rejected
    at construction: ``n_points`` and ``hg_points`` must be at least 1, each
    tolerance finite and positive, and ``mode``, ``K``, ``t`` and ``s`` must
    make the ``inner_spec`` of the reverse-vs-FD check.
    """

    n_points: int = 10
    hg_points: int = 5
    K: int = 50
    t: float = 0.1
    s: float = 0.1
    mode: str = "improved"
    tol_grad: float = 1e-6
    tol_vjp: float = 1e-4
    tol_hg: float = 1e-4
    run_grid: bool = False

    def __post_init__(self):
        for name in ("n_points", "hg_points"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 1))
        for name in ("tol_grad", "tol_vjp", "tol_hg"):
            check_finite_positive(name, getattr(self, name))
        self.inner_spec()   # rejects a bad mode, K, t or s

    def inner_spec(self) -> InnerSolveSpec:
        """The inner solve of the reverse-vs-FD check: the mode's exponent at its default."""
        return InnerSolveSpec(K=self.K, t=self.t, s=self.s,
                              alpha_exponent=model_exponent(self.mode))


def _unit_ball(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return v
    return v / norm * rng.uniform() ** (1.0 / dim)


def grid_min_oracle(problem: BilevelProblem, lam_box, omega_box,
                    resolution: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """Exhaustive bilevel minimum at tiny dimension.

    For each grid lam: find the grid argmin set of h (within a 1e-6 band of
    the grid minimum), pick its g-minimizing member, and track the best
    (lam, omega, value) overall.  h is evaluated on the whole omega grid and
    g on the argmin set alone, each as one stack through ``batched``.  Ties
    break toward the lowest lexicographic grid index, so the reduction is
    deterministic.  A grid lam where h's minimum, or g on a member of the
    argmin set, is not finite raises ``OracleDivergence``.
    """
    n, m = problem.dims
    if n > 2 or m > 2:
        raise ValueError(f"oracle-dim-limit: grid oracle supports at most 2+2 dims, got {n}+{m}")
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    lam_axes = [np.linspace(lo, hi, resolution) for lo, hi in lam_box]
    om_axes = [np.linspace(lo, hi, resolution) for lo, hi in omega_box]
    om_grid = np.stack([g.ravel() for g in np.meshgrid(*om_axes, indexing="ij")], axis=1)

    h_batch, g_batch = batched(problem, "h_batch"), batched(problem, "g_batch")
    best_val = np.inf
    best = None
    lam_grid = np.stack([g.ravel() for g in np.meshgrid(*lam_axes, indexing="ij")], axis=1)
    for lam in lam_grid:
        with np.errstate(all="ignore"):
            h = np.asarray(h_batch(om_grid, lam))
            h_min = h.min()
        if not math.isfinite(h_min):
            raise OracleDivergence(f"oracle-divergence: h non-finite on the grid at lam={lam}")
        members = np.flatnonzero(h <= h_min + ARGMIN_BAND)
        with np.errstate(all="ignore"):
            g = np.asarray(g_batch(om_grid[members], lam))
        if not np.all(np.isfinite(g)):
            raise OracleDivergence(
                f"oracle-divergence: g non-finite on the argmin set at lam={lam}")
        pick = int(np.argmin(g))
        if g[pick] < best_val:
            best_val = float(g[pick])
            best = (lam.copy(), om_grid[members[pick]].copy())
    return best[0], best[1], best_val


def _check_first_order(problem, cfg) -> OracleReport:
    rng = np.random.default_rng(0)
    n, m = problem.dims
    details = []
    for _ in range(cfg.n_points):
        omega = _unit_ball(rng, n)
        lam = _unit_ball(rng, m)
        rep = validate_first_order(problem, omega, lam, tol=cfg.tol_grad)
        for gname, (err, _) in rep.entries.items():
            details.append({"gradient": gname, "rel_err": err})
    worst = _worst([d["rel_err"] for d in details])
    return OracleReport("first-order-vs-fd", problem.name, worst, cfg.tol_grad,
                        worst <= cfg.tol_grad, tuple(details))


def _check_vjps(problem, cfg) -> Optional[OracleReport]:
    analytic = [(attr, which) for attr, which in zip(VJP_SLOTS, VJP_NAMES)
                if getattr(problem, attr) is not None]
    if not analytic:
        return None
    rng = np.random.default_rng(1)
    n, m = problem.dims
    details = []
    for _ in range(cfg.n_points):
        omega = _unit_ball(rng, n)
        lam = _unit_ball(rng, m)
        a = _unit_ball(rng, n)
        for attr, which in analytic:
            got = getattr(problem, attr)(a, omega, lam)
            point = omega if which.endswith("11") else lam
            want = fd_vjp(problem, which, a, omega, lam, default_fd_eps(point))
            err = float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))
            details.append({"vjp": attr, "rel_err": err})
    worst = _worst([d["rel_err"] for d in details])
    return OracleReport("vjp-vs-fd", problem.name, worst, cfg.tol_vjp,
                        worst <= cfg.tol_vjp, tuple(details))


def _check_reverse(problem, cfg) -> OracleReport:
    rng = np.random.default_rng(2)
    spec = cfg.inner_spec()
    details = []
    for _ in range(cfg.hg_points):
        lam = _unit_ball(rng, problem.outer_dim)
        tape = solve_inner(problem, lam, spec)
        got = reverse_hypergradient(problem, tape)
        want = hypergradient_fd_oracle(problem, lam, spec)
        err = float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))
        details.append({"mode": cfg.mode, "K": cfg.K, "rel_err": err})
    worst = _worst([d["rel_err"] for d in details])
    return OracleReport("reverse-vs-fd-hypergradient", problem.name, worst, cfg.tol_hg,
                        worst <= cfg.tol_hg, tuple(details))


def _check_grid(problem, cfg) -> Optional[OracleReport]:
    n, m = problem.dims
    if n > 2 or m > 2 or not cfg.run_grid:
        return None
    analytic_min = problem.answers.get("min_f_improved", problem.answers.get("min_f"))
    if analytic_min is None:
        return None
    box = [(-GRID_HALFWIDTH, GRID_HALFWIDTH)]
    _, _, value = grid_min_oracle(problem, box * m, box * n, GRID_RESOLUTION)
    err = abs(value - analytic_min)
    return OracleReport("grid-min-vs-analytic", problem.name, float(err), GRID_TOL,
                        err <= GRID_TOL, ({"grid_value": value, "analytic": analytic_min},))


def check_suite(problem: BilevelProblem, configs: List[CheckConfig]) -> List[OracleReport]:
    """Run every applicable verifier for each config; failures are report rows."""
    reports: List[OracleReport] = []
    for cfg in configs:
        for rep in (_check_first_order(problem, cfg), _check_vjps(problem, cfg),
                    _check_reverse(problem, cfg), _check_grid(problem, cfg)):
            if rep is not None:
                reports.append(rep)
    return reports


def default_check_configs(name: str) -> List[CheckConfig]:
    """Per-problem check bundles sized so the whole suite stays fast."""
    if name in ("closedform_quadratic", "degenerate_quadratic"):
        return [CheckConfig(mode="improved", K=50, run_grid=True),
                CheckConfig(mode="basic", K=50)]
    if name == "hyperclean_synthetic":
        return [CheckConfig(mode="improved", K=20, t=0.01, s=0.001, n_points=5, hg_points=3),
                CheckConfig(mode="basic", K=20, t=0.01, s=0.001, n_points=5, hg_points=3)]
    if name == "hyperrep_synthetic":
        return [CheckConfig(mode="improved", K=10, t=0.01, s=0.01, n_points=3, hg_points=2),
                CheckConfig(mode="basic", K=10, t=0.01, s=0.01, n_points=3, hg_points=2)]
    raise KeyError(f"no default check configs for {name!r}")
