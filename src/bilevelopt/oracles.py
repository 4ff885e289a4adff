"""Independent brute-force verifiers.

Everything here checks the fast paths against slower, structurally different
computations: analytic gradients against central differences, analytic VJPs
against the finite-difference fallback, the unrolled reverse pass against a
value-only difference quotient of f_K, and (at tiny dimension) the whole
bilevel minimum against an exhaustive grid that literally enumerates the
inner argmin set.

Only the reverse-vs-FD check reads a model (its mode, K, t and s); the
first-order, VJP and grid checks read the problem alone.  So an improved
config runs every check and a basic config the reverse-vs-FD check alone,
and a bundle of one config per model asks for each model-free check once.
A report's verdict is derived in one place: ``OracleReport.passed`` is
``max_rel_err <= tolerance``.

The referee fails closed: a ``CheckConfig`` that samples no point, or
compares against a tolerance that is not finite and positive, or names an
inner solve that ``InnerSolveSpec`` rejects, is refused at construction,
before any check runs.  The three sampling checks (first-order, VJP and
reverse) draw their unit-ball points through one sampler, ``_points``, each
from its own fixed seed: 0, 1 and 2; one builder, ``_report``, makes their
reports from the worst per-point error, and the VJP and reverse checks
score each point through one rule, ``_rel_err``, under which a result of
the wrong shape scores inf.  The reverse-vs-FD solves of an
improved config average with the solver's default exponent,
``bilevelopt.bigsam.ALPHA_EXPONENT``, and those of a basic config with
exponent 0 (``bilevelopt.bigsam.model_exponent``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .bigsam import MODES, InnerSolveSpec, check_count, model_exponent, solve_inner
from .hypergrad import hypergradient_fd_oracle, reverse_hypergradient
from .problem import (VJP_NAMES, VJP_SLOTS, BilevelProblem, check_finite_positive, fd_vjp,
                      finite, per_row, validate_first_order)
from .problems import ZOO_DEFAULTS

__all__ = ["OracleReport", "CheckConfig", "grid_min_oracle", "check_suite",
           "default_check_configs"]

ARGMIN_BAND = 1e-6   # membership band converting the exact argmin set to a grid set
GRID_TOL = 0.05         # grid minimum against the analytic one, absolute
GRID_RESOLUTION = 401   # grid points per axis
GRID_HALFWIDTH = 2.0    # every grid axis spans [-GRID_HALFWIDTH, GRID_HALFWIDTH]
# h evaluations (lam points x omega points) a grid may ask for.  A 2+1 grid at
# 401 per axis asks for 6.4e7 (a fraction of a second through h_value on
# whole stacks), a 2+2 grid for 2.6e10, which would run for hours
GRID_BUDGET = 10 ** 8


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
    """One verifier's outcome, judged by ``passed``.

    A non-finite per-point error fails its report, and ``max_rel_err`` is
    then NaN or inf.  ``to_dict`` keeps every finite float a JSON number
    and writes a non-finite one as the string "nan", "inf" or "-inf", so
    that its dict always serializes to strict JSON.
    """

    name: str
    problem: str
    max_rel_err: float
    tolerance: float
    details: tuple = ()

    @property
    def passed(self) -> bool:
        """``max_rel_err <= tolerance``: False at NaN, inf and -inf."""
        return bool(math.isfinite(self.max_rel_err) and self.max_rel_err <= self.tolerance)

    def to_dict(self) -> dict:
        return _json_safe({"name": self.name, "problem": self.problem,
                           "max_rel_err": self.max_rel_err, "tolerance": self.tolerance,
                           "passed": self.passed, "details": list(self.details)})


@dataclass(frozen=True)
class CheckConfig:
    """One bundle of checks: sampling, inner-solve constants, tolerances.

    Every config runs the reverse-vs-FD check, the one check that reads its
    model.  An improved config (the default) adds the checks that read no
    model: first-order, VJP, and the grid where it applies.

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


def _points(seed: int, count: int, *dims: int) -> list:
    """``count`` tuples of unit-ball points of the sizes ``dims``, drawn in order from ``seed``."""
    rng = np.random.default_rng(seed)
    return [tuple(_unit_ball(rng, dim) for dim in dims) for _ in range(count)]


def _rel_err(got, want: np.ndarray) -> float:
    """||got - want|| / max(1, ||want||), or inf where got's shape is not want's.

    A wrong-shaped result would broadcast against the reference, so it
    scores inf and its check fails closed, as in ``validate_first_order``.
    """
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


def _report(name: str, problem, tol: float, details: list) -> OracleReport:
    """A sampling check's report: its largest per-point ``rel_err`` against ``tol``.

    The largest is NaN if any error is NaN (``max`` would drop it), so such a
    report fails.
    """
    errors = [d["rel_err"] for d in details]
    worst = float(np.max(errors)) if errors else 0.0
    return OracleReport(name, problem.name, worst, tol, tuple(details))


def grid_min_oracle(problem: BilevelProblem, lam_box, omega_box,
                    resolution: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """Exhaustive bilevel minimum at tiny dimension.

    For each grid lam: find the grid argmin set of h (within a 1e-6 band of
    the grid minimum), pick its g-minimizing member, and track the best
    (lam, omega, value) overall.  h is evaluated on the whole omega grid and
    g on the argmin set alone, each as one stack through ``h_value`` and
    ``g_value``, whose results ``per_row`` checks for one value per row.
    Ties break toward the lowest lexicographic grid index, so the reduction
    is deterministic.  A grid lam where h's minimum, or g on a member of the
    argmin set, is not finite raises ``OracleDivergence``.  A box that does
    not give one (lo, hi) axis per coordinate (``lam_box`` m, ``omega_box``
    n), and a grid whose h evaluations, resolution**(m + n), exceed
    ``GRID_BUDGET``, are refused with a ``ValueError`` before anything is
    evaluated.
    """
    n, m = problem.dims
    if n > 2 or m > 2:
        raise ValueError(f"oracle-dim-limit: grid oracle supports at most 2+2 dims, got {n}+{m}")
    for box, name, dim in ((lam_box, "lam_box", m), (omega_box, "omega_box", n)):
        if len(box) != dim:
            raise ValueError(f"{name} must give one axis per coordinate of {name[:-4]}: "
                             f"{dim}, got {len(box)}")
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    count = resolution ** (m + n)
    if count > GRID_BUDGET:
        raise ValueError(f"grid-budget: {resolution}^{m} lam points x {resolution}^{n} omega "
                         f"points make {count} h evaluations, above GRID_BUDGET = {GRID_BUDGET}")
    lam_axes = [np.linspace(lo, hi, resolution) for lo, hi in lam_box]
    om_axes = [np.linspace(lo, hi, resolution) for lo, hi in omega_box]
    om_grid = np.stack([g.ravel() for g in np.meshgrid(*om_axes, indexing="ij")], axis=1)

    best_val = np.inf
    best = None
    lam_grid = np.stack([g.ravel() for g in np.meshgrid(*lam_axes, indexing="ij")], axis=1)
    for lam in lam_grid:
        with np.errstate(all="ignore"):
            h = per_row("h_value", problem.h_value(om_grid, lam), len(om_grid))
            h_min = h.min()
        # functions, so that the messages are formed on the failure path only
        finite(h_min, lambda _: f"h non-finite on the grid at lam={lam}")
        members = np.flatnonzero(h <= h_min + ARGMIN_BAND)
        with np.errstate(all="ignore"):
            g = finite(per_row("g_value", problem.g_value(om_grid[members], lam), len(members)),
                       lambda _: f"g non-finite on the argmin set at lam={lam}")
        pick = int(np.argmin(g))
        if g[pick] < best_val:
            best_val = float(g[pick])
            best = (lam.copy(), om_grid[members[pick]].copy())
    return best[0], best[1], best_val


def _check_first_order(problem, cfg) -> OracleReport:
    details = []
    for omega, lam in _points(0, cfg.n_points, *problem.dims):
        errors = validate_first_order(problem, omega, lam)
        for gname, err in errors.items():
            details.append({"gradient": gname, "rel_err": err})
    return _report("first-order-vs-fd", problem, cfg.tol_grad, details)


def _check_vjps(problem, cfg) -> Optional[OracleReport]:
    analytic = [(attr, which) for attr, which in zip(VJP_SLOTS, VJP_NAMES)
                if getattr(problem, attr) is not None]
    if not analytic:
        return None
    n, m = problem.dims
    details = []
    for omega, lam, a in _points(1, cfg.n_points, n, m, n):
        for attr, which in analytic:
            got = getattr(problem, attr)(a, omega, lam)
            want = fd_vjp(problem, which, a, omega, lam)
            details.append({"vjp": attr, "rel_err": _rel_err(got, want)})
    return _report("vjp-vs-fd", problem, cfg.tol_vjp, details)


def _check_reverse(problem, cfg) -> OracleReport:
    spec = cfg.inner_spec()
    details = []
    for (lam,) in _points(2, cfg.hg_points, problem.outer_dim):
        tape = solve_inner(problem, lam, spec)
        got = reverse_hypergradient(problem, tape)
        want = hypergradient_fd_oracle(problem, lam, spec)
        details.append({"mode": cfg.mode, "K": cfg.K, "rel_err": _rel_err(got, want)})
    return _report("reverse-vs-fd-hypergradient", problem, cfg.tol_hg, details)


def _check_grid(problem, cfg) -> Optional[OracleReport]:
    n, m = problem.dims
    if n > 2 or m > 2:
        return None
    analytic_min = problem.answers.get("min_f_improved", problem.answers.get("min_f"))
    if analytic_min is None:
        return None
    box = [(-GRID_HALFWIDTH, GRID_HALFWIDTH)]
    _, _, value = grid_min_oracle(problem, box * m, box * n, GRID_RESOLUTION)
    err = abs(value - analytic_min)
    return OracleReport("grid-min-vs-analytic", problem.name, float(err), GRID_TOL,
                        ({"grid_value": value, "analytic": analytic_min},))


def check_suite(problem: BilevelProblem, configs: List[CheckConfig]) -> List[OracleReport]:
    """Run every applicable verifier for each config; failures are report rows.

    An improved config runs, in this order, the first-order, VJP,
    reverse-vs-FD and grid checks; a basic config runs the reverse-vs-FD
    check alone, since the others read no model.
    """
    reports: List[OracleReport] = []
    for cfg in configs:
        checks = ((_check_first_order, _check_vjps, _check_reverse, _check_grid)
                  if cfg.mode == "improved" else (_check_reverse,))
        for check in checks:
            rep = check(problem, cfg)
            if rep is not None:
                reports.append(rep)
    return reports


def default_check_configs(name: str) -> List[CheckConfig]:
    """One check bundle per model, in ``MODES`` order, for a zoo problem.

    Each bundle solves at the problem's ``ZOO_DEFAULTS`` step sizes ``t`` and
    ``s``; only the inner solve's length and the number of sampled points are
    set per problem, sized so the whole suite stays fast.  ``check_suite``
    runs the first-order and VJP checks, and the grid referee on a problem
    of at most two inner and two outer dimensions with an analytic minimum,
    for the improved bundle alone; the basic bundle's would repeat them bit
    for bit.  The two bundles differ only in ``mode``.
    """
    sizes = {
        "closedform_quadratic": dict(K=50, n_points=10, hg_points=5),
        "degenerate_quadratic": dict(K=50, n_points=10, hg_points=5),
        "hyperclean_synthetic": dict(K=20, n_points=5, hg_points=3),
        "hyperrep_synthetic": dict(K=10, n_points=3, hg_points=2),
    }
    if name not in sizes:
        raise KeyError(f"no default check configs for {name!r}")
    zoo = ZOO_DEFAULTS[name]
    return [CheckConfig(mode=mode, t=zoo["t"], s=zoo["s"], **sizes[name]) for mode in MODES]
