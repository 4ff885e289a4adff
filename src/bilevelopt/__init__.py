"""Bilevel optimization with averaged inner solves and unrolled hypergradients.

The package implements two couplings of an inner objective h(omega, lam) and
an outer objective g(omega, lam):

* the basic model, whose inner solver is plain gradient descent on h, and
* the improved model, whose inner solver averages h-gradient and g-gradient
  steps with a decaying weight, steering the inner iterate toward members of
  the inner argmin set that the outer objective prefers.

Hypergradients come from reverse-mode differentiation through the recorded
inner trajectory.  Everything is float64 numpy and deterministic given seeds.
"""

from .problem import (BilevelProblem, OracleDivergence, default_fd_eps, fd_vjp, linearizer,
                      rowwise, validate_first_order)
from .bigsam import InnerSolveSpec, Tape, bigsam_standalone, schedule, solve_inner
from .hypergrad import hypergradient_fd_oracle, reverse_hypergradient
from .models import ExperimentTrace, SolveConfig, TraceRecord, run_model
from .problems import (QuadraticBilevelSpec, ZooInstance, ZOO_NAMES,
                       hyperclean_f1_metric, hyperrep_accuracy_metric,
                       make_closedform_quadratic, make_degenerate_quadratic,
                       make_hypercleaning, make_hyperrep, make_quadratic,
                       zoo_problem)
from .data import (Dataset, EpisodeSet, corrupt_labels, f1_score, gen_synthetic, load_idx,
                   make_episodes, split, write_idx)
from .oracles import (CheckConfig, OracleReport, check_suite,
                      default_check_configs, grid_min_oracle)

__version__ = "0.1.0"

__all__ = [
    "BilevelProblem", "OracleDivergence", "default_fd_eps",
    "fd_vjp", "linearizer", "rowwise", "validate_first_order",
    "InnerSolveSpec", "Tape", "bigsam_standalone", "schedule", "solve_inner",
    "hypergradient_fd_oracle", "reverse_hypergradient",
    "ExperimentTrace", "SolveConfig", "TraceRecord", "run_model",
    "QuadraticBilevelSpec", "ZooInstance", "ZOO_NAMES", "hyperclean_f1_metric",
    "hyperrep_accuracy_metric", "make_closedform_quadratic",
    "make_degenerate_quadratic", "make_hypercleaning", "make_hyperrep",
    "make_quadratic", "zoo_problem",
    "Dataset", "EpisodeSet", "corrupt_labels",
    "f1_score", "gen_synthetic", "load_idx", "make_episodes", "split", "write_idx",
    "CheckConfig", "OracleReport", "check_suite", "default_check_configs",
    "grid_min_oracle",
    "__version__",
]
