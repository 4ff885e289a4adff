"""Differentiate through an unrolled inner solve and check it three ways.

On the scalar problem h = (w - lam)^2 / 2, g = w^2 / 2 the exact outer
objective is f(lam) = lam^2 / 2, so the true gradient is simply lam.  The
reverse pass over the recorded trajectory must match (a) a central-difference
oracle on f_K for any K, and (b) the analytic gradient once the inner solve
has converged.  The solver knows no model: the improved model is the
default averaging exponent 1/4, and the basic model is exponent 0, under
which every step is plain gradient descent on h.
"""

import numpy as np

from bilevelopt import (InnerSolveSpec, hypergradient_fd_oracle,
                        make_closedform_quadratic, reverse_hypergradient,
                        solve_inner)

problem = make_closedform_quadratic()
lam = np.array([2.0])

print("reverse pass vs central differences (improved mode):")
for K in (1, 5, 50, 500):
    spec = InnerSolveSpec(K=K, t=0.1, s=0.1)
    tape = solve_inner(problem, lam, spec)
    rev = reverse_hypergradient(problem, tape)
    fd = hypergradient_fd_oracle(problem, lam, spec)
    print(f"  K = {K:4d}: reverse = {rev[0]: .8f}   fd = {fd[0]: .8f}   "
          f"|diff| = {abs(rev[0] - fd[0]):.2e}")

print("\nconverged basic-mode solve recovers the analytic gradient f'(lam) = lam:")
spec = InnerSolveSpec(K=2000, t=0.1, s=0.1, alpha_exponent=0.0)
tape = solve_inner(problem, lam, spec)
rev = reverse_hypergradient(problem, tape)
print(f"  reverse = {rev[0]:.6f}   analytic = {problem.answers['grad_f'](lam)[0]:.6f}")

print("\nthe averaged schedule leaves the inner iterate at the blend point,")
print("so its K-step outer objective is flatter than the exact one:")
for K in (50, 500, 5000):
    spec = InnerSolveSpec(K=K, t=0.1, s=0.1)
    tape = solve_inner(problem, lam, spec)
    rev = reverse_hypergradient(problem, tape)
    print(f"  K = {K:4d}: improved-mode hypergradient {rev[0]:.6f} "
          f"(inner iterate {tape.final[0]:.4f})")
