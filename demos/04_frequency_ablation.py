"""How often does the inner solve need the outer objective's gradient?

Applying the averaged step only every f-th inner iteration (pure inner
gradient steps otherwise) trades computation for fidelity to the improved
formulation.  On the degenerate quadratic the final outer value degrades
gracefully as f grows, yet even sparse averaging stays far below the basic
model, which never consults the outer objective during the inner solve.
"""

import numpy as np

from bilevelopt import SolveConfig, make_degenerate_quadratic, run_model
from bilevelopt.models import ablation_config

problem = make_degenerate_quadratic()
base = SolveConfig(t=0.1, s=0.1, eta=0.5, K=200, T=100)

frequencies = [1, 5, 20, 0]          # 0 = basic baseline on the same budget
traces = [run_model(problem, np.array([1.0]), ablation_config(base, f)) for f in frequencies]

print("final outer value by averaging frequency (K = 200 inner steps):")
for f, trace in zip(frequencies, traces):
    label = "basic" if f == 0 else f"every {f:2d} steps"
    extra = "" if f == 0 else f"  ({200 // f} averaged steps per solve)"
    print(f"  {label:15s}: {trace.final_outer_value:.6f}{extra}")

f20 = traces[2].final_outer_value
basic = traces[3].final_outer_value
print(f"\neven at one averaged step in twenty, the gap to basic is "
      f"{basic - f20:.4f}")
