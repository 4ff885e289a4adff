"""Minimize one objective over the argmin set of another, single level.

The averaged solver interleaves gradient steps on the inner objective h with
gradient steps on the outer objective g, the h-step weighted by a schedule
alpha_k = k^(-1/4) that starts at 1 and decays.  Here h only pins the first
coordinate, so g gets to choose the second: the solve lands on the member of
argmin h that g prefers.

That holds because g's own minimizer (0, 3) lies in argmin h.  The decaying
weight multiplies the h step, so the h step fades and the iterates approach
argmin g itself.  The second part moves g's minimizer to (1, 3), off argmin
h: the solve then drifts from g's pick on argmin h, (0, 3), toward (1, 3).
"""

import numpy as np

from bilevelopt import bigsam_standalone

h = (lambda w: float(0.5 * w[0] ** 2),
     lambda w: np.array([w[0], 0.0]))
g = (lambda w: float(0.5 * w[0] ** 2 + 0.5 * (w[1] - 3.0) ** 2),
     lambda w: np.array([w[0], w[1] - 3.0]))

start = np.array([5.0, 0.0])
print(f"start             : {start}")
print("argmin h          : the line w1 = 0 (w2 free)")
print("g's pick on it    : (0, 3)")

for K in (10, 100, 1000, 5000):
    out = bigsam_standalone(h, g, start, K=K, t=0.1, s=0.1)
    print(f"K = {K:5d} steps   : w = ({out[0]: .6f}, {out[1]: .6f})")

out = bigsam_standalone(h, g, start, K=5000, t=0.1, s=0.1)
err = np.abs(out - np.array([0.0, 3.0])).max()
print(f"\nfinal error vs (0, 3): {err:.2e}")

g_off = (lambda w: float(0.5 * (w[0] - 1.0) ** 2 + 0.5 * (w[1] - 3.0) ** 2),
         lambda w: np.array([w[0] - 1.0, w[1] - 3.0]))
print("\nwith g's minimizer moved to (1, 3), off argmin h:")
for K in (100, 1000, 5000):
    out = bigsam_standalone(h, g_off, start, K=K, t=0.1, s=0.1)
    print(f"K = {K:5d} steps   : w = ({out[0]: .6f}, {out[1]: .6f})")
print("the iterates approach argmin g at (1, 3), not g's pick (0, 3) on argmin h")
