"""Reference kernels that track how fast the machine runs at the moment.

On a shared machine the speed of one core drifts by 10-25% over tens of
seconds, so the median cell time of a 20 s run moves with the load of other
tenants as much as with the code.  Each kernel here imitates one instruction
mix of the benchmark without touching the library:

* ``loop``: a Python loop over 2-element numpy arithmetic (``quad_gap``;
  ``hyperrep``, whose slots are small einsums dominated by per-call
  overhead; ``verify`` in part; and every workload's set-up, which is small
  numpy arithmetic driven from Python),
* ``dense``: a 400 x 10 matmul, softmax and transposed matmul (``hyperclean``).

The runner times its workload's kernel before each part of a cell and scales
the cell timings by ``NOMINAL_S / mean kernel time`` (to the power
``WORKLOAD_EXPONENT``), so a timing reads as it would at the machine's
nominal speed; set-up timings are scaled the same way by ``SETUP_KERNEL``.
The mean, not the median: one kernel call is short
enough to land wholly in a fast or a slow spell of the machine, so its times
are bimodal, and only the mean follows the share of time spent in each.  The
kernels do not change with the library, so a change to the library moves the
scaled timings and leaves the scale alone.  Each run prints its scales and
its unscaled timings, and ``record.json`` keeps both, with the spreads of
each, so the effect of the scaling can be checked.

``verify``'s cell timings follow ``loop`` only in part: about 60% of its
time goes to large batched arrays that follow no kernel closely.  Over 20
unscaled runs on the machine of ``record.json``, the log of its ``wall_s``
fell with the log of the ``loop`` scale with slope 0.49 (correlation 0.90),
so its cell timings are scaled by the square root of the ``loop`` scale
(``WORKLOAD_EXPONENT``).
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((400, 10))
_XT = np.ascontiguousarray(_X.T)
_W = _RNG.standard_normal((10, 2))


def _loop() -> None:
    w = np.zeros(2)
    a = np.array([1.0, 0.0])
    c = np.array([0.0, 1.0])
    for _ in range(1500):
        w = w - 0.1 * ((w - 0.25) * a) - 0.05 * (w - c)


def _dense() -> None:
    for _ in range(60):
        Z = _X @ _W
        Z -= Z.max(axis=1, keepdims=True)
        np.exp(Z, out=Z)
        Z /= Z.sum(axis=1, keepdims=True)
        _XT @ Z


KERNELS = {"loop": _loop, "dense": _dense}

# median kernel times on the machine of perfbench/record.json when the benchmark was
# defined; they fix the unit of the scaled timings and nothing else
NOMINAL_S = {"loop": 0.01, "dense": 0.004}

WORKLOAD_KERNEL = {"quad_gap": "loop", "hyperclean": "dense", "hyperrep": "loop",
                   "verify": "loop"}
WORKLOAD_EXPONENT = {"quad_gap": 1.0, "hyperclean": 1.0, "hyperrep": 1.0, "verify": 0.5}
SETUP_KERNEL = "loop"


class Probe:
    """Samples one kernel; ``scale`` maps measured time to nominal time."""

    REPS = 6     # kernel calls per sample point: about 6% of a run

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []

    def __call__(self) -> None:
        kernel = KERNELS[self.name]
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def scale(self) -> float:
        """Nominal over mean kernel time: multiply a time by it, divide a rate."""
        return NOMINAL_S[self.name] / float(np.mean(self.samples))
