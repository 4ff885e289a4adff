"""A tape built by hand, for tests of the reverse pass at chosen iterates and weights."""

import numpy as np

import bilevelopt as bl
from bilevelopt.bigsam import step_weights


def hand_tape(problem, iterates, alphas, t=0.1, s=0.1, lam=(0.0,)):
    """A ``Tape`` whose VJPs ``bl.linearizer`` binds at the given iterates and weights.

    Its iterates need not follow the solver's dynamics: step k's VJP is that
    of ``problem``'s step map at iterates[k] with the ``step_weights`` of
    alphas[k], the one a solve passing through them would record.  The
    forward steps run with overflow unwarned, as the solve's do.
    """
    alphas = np.array(alphas, dtype=float)
    lam = np.array(lam, dtype=float)
    iterates = np.array(iterates, dtype=float).reshape(len(alphas) + 1, -1)
    step = bl.linearizer(problem, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        vjps = tuple(step(w, ta, sb)[1]
                     for w, (ta, sb) in zip(iterates, step_weights(alphas, t, s)))
    return bl.Tape(iterates=iterates, final=iterates[-1], alphas=alphas, lam=lam, vjps=vjps)
