"""Slow reference implementations that the fast paths are tested against."""

import numpy as np


def power_iteration(operator, max_iter=1_000_000):
    """(lambda, phi) of a CellOperator by plain shifted power iteration
    from the constant vector, phi normalized to max 1.  It stops when the
    max norm of (L + s I) v - lambda v falls to 1e-10 and shares no code
    with kpplab.principal_eigenvalue."""
    s = operator.shift
    v = np.ones(operator.shape)
    for _ in range(max_iter):
        w = operator.matvec(v) + s * v
        top = float(w.max())
        if np.max(np.abs(w - top * v)) <= 1e-10:
            return top - s, v / v.max()
        v = w / top
    raise RuntimeError(f"oracle power iteration: no convergence in {max_iter} iterations")
