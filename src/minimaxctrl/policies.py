"""Online control laws: fixed-gain state feedback and adaptive switching.

The adaptive law plays the gain of the model with the least accumulated
residual, lowest index on ties.  The caller owns the residuals; all three
functions are pure and take float arrays.
"""
from __future__ import annotations

import numpy as np


def minimax_step(cert, alpha, x):
    """Control for state x: returns (u, l), u = -K_l x with l = 1 + argmin alpha."""
    l = int(alpha.argmin()) + 1
    return -cert.gains[l - 1] @ x, l


def update_residuals(ms, alpha, x, u):
    """Fold a block of s observed transitions into every model's residual.

    x: (s + 1, n) states x_k .. x_{k+s}; u: (s, m) inputs u_k .. u_{k+s-1}.
    At each step model i's residual grows by the squared size of the
    disturbance it would need to explain it: ||x_{j+1} - A_i x_j - B_i u_j||^2.
    Returns the (s, F) residual vectors after each step: a running sum
    seeded with `alpha` (not modified), added in step order, so a block has
    the bits of folding one step at a time
    (test_policies.py::test_blocks_fold_like_single_steps).
    """
    r = (ms.A @ x[:-1, None, :, None])[..., 0]
    np.subtract(x[1:, None], r, out=r)
    r -= (ms.B @ u[:, None, :, None])[..., 0]
    r *= r
    return np.cumsum(np.vstack([alpha, r.sum(axis=2)]), axis=0)[1:]


def hinf_step(K, x):
    """Fixed-gain feedback u = -K x."""
    return -K @ x
