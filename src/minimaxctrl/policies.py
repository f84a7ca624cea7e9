"""Online control laws: fixed-gain state feedback and adaptive switching.

The adaptive law keeps one accumulated residual per candidate model and
always plays the gain of the current best explainer (least residual,
lowest index on ties).  The caller owns the residual history:
`minimax_step` reads one residual vector, and `update_residuals` folds a
block of observed transitions into it, returning the vector after each
step, so the selection at step k uses data through step k.  All three
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
    seeded with `alpha`, added in step order, so it equals folding one step
    at a time.  `alpha` is not modified.
    """
    r = x[1:, None] - (ms.A @ x[:-1, None, :, None])[..., 0]
    r -= (ms.B @ u[:, None, :, None])[..., 0]
    r *= r
    return np.cumsum(np.vstack([alpha, r.sum(axis=2)]), axis=0)[1:]


def hinf_step(K, x):
    """Fixed-gain feedback u = -K x."""
    return -K @ x
