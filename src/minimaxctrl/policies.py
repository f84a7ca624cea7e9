"""Online control laws: fixed-gain state feedback and adaptive switching.

The adaptive law keeps one accumulated residual per candidate model and
always plays the gain of the current best explainer (least residual,
lowest index on ties).  The caller owns the residual vector: `minimax_step`
reads it, and `update_residuals` returns the next one once the successor
state is observed, so the selection at step k uses data through step k.
All three functions are pure and take float arrays.
"""
from __future__ import annotations


def minimax_step(cert, alpha, x):
    """Control for state x: returns (u, l), u = -K_l x with l = 1 + argmin alpha."""
    l = int(alpha.argmin()) + 1
    return -cert.gains[l - 1] @ x, l


def update_residuals(ms, alpha, x, u, x_next):
    """Fold one observed transition into every model's residual.

    Model i's residual grows by the squared size of the disturbance it
    would need to explain the step: ||x_next - A_i x - B_i u||^2.  Returns
    the new residual vector; `alpha` is not modified.
    """
    w = x_next - ms.A @ x - ms.B @ u
    return alpha + (w * w).sum(axis=1)


def hinf_step(K, x):
    """Fixed-gain feedback u = -K x."""
    return -K @ x
