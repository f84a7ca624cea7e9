"""Closed-loop rollouts of the true model against a controller.

Feedback-type disturbances (worst-case linear, confusing) are only ever
generated along the loop their kind fixes.  To expose a second controller
to the identical input, roll out the generating loop first and replay the
recorded sequence, which `rollout` accepts in place of the config's spec.
This keeps comparisons honest: both controllers see the same w, not the
same disturbance law.

The time loop computes only what feeds the next step: the input, the
disturbance, the successor state and the residuals.  Step costs are
computed after the loop, in one stacked product.  A rollout diverges at
the first state whose squared norm is above DIVERGENCE_LIMIT**2 or that is
not finite; a state that overflows is such a state, not a numpy warning.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import disturbance as _dist
from .fileio import write_csv
from .minimax_cert import MinimaxCertificate, check_gains_shape
from .policies import hinf_step, minimax_step, update_residuals

DIVERGENCE_LIMIT = 1e12


class DivergedRollout(RuntimeError):
    """State norm left the trust region; the closed loop is blowing up."""


@dataclass(eq=False)
class Trajectory:
    """One rollout.

    x: (T+1, n) states, u: (T, m) inputs, w: (T, n) disturbances.
    l: (T,) selected model indices (1-based), None for fixed-gain runs.
    alpha_hist: (T+1, F) residuals after k updates, None for fixed-gain.
    step_cost: (T+1,), x_k'Q x_k + u_k'R u_k for k < T and the terminal
    x_T'Q x_T at k = T.
    """

    x: np.ndarray
    u: np.ndarray
    w: np.ndarray
    step_cost: np.ndarray
    l: np.ndarray | None = None
    alpha_hist: np.ndarray | None = None

    @property
    def horizon(self):
        return self.u.shape[0]


def rollout(cfg, controller, disturbance=None):
    """Simulate cfg.horizon steps of the true model under `controller`.

    controller: a MinimaxCertificate (adaptive switching) or an (m, n) gain
    matrix K for fixed feedback u = -K x.  disturbance: None to generate the
    sequence from cfg's spec, or a recorded (T, n) array to replay.
    The step costs are computed after the loop.  Raises DivergedRollout at
    the first state whose squared norm is above DIVERGENCE_LIMIT**2 or that
    has a non-finite entry (an overflow included).
    """
    ms = cfg.model_set
    T, n = cfg.horizon, ms.n
    A, B = ms.pair(cfg.true_index)

    adaptive = isinstance(controller, MinimaxCertificate)
    if adaptive:
        check_gains_shape(controller, ms)
    else:
        controller = np.asarray(controller, dtype=float)
        if controller.shape != (ms.m, n):
            raise ValueError(
                f"gain must be ({ms.m}, {n}), got {controller.shape}"
            )

    spec = cfg.disturbance
    replay = disturbance is not None
    if replay:
        w = np.array(disturbance, dtype=float)  # a copy, never the caller's array
        if w.shape != (T, n):
            raise ValueError(
                f"recorded disturbance must be ({T}, {n}), got {w.shape}"
            )
    else:
        loop = "minimax" if adaptive else "hinf"
        if spec.generating_loop not in ("open", loop):
            raise ValueError(
                f"disturbance '{spec.kind}' is generated along the "
                f"'{spec.generating_loop}' loop; record it there and replay "
                f"the sequence against this controller"
            )
        w = np.zeros((T, n))

    x = np.zeros((T + 1, n))
    u = np.zeros((T, ms.m))
    x[0] = cfg.x0

    l = None
    alpha_hist = None
    if adaptive:
        l = np.zeros(T, dtype=int)
        alpha_hist = np.zeros((T + 1, ms.size))
        alpha = alpha_hist[0]

    # overflow and NaN are left to the divergence test, which fails on both
    limit_sq = DIVERGENCE_LIMIT ** 2
    xk = x[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T):
            if adaptive:
                uk, l[k] = minimax_step(controller, alpha, xk)
            else:
                uk = hinf_step(controller, xk)
            if not replay:
                w[k] = _dist.emit(spec, k, xk, uk)
            xn = A @ xk + B @ uk + w[k]
            if not xn @ xn <= limit_sq:
                raise DivergedRollout(
                    f"state norm exceeded {DIVERGENCE_LIMIT:.0e} at step {k + 1}"
                )
            if adaptive:
                alpha = update_residuals(ms, alpha, xk, uk, xn)
                alpha_hist[k + 1] = alpha
            u[k] = uk
            x[k + 1] = xn
            xk = xn

    # stacked products: bit-identical to the per-step x_k @ Q @ x_k (einsum is not)
    Q, R = cfg.penalties.Q, cfg.penalties.R
    step_cost = (x[:, None] @ Q @ x[:, :, None])[:, 0, 0]
    step_cost[:T] += (u[:, None] @ R @ u[:, :, None])[:, 0, 0]

    return Trajectory(x=x, u=u, w=w, step_cost=step_cost, l=l,
                      alpha_hist=alpha_hist)


def accumulated_cost(traj, gamma):
    """Soft-constrained cost: sum of step costs minus gamma^2 sum ||w||^2.

    gamma = 0 gives the plain quadratic cost of the trajectory.
    """
    return float(np.sum(traj.step_cost) - gamma ** 2 * np.sum(traj.w * traj.w))


def write_trajectory_csv(traj, path):
    """Write k, x, u, w, selected model and step cost, one row per step.

    The final row carries the terminal state and cost; its u, w and l
    cells are empty.
    """
    T, n = traj.horizon, traj.x.shape[1]
    m = traj.u.shape[1]
    header = (
        ["k"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"u_{i + 1}" for i in range(m)]
        + [f"w_{i + 1}" for i in range(n)]
        + ["l", "step_cost"]
    )
    rows = []
    for k in range(T + 1):
        last = k == T
        rows.append(
            [k]
            + list(traj.x[k])
            + ([None] * m if last else list(traj.u[k]))
            + ([None] * n if last else list(traj.w[k]))
            + [None if last or traj.l is None else int(traj.l[k])]
            + [traj.step_cost[k]]
        )
    write_csv(path, header, rows)
