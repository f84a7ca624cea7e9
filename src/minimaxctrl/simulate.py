"""Closed-loop rollouts of the true model against a controller.

Feedback-type disturbances (worst-case linear, confusing) are only ever
generated along the loop their kind fixes.  To expose a second controller
to the identical input, roll out the generating loop first and replay the
recorded sequence, which `rollout` accepts in place of the config's spec.
This keeps comparisons honest: both controllers see the same w, not the
same disturbance law.

One kernel serves both controllers (a fixed gain is a one-gain stack).
It plays a block of steps on the current selection, computing per step
only the input, a feedback disturbance and the successor state; then it
folds the block into every model's residual in one stacked product and
keeps the block up to the first step whose selection differs.  Blocks
double from 1 step up to BLOCK_CAP and restart at 1 after a switch.  Step
costs are computed after the loop.  A rollout diverges at the first kept
state whose squared norm is above DIVERGENCE_LIMIT**2 or that is not
finite; a state that overflows is such a state, not a numpy warning.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import disturbance as _dist
from .fileio import write_csv
from .minimax_cert import MinimaxCertificate, check_gains_shape
from .policies import hinf_step, minimax_step, update_residuals

DIVERGENCE_LIMIT = 1e12
# the longest block of steps played on one selection between residual folds
BLOCK_CAP = 1024


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
    sequence from cfg's spec (resolved once, by `disturbance.emit`), or a
    recorded (T, n) array to replay.  For n > 1 the result is the
    one-step-at-a-time loop's, bit for bit (see `_play_block` for n = 1).
    A switch discards the rest of its block, never longer than the steps
    kept since the block sizes restarted, so at most 2T steps are computed,
    and at most T + BLOCK_CAP * (number of switches).
    Raises DivergedRollout at the first kept state whose squared norm is
    above DIVERGENCE_LIMIT**2 or that has a non-finite entry (an overflow
    included).
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

    if disturbance is None:
        spec, loop = cfg.disturbance, "minimax" if adaptive else "hinf"
        if spec.generating_loop not in ("open", loop):
            raise ValueError(
                f"disturbance '{spec.kind}' is generated along the "
                f"'{spec.generating_loop}' loop; record it there and replay "
                f"the sequence against this controller"
            )
        w, law = _dist.emit(cfg)
    else:
        # a copy, never the caller's array
        w, law = np.array(disturbance, dtype=float), None
        if w.shape != (T, n):
            raise ValueError(
                f"recorded disturbance must be ({T}, {n}), got {w.shape}"
            )

    x = np.zeros((T + 1, n))
    u = np.zeros((T, ms.m))
    x[0] = cfg.x0
    # a fixed gain is a one-gain stack whose selection never moves
    neg_gains = -(controller.gains if adaptive else controller[None])

    l = np.zeros(T, dtype=int) if adaptive else None
    alpha_hist = np.zeros((T + 1, ms.size)) if adaptive else None

    # overflow and NaN are left to the divergence test, which fails on both;
    # a speculative tail past a switch may overflow and is then discarded
    limit_sq = DIVERGENCE_LIMIT ** 2
    k, size = 0, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k < T:
            end = min(k + size, T)
            if adaptive:
                u[k], sel = minimax_step(controller, alpha_hist[k], x[k])
            else:
                u[k], sel = hinf_step(controller, x[k]), 1
            _play_block(A, B, neg_gains[sel - 1], law, x, u, w, k, end)
            stop = end
            if adaptive:
                alpha_hist[k + 1:end + 1] = update_residuals(
                    ms, alpha_hist[k], x[k:end + 1], u[k:end])
                # minimax_step's rule, row by row: keep up to the first move
                moved = np.flatnonzero(
                    alpha_hist[k + 1:end].argmin(axis=1) != sel - 1)
                stop = k + 1 + int(moved[0]) if moved.size else end
                l[k:stop] = sel
            xs = x[k + 1:stop + 1]
            bad = np.flatnonzero(~((xs * xs).sum(axis=1) <= limit_sq))
            if bad.size:
                raise DivergedRollout(
                    f"state norm exceeded {DIVERGENCE_LIMIT:.0e} at step "
                    f"{k + 1 + int(bad[0])}"
                )
            size = min(2 * size, BLOCK_CAP) if stop == end else 1
            k = stop

    # stacked products: bit-identical to the per-step x_k @ Q @ x_k (einsum is not)
    Q, R = cfg.penalties.Q, cfg.penalties.R
    step_cost = (x[:, None] @ Q @ x[:, :, None])[:, 0, 0]
    step_cost[:T] += (u[:, None] @ R @ u[:, :, None])[:, 0, 0]

    return Trajectory(x=x, u=u, w=w, step_cost=step_cost, l=l,
                      alpha_hist=alpha_hist)


def _play_block(A, B, neg_gain, law, x, u, w, k, end):
    """Steps k .. end-1 of x+ = A x + B u + w under u = neg_gain x, in place.

    u[k] is already set; a feedback law fills w as it goes.  ndarray.dot
    makes the same BLAS call as @ at half its dispatch cost; only for n = 1
    does it multiply directly, which can flip the sign of an exact zero.
    """
    xj, uj = x[k], u[k]
    for j in range(k, end):
        if j > k:
            uj = u[j] = neg_gain.dot(xj)
        if law is not None:
            w[j] = law(xj, uj)
        xj = x[j + 1] = A.dot(xj) + B.dot(uj) + w[j]


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
