"""Closed-loop rollouts of the true model against a controller.

A feedback-type disturbance (worst-case linear, confusing) exists only
along the loop its kind fixes, so a pair of rollouts records it there and
replays the sequence on the other controller: both see the same w, not the
same disturbance law.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import disturbance as _dist
from .fileio import read_only, write_csv
from .minimax_cert import MinimaxCertificate, check_gains_shape
from .model_set import ModelSet, Penalties
from .policies import hinf_step, minimax_step, update_residuals

DIVERGENCE_LIMIT = 1e12
# the longest block of steps played on one selection between residual folds
BLOCK_CAP = 1024
# the steps a block plays between copies out of the rollout's play buffer
_CHUNK = 64


class DivergedRollout(RuntimeError):
    """State norm left the trust region; the closed loop is blowing up."""


@dataclass(eq=False)
class Trajectory:
    """One rollout: x (T+1, n) states, u (T, m) inputs and w (T, n)
    disturbances, read-only (w may be shared with the other rollout of a
    pair and with the config's external sequence).  penalties: the Q and R
    of its step costs.  model_set: the models an adaptive rollout switched
    among, None for a fixed gain.

    step_cost, alpha_hist and l are computed from x and u on every read,
    BLOCK_CAP steps at a time, read-only: read each once.  Each has the
    bits of the step-at-a-time loop
    (test_simulate.py::test_rollout_matches_reference_loop and
    test_simulate.py::test_full_cap_blocks_match_reference_loop).
    """

    x: np.ndarray
    u: np.ndarray
    w: np.ndarray
    penalties: Penalties
    model_set: ModelSet | None = None

    @property
    def horizon(self):
        return self.u.shape[0]

    @property
    def step_cost(self):
        """(T+1,) x_k'Q x_k + u_k'R u_k for k < T and the terminal x_T'Q x_T,
        by stacked products: einsum would not have x_k @ Q @ x_k's bits."""
        Q, R = self.penalties.Q, self.penalties.R
        step_cost = np.empty(self.horizon + 1)
        for i in range(0, self.horizon + 1, BLOCK_CAP):
            xs, us = self.x[i:i + BLOCK_CAP], self.u[i:i + BLOCK_CAP]
            cost = step_cost[i:i + BLOCK_CAP]
            cost[:] = (xs[:, None] @ Q @ xs[:, :, None])[:, 0, 0]
            cost[:len(us)] += (us[:, None] @ R @ us[:, :, None])[:, 0, 0]
        step_cost.flags.writeable = False
        return step_cost

    @property
    def alpha_hist(self):
        """(T+1, F) residuals after k updates, None for a fixed gain."""
        alphas = self._fold()
        if alphas is not None:
            alphas.flags.writeable = False
        return alphas

    @property
    def l(self):
        """(T,) selected model indices (1-based), None for a fixed gain: the
        least residual before each step, lowest index on ties."""
        alphas = self._fold()
        if alphas is None:
            return None
        # argmin of a read-only array copies it; this history is writable
        l = alphas[:-1].argmin(axis=1)
        l += 1
        l.flags.writeable = False
        return l

    def _fold(self):
        """The writable (T+1, F) residual history, None for a fixed gain: each
        block is seeded with the row before it, so the sum adds in step order."""
        if self.model_set is None:
            return None
        alphas = np.zeros((self.horizon + 1, self.model_set.size))
        for k in range(0, self.horizon, BLOCK_CAP):
            end = min(k + BLOCK_CAP, self.horizon)
            alphas[k + 1:end + 1] = update_residuals(
                self.model_set, alphas[k], self.x[k:end + 1], self.u[k:end])
        return alphas


def rollout(cfg, controller, disturbance=None):
    """Simulate cfg.horizon steps of the true model under `controller`.

    controller: a MinimaxCertificate (adaptive switching) or an (m, n) gain
    K (u = -K x).  disturbance: None to generate cfg's spec
    (`disturbance.emit`), or a recorded (T, n) array to replay, kept as
    `fileio.read_only` keeps it.  x_{k+1} = [A B I] @ [x_k; u_k; w_k]:
    for n > 1 bit for bit the step-at-a-time loop of that product
    (test_simulate.py::test_rollout_matches_reference_loop; `_play_block`
    for n = 1), and within 2 (2n + m) 2^-53 (|A||x_k| + |B||u_k| + |w_k|)
    of A x_k + B u_k + w_k componentwise
    (test_simulate.py::test_long_gaussian_rollout_steps_near_textbook).
    Blocks of steps double up to BLOCK_CAP and restart at 1 after a switch,
    which discards the rest of its block, so at most 2T steps are computed
    (test_simulate.py::test_block_work_is_bounded).  Steps are played in one
    buffer of min(T, _CHUNK) + 1 rows, through row views made once per
    rollout, and copied out _CHUNK steps at a time, so memory beyond x, u
    and w does not grow with T; the seams are the reference loop's bits
    too (test_simulate.py::test_chunk_seams_match_reference_loop).
    ValueError on a shape mismatch or a feedback disturbance of the other
    loop; DivergedRollout at the first kept state whose squared norm
    exceeds DIVERGENCE_LIMIT**2 or that is not finite.
    """
    ms = cfg.model_set
    T, n, m = cfg.horizon, ms.n, ms.m
    A, B = ms.pair(cfg.true_index)

    adaptive = isinstance(controller, MinimaxCertificate)
    if adaptive:
        check_gains_shape(controller, ms)
    else:
        controller = np.asarray(controller, dtype=float)
        if controller.shape != (m, n):
            raise ValueError(
                f"gain must be ({m}, {n}), got {controller.shape}"
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
        w, law = read_only(disturbance), None
        if w.shape != (T, n):
            raise ValueError(
                f"recorded disturbance must be ({T}, {n}), got {w.shape}"
            )

    x = np.zeros((T + 1, n))
    u = np.zeros((T, m))
    x[0] = cfg.x0
    # a fixed gain is a one-gain stack whose selection never moves
    neg_gains = -(controller.gains if adaptive else controller[None])
    Z = np.hstack([A, B, np.eye(n)])
    rows = np.empty((min(T, _CHUNK) + 1, Z.shape[1]))
    steps = list(zip(rows[:-1], rows[:-1, :n], rows[:-1, n:n + m],
                     rows[:-1, n + m:], rows[1:, :n]))

    # residuals of the block being played; row 0 is the last kept step's
    alpha = np.zeros((BLOCK_CAP + 1, ms.size)) if adaptive else None

    # overflow and NaN are left to the divergence test, which fails on both;
    # a speculative tail past a switch may overflow and is then discarded
    limit_sq = DIVERGENCE_LIMIT ** 2
    k, size = 0, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k < T:
            end = min(k + size, T)
            if adaptive:
                u[k], sel = minimax_step(controller, alpha[0], x[k])
            else:
                u[k], sel = hinf_step(controller, x[k]), 1
            _play_block(Z, neg_gains[sel - 1], law, rows, steps, x, u, w, k, end)
            stop = end
            if adaptive:
                alpha[1:end - k + 1] = update_residuals(
                    ms, alpha[0], x[k:end + 1], u[k:end])
                # minimax_step's rule, row by row: keep up to the first move
                moved = np.flatnonzero(
                    alpha[1:end - k].argmin(axis=1) != sel - 1)
                stop = k + 1 + int(moved[0]) if moved.size else end
                alpha[0] = alpha[stop - k]
            xs = x[k + 1:stop + 1]
            bad = np.flatnonzero(~((xs * xs).sum(axis=1) <= limit_sq))
            if bad.size:
                raise DivergedRollout(
                    f"state norm exceeded {DIVERGENCE_LIMIT:.0e} at step "
                    f"{k + 1 + int(bad[0])}"
                )
            size = min(2 * size, BLOCK_CAP) if stop == end else 1
            k = stop

    for array in (x, u, w):
        array.flags.writeable = False
    return Trajectory(x=x, u=u, w=w, penalties=cfg.penalties,
                      model_set=ms if adaptive else None)


def paired_rollouts(cfg, cert, gain):
    """(adaptive, fixed): `cert` and the fixed `gain` under one disturbance.

    The loop along which cfg's disturbance is generated runs first (the
    fixed-gain loop for open-loop kinds) and its w is replayed on the other,
    so both trajectories share one w array.
    """
    if cfg.disturbance.generating_loop == "minimax":
        adaptive = rollout(cfg, cert)
        return adaptive, rollout(cfg, gain, disturbance=adaptive.w)
    fixed = rollout(cfg, gain)
    return rollout(cfg, cert, disturbance=fixed.w), fixed


def _play_block(Z, neg_gain, law, rows, steps, x, u, w, k, end):
    """Steps k .. end-1 of x+ = Z [x; u; w], Z = [A B I], under u = neg_gain x,
    u[k] already set, copied out to x and u (and w for a feedback law).

    `rows` is the rollout's play buffer, a row [x_j | u_j | w_j] per step,
    and steps[j] its views (row_j, x_j, u_j, w_j, x_{j+1}), made once per
    rollout.  The block is played _CHUNK steps at a time: the gain product
    and a feedback law write u_j and w_j, Z.dot(row_j, out=x_{j+1}) the
    next state, and after each chunk its rows are copied out and its last
    state carried into row 0.  ndarray.dot is @ with less dispatch; for
    n = 1 the gain product multiplies directly, which can flip an exact
    zero's sign.
    """
    n, m = x.shape[1], u.shape[1]
    z_dot, k_dot = Z.dot, neg_gain.dot
    rows[0, :n] = x[k]
    rows[0, n:n + m] = u[k]
    first = 1  # the block's first step has its u
    for i in range(k, end, _CHUNK):
        s = min(_CHUNK, end - i)
        if law is None:
            rows[:s, n + m:] = w[i:i + s]
        if first:
            row, xj, uj, wj, xn = steps[0]
            if law is not None:
                law(xj, uj, wj)
            z_dot(row, out=xn)
        if law is None:
            for row, xj, uj, _, xn in steps[first:s]:
                k_dot(xj, out=uj)
                z_dot(row, out=xn)
        else:
            for row, xj, uj, wj, xn in steps[first:s]:
                k_dot(xj, out=uj)
                law(xj, uj, wj)
                z_dot(row, out=xn)
        x[i + 1:i + s + 1] = rows[1:s + 1, :n]
        u[i:i + s] = rows[:s, n:n + m]
        if law is not None:
            w[i:i + s] = rows[:s, n + m:]
        rows[0, :n] = rows[s, :n]
        first = 0


def accumulated_cost(traj, gamma):
    """Soft-constrained cost: sum of step costs minus gamma^2 sum ||w||^2.

    gamma = 0 gives the plain quadratic cost of the trajectory.
    """
    return float(np.sum(traj.step_cost) - gamma ** 2 * np.sum(traj.w * traj.w))


def write_trajectory_csv(traj, path):
    """Write k, x, u, w, selected model and step cost, one row per step;
    returns the sha256 of the bytes written.

    The final row carries the terminal state and cost; its u, w and l
    cells are empty, as is every l cell of a fixed-gain run.
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
    steps = np.full((T + 1, m + n + 1), np.nan)
    steps[:T, :m + n] = np.column_stack([traj.u, traj.w])
    l = traj.l  # each read refolds all T steps
    if l is not None:
        steps[:T, -1] = l
    table = np.column_stack([np.arange(T + 1), traj.x, steps, traj.step_cost])
    return write_csv(path, header, table)
