"""Closed-loop rollouts of the true model against a controller.

Feedback-type disturbances (worst-case linear, confusing) are only ever
generated along the loop their kind fixes.  `paired_rollouts` exposes a
second controller to the identical input: it rolls out the generating loop
first and replays the recorded sequence, which `rollout` accepts in place
of the config's spec.  This keeps comparisons honest: both controllers see
the same w, not the same disturbance law.  A trajectory's w is read-only,
so the replay shares it instead of copying it: a pair keeps one buffer.

One kernel serves both controllers (a fixed gain is a one-gain stack).
It plays a block of steps on the current selection in one scratch of rows
[x_k | u_k | w_k], advancing each step with one product of the true
model's [A B I] and the row, and copies the block out to x and u (and w
for a feedback law); then it folds the block into every model's residual
in one stacked product and keeps the block up to the first step whose
selection differs.  Blocks double from 1 step up to BLOCK_CAP and restart
at 1 after a switch.  Only the block's residuals are held.  A Trajectory
keeps only what the loop produced, x, u and w, and derives the residual
history, the selections and the step costs from them when asked,
BLOCK_CAP steps at a time.  A rollout diverges at the first kept state
whose squared norm is above DIVERGENCE_LIMIT**2 or that is not finite; a
state that overflows is such a state, not a numpy warning.
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


class DivergedRollout(RuntimeError):
    """State norm left the trust region; the closed loop is blowing up."""


@dataclass(eq=False)
class Trajectory:
    """One rollout.

    x: (T+1, n) states, u: (T, m) inputs, w: (T, n) disturbances (w may
    be shared with the other rollout of a pair and with the config's
    external sequence).  penalties: the Q and R of its step costs.
    model_set: the candidate models an adaptive rollout switched among,
    None for a fixed gain.  Every array `rollout` returns is read-only.

    step_cost, alpha_hist and l are not stored: each read computes them
    from x and u (alpha_hist and l with the switching loop's own fold and
    tie rule, so they have its bits), read-only, and each read allocates
    and computes again, BLOCK_CAP steps at a time: read each once and keep
    it.  An adaptive T = 10^4 trajectory on the shipped set holds x
    (240,024 B) and u (80,000 B) of its own and a shared w, not a (T+1,)
    step cost, a (T+1, F) residual history or (T,) selections.
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
        """(T+1,) read-only x_k'Q x_k + u_k'R u_k for k < T and the
        terminal x_T'Q x_T at k = T.

        Stacked products, bit-identical to the per-step x_k @ Q @ x_k +
        u_k @ R @ u_k (einsum is not); BLOCK_CAP steps at a time, so no
        (T+1, 1, n) temporary is made.
        """
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
        """(T+1, F) read-only residuals after k updates, None for a fixed gain."""
        alphas = self._fold()
        if alphas is not None:
            alphas.flags.writeable = False
        return alphas

    @property
    def l(self):
        """(T,) read-only selected model indices (1-based), None for a
        fixed gain: the least residual before each step, lowest index on ties."""
        alphas = self._fold()
        if alphas is None:
            return None
        # argmin of a read-only array copies it; this history is writable
        l = alphas[:-1].argmin(axis=1)
        l += 1
        l.flags.writeable = False
        return l

    def _fold(self):
        """The writable (T+1, F) residual history, None for a fixed gain.

        BLOCK_CAP steps at a time, each seeded with the row before it: the
        running sum adds in step order, so the bits are one fold's.
        """
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
    matrix K for fixed feedback u = -K x.  disturbance: None to generate the
    sequence from cfg's spec (resolved once, by `disturbance.emit`), or a
    recorded (T, n) array to replay: used as it is when
    `fileio.read_only` keeps it (another rollout's w, say), else copied
    once, so a writable caller array is never aliased.  Every array of the
    returned Trajectory is read-only.  Each state is x_{k+1} =
    [A B I] @ [x_k; u_k; w_k], one sum of 2n + m products: for n > 1 the
    result is the one-step-at-a-time loop of that product's, bit for bit
    (see `_play_block` for n = 1), and each state is within
    2 (2n + m) 2^-53 (|A||x_k| + |B||u_k| + |w_k|) of A x_k + B u_k + w_k,
    componentwise.
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
        w, law = read_only(disturbance), None
        if w.shape != (T, n):
            raise ValueError(
                f"recorded disturbance must be ({T}, {n}), got {w.shape}"
            )

    x = np.zeros((T + 1, n))
    u = np.zeros((T, ms.m))
    x[0] = cfg.x0
    # a fixed gain is a one-gain stack whose selection never moves
    neg_gains = -(controller.gains if adaptive else controller[None])
    # x_{k+1} = Z [x_k; u_k; w_k], played in rows [x_j | u_j | w_j]
    Z = np.hstack([A, B, np.eye(n)])
    rows = np.empty((BLOCK_CAP + 1, Z.shape[1]))

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
            _play_block(Z, neg_gains[sel - 1], law, rows, x, u, w, k, end)
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
    fixed-gain loop for open-loop kinds) and its read-only w is replayed on
    the other, so both trajectories share one w array (for an external
    kind, a view of the config's sequence).
    """
    if cfg.disturbance.generating_loop == "minimax":
        adaptive = rollout(cfg, cert)
        return adaptive, rollout(cfg, gain, disturbance=adaptive.w)
    fixed = rollout(cfg, gain)
    return rollout(cfg, cert, disturbance=fixed.w), fixed


def _play_block(Z, neg_gain, law, rows, x, u, w, k, end):
    """Steps k .. end-1 of x+ = Z [x; u; w], Z = [A B I], under u = neg_gain x.

    u[k] is already set.  The block is played in `rows`, one contiguous row
    [x_j | u_j | w_j] per step: a step is one product into the next row's x
    part, Z.dot(row_j, out=row_{j+1}[:n]), u_{j+1} is its own product into
    its part, and a feedback law writes each w part.  The loop allocates
    nothing, and it is a step-at-a-time loop of Z @ [x; u; w] bit for bit.
    ndarray.dot is @ at half the dispatch cost; for n = 1 the gain product
    multiplies directly, which can flip an exact zero's sign.  The block's
    states and inputs (and w for a feedback law) are copied out after it.
    """
    n, m, s = x.shape[1], u.shape[1], end - k
    block = rows[:s + 1]
    block[0, :n] = x[k]
    block[0, n:n + m] = u[k]
    if law is None:
        block[:s, n + m:] = w[k:end]
    z_dot, k_dot = Z.dot, neg_gain.dot
    xj = block[0, :n]
    steps = zip(block[:s], block[1:, :n], block[:s, n:n + m], block[:s, n + m:])
    for j, (row, xn, uj, wj) in enumerate(steps):
        if j:
            k_dot(xj, out=uj)
        if law is not None:
            law(xj, uj, wj)
        z_dot(row, out=xn)
        xj = xn
    x[k + 1:end + 1] = block[1:, :n]
    u[k + 1:end] = block[1:s, n:n + m]
    if law is not None:
        w[k:end] = block[:s, n + m:]


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
