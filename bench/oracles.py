"""Correctness checks written apart from the program, mostly with scipy.

Every check reads only what the program produced (returned objects or the
files of a bundle) plus the inputs the benchmark generated, recomputes the
quantity another way, and returns a list of problems (empty when it
holds).  None compares against a stored copy of an earlier output, so a
change that moves a result on purpose (a lower certified level, say)
still passes as long as the result is right.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

# gamma* must be feasible at gamma*(1 + GAMMA_BRACKET) and infeasible at
# gamma*(1 - GAMMA_BRACKET); 100 times the program's bisection tolerance
GAMMA_BRACKET = 1e-3
# relative rounding allowance for recomputed matrices and sums
REL_TOL = 1e-9


def _close(a, b, scale, rel=REL_TOL):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0)) <= rel * scale


def game_solution(A, B, Q, R, gamma):
    """Stabilizing solution of the soft-constrained game, or None.

    Solves the game Riccati equation as a DARE with the stacked input
    [u; w], input matrix [B I] and indefinite weight diag(R, -gamma^2 I).
    The level is feasible when the solution exists, M >= 0,
    gamma^2 I - M > 0 and A - B K is Schur stable.  Returns (M, K, L)
    with u = -K x and w = L x.
    """
    n, m = B.shape
    Bt = np.hstack([B, np.eye(n)])
    Rt = sla.block_diag(R, -gamma ** 2 * np.eye(n))
    try:
        M = sla.solve_discrete_are(A, Bt, Q, Rt)
    except (np.linalg.LinAlgError, ValueError):
        return None
    if not np.all(np.isfinite(M)):
        return None
    M = 0.5 * (M + M.T)
    scale = max(1.0, float(np.max(np.abs(M))))
    if sla.eigvalsh(M)[0] < -1e-9 * scale:
        return None
    if sla.eigvalsh(gamma ** 2 * np.eye(n) - M)[0] <= 0.0:
        return None
    gain = sla.solve(Rt + Bt.T @ M @ Bt, Bt.T @ M @ A)
    K, L = gain[:m], -gain[m:]
    if np.max(np.abs(sla.eigvals(A - B @ K))) >= 1.0:
        return None
    return M, K, L


def check_gamma_star(A, B, Q, R, gamma_star, label):
    problems = []
    if game_solution(A, B, Q, R, gamma_star * (1 + GAMMA_BRACKET)) is None:
        problems.append(f"{label}: gamma*={gamma_star:.6g} but the game is "
                        f"infeasible just above it")
    if game_solution(A, B, Q, R, gamma_star * (1 - GAMMA_BRACKET)) is not None:
        problems.append(f"{label}: gamma*={gamma_star:.6g} but the game is "
                        f"feasible just below it")
    return problems


def check_certificate(As, Bs, Q, R, gamma, gains, P, label):
    """Slack of the certificate inequality at every triple (i, j, l).

    P_il >= Q + K_l'RK_l - gamma^2 S-'S- + S+'(P_ij^-1 - gamma^-2 I)^-1 S+
    with S-/+ = (Abar_il -/+ Abar_jl) / 2 and Abar_il = A_i - B_i K_l,
    plus 0 < P_ij = P_ji < gamma^2 I.  The allowance is relative to the
    size of the terms, since the family's scale grows with gamma.
    """
    F, n = len(As), As[0].shape[0]
    g2 = gamma ** 2
    eye = np.eye(n)
    problems = []
    for i in range(F):
        for j in range(F):
            Pij = P[i][j]
            if not np.array_equal(Pij, P[j][i]) or not np.allclose(Pij, Pij.T, rtol=0,
                                                                   atol=1e-9):
                problems.append(f"{label}: P[{i + 1},{j + 1}] is not symmetric")
            eig = sla.eigvalsh(Pij)
            if eig[0] <= 0.0 or eig[-1] >= g2:
                problems.append(f"{label}: P[{i + 1},{j + 1}] outside (0, gamma^2 I)")
    if problems:
        return problems
    worst, where = np.inf, None
    for i in range(F):
        for j in range(F):
            X = np.linalg.inv(P[i][j]) - eye / g2
            for l in range(F):
                K = gains[l]
                Ai, Aj = As[i] - Bs[i] @ K, As[j] - Bs[j] @ K
                Sm, Sp = 0.5 * (Ai - Aj), 0.5 * (Ai + Aj)
                cost = Q + K.T @ R @ K
                mix = g2 * Sm.T @ Sm
                gain = Sp.T @ sla.solve(X, Sp, assume_a="pos")
                slack = P[i][l] - cost + mix - gain
                scale = max(1.0, *(float(np.max(np.abs(t)))
                                   for t in (P[i][l], cost, mix, gain)))
                value = sla.eigvalsh(0.5 * (slack + slack.T))[0] / scale
                if value < worst:
                    worst, where = value, (i + 1, j + 1, l + 1)
    if worst < -1e-8:
        problems.append(f"{label}: certificate inequality fails at triple {where} "
                        f"(relative slack {worst:.3e})")
    return problems


def value_bound(P, x0):
    return max(float(x0 @ Pij @ x0) for row in P for Pij in row)


def check_dynamics(A, B, x, u, w, label, rel=REL_TOL):
    pred = x[:-1] @ A.T + u @ B.T + w
    scale = 1.0 + np.max(np.abs(x[:-1]) @ np.abs(A).T + np.abs(u) @ np.abs(B).T
                         + np.abs(w), initial=0.0)
    if not _close(x[1:], pred, scale, rel):
        return [f"{label}: states do not follow x+ = A x + B u + w"]
    return []


def check_feedback(K, x, u, label, rel=REL_TOL):
    scale = 1.0 + np.max(np.abs(x[:-1]) @ np.abs(K).T, initial=0.0)
    if not _close(u, -x[:-1] @ K.T, scale, rel):
        return [f"{label}: inputs are not u = -K x"]
    return []


def check_switching(As, Bs, gains, x, u, l, label, rel=REL_TOL):
    """u_k = -K_{l_k} x_k with l_k the least accumulated residual.

    Residuals are recomputed from the trajectory.  Values within the
    rounding allowance of the minimum count as candidates; where the
    candidates' recomputed values are exactly equal the lowest index must
    win, elsewhere any candidate is accepted.
    """
    T = u.shape[0]
    steps = x[1:, None, :] - np.einsum("fij,kj->kfi", As, x[:-1]) \
        - np.einsum("fij,kj->kfi", Bs, u)
    alpha = np.vstack([np.zeros(len(As)), np.cumsum(np.sum(steps ** 2, axis=2), axis=0)])
    problems = []
    for k in range(T):
        a = alpha[k]
        tol = rel * max(1.0, float(np.max(a)))
        cands = np.flatnonzero(a <= a.min() + tol)
        chosen = int(l[k]) - 1
        exact_tie = len(cands) > 1 and np.all(a[cands] == a[cands[0]])
        if chosen not in cands or (exact_tie and chosen != cands[0]):
            problems.append(f"{label}: step {k} plays model {chosen + 1}, "
                            f"least residual is model {int(np.argmin(a)) + 1}")
            break
    K = np.asarray(gains)[np.asarray(l, dtype=int) - 1]
    scale = 1.0 + float(np.max(np.abs(K) @ np.abs(x[:-1, :, None]), initial=0.0))
    if not _close(u, -np.einsum("kij,kj->ki", K, x[:-1]), scale, rel):
        problems.append(f"{label}: inputs are not u_k = -K_(l_k) x_k")
    return problems


def check_law(w, expected, label, rel=1e-6):
    """Recorded disturbance against its law evaluated along the loop."""
    scale = 1.0 + float(np.max(np.abs(expected), initial=0.0))
    if not _close(w, expected, scale, rel):
        return [f"{label}: disturbance does not follow its law"]
    return []


def distance_regret(xa, ua, xb, ub, Q, R):
    """d_k = |dx_k|_Q^2 + |du_k|_R^2 (terminal step: state only), cumulated."""
    dx, du = xa - xb, ua - ub
    d = np.array([v @ Q @ v for v in dx])
    d[:-1] += np.array([v @ R @ v for v in du])
    return d, np.cumsum(d)


def soft_cost(x, u, w, Q, R, gamma):
    stage = sum(v @ Q @ v for v in x) + sum(v @ R @ v for v in u)
    return float(stage - gamma ** 2 * np.sum(w * w))
