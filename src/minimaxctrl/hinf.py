"""H-infinity state feedback for one known model.

The synthesis solves the soft-constrained dynamic game

    min_u max_w  sum_k ( |x_k|_Q^2 + |u_k|_R^2 - gamma^2 |w_k|^2 )

for x+ = A x + B u + w.  Its value matrix solves the game Riccati equation

    M = Q + A' M Lambda^-1 A,    Lambda = I + G M,    G = B R^-1 B' - gamma^-2 I,

which `solve_riccati` computes by structure-preserving doubling; at
gamma = inf, G = B R^-1 B' and the same solver gives the LQR solution.  At
a feasible level the solution is stabilizing with 0 < M < gamma^2 I, and
the saddle-point strategies are u = -K x with K = R^-1 B' M Lambda^-1 A and
w = L x with L = gamma^-2 M Lambda^-1 A.  The smallest feasible level is
found by `_level_search` (which also finds the certified level of
`minimax_cert`), and an independent frequency-domain oracle evaluates the
actual closed-loop H-infinity norm on a grid.

All functions are pure, memoise nothing and take matrices as 2-D arrays
(a 1-D B is a shape error); `solve_riccati` and
`synthesize`-style entry points signal lack of a solution by returning
`Infeasible` (falsy, carries the reason) rather than raising, since probing
infeasible levels is the normal mode of bisection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import ConfigError, number

RICCATI_BUDGET = 64  # doublings, i.e. 2^64 - 1 fixed-point iterations
RICCATI_TOL = 1e-11
FEAS_MARGIN = 1e-10
BISECT_REL_TOL = 1e-5
GAMMA_MAX = 1e6
GRID_SIZE = 4096


class BracketError(RuntimeError):
    """Bisection could not establish a feasible upper bracket."""


@dataclass(frozen=True)
class Infeasible:
    """Falsy marker for 'no solution at this level', with the reason why."""

    reason: str

    def __bool__(self):
        return False


@dataclass(eq=False)
class HinfSolution:
    """Converged game Riccati solution at attenuation level gamma.

    Attributes
    ----------
    M : (n, n) ndarray
        Stabilizing Riccati solution, Q <= M < gamma^2 I.
    K : (m, n) ndarray
        Control gain, u = -K x.
    L : (n, n) ndarray
        Worst-case disturbance gain, w = L x (zero at gamma = inf).
    gamma : float
    iterations : int
        Doubling steps used.
    """

    M: np.ndarray
    K: np.ndarray
    L: np.ndarray
    gamma: float
    iterations: int


def checked_level(gamma, name):
    """Float of a number in (0, GAMMA_MAX], the range searched; else ConfigError."""
    gamma = number(gamma, name)
    if not 0.0 < gamma <= GAMMA_MAX:
        raise ConfigError(f"{name} must be in (0, {GAMMA_MAX:.3g}], got {gamma!r}")
    return gamma


def _check_shapes(A, B, Q, R):
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError(f"B must be {n} x m, got {B.shape}")
    m = B.shape[1]
    if Q.shape != (n, n):
        raise ValueError(f"Q must be {n} x {n}, got {Q.shape}")
    if R.shape != (m, m):
        raise ValueError(f"R must be {m} x {m}, got {R.shape}")
    return n, m


def _pd_with_margin(S, margin):
    """True if S - margin*I is positive definite (Cholesky test)."""
    n = S.shape[0]
    try:
        np.linalg.cholesky(S - margin * np.eye(n))
        return True
    except np.linalg.LinAlgError:
        return False


def solve_riccati(A, B, penalties, gamma):
    """Solve the game Riccati equation at level gamma by doubling.

    Parameters
    ----------
    A, B : ndarray
        Model matrices, A (n,n) and B (n,m).
    penalties : Penalties
        Positive definite Q and R.
    gamma : float
        Attenuation level to attempt; ``numpy.inf`` solves the LQR case.

    Returns
    -------
    HinfSolution or Infeasible
        Infeasible (falsy, with reason) when an iterate escapes the
        feasible region I - gamma^-2 M > 0, the iterates diverge, the
        doubling does not converge within RICCATI_BUDGET steps, or the
        limit is not the stabilizing solution with 0 < M < gamma^2 I.
        Structural problems (dimension mismatch, non-positive gamma)
        raise ValueError instead.

    Notes
    -----
    Structure-preserving doubling: from (A_0, G_0, H_0) = (A, G, Q), with
    W = I + G_k H_k, A_k+1 = A_k W^-1 A_k, G_k+1 = G_k + A_k W^-1 G_k A_k'
    and H_k+1 = H_k + A_k' H_k W^-1 A_k.  H_k is the (2^k - 1)-th iterate
    of M <- Q + A' M Lambda^-1 A from M = Q, so convergence is quadratic
    where that iteration crawls (near gamma*).  The iterates rise
    monotonically, so checking I - gamma^-2 H_k > 1e-10 I on the doubled
    ones suffices; but doubling can pass over escaping iterates and land
    on a non-stabilizing or indefinite solution, so the limit must also be
    positive definite with Lambda^-1 A (= A - B K + L) Schur stable.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q, R = penalties.Q, penalties.R
    n, _ = _check_shapes(A, B, Q, R)
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError("gamma must be positive")

    eye = np.eye(n)
    ginv2 = gamma ** -2
    G = B @ np.linalg.solve(R, B.T) - ginv2 * eye

    Ak, Gk, M = A, G, Q
    for it in range(1, RICCATI_BUDGET + 1):
        if not _pd_with_margin(eye - ginv2 * M, FEAS_MARGIN):
            return Infeasible(
                f"I - gamma^-2 M lost positive definiteness at doubling {it - 1} "
                f"(gamma={gamma:.6g})"
            )
        try:
            X = np.linalg.solve(eye + Gk @ M, np.hstack([Ak, Gk]))
        except np.linalg.LinAlgError:
            return Infeasible(f"singular doubling step {it} (gamma={gamma:.6g})")
        # an unstabilizable pair at gamma = inf overflows within ~10 doublings
        with np.errstate(over="ignore", invalid="ignore"):
            step = Ak.T @ M @ X[:, :n]
            step = 0.5 * (step + step.T)
            M = M + step
            Gk = Gk + Ak @ X[:, n:] @ Ak.T
            Gk = 0.5 * (Gk + Gk.T)
            Ak = Ak @ X[:, :n]
            delta = float(np.max(np.abs(step)))
        if not np.isfinite(delta):
            return Infeasible(
                f"Riccati iterates diverged at doubling {it} (gamma={gamma:.6g})"
            )
        if delta <= RICCATI_TOL * max(1.0, float(np.max(np.abs(M)))):
            break
    else:
        return Infeasible(
            f"Riccati doubling did not converge in {RICCATI_BUDGET} steps "
            f"(gamma={gamma:.6g})"
        )

    if not _pd_with_margin(eye - ginv2 * M, FEAS_MARGIN):
        return Infeasible(
            f"converged M violates M < gamma^2 I (gamma={gamma:.6g})"
        )
    if not _pd_with_margin(M, 0.0):
        return Infeasible(
            f"converged M is not positive definite (gamma={gamma:.6g})"
        )
    X = np.linalg.solve(eye + G @ M, A)
    if float(np.max(np.abs(np.linalg.eigvals(X)))) >= 1.0:
        return Infeasible(
            f"converged M is not stabilizing (gamma={gamma:.6g})"
        )
    MX = M @ X
    K = np.linalg.solve(R, B.T @ MX)
    L = ginv2 * MX
    return HinfSolution(M=M, K=K, L=L, gamma=gamma, iterations=it)


def _level_search(probe, Q, rel_tol):
    """Smallest level the probe accepts, by doubling then bisection.

    probe(level) returns a truthy result or a falsy one with a `reason`.
    lo = sqrt(max eig Q) is never probed: below it no M >= Q has
    M < level^2 I.  hi starts at max(2 lo, 1) and doubles until accepted,
    the last probe being exactly GAMMA_MAX, then [lo, hi] is bisected to
    hi - lo <= rel_tol * hi.  Returns (level, result) at the accepted end;
    raises BracketError with the last reason if GAMMA_MAX is rejected.
    """
    lo = float(np.sqrt(np.max(np.linalg.eigvalsh(Q))))
    hi = max(2.0 * lo, 1.0)
    while not (result := probe(hi)):
        if hi >= GAMMA_MAX:
            raise BracketError(
                f"no feasible level up to {GAMMA_MAX:.3g} "
                f"(last reason: {result.reason})"
            )
        hi = min(2.0 * hi, GAMMA_MAX)
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        res = probe(mid)
        if res:
            hi, result = mid, res
        else:
            lo = mid
    return hi, result


def optimal_attenuation(A, B, penalties):
    """Smallest feasible attenuation level gamma* for (A, B), by bisection.

    Bracket as in `_level_search`; BracketError if even GAMMA_MAX is
    infeasible (e.g. an unstabilizable pair).  Relative tolerance: BISECT_REL_TOL.
    """
    return _level_search(lambda g: solve_riccati(A, B, penalties, g),
                         penalties.Q, BISECT_REL_TOL)[0]


@dataclass(eq=False)
class FrequencyScan:
    """Peak of the weighted closed loop's largest singular value over [0, pi].

    `peak_norm` is the largest value found and `peak_omega` the first
    frequency attaining it.
    """

    peak_omega: float
    peak_norm: float


def _golden_max(fun, lo, hi, tol=1e-12, max_iter=200):
    """Golden-section maximization of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    if fc >= fd:
        return c, fc
    return d, fd


def _frequency_response(A, B, K, penalties):
    """The map omega -> [Q^(1/2); R^(1/2) K] (e^(j omega) I - A + B K)^-1.

    omega may be a scalar or an array (one response per entry).  Raises
    ValueError if A - BK is not Schur stable (spectral radius must stay
    below 1 - 1e-9), since the response is unbounded otherwise.
    """
    Acl = A - B @ K
    radius = float(np.max(np.abs(np.linalg.eigvals(Acl))))
    if radius >= 1.0 - 1e-9:
        raise ValueError(f"A - BK must be Schur stable (spectral radius {radius:.6g})")
    dq, Vq = np.linalg.eigh(penalties.Q)
    dr, Vr = np.linalg.eigh(penalties.R)
    Qh = (Vq * np.sqrt(np.maximum(dq, 0.0))) @ Vq.T
    Rh = (Vr * np.sqrt(np.maximum(dr, 0.0))) @ Vr.T
    C = np.vstack([Qh, Rh @ K])
    eye = np.eye(A.shape[0])

    def response(omega):
        z = np.exp(1j * np.asarray(omega))[..., None, None] * eye - Acl
        return C @ np.linalg.solve(z, np.broadcast_to(eye, z.shape))

    return response


def closed_loop_scan(A, B, K, penalties):
    """Peak frequency response norm of the closed loop u = -Kx.

    Evaluates the largest singular value of

        [Q^(1/2); R^(1/2) K] (e^(j w) I - A + B K)^-1

    for A (n, n), B (n, m) and K (m, n) on GRID_SIZE uniform frequencies
    over [0, pi], then runs one golden-section refinement around the grid
    peak and returns the peak only.  The refined sample replaces the grid
    peak only when it strictly improves on it, so flat responses keep the
    first-occurrence peak (e.g. an all-pass reports peak_omega = 0).
    Raises ValueError on a shape mismatch or, via `_frequency_response`,
    when A - BK is not Schur stable.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    K = np.asarray(K, dtype=float)
    n, m = _check_shapes(A, B, penalties.Q, penalties.R)
    if K.shape != (m, n):
        raise ValueError(f"K must be {m} x {n}, got {K.shape}")
    response = _frequency_response(A, B, K, penalties)

    omegas = np.linspace(0.0, np.pi, GRID_SIZE)
    norms = np.linalg.svd(response(omegas), compute_uv=False)[:, 0]

    ipk = int(np.argmax(norms))
    peak_omega = float(omegas[ipk])
    peak_norm = float(norms[ipk])

    def sigma_at(w):
        return float(np.linalg.svd(response(w), compute_uv=False)[0])

    lo = float(omegas[max(ipk - 1, 0)])
    hi = float(omegas[min(ipk + 1, GRID_SIZE - 1)])
    w_ref, s_ref = _golden_max(sigma_at, lo, hi)
    if s_ref > peak_norm * (1.0 + 1e-12):
        peak_omega, peak_norm = float(w_ref), float(s_ref)

    return FrequencyScan(peak_omega=peak_omega, peak_norm=peak_norm)
