"""H-infinity state feedback for one known model.

The synthesis solves the soft-constrained dynamic game

    min_u max_w  sum_k ( |x_k|_Q^2 + |u_k|_R^2 - gamma^2 |w_k|^2 )

for x+ = A x + B u + w.  Its value matrix solves the game Riccati equation

    M = Q + A' M Lambda^-1 A,    Lambda = I + G M,    G = B R^-1 B' - gamma^-2 I,

which `solve_riccati` computes by structure-preserving doubling; at
gamma = inf, G = B R^-1 B' and the same solver gives the LQR solution.
The doubling loop runs on a stack of models at one level
(`_solve_stack`), so a certificate probe solves its F members in one
stacked doubling; `solve_riccati` is that loop on a stack of one.  At
a feasible level the solution is stabilizing with 0 < M < gamma^2 I, and
the saddle-point strategies are u = -K x with K = R^-1 B' M Lambda^-1 A and
w = L x with L = gamma^-2 M Lambda^-1 A.  The smallest feasible level is
found by `_level_search` (which also finds the certified level of
`minimax_cert`), and an independent frequency-domain oracle evaluates the
actual closed-loop H-infinity norm on a grid.

All functions are pure, memoise nothing and take matrices as 2-D arrays
(a 1-D B is a shape error; only `_solve_stack` takes stacks of them);
`solve_riccati` and
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
    iterations : int
        Doubling steps used.
    """

    M: np.ndarray
    K: np.ndarray
    L: np.ndarray
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


def _stacked(linalg, *stacks):
    """(out, failed): a numpy.linalg call on stacks of matrices, per member.

    The stacked call raises LinAlgError if any member fails, so then the
    members of a larger stack are redone one by one.  `out` stacks the
    results of the members that passed (None if none did) and `failed`
    lists the positions of the others.
    """
    try:
        return linalg(*stacks), []
    except np.linalg.LinAlgError:
        if len(stacks[0]) == 1:
            return None, [0]
    out, failed = [], []
    for k in range(len(stacks[0])):
        try:
            out.append(linalg(*(S[k] for S in stacks)))
        except np.linalg.LinAlgError:
            failed.append(k)
    return (np.stack(out) if out else None), failed


def _settle(results, failed, reason, members, *arrays):
    """Give the members at the positions `failed` (a sequence of distinct
    ints) the result Infeasible(reason); returns `members` and each of
    `arrays` without those positions."""
    for i in members[failed]:
        results[i] = Infeasible(reason)
    if len(failed) == len(members):
        keep = slice(0)
    else:
        keep = np.ones(len(members), dtype=bool)
        keep[failed] = False
    return [x[keep] for x in (members, *arrays)]


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
    The doubling itself is `_solve_stack`'s, run on a stack of one.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return _solve_stack(A[None], B[None], penalties, gamma)[0]


def _solve_stack(A, B, penalties, gamma):
    """`solve_riccati` for k models at one level: A (k, n, n), B (k, n, m).

    Returns a list of k results, entry i being exactly (bit for bit) what
    solve_riccati(A[i], B[i], penalties, gamma) is: each numpy call of the
    doubling runs once on the stack of members still iterating, and a
    member leaves the stack at the doubling where it converges or fails,
    so it sees the same iterates as when solved alone.  The checks of the
    converged limits and the gains are stacked calls too.  Shapes are
    checked on the first member (ValueError, as are gamma <= 0).
    """
    Q, R = penalties.Q, penalties.R
    n, _ = _check_shapes(A[0], B[0], Q, R)
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError("gamma must be positive")

    results = [None] * len(A)
    eye = np.eye(n)
    margin = FEAS_MARGIN * eye
    ginv2 = gamma ** -2
    G = B @ np.linalg.solve(R, B.swapaxes(1, 2)) - ginv2 * eye

    # live: the members still iterating; iters[i]: the doubling at which
    # member i converged (0 if it has not), Mlim[i] its limit
    live = np.arange(len(A))
    iters = np.zeros(len(A), dtype=int)
    Mlim = np.empty(A.shape)
    Ak, Gk, M = A, G, Q[None].repeat(len(A), axis=0)
    # an unstabilizable pair at gamma = inf overflows within ~10 doublings;
    # overflow and NaN are left to the divergence test
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, RICCATI_BUDGET + 1):
            _, failed = _stacked(np.linalg.cholesky, eye - ginv2 * M - margin)
            if failed:
                live, Ak, Gk, M = _settle(
                    results, failed, "I - gamma^-2 M lost positive definiteness at "
                    f"doubling {it - 1} (gamma={gamma:.6g})", live, Ak, Gk, M)
                if not live.size:
                    break
            X, failed = _stacked(np.linalg.solve, eye + Gk @ M,
                                 np.concatenate([Ak, Gk], axis=2))
            if failed:
                live, Ak, Gk, M = _settle(
                    results, failed, f"singular doubling step {it} (gamma={gamma:.6g})",
                    live, Ak, Gk, M)
                if not live.size:
                    break
            X1 = X[..., :n]
            AkT = Ak.swapaxes(1, 2)
            step = AkT @ M @ X1
            step = 0.5 * (step + step.swapaxes(1, 2))
            M = M + step
            Gk = Gk + Ak @ X[..., n:] @ AkT
            Gk = 0.5 * (Gk + Gk.swapaxes(1, 2))
            Ak = Ak @ X1
            # M was finite, so a NaN in M comes with a NaN delta and an
            # infinite entry makes tol infinite: delta > tol holds exactly
            # for the members that neither diverged nor converged
            delta = np.abs(step).max(axis=(1, 2))
            tol = RICCATI_TOL * np.abs(M).max(axis=(1, 2), initial=1.0)
            if (delta > tol).all():
                continue
            finite = np.isfinite(delta)
            if not finite.all():
                live, Ak, Gk, M, delta, tol = _settle(
                    results, np.flatnonzero(~finite), "Riccati iterates diverged at doubling "
                    f"{it} (gamma={gamma:.6g})", live, Ak, Gk, M, delta, tol)
                if not live.size:
                    break
            converged = delta <= tol
            if converged.all():
                Mlim[live], iters[live] = M, it
                break
            if converged.any():
                Mlim[live[converged]], iters[live[converged]] = M[converged], it
                keep = ~converged
                live, Ak, Gk, M = live[keep], Ak[keep], Gk[keep], M[keep]
        else:
            for i in live:
                results[i] = Infeasible(f"Riccati doubling did not converge in "
                                        f"{RICCATI_BUDGET} steps (gamma={gamma:.6g})")

        # the converged limits, checked and turned into gains
        idx = np.flatnonzero(iters)
        if not idx.size:
            return results
        M = Mlim
        if idx.size < len(A):
            A, B, G, M = A[idx], B[idx], G[idx], M[idx]
        _, failed = _stacked(np.linalg.cholesky, eye - ginv2 * M - margin)
        if failed:
            idx, A, B, G, M = _settle(results, failed, "converged M violates "
                                      f"M < gamma^2 I (gamma={gamma:.6g})", idx, A, B, G, M)
        _, failed = _stacked(np.linalg.cholesky, M)
        if failed:
            idx, A, B, G, M = _settle(results, failed, "converged M is not positive "
                                      f"definite (gamma={gamma:.6g})", idx, A, B, G, M)
        X = np.linalg.solve(eye + G @ M, A)
        failed = np.flatnonzero(np.abs(np.linalg.eigvals(X)).max(axis=1) >= 1.0)
        if failed.size:
            idx, B, M, X = _settle(results, failed, "converged M is not stabilizing "
                                   f"(gamma={gamma:.6g})", idx, B, M, X)
        MX = M @ X
        K = np.linalg.solve(R, B.swapaxes(1, 2) @ MX)
        L = ginv2 * MX
    for j, i in enumerate(idx):
        results[i] = HinfSolution(M=M[j], K=K[j], L=L[j], iterations=int(iters[i]))
    return results


def _level_search(probe, Q, rel_tol):
    """Smallest level the probe accepts, by doubling then bisection.

    probe(level) returns a truthy result or a falsy one with a `reason`.
    lo = sqrt(max eig Q) is never probed: below it no M >= Q has
    M < level^2 I.  hi starts at max(2 lo, 1), clamped to GAMMA_MAX, and
    doubles until accepted, the last probe being exactly GAMMA_MAX, then
    [lo, hi] is bisected to hi - lo <= rel_tol * hi.  Returns (level,
    result) at the accepted end; raises BracketError with the last reason
    if GAMMA_MAX is rejected, and without probing if lo >= GAMMA_MAX.
    """
    lo = float(np.sqrt(np.max(np.linalg.eigvalsh(Q))))
    if lo >= GAMMA_MAX:
        raise BracketError(
            f"no feasible level up to {GAMMA_MAX:.3g}: sqrt(max eig Q) = "
            f"{lo:.6g} is not below it"
        )
    hi = min(max(2.0 * lo, 1.0), GAMMA_MAX)
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
