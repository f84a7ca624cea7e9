"""H-infinity state feedback for one known model.

The synthesis solves the soft-constrained dynamic game

    min_u max_w  sum_k ( |x_k|_Q^2 + |u_k|_R^2 - gamma^2 |w_k|^2 )

for x+ = A x + B u + w.  Its value matrix solves the game Riccati equation

    M = Q + A' M Lambda^-1 A,    Lambda = I + G M,    G = B R^-1 B' - gamma^-2 I,

and the saddle-point strategies are u = -K x with K = R^-1 B' M Lambda^-1 A
and w = L x with L = gamma^-2 M Lambda^-1 A; gamma = inf is the LQR case.
Matrices are 2-D arrays and stacks 3-D (a 1-D B is a shape error).  Nothing
is memoised.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import ConfigError, number

RICCATI_BUDGET = 64  # doublings, i.e. 2^64 - 1 fixed-point iterations
RICCATI_TOL = 1e-11
FEAS_MARGIN = 1e-10
BISECT_REL_TOL = 1e-5
SEARCH_DEPTH = 3  # rounds of the sequential level search probed per call
GAMMA_MAX = 1e6
LEVEL_TOL = 1e-10  # closed_loop_scan: relative accuracy of the peak


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
    """Converged game Riccati solution at level gamma: the stabilizing M
    (n, n), Q <= M < gamma^2 I; the control gain K (m, n), u = -K x; the
    worst-case disturbance gain L (n, n), w = L x (zero at gamma = inf);
    and the doubling steps used."""

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


def _stacked_solve(a, b):
    """(X, singular): numpy.linalg.solve on stacks of matrices, per member.

    The stacked call raises LinAlgError if any member is singular, so then
    the members are redone one by one.  `singular` masks the members that
    failed; their rows of X are NaN.
    """
    singular = np.zeros(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, b), singular
    except np.linalg.LinAlgError:
        pass
    X = np.full(b.shape, np.nan)
    for k in range(len(a)):
        try:
            X[k] = np.linalg.solve(a[k], b[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return X, singular


def _pd(S):
    """Whether each member of a stack of finite symmetric matrices is positive
    definite: numpy's True when one stacked Cholesky factorization succeeds,
    else (it raises if any member fails) the mask of the members whose least
    eigenvalue from one stacked eigvalsh is positive.  Either form
    broadcasts against a mask of the stack.  A NaN member can pass the
    factorization, so callers test non-finite members apart
    (test_hinf.py::test_pd_is_one_cholesky_unless_a_member_fails)."""
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(S)[:, 0] > 0.0
    return np.True_


def solve_riccati(A, B, penalties, gamma):
    """The game Riccati solution of A (n, n), B (n, m) at level gamma
    (numpy.inf: the LQR case), a HinfSolution: `_solve_stack` of one model.

    Infeasible (falsy, with the reason; bisection probes such levels) when
    an iterate leaves I - gamma^-2 M > 0, the iterates diverge or fall, the
    doubling does not converge within RICCATI_BUDGET steps, or the limit is
    not stabilizing with 0 < M < gamma^2 I.  ValueError on a shape mismatch
    or gamma <= 0.
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return _solve_stack(A[None], B[None], penalties, [float(gamma)])[0]


def _solve_stack(A, B, penalties, gamma):
    """`solve_riccati` for k models A (k, n, n), B (k, n, m) at k levels gamma,
    as a list; shapes are checked on the first member.

    Structure-preserving doubling: from (A_0, G_0, H_0) = (A, G, Q), with
    W = I + G_k H_k, A_k+1 = A_k W^-1 A_k, G_k+1 = G_k + A_k W^-1 G_k A_k'
    and H_k+1 = H_k + A_k' H_k W^-1 A_k, H_k is the (2^k - 1)-th iterate of
    M <- Q + A' M Lambda^-1 A from M = Q, so convergence is quadratic where
    that iteration crawls (near gamma*).  Each pass of the loop tests
    I - gamma^-2 H_k > FEAS_MARGIN I with `_pd`, from H_0 = Q to the
    converged limit, and doubles the stack.  Only a pass after which a
    member must leave (it fails that test, its step is singular, or its
    iterate diverged, fell or converged) forms the exit masks; its
    accepting verdicts are a Cholesky's and an eigvalsh's alike
    (test_hinf.py::test_fall_exit_changes_no_verdict).  After the loop, one
    pass, skipped when none converged, checks each limit for M > 0 and a
    Schur stable Lambda^-1 A (= A - B K + L) and forms the gains.  Every
    numpy call runs on the stack of members still iterating, each beside
    its own gamma^-2, so entry i is bit for bit solve_riccati(A[i], B[i],
    penalties, gamma[i]) (test_hinf.py::test_stacked_solve_matches_member_solves).
    """
    Q, R = penalties.Q, penalties.R
    n, _ = _check_shapes(A[0], B[0], Q, R)
    if not all(g > 0 for g in gamma):
        raise ValueError("gamma must be positive")

    results = [None] * len(A)
    eye = np.eye(n)
    # I, the margin and gamma^-2 (by Python's power; numpy's differs) as an
    # (n, n) block per member: same-shape sums run faster than broadcasts
    eyes = eye[None].repeat(len(A), axis=0)
    margins = FEAS_MARGIN * eyes
    ginv2 = np.array([g ** -2 for g in gamma]).repeat(n * n).reshape(eyes.shape)
    G = B @ np.linalg.solve(R, B.swapaxes(1, 2)) - ginv2 * eyes

    # live: the members still iterating; iters[i]: the doubling at which
    # member i converged (0 if it has not), Mlim[i] its limit.  Before the
    # first doubling no member is singular or fallen, and delta = 1 > tol = 0
    # reads as finite and not converged
    live, Ak, Gk, M, g2 = np.arange(len(A)), A, G, Q[None].repeat(len(A), axis=0), ginv2
    iters = np.zeros(len(A), dtype=int)
    Mlim = np.empty(A.shape)
    singular = fell = np.zeros(len(A), dtype=bool)
    delta, tol, going, it = np.ones(len(A)), np.zeros(len(A)), True, 0
    # an unstabilizable pair at gamma = inf overflows within ~10 doublings;
    # overflow and NaN are left to the divergence test
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # going implies that every member is finite; else a non-finite
            # one, which leaves as diverged, is tested as I, since `_pd`
            # needs finite matrices
            k = live.size  # every member's I and margin are alike: eyes[:k]
            S = eyes[:k] - g2 * M - margins[:k]
            if not going:
                S[~np.isfinite(delta)] = eye
            feasible = _pd(S)
            if not (going and feasible is np.True_ and it < RICCATI_BUDGET):
                # the one exit: every member that fails leaves with the first
                # of the verdicts below that holds for it, every converged one
                # with its limit, and at doubling RICCATI_BUDGET all leave.
                # While going, delta > tol for all: none diverged or converged
                converged, finite = delta <= tol, np.isfinite(delta)
                failed = singular | ~finite | fell | ~feasible
                if it == RICCATI_BUDGET:
                    failed |= ~converged
                for j in failed.nonzero()[0]:
                    i = live[j]
                    reason = (f"singular doubling step {it}" if singular[j] else
                              f"Riccati iterates diverged at doubling {it}" if not finite[j] else
                              f"Riccati iterates fell at doubling {it}" if fell[j] else
                              "converged M violates M < gamma^2 I" if converged[j] else
                              f"Riccati doubling did not converge in {RICCATI_BUDGET} steps"
                              if it == RICCATI_BUDGET else
                              f"I - gamma^-2 M lost positive definiteness at doubling {it}")
                    results[i] = Infeasible(f"{reason} (gamma={gamma[i]:.6g})")
                # by positions and take: boolean indexing costs several times
                # as much on these small stacks
                done = (converged & ~failed).nonzero()[0]
                Mlim[live[done]], iters[live[done]] = M.take(done, axis=0), it
                keep = (~(failed | converged)).nonzero()[0]
                live, Ak, Gk, M, g2 = (x.take(keep, axis=0) for x in (live, Ak, Gk, M, g2))
                if not live.size:
                    break
            it += 1
            X, singular = _stacked_solve(eyes[:live.size] + Gk @ M,
                                         np.concatenate([Ak, Gk], axis=2))
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
            # for the members that neither diverged nor converged.  The step
            # is H_k+1 - H_k >= 0 while every iterate is feasible, so a
            # diagonal entry below -tol proves that one was not (and is
            # False for a non-finite member)
            delta = np.abs(step).max(axis=(1, 2))
            tol = RICCATI_TOL * np.abs(M).max(axis=(1, 2), initial=1.0)
            fell = np.diagonal(step, axis1=1, axis2=2).min(axis=1) < -tol
            going = (delta > tol).all() and not fell.any()

        # the converged limits in one pass, each verdict a mask.  A limit
        # that is not positive definite is replaced by Q, which passed
        # doubling 0, so that I + G M stays nonsingular; its gains are unused
        idx = np.flatnonzero(iters)
        if not idx.size:
            return results
        A, B, G, M, ginv2 = (x.take(idx, axis=0) for x in (A, B, G, Mlim, ginv2))
        pd = np.broadcast_to(_pd(M), idx.shape)
        M[~pd] = Q
        X = np.linalg.solve(eye + G @ M, A)
        stable = np.abs(np.linalg.eigvals(X)).max(axis=1) < 1.0
        MX = M @ X
        K = np.linalg.solve(R, B.swapaxes(1, 2) @ MX)
        L = ginv2 * MX
    for j, i in enumerate(idx):
        results[i] = (Infeasible(f"converged M is not positive definite (gamma={gamma[i]:.6g})")
                      if not pd[j] else
                      Infeasible(f"converged M is not stabilizing (gamma={gamma[i]:.6g})")
                      if not stable[j] else
                      HinfSolution(M=M[j], K=K[j], L=L[j], iterations=int(iters[i])))
    return results


def _plan(lo, hi, bisecting, rel_tol, depth):
    """Every level a bracket's sequential search can probe in its next `depth`
    rounds from [lo, hi]: before any level is accepted, the next values of
    hi (none past GAMMA_MAX); after, the midpoints of the next `depth` levels
    of the bisection tree, none past the rel_tol stop."""
    if not depth:
        return []
    if not bisecting:
        if hi >= GAMMA_MAX:
            return [hi]
        return [hi] + _plan(lo, min(2.0 * hi, GAMMA_MAX), False, rel_tol, depth - 1)
    if hi - lo <= rel_tol * hi:
        return []
    mid = 0.5 * (lo + hi)
    return ([mid] + _plan(lo, mid, True, rel_tol, depth - 1)
            + _plan(mid, hi, True, rel_tol, depth - 1))


def _level_search(probe, k, Q, rel_tol, first=None):
    """The smallest level each of k brackets accepts, by doubling then
    bisection in lockstep, and the results there.

    Every bracket has lo = sqrt(max eig Q), never probed: below it no
    M >= Q has M < level^2 I.  Its hi starts at max(2 lo, 1), clamped to
    GAMMA_MAX, and doubles until accepted, the last probe being exactly
    GAMMA_MAX; then [lo, hi] is bisected to hi - lo <= rel_tol * hi.
    Each call probe(levels, members) gets every level the unfinished
    brackets can reach in the next SEARCH_DEPTH rounds (`_plan`), `members`
    naming each one's bracket, and returns a function giving the result at
    a position, truthy or falsy with a `reason`.  A non-empty first[i]
    replaces bracket i's plan in the first call only, so a plan that holds
    its whole path finishes it in one call.  The search reads only the
    results on each bracket's path, once each and in path order, so every
    result and error is that of the search that probes one level per
    bracket a round, whatever the first plans hold
    (test_hinf.py::test_level_search_replays_the_sequential_search).
    BracketError with the last reason of the first bracket whose GAMMA_MAX
    is rejected, raised once every bracket before it has accepted a level
    (so a first plan cannot change which), and without probing if
    lo >= GAMMA_MAX.
    """
    lo = float(np.sqrt(np.max(np.linalg.eigvalsh(Q))))
    if lo >= GAMMA_MAX:
        raise BracketError(f"no feasible level up to {GAMMA_MAX:.3g}: sqrt(max eig Q) = "
                           f"{lo:.6g} is not below it")
    los, his = [lo] * k, [min(max(2.0 * lo, 1.0), GAMMA_MAX)] * k
    found = [None] * k  # the result at his[i] once bracket i has one
    failed = {}  # bracket -> its BracketError message

    def next_level(i):
        """The level bracket i's sequential search probes next; None once done."""
        if i in failed:
            return None
        if found[i] is None:
            return his[i]
        return 0.5 * (los[i] + his[i]) if his[i] - los[i] > rel_tol * his[i] else None

    members = list(range(k))
    while members:
        levels, owners, planned = [], [], {}  # planned[i]: level -> position
        for i in members:
            plan = ((first and first[i])
                    or _plan(los[i], his[i], found[i] is not None, rel_tol, SEARCH_DEPTH))
            planned[i] = {level: len(levels) + j for j, level in enumerate(plan)}
            levels += plan
            owners += [i] * len(plan)
        result_at, first = probe(levels, owners), None
        for i in members:
            while (level := next_level(i)) in planned[i]:
                result = result_at(planned[i].pop(level))
                if result:
                    his[i], found[i] = level, result
                elif found[i] is not None:
                    los[i] = level
                elif level >= GAMMA_MAX:
                    failed[i] = (f"no feasible level up to {GAMMA_MAX:.3g} "
                                 f"(last reason: {result.reason})")
                else:
                    his[i] = min(2.0 * level, GAMMA_MAX)
            if failed and all(found[h] is not None for h in range(min(failed))):
                raise BracketError(failed[min(failed)])
        members = [i for i in members if next_level(i) is not None]
    return his, found


def _symplectic_probe(A, B, penalties):
    """A `_level_search` probe that predicts `_solve_stack`'s verdicts for a
    stack A (k, n, n), B (k, n, m); None when some A is singular.

    The stabilizing solution of the game Riccati equation spans the stable
    invariant subspace [U1; U2] of the symplectic matrix
    Z = [[A + G A^-T Q, -G A^-T], [-A^-T Q, A^-T]] as M = U2 U1^-1
    (Pappas, Laub & Sandell, IEEE TAC 1980).  Z is affine in gamma^-2, so
    each call is one stacked eig of every level: a level is predicted
    feasible when n eigenvalues lie inside the unit circle and n outside,
    each 1e-9 clear of it, and M is finite with M > 0 and I - gamma^-2 M > 0.
    Falsy predictions are Infeasible.  The probe raises LinAlgError when
    eig or the solve for M does.
    """
    Q = penalties.Q
    n, _ = _check_shapes(A[0], B[0], Q, penalties.R)
    with np.errstate(all="ignore"):
        try:
            AiT = np.linalg.inv(A).swapaxes(1, 2)
        except np.linalg.LinAlgError:
            return None
        G = B @ np.linalg.solve(penalties.R, B.swapaxes(1, 2))
        AiTQ, zero = AiT @ Q, np.zeros(A.shape)
        Z0 = np.block([[A + G @ AiTQ, -G @ AiT], [-AiTQ, AiT]])
        Z1 = np.block([[-AiTQ, AiT], [zero, zero]])  # Z = Z0 + gamma^-2 Z1

    def probe(levels, members):
        ginv2 = np.array([g ** -2 for g in levels])
        with np.errstate(all="ignore"):
            lam, V = np.linalg.eig(Z0[members] + ginv2[:, None, None] * Z1[members])
            radius = np.abs(lam)
            inner, outer = np.sort(radius, axis=1)[:, n - 1:n + 1].T
            split = (inner < 1.0 - 1e-9) & (outer > 1.0 + 1e-9)
            U = np.take_along_axis(V, np.argsort(radius, axis=1)[:, None, :n], axis=2)
            MT = np.linalg.solve(U[:, :n].swapaxes(1, 2), U[:, n:].swapaxes(1, 2))
            M = 0.5 * (MT.real + MT.real.swapaxes(1, 2))
            ok = split & np.isfinite(M).all(axis=(1, 2))
            M[~ok] = 0.0
            w = np.linalg.eigvalsh(M)  # M > 0 and I - gamma^-2 M > 0 from its extremes
            ok &= (w[:, 0] > 0.0) & (ginv2 * w[:, -1] < 1.0)
        return lambda j: True if ok[j] else Infeasible("predicted infeasible by the symplectic test")

    return probe


def gamma_stars(A, B, penalties):
    """gamma*, the smallest feasible level, of each model of a stack A (k, n, n),
    B (k, n, m) as a list: `_level_search` at BISECT_REL_TOL, each probe one
    `_solve_stack` of every planned level, so each gamma* is bit for bit its
    model's search alone (test_hinf.py::test_gamma_stars_match_one_model_searches).
    The first call probes the paths that `_level_search` takes on
    `_symplectic_probe`'s predictions (none when it is None or raises
    LinAlgError): a right prediction ends each search in one `_solve_stack`, and
    a wrong one costs calls, never a bit
    (test_hinf.py::test_gamma_stars_plan_one_call_per_model and
    test_hinf.py::test_gamma_stars_without_or_against_the_plan).
    BracketError if even GAMMA_MAX is infeasible for one (e.g. an
    unstabilizable pair)."""
    paths = [[] for _ in A]
    planner = _symplectic_probe(A, B, penalties) if len(A) else None

    def plan(levels, members):
        predicted = planner(levels, members)

        def result_at(j):
            paths[members[j]].append(levels[j])
            return predicted(j)
        return result_at

    def probe(levels, members):
        return _solve_stack(A[members], B[members], penalties, levels).__getitem__

    if planner is not None:
        try:
            _level_search(plan, len(A), penalties.Q, BISECT_REL_TOL)
        except BracketError:
            pass  # the paths up to GAMMA_MAX are kept
        except np.linalg.LinAlgError:
            paths = None
    return _level_search(probe, len(A), penalties.Q, BISECT_REL_TOL, paths)[0]


def optimal_attenuation(A, B, penalties):
    """gamma* of one model, A (n, n) and B (n, m): `gamma_stars` of a stack of one."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return gamma_stars(A[None], B[None], penalties)[0]


@dataclass(eq=False)
class FrequencyScan:
    """Peak of the weighted closed loop's largest singular value over [0, pi].

    `peak_response` is the response at `peak_omega` and `peak_norm` its
    largest singular value, bit for bit as an SVD gives it, and no
    frequency exceeds it by a factor 1 + 2 LEVEL_TOL (up to the rounding of
    the Hamiltonian's eigenvalues).  Ties go to the earlier candidate: the
    lowest seed frequency with the largest seed value, which a midpoint
    replaces only when strictly larger, so a flat response (an all-pass)
    reports peak_omega = 0.
    """

    peak_omega: float
    peak_norm: float
    peak_response: np.ndarray


def closed_loop_scan(A, B, K, penalties):
    """The H-infinity norm over [0, pi] of the closed loop u = -Kx,
    [Q^(1/2); R^(1/2) K] (e^(j w) I - A + B K)^-1, for A (n, n), B (n, m)
    and K (m, n), as a FrequencyScan.

    The seeds are omega = 0, pi and the angles of the poles of A - BK.  The
    level-set iteration (Boyd, Balakrishnan & Kabamba, Math. Control
    Signals Systems 1989; Bruinsma & Steinbuch, Systems & Control Letters
    1990) then raises the peak.  The Cayley transform s = (z - 1)/(z + 1)
    maps the loop to a continuous-time one whose Hamiltonian at level g has
    the eigenvalue j tan(omega/2) exactly where g is a singular value at
    omega.  At g = peak (1 + 2 LEVEL_TOL) the eigenvalues with imaginary
    part > 0 and real part at most LEVEL_TOL times the spectrum's largest
    modulus are taken as those; the midpoints between consecutive ones are
    evaluated, and the largest value replaces the peak.  The iteration
    stops when fewer than two remain or no midpoint is larger.  The map is
    ill-conditioned near s = inf (omega = pi), so the iteration runs again,
    from the peak so far, on -(A - BK), whose s = 0 is omega = pi.
    ValueError on a shape mismatch or when A - BK is not Schur stable
    (spectral radius 1 - 1e-9 or more), where the response is unbounded.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    K = np.asarray(K, dtype=float)
    n, m = _check_shapes(A, B, penalties.Q, penalties.R)
    if K.shape != (m, n):
        raise ValueError(f"K must be {m} x {n}, got {K.shape}")
    Acl = A - B @ K
    poles = np.linalg.eigvals(Acl)
    radius = float(np.max(np.abs(poles)))
    if radius >= 1.0 - 1e-9:
        raise ValueError(f"A - BK must be Schur stable (spectral radius {radius:.6g})")
    dq, Vq = np.linalg.eigh(penalties.Q)
    dr, Vr = np.linalg.eigh(penalties.R)
    Qh = (Vq * np.sqrt(np.maximum(dq, 0.0))) @ Vq.T
    Rh = (Vr * np.sqrt(np.maximum(dr, 0.0))) @ Vr.T
    C = np.vstack([Qh, Rh @ K])
    eye = np.eye(n)

    def largest(omegas):
        """(omega, sigma_max, response) at the omega of largest sigma_max."""
        z = np.exp(1j * omegas)[:, None, None] * eye - Acl
        responses = C @ np.linalg.solve(z, np.broadcast_to(eye, z.shape))
        values = np.linalg.svd(responses, compute_uv=False)[:, 0]
        j = int(np.argmax(values))
        return float(omegas[j]), float(values[j]), responses[j]

    peak = largest(np.sort(np.concatenate([[0.0, np.pi], np.abs(np.angle(poles))])))
    for sign, offset in ((1.0, 0.0), (-1.0, np.pi)):
        # The Cayley image of (sign Acl, I, C, 0) is (I - 2E, sqrt(2) E,
        # sqrt(2) F, -F) with E = (I + sign Acl)^-1 and F = C E.  Its
        # Hamiltonian reduces to the blocks below, with W = F'F and
        # T = (g^2 I - W)^-1; sigma_max(F) is the response at the far end,
        # omega = pi - offset, a seed, so g^2 I - W > 0
        E = np.linalg.inv(eye + sign * Acl)
        F = C @ E
        W = F.T @ F
        while True:
            g2 = (peak[1] * (1.0 + 2.0 * LEVEL_TOL)) ** 2
            T = np.linalg.inv(g2 * eye - W)
            X = eye - 2.0 * g2 * E @ T
            lam = np.linalg.eigvals(np.block([[X, 2.0 * E @ T @ E.T],
                                              [-2.0 * g2 * W @ T, -X.T]]))
            on_axis = np.abs(lam.real) <= LEVEL_TOL * np.abs(lam).max()
            nu = np.sort(lam.imag[on_axis & (lam.imag > 0.0)])
            if nu.size < 2:
                break
            found = largest(offset + sign * 2.0 * np.arctan(0.5 * (nu[1:] + nu[:-1])))
            if found[1] <= peak[1]:
                break
            peak = found

    return FrequencyScan(*peak)
