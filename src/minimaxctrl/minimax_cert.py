"""Certificates for adaptive control over a finite model set.

A certificate at attenuation level gamma is a family of gains {K_l} and
symmetric matrices {P_ij}, 0 < P_ij = P_ji < gamma^2 I, satisfying, for
every index triple (i, j, l),

    P_il  >=  Q + K_l' R K_l - gamma^2 S-' S- + S+' (P_ij^-1 - gamma^-2 I)^-1 S+

with Abar_il = A_i - B_i K_l, S- = (Abar_il - Abar_jl) / 2 and
S+ = (Abar_il + Abar_jl) / 2.  When it holds, the switching policy that
plays u = -K_l x for the model l of least accumulated residual keeps the
soft-constrained cost below max_ij x0' P_ij x0 no matter which model in the
set generates the data and no matter the disturbance.

`verify_certificate` checks the full F^3 triple family by eigenvalue
bounds.  `synthesize_certificate` builds a candidate without an SDP
solver: gains come from the per-model H-infinity designs at the requested
level, and the P family is iterated to a fixed point of the inequality
taken with equality at j = i, the one instance whose S- term vanishes:

    rhs_il = Q + K_l' R K_l + Abar_il' (P_ii^-1 - gamma^-2 I)^-1 Abar_il.

The triples (i, i, l) and (l, l, i) force any valid family to dominate
both one-sided evaluations rhs_il and rhs_li, so each sweep symmetrizes
with the tight upper bound (rhs_il + rhs_li) / 2 + |rhs_il - rhs_li| / 2
rather than the plain average (which sits strictly below one side
whenever they differ and can never verify).  For one model the sweep is
exactly the completed-square form of the H-infinity Riccati map, so
an F = 1 set reproduces the known-model design.  The heuristic can fail
at levels where a certificate exists (the verifier has the final word;
there are no false positives), so the level found by
`minimal_feasible_gamma` is an upper bound on the best achievable one.
Its feasible set need not be an interval either, so the doubling-then-
bisect search (`hinf._level_search`, no fallback sweep) may miss the least.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fileio import ConfigError, integer, number, numeric, read_json_object
from .hinf import Infeasible, _level_search, optimal_attenuation, solve_riccati

SWEEP_BUDGET = 20_000
SWEEP_STOP_TOL = 1e-11
SWEEP_ACCEPT_TOL = 1e-9
VERIFY_TOL = 1e-8
GAMMA_BAR_REL_TOL = 1e-4
EIG_MARGIN = 1e-10
PAIR_SYM_TOL = 1e-9


@dataclass(eq=False)
class MinimaxCertificate:
    """Gains and value matrices certifying a level gamma_bar.

    gains: (F, m, n), u = -gains[l-1] x when model l is selected.
    P: (F, F, n, n) with P[i-1, j-1] the value matrix for the pair (i, j).
    """

    gamma_bar: float
    gains: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        self.gamma_bar = float(self.gamma_bar)
        self.gains = np.asarray(self.gains, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        if self.gains.ndim != 3:
            raise ValueError("gains must be stacked (F, m, n)")
        F, _, n = self.gains.shape
        if self.P.shape != (F, F, n, n):
            raise ValueError(
                f"P must be (F, F, n, n) = ({F}, {F}, {n}, {n}), "
                f"got {self.P.shape}"
            )

    @property
    def size(self):
        return self.gains.shape[0]


@dataclass
class CertificateCheck:
    feasible: bool
    worst_violation: float
    worst_triple: tuple


def _box_violation(P, gamma):
    """None if 0 < P_ij < gamma^2 I with margin EIG_MARGIN for every pair,
    else the offending eigenvalue range as text."""
    eigs = np.linalg.eigvalsh(P)
    lo = float(np.min(eigs))
    hi = float(np.max(eigs))
    bound = gamma ** 2
    if lo <= EIG_MARGIN or hi >= bound - EIG_MARGIN:
        return f"eigs in [{lo:.3e}, {hi:.6g}], bound {bound:.6g}"
    return None


def _closed_loops(ms, penalties, K):
    """Abar[i, l] = A_i - B_i K_l and the stage weights C_l = Q + K_l' R K_l."""
    Abar = ms.A[:, None] - np.matmul(ms.B[:, None], K[None, :])
    C = penalties.Q + np.einsum("lai,ab,lbj->lij", K, penalties.R, K)
    return Abar, C


def _check_cert_invariants(cert, ms):
    F, n, m = ms.size, ms.n, ms.m
    if cert.gains.shape != (F, m, n):
        raise ValueError(
            f"certificate gains are {cert.gains.shape}, model set needs "
            f"({F}, {m}, {n})"
        )
    pair_gap = float(np.max(np.abs(cert.P - cert.P.transpose(1, 0, 2, 3))))
    sym_gap = float(np.max(np.abs(cert.P - cert.P.transpose(0, 1, 3, 2))))
    if max(pair_gap, sym_gap) > PAIR_SYM_TOL:
        raise ValueError(
            f"P family violates symmetry (pair gap {pair_gap:.3e}, "
            f"matrix gap {sym_gap:.3e}, limit {PAIR_SYM_TOL:.1e})"
        )
    violation = _box_violation(cert.P, cert.gamma_bar)
    if violation:
        raise ValueError(f"P family violates 0 < P < gamma_bar^2 I ({violation})")


def verify_certificate(ms, penalties, cert, tol=VERIFY_TOL):
    """Eigenvalue check of the certificate inequality over all F^3 triples.

    Returns a CertificateCheck whose `worst_violation` is the smallest
    minimum eigenvalue of the F^3 slack matrices (negative means the
    inequality fails by that amount at `worst_triple`, reported 1-based
    as (i, j, l)).  Feasible iff every slack eigenvalue is >= -tol.

    Structural violations of the certificate's own invariants (asymmetry,
    P outside (0, gamma_bar^2 I)) raise ValueError; a near-singular
    P_ij^-1 - gamma_bar^-2 I marks the affected triples as infeasible
    rather than raising.
    """
    _check_cert_invariants(cert, ms)
    F, n = ms.size, ms.n
    g2 = cert.gamma_bar ** 2

    Abar, C = _closed_loops(ms, penalties, cert.gains)
    Sm = 0.5 * (Abar[:, None, :] - Abar[None, :, :])  # indexed [i, j, l]
    Sp = 0.5 * (Abar[:, None, :] + Abar[None, :, :])

    X = np.linalg.inv(cert.P) - np.eye(n) / g2
    X = 0.5 * (X + X.transpose(0, 1, 3, 2))
    x_min = np.linalg.eigvalsh(X)[:, :, 0]
    singular_pair = x_min <= 0.0
    X_safe = X + np.where(singular_pair, 1.0, 0.0)[:, :, None, None] * np.eye(n)
    Z = np.linalg.inv(X_safe)

    slack = (
        cert.P[:, None]                       # P_il broadcast over j
        - C[None, None]
        + g2 * np.matmul(Sm.transpose(0, 1, 2, 4, 3), Sm)
        - np.matmul(Sp.transpose(0, 1, 2, 4, 3), np.matmul(Z[:, :, None], Sp))
    )
    slack = 0.5 * (slack + slack.transpose(0, 1, 2, 4, 3))
    min_eig = np.linalg.eigvalsh(slack)[..., 0]
    min_eig = np.where(singular_pair[:, :, None], -np.inf, min_eig)

    worst_flat = int(np.argmin(min_eig))
    i, j, l = np.unravel_index(worst_flat, (F, F, F))
    worst = float(min_eig[i, j, l])
    return CertificateCheck(
        feasible=bool(worst >= -tol),
        worst_violation=worst,
        worst_triple=(int(i) + 1, int(j) + 1, int(l) + 1),
    )


def synthesize_certificate(ms, penalties, gamma):
    """Attempt a certificate at level gamma (see module docstring).

    Returns the certificate, or Infeasible with the failing stage: a model
    without an H-infinity design at gamma, a P iterate escaping
    0 < P < gamma^2 I, a non-convergent inner fixed point, or a converged
    family that the full triple verification rejects.
    """
    gamma = float(gamma)
    F, n = ms.size, ms.n
    gains = []
    for l in range(1, F + 1):
        A, B = ms.pair(l)
        sol = solve_riccati(A, B, penalties, gamma)
        if not sol:
            return Infeasible(
                f"model {l} has no H-infinity design at gamma={gamma:.6g}: "
                f"{sol.reason}"
            )
        gains.append(sol.K)
    K = np.stack(gains)

    g2 = gamma ** 2
    eye = np.eye(n)
    Abar, C = _closed_loops(ms, penalties, K)
    AbarT = Abar.transpose(0, 1, 3, 2)
    diag = np.arange(F)

    P = np.broadcast_to(penalties.Q, (F, F, n, n)).copy()
    delta_rel = np.inf
    for _ in range(SWEEP_BUDGET):
        if _box_violation(P, gamma):
            return Infeasible(
                f"P iteration escaped 0 < P < gamma^2 I at gamma={gamma:.6g}"
            )
        Zd = np.linalg.inv(np.linalg.inv(P[diag, diag]) - eye / g2)  # per model i
        rhs = C[None, :] + np.matmul(AbarT, np.matmul(Zd[:, None], Abar))
        gap = rhs - rhs.transpose(1, 0, 2, 3)
        gap = 0.5 * (gap + gap.transpose(0, 1, 3, 2))
        lam, V = np.linalg.eigh(gap)
        abs_gap = np.matmul(V * np.abs(lam)[..., None, :], V.transpose(0, 1, 3, 2))
        Pn = 0.5 * (rhs + rhs.transpose(1, 0, 2, 3)) + 0.5 * abs_gap
        Pn = 0.5 * (Pn + Pn.transpose(0, 1, 3, 2))
        delta_rel = float(np.max(np.abs(Pn - P))) / max(1.0, float(np.max(np.abs(Pn))))
        P = Pn
        if delta_rel <= SWEEP_STOP_TOL:
            break
    if delta_rel > SWEEP_ACCEPT_TOL:
        return Infeasible(
            f"P iteration did not converge at gamma={gamma:.6g} "
            f"(last relative change {delta_rel:.3e})"
        )

    if _box_violation(P, gamma):
        return Infeasible(
            f"converged P violates 0 < P < gamma^2 I at gamma={gamma:.6g}"
        )
    # canonicalize the residual pair asymmetry (sub-1e-12 arithmetic noise)
    # so serialization round-trips are byte-stable
    iu, ju = np.triu_indices(F)
    P[ju, iu] = P[iu, ju]
    cert = MinimaxCertificate(gamma_bar=gamma, gains=K, P=P)
    check = verify_certificate(ms, penalties, cert)
    if not check.feasible:
        return Infeasible(
            f"converged family fails verification at gamma={gamma:.6g} "
            f"(worst violation {check.worst_violation:.3e} at triple "
            f"{check.worst_triple})"
        )
    return cert


def minimal_feasible_gamma(ms, penalties):
    """Smallest certifiable level found by bisection; returns (gamma_bar, cert).

    The lower bracket is max_i gamma*_i (no certificate can beat the best
    known-model level of any member); the upper one starts at twice that
    and doubles up to hinf.GAMMA_MAX, where BracketError carries the last
    probe's reason (see `hinf._level_search`).  Relative tolerance on the
    returned level: GAMMA_BAR_REL_TOL.
    """
    lo = max(
        optimal_attenuation(*ms.pair(i), penalties) for i in range(1, ms.size + 1)
    )
    return _level_search(lambda g: synthesize_certificate(ms, penalties, g),
                         lo, 2.0 * lo, GAMMA_BAR_REL_TOL)


def value_bound(cert, x0):
    """Guaranteed cost from x0: max over (i, j) of x0' P_ij x0."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n = cert.P.shape[-1]
    if x0.shape[0] != n:
        raise ValueError(f"x0 has length {x0.shape[0]}, expected {n}")
    vals = np.einsum("p,ijpq,q->ij", x0, cert.P, x0)
    return float(np.max(vals))


def save_certificate(cert, path):
    """Write a certificate as JSON: gamma_bar, gains, upper-triangle P."""
    doc = {
        "gamma_bar": cert.gamma_bar,
        "gains": [cert.gains[l].tolist() for l in range(cert.size)],
        "P": [
            {"i": i + 1, "j": j + 1, "rows": cert.P[i, j].tolist()}
            for i in range(cert.size)
            for j in range(i, cert.size)
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_certificate(path):
    """Read a certificate written by save_certificate.

    Raises ConfigError on malformed files (missing keys, bad values or
    shapes, missing or duplicate upper-triangle entries).
    """
    doc = read_json_object(path, "certificate", ("gamma_bar", "gains", "P"))
    gamma_bar = number(doc["gamma_bar"], "certificate gamma_bar")
    gains = numeric(doc["gains"], "certificate gains")
    if gains.ndim != 3:
        raise ConfigError(f"certificate gains must be (F, m, n), got shape {gains.shape}")
    F, _, n = gains.shape
    P = np.zeros((F, F, n, n))
    seen = set()
    if not isinstance(doc["P"], list):
        raise ConfigError("'P' must be a list of {i, j, rows} entries")
    for entry in doc["P"]:
        if not isinstance(entry, dict) or not {"i", "j", "rows"} <= set(entry):
            raise ConfigError("each P entry needs keys i, j, rows")
        i, j = integer(entry["i"], "P entry i"), integer(entry["j"], "P entry j")
        if not (1 <= i <= j <= F):
            raise ConfigError(f"P entry ({i}, {j}) outside the upper triangle of 1..{F}")
        if (i, j) in seen:
            raise ConfigError(f"duplicate P entry ({i}, {j})")
        seen.add((i, j))
        M = numeric(entry["rows"], f"P entry ({i}, {j})")
        if M.shape != (n, n):
            raise ConfigError(
                f"P entry ({i}, {j}) has shape {M.shape}, expected ({n}, {n})"
            )
        P[i - 1, j - 1] = M
        P[j - 1, i - 1] = M
    missing = [(i + 1, j + 1) for i in range(F) for j in range(i, F)
               if (i + 1, j + 1) not in seen]
    if missing:
        raise ConfigError(f"certificate is missing P entries: {missing}")
    return MinimaxCertificate(gamma_bar=gamma_bar, gains=gains, P=P)
