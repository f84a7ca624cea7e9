"""Certificates for adaptive control over a finite model set.

A certificate at attenuation level gamma is a family of gains {K_l} and
symmetric matrices {P_ij}, 0 < P_ij = P_ji < gamma^2 I, satisfying, for
every index triple (i, j, l),

    P_il  >=  Q + K_l' R K_l - gamma^2 S-' S- + S+' (P_ij^-1 - gamma^-2 I)^-1 S+

with Abar_il = A_i - B_i K_l, S- = (Abar_il - Abar_jl) / 2 and
S+ = (Abar_il + Abar_jl) / 2.  When it holds, the switching policy that
plays u = -K_l x for the model l of least accumulated residual keeps the
soft-constrained cost below max_ij x0' P_ij x0 no matter which model in the
set generates the data and no matter the disturbance.  Synthesis builds
candidate families in closed form, without an SDP solver, and only
`verify_certificate` accepts one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fileio import (ConfigError, atomic_write_text, integer, numeric,
                     read_json_object, read_only)
from .hinf import (Infeasible, _level_search, _solve_stack, _stacked_solve,
                   checked_level)

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
        self.gamma_bar = checked_level(self.gamma_bar, "gamma_bar")
        self.gains = read_only(self.gains)
        self.P = read_only(self.P)
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


def check_gains_shape(cert, ms):
    """ValueError unless the certificate's gains are (F, m, n) for model set ms."""
    shape = (ms.size, ms.m, ms.n)
    if cert.gains.shape != shape:
        raise ValueError(
            f"certificate gains must be {shape} for this model set, "
            f"got {cert.gains.shape}"
        )


def _check_cert_invariants(cert, ms):
    check_gains_shape(cert, ms)
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


def _pair_inverses(P, g2):
    """(Z, singular) for a stack of pairs P (..., n, n): Z = (P^-1 - g2^-1 I)^-1
    and the mask of the singular pairs, those whose P or X = P^-1 - g2^-1 I
    numpy cannot invert or whose X is not positive definite.  A singular
    pair's Z is 0, a finite stand-in: its triples are infeasible whatever
    their slack."""
    shape, n = P.shape, P.shape[-1]
    eye = np.eye(n)
    P = P.reshape(-1, n, n)
    eyes = np.broadcast_to(eye, P.shape)
    X, singular = _stacked_solve(P, eyes)
    X -= eye / g2
    X = 0.5 * (X + X.transpose(0, 2, 1))
    X[singular] = eye  # their NaN rows would make eigvalsh raise
    singular |= np.linalg.eigvalsh(X)[:, 0] <= 0.0
    # shifted by I, a singular pair rarely sends the solve to one member at a time
    Z, failed = _stacked_solve(X + np.where(singular, 1.0, 0.0)[:, None, None] * eye, eyes)
    singular |= failed
    Z[singular] = 0.0
    return Z.reshape(shape), singular.reshape(shape[:-2])


def _least_slacks(ms, penalties, cert, i, j, l):
    """Least eigenvalue of the slack matrix of the triples (i, j, l), given as
    0-based indices or as index arrays that broadcast together; -inf where
    the pair (i, j) is singular.  Only the given triples' closed loops are
    formed, so one triple builds two, and its slack has the bits of its
    entry in the F^3 table
    (test_minimax_cert.py::test_screen_matches_full_verification)."""
    g2 = cert.gamma_bar ** 2
    K = cert.gains[l]
    Abar_il = ms.A[i] - np.matmul(ms.B[i], K)
    Abar_jl = ms.A[j] - np.matmul(ms.B[j], K)
    C = penalties.Q + np.einsum("...ai,ab,...bj->...ij", K, penalties.R, K)
    Z, singular = _pair_inverses(cert.P[i, j], g2)
    Sm = 0.5 * (Abar_il - Abar_jl)
    Sp = 0.5 * (Abar_il + Abar_jl)
    slack = (
        cert.P[i, l]
        - C
        + g2 * np.matmul(np.swapaxes(Sm, -1, -2), Sm)
        - np.matmul(np.swapaxes(Sp, -1, -2), np.matmul(Z, Sp))
    )
    slack = 0.5 * (slack + np.swapaxes(slack, -1, -2))
    return np.where(singular, -np.inf, np.linalg.eigvalsh(slack)[..., 0])


def verify_certificate(ms, penalties, cert):
    """Eigenvalue check of the certificate inequality over all F^3 triples.

    `worst_violation` is the least eigenvalue of the F^3 slack matrices
    (negative: the inequality fails by that much at `worst_triple`, 1-based
    (i, j, l)), and the check is feasible iff it is >= -VERIFY_TOL.  A
    singular pair (`_pair_inverses`) makes its triples -inf.  ValueError
    when the certificate breaks its own invariants (gains' shape, asymmetry,
    P outside (0, gamma_bar^2 I)).
    """
    _check_cert_invariants(cert, ms)
    F = ms.size
    min_eig = _least_slacks(ms, penalties, cert, *np.ix_(range(F), range(F), range(F)))
    worst_flat = int(np.argmin(min_eig))
    i, j, l = np.unravel_index(worst_flat, (F, F, F))
    worst = float(min_eig[i, j, l])
    return CertificateCheck(
        feasible=bool(worst >= -VERIFY_TOL),
        worst_violation=worst,
        worst_triple=(int(i) + 1, int(j) + 1, int(l) + 1),
    )


def synthesize_certificate(ms, penalties, gamma):
    """The certificate `_family` builds at level gamma, if it verifies: the
    gamma_bar search's probe at that one level.

    Else Infeasible with the failing stage: a model without an H-infinity
    design at gamma (the lowest-index one), a family outside
    0 < P < gamma^2 I, or a family that `verify_certificate` rejects (its
    worst violation and triple).
    """
    found = _checked_synthesis(ms, penalties, gamma)
    return found[0] if found else found


def _checked_synthesis(ms, penalties, gamma):
    """(`synthesize_certificate`'s certificate, the CertificateCheck that
    accepted it), or its Infeasible."""
    return _certify_probe(ms, penalties)([float(gamma)], [0])(0)


def _fails_verification(gamma, what, violation, triple):
    return Infeasible(f"family fails verification at gamma={gamma:.6g} "
                      f"({what} {violation:.3e} at triple {triple})")


def _family(ms, penalties, gamma, designs):
    """The unverified certificate at level gamma from its F member designs
    there, or Infeasible for a missing design or a family outside the box.

    K_l and M_l are model l's H-infinity design.  Each block is the
    inequality taken with equality at j = i, where S- vanishes:

        rhs_il = Q + K_l' R K_l + Abar_il' (M_i^-1 - gamma^-2 I)^-1 Abar_il,

    so rhs_ii = M_i.  The triples (i, i, l) and (l, l, i) force any valid
    family to dominate both rhs_il and rhs_li, so P_il is their tight upper
    bound (rhs_il + rhs_li) / 2 + |rhs_il - rhs_li| / 2; their average sits
    below one side whenever they differ and can never verify.  It is
    formed and box-checked for i <= l only and mirrored, so P[l, i] is
    P[i, l] byte for byte and the box check sees the blocks
    `verify_certificate` checks
    (test_minimax_cert.py::test_search_families_are_mirrored_and_valid).
    An F = 1 set gives the known-model design.
    """
    F, n = ms.size, ms.n
    for l, sol in enumerate(designs, start=1):
        if not sol:
            return Infeasible(
                f"model {l} has no H-infinity design at gamma={gamma:.6g}: "
                f"{sol.reason}"
            )
    K = np.stack([sol.K for sol in designs])
    M = np.stack([sol.M for sol in designs])

    Abar = ms.A[:, None] - np.matmul(ms.B[:, None], K[None, :])  # [i, l]
    C = penalties.Q + np.einsum("lai,ab,lbj->lij", K, penalties.R, K)
    Z = np.linalg.inv(np.linalg.inv(M) - np.eye(n) / gamma ** 2)  # per model i
    rhs = C[None, :] + np.matmul(Abar.transpose(0, 1, 3, 2), np.matmul(Z[:, None], Abar))
    iu, ju = np.triu_indices(F)
    upper, lower = rhs[iu, ju], rhs[ju, iu]
    gap = upper - lower
    gap = 0.5 * (gap + gap.swapaxes(1, 2))
    lam, V = np.linalg.eigh(gap)
    abs_gap = np.matmul(V * np.abs(lam)[..., None, :], V.swapaxes(1, 2))
    Pu = 0.5 * (upper + lower) + 0.5 * abs_gap
    Pu = 0.5 * (Pu + Pu.swapaxes(1, 2))
    if _box_violation(Pu, gamma):
        return Infeasible(f"P violates 0 < P < gamma^2 I at gamma={gamma:.6g}")
    P = np.empty((F, F, n, n))
    P[iu, ju] = P[ju, iu] = Pu
    return MinimaxCertificate(gamma_bar=gamma, gains=K, P=P)


def minimal_feasible_gamma(ms, penalties):
    """Smallest certifiable level found by bisection; returns (gamma_bar, cert).

    `hinf._level_search` with gamma*'s bracket, at GAMMA_BAR_REL_TOL, and
    no gamma* is computed: a probe below a member's threshold fails at its
    Riccati solve.  Its probe is `_certify_probe`, the one that
    `synthesize_certificate` runs at a single level, so by construction
    gamma_bar and the certificate are those of the bisection that probes
    one level per round with `synthesize_certificate`
    (test_minimax_cert.py::test_gamma_bar_is_the_sequential_bisection_over_synthesis).
    Synthesis can fail where a certificate exists, and its feasible levels
    need not be an interval, so gamma_bar bounds the least certifiable
    level from above.

    Once a full verification has failed, each later family is first
    screened at the worst triple of the last failed one, by `_least_slacks`
    of that triple alone.  Below -VERIFY_TOL it rejects the level, as the
    full check would; only the full check accepts one.  A screened
    rejection's reason names the screened triple's violation, and surfaces
    only as a BracketError's last reason.
    """
    return _checked_search(ms, penalties)[:2]


def _checked_search(ms, penalties):
    """(gamma_bar, certificate, the CertificateCheck that accepted it) of
    `minimal_feasible_gamma`."""
    gs, accepted = _level_search(_certify_probe(ms, penalties), 1, penalties.Q,
                                 GAMMA_BAR_REL_TOL)
    return (gs[0], *accepted[0])


def _certify_probe(ms, penalties):
    """`_level_search`'s probe for one bracket: its result at a level is
    (certificate, the CertificateCheck that accepted it) or Infeasible.
    Each call solves every planned level's F member designs as one
    `_solve_stack`, so a level's result has the bits of a call that plans
    it alone; a fresh probe has no screen triple yet."""
    F = ms.size
    failed_at = None  # worst triple (1-based) of the last failed full verification

    def certify(gamma, designs):
        nonlocal failed_at
        cert = _family(ms, penalties, gamma, designs)
        if not cert:
            return cert
        if failed_at is not None:
            slack = float(_least_slacks(ms, penalties, cert, *(k - 1 for k in failed_at)))
            if not slack >= -VERIFY_TOL:
                return _fails_verification(gamma, "violation", slack, failed_at)
        check = verify_certificate(ms, penalties, cert)
        if check.feasible:
            return cert, check
        failed_at = check.worst_triple
        return _fails_verification(gamma, "worst violation", check.worst_violation, failed_at)

    def probe(levels, members):  # one bracket: every member is 0
        designs = _solve_stack(np.tile(ms.A, (len(levels), 1, 1)),
                               np.tile(ms.B, (len(levels), 1, 1)), penalties,
                               [g for g in levels for _ in range(F)])
        return lambda j: certify(levels[j], designs[j * F:(j + 1) * F])

    return probe


def value_bound(cert, x0):
    """Guaranteed cost from x0: max over (i, j) of x0' P_ij x0."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n = cert.P.shape[-1]
    if x0.shape[0] != n:
        raise ValueError(f"x0 has length {x0.shape[0]}, expected {n}")
    vals = np.einsum("p,ijpq,q->ij", x0, cert.P, x0)
    return float(np.max(vals))


def save_certificate(cert, path):
    """Write a certificate as JSON: gamma_bar, gains, upper-triangle P;
    returns the sha256 of the bytes written."""
    doc = {
        "gamma_bar": cert.gamma_bar,
        "gains": [cert.gains[l].tolist() for l in range(cert.size)],
        "P": [
            {"i": i + 1, "j": j + 1, "rows": cert.P[i, j].tolist()}
            for i in range(cert.size)
            for j in range(i, cert.size)
        ],
    }
    return atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def load_certificate(path):
    """Read a certificate written by save_certificate.

    Raises ConfigError on malformed files (missing keys, bad values or
    shapes, missing or duplicate upper-triangle entries).
    """
    doc = read_json_object(path, "certificate", ("gamma_bar", "gains", "P"))
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
    return MinimaxCertificate(gamma_bar=doc["gamma_bar"], gains=gains, P=P)
