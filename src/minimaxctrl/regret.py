"""Regret of the adaptive policy against a full-information benchmark.

`regret_report` is the one entry point for a pair of trajectories, which
must have answered the *same* disturbance sequence.  It gives two notions
of regret: the model-based one accumulates the weighted distance between
the trajectories; the cost-difference one subtracts realized costs, a
signed number that says nothing about how far apart they are.
`total_regret` takes the worst case over the true models, and
`sublinearity_diagnostic` checks whether the average regret per step is
flattening out, the signature of the adaptive policy locking on to the
true model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

W_MATCH_TOL = 1e-12
RATIO_SLACK = 1e-12
DECAY_FACTOR = 0.5
MIN_DIAGNOSTIC_STEPS = 4


@dataclass(eq=False)
class RegretReport:
    d: np.ndarray
    R: np.ndarray
    R_over_T: np.ndarray
    cost_diff: np.ndarray
    kind: str


@dataclass
class GapReport:
    """Distance from the certified level to each model's optimal one."""

    per_model: list
    minimal: float
    maximal: float


@dataclass(eq=False)
class SublinearityDiagnostic:
    tail_slope: float
    verdict: str


def regret_report(traj_a, traj_b, penalties, kind):
    """Regret of traj_a against traj_b, which answered the same disturbance.

    d_k = ||x^a_k - x^b_k||^2_Q + ||u^a_k - u^b_k||^2_R for k < T and the
    terminal state distance at k = T, and R is its running sum.  cost_diff
    is the running sum of the realized cost difference; it may be negative,
    and its last entry is the difference of the gamma = 0 accumulated
    costs.  Raises ValueError if the two disturbance sequences differ.
    """
    if traj_a.w.shape != traj_b.w.shape:
        raise ValueError("trajectories have different horizons or dimensions")
    w_gap = float(np.max(np.abs(traj_a.w - traj_b.w))) if traj_a.w.size else 0.0
    if w_gap > W_MATCH_TOL:
        raise ValueError(
            f"trajectories answer different disturbances (gap {w_gap:.3e}); "
            f"replay the recorded sequence on both loops first"
        )
    dx = traj_a.x - traj_b.x
    du = traj_a.u - traj_b.u
    d = np.einsum("ki,ij,kj->k", dx, penalties.Q, dx)
    d[:-1] += np.einsum("ki,ij,kj->k", du, penalties.R, du)
    del dx, du  # freed before the running sums, so they add nothing to peak memory
    R = np.cumsum(d)
    steps = np.arange(len(R), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_over_t = np.where(steps > 0, R / steps, np.nan)
    return RegretReport(
        d=d,
        R=R,
        R_over_T=r_over_t,
        cost_diff=np.cumsum(traj_a.step_cost - traj_b.step_cost),
        kind=kind,
    )


def total_regret(reports):
    """Pointwise maximum of cumulative regret over the true models.

    Given one report per model j of the set, each the regret when j is the
    true model under the same disturbance law, this is the paper's total
    regret: the worst case over which model the plant really is.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    stacked = np.stack([r.R for r in reports])
    return np.max(stacked, axis=0)


def suboptimality_gaps(gamma_bar, gamma_stars):
    """Gap between the certified level and each model's optimal level.

    `minimal` is the gap that no certificate for this set can undercut
    (against the hardest member); `maximal` is the gap against the
    easiest member.
    """
    gamma_bar = float(gamma_bar)
    per_model = [gamma_bar - float(g) for g in gamma_stars]
    if not per_model:
        raise ValueError("need at least one optimal level")
    return GapReport(
        per_model=per_model,
        minimal=min(per_model),
        maximal=max(per_model),
    )


def sublinearity_diagnostic(R):
    """Check whether cumulative regret is flattening out.

    Computes the per-step average ratio[k] = R[k] / k (undefined at
    k = 0) and its least-squares slope over the last quarter of the run.
    Verdict is "consistent-with-sublinear" when the ratio is nonincreasing
    across that tail (up to RATIO_SLACK) and the final ratio has fallen to
    at most DECAY_FACTOR times its peak; otherwise "inconclusive".  A
    finite run can never prove sublinearity, hence the hedged wording.
    """
    R = np.asarray(R, dtype=float)
    T = len(R) - 1
    if T < MIN_DIAGNOSTIC_STEPS:
        raise ValueError(
            f"diagnostic needs at least {MIN_DIAGNOSTIC_STEPS} steps of regret")
    steps = np.arange(T + 1, dtype=float)
    ratio = np.empty(T + 1)
    ratio[0] = np.nan
    ratio[1:] = R[1:] / steps[1:]

    q = max(2, T // 4)
    tail = ratio[T - q + 1:]
    tail_k = steps[T - q + 1:]
    tail_slope = float(np.polyfit(tail_k, tail, 1)[0])

    nonincreasing = bool(np.all(np.diff(tail) <= RATIO_SLACK))
    decayed = bool(ratio[T] <= DECAY_FACTOR * np.nanmax(ratio))
    verdict = (
        "consistent-with-sublinear" if nonincreasing and decayed else "inconclusive"
    )
    return SublinearityDiagnostic(tail_slope=tail_slope, verdict=verdict)
