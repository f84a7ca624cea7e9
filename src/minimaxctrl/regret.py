"""Regret of the adaptive policy against a full-information benchmark.

Model-based regret accumulates the weighted distance between two
trajectories that answered the same disturbance sequence; the cost
difference subtracts their realized costs, a signed number that says
nothing about how far apart they are.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import read_only
from .simulate import BLOCK_CAP

RATIO_SLACK = 1e-12
DECAY_FACTOR = 0.5
MIN_DIAGNOSTIC_STEPS = 4


def _per_step(R):
    """R[k] / k, NaN at k = 0."""
    steps = np.arange(len(R), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(steps > 0, R / steps, np.nan)


@dataclass(eq=False)
class RegretReport:
    """Regret of one trajectory pair, stored as the per-step distance d.

    d: (T+1,) read-only.  pair: the two trajectories (a, b), by reference.
    kind: the disturbance law they answered.  R, R_over_T and cost_diff are
    computed on every read: read each once.
    """

    d: np.ndarray
    pair: tuple
    kind: str

    def __post_init__(self):
        self.d = read_only(self.d)

    @property
    def R(self):
        """Cumulative regret, R[k] = d[0] + ... + d[k]."""
        return np.cumsum(self.d)

    @property
    def R_over_T(self):
        """R[k] / k, NaN at k = 0."""
        return _per_step(self.R)

    @property
    def cost_diff(self):
        """Running sum of the realized step-cost difference, a minus b."""
        a, b = self.pair
        return np.cumsum(a.step_cost - b.step_cost)


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
    terminal state distance at k = T.  The last entry of cost_diff is the
    difference of the gamma = 0 accumulated costs.  d is built BLOCK_CAP
    steps at a time, so no (T+1, n) difference is made; einsum sums each
    step alone, so the bits are one call's over all steps
    (test_regret.py::test_blocked_distance_matches_one_call).
    Raises ValueError unless the trajectories have the same shapes (a
    horizon mismatch is named as such), identical disturbances (every entry
    equal, so a NaN entry fails) and the Q and R of `penalties`.
    """
    a, b = ((t.horizon, t.x.shape, t.u.shape) for t in (traj_a, traj_b))
    if a != b:
        raise ValueError("trajectories do not align: horizon {} with x {} and u {}, "
                         "against horizon {} with x {} and u {}".format(*a, *b))
    if not np.array_equal(traj_a.w, traj_b.w):
        raise ValueError("trajectories answer different disturbances; replay the "
                         "recorded sequence on both loops (simulate.paired_rollouts)")
    for name, own in (("traj_a", traj_a.penalties), ("traj_b", traj_b.penalties)):
        for weight in ("Q", "R"):
            if own is not penalties and not np.array_equal(getattr(own, weight),
                                                           getattr(penalties, weight)):
                raise ValueError(f"penalties {weight} differs from {name}'s own, so d and "
                                 f"cost_diff would use different weights")
    Q, R = penalties.Q, penalties.R
    d = np.empty(traj_a.horizon + 1)
    for k in range(0, len(d), BLOCK_CAP):
        dx = traj_a.x[k:k + BLOCK_CAP] - traj_b.x[k:k + BLOCK_CAP]
        du = traj_a.u[k:k + BLOCK_CAP] - traj_b.u[k:k + BLOCK_CAP]
        dk = d[k:k + BLOCK_CAP]
        np.einsum("ki,ij,kj->k", dx, Q, dx, out=dk)
        dk[:len(du)] += np.einsum("ki,ij,kj->k", du, R, du)
    d.flags.writeable = False  # so the report keeps it without a copy
    return RegretReport(d=d, pair=(traj_a, traj_b), kind=kind)


def total_regret(reports):
    """Pointwise maximum of cumulative regret over the true models.

    Given one report per model j of the set, each the regret when j is the
    true model under the same disturbance law, this is the paper's total
    regret: the worst case over which model the plant really is.
    Raises ValueError unless every report has the first one's horizon and
    disturbance kind.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    first = reports[0]
    for rep in reports[1:]:
        if len(rep.d) != len(first.d):
            raise ValueError(f"reports of horizon {len(first.d) - 1} and "
                             f"{len(rep.d) - 1} cannot be aggregated")
        if rep.kind != first.kind:
            raise ValueError(f"reports under disturbance kinds {first.kind!r} and "
                             f"{rep.kind!r} cannot be aggregated")
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

    Takes the per-step average ratio[k] = R[k] / k and its least-squares
    slope over the last quarter of the run.  Verdict is
    "consistent-with-sublinear" when the ratio is nonincreasing across that
    tail (up to RATIO_SLACK) and the final ratio has fallen to at most
    DECAY_FACTOR times its peak; otherwise "inconclusive".  A finite run
    can never prove sublinearity, hence the hedged wording.  ValueError for
    fewer than MIN_DIAGNOSTIC_STEPS steps.
    """
    R = np.asarray(R, dtype=float)
    T = len(R) - 1
    if T < MIN_DIAGNOSTIC_STEPS:
        raise ValueError(
            f"diagnostic needs at least {MIN_DIAGNOSTIC_STEPS} steps of regret")
    ratio = _per_step(R)

    q = max(2, T // 4)
    tail = ratio[T - q + 1:]
    tail_k = np.arange(T - q + 1, T + 1, dtype=float)
    tail_slope = float(np.polyfit(tail_k, tail, 1)[0])

    nonincreasing = bool(np.all(np.diff(tail) <= RATIO_SLACK))
    decayed = bool(ratio[T] <= DECAY_FACTOR * np.nanmax(ratio))
    verdict = (
        "consistent-with-sublinear" if nonincreasing and decayed else "inconclusive"
    )
    return SublinearityDiagnostic(tail_slope=tail_slope, verdict=verdict)
