import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minimaxctrl as mc
from minimaxctrl.simulate import Trajectory, paired_rollouts


def tiny_trajectory(x_rows, u_rows, step_costs):
    x = np.asarray(x_rows, dtype=float)
    u = np.asarray(u_rows, dtype=float)
    T = u.shape[0]
    return Trajectory(
        x=x, u=u, w=np.zeros((T, x.shape[1])),
        step_cost=np.asarray(step_costs, dtype=float),
    )


def test_stepwise_regret_by_hand():
    """One step, scalar state: check every term against pencil arithmetic."""
    p = mc.Penalties(Q=2.0 * np.eye(1), R=3.0 * np.eye(1))
    a = tiny_trajectory([[1.0], [2.0]], [[1.0]], [0.0, 0.0])
    b = tiny_trajectory([[1.0], [0.5]], [[0.0]], [0.0, 0.0])
    report = mc.regret_report(a, b, p, "zero")
    # d_0 = 3 (du=1)^2 = 3; d_1 = 2 (dx=1.5)^2 = 4.5 (terminal, state only)
    np.testing.assert_allclose(report.d, [3.0, 4.5])
    np.testing.assert_allclose(report.R, [3.0, 7.5])


def test_identical_trajectories_have_zero_regret(bench_cfg, certified):
    _, cert = certified
    cfg = dataclasses.replace(
        bench_cfg, gamma=certified[0],
        disturbance=mc.DisturbanceSpec(kind="confusing", target=3),
    )
    traj = mc.rollout(cfg, cert)
    rep = mc.regret_report(traj, traj, bench_cfg.penalties, "confusing")
    np.testing.assert_array_equal(rep.d, np.zeros(101))
    np.testing.assert_array_equal(rep.R, np.zeros(101))
    np.testing.assert_array_equal(rep.cost_diff, np.zeros(101))


def test_regret_series_monotone(bench_cfg, certified, benchmark_controller):
    _, cert = certified
    cfg = dataclasses.replace(
        bench_cfg, gamma=certified[0],
        disturbance=mc.DisturbanceSpec(kind="confusing", target=3),
    )
    traj_mm = mc.rollout(cfg, cert)
    traj_h = mc.rollout(cfg, benchmark_controller.K, disturbance=traj_mm.w)
    rep = mc.regret_report(traj_mm, traj_h, bench_cfg.penalties, "confusing")
    assert np.all(rep.d >= 0.0)
    assert np.all(np.diff(rep.R) >= 0.0)
    assert rep.kind == "confusing"
    assert np.isnan(rep.R_over_T[0])
    np.testing.assert_allclose(rep.R_over_T[1:],
                               rep.R[1:] / np.arange(1, 101), rtol=1e-12)


def test_cost_difference_matches_accumulated(bench_cfg, certified,
                                             benchmark_controller):
    _, cert = certified
    cfg = dataclasses.replace(
        bench_cfg, gamma=certified[0],
        disturbance=mc.DisturbanceSpec(kind="confusing", target=3),
    )
    traj_mm = mc.rollout(cfg, cert)
    traj_h = mc.rollout(cfg, benchmark_controller.K, disturbance=traj_mm.w)
    series = mc.regret_report(traj_mm, traj_h, bench_cfg.penalties,
                              "confusing").cost_diff
    assert series.shape == (101,)
    expected = mc.accumulated_cost(traj_mm, 0.0) - mc.accumulated_cost(traj_h, 0.0)
    assert series[-1] == pytest.approx(expected, rel=1e-9)


def test_total_regret_is_pointwise_max(bench_cfg, certified, benchmark_controller):
    _, cert = certified
    p = bench_cfg.penalties
    reports = []
    for spec in (
        mc.DisturbanceSpec(kind="confusing", target=3),
        mc.DisturbanceSpec(kind="confusing", target=1),
    ):
        cfg = dataclasses.replace(bench_cfg, gamma=certified[0], disturbance=spec)
        traj_mm = mc.rollout(cfg, cert)
        traj_h = mc.rollout(cfg, benchmark_controller.K, disturbance=traj_mm.w)
        reports.append(mc.regret_report(traj_mm, traj_h, p, spec.kind))
    total = mc.total_regret(reports)
    for rep in reports:
        assert np.all(total >= rep.R - 1e-15)
    with pytest.raises(ValueError):
        mc.total_regret([])


def test_gap_arithmetic_on_published_levels():
    """Gap table for the benchmark's published levels is pure arithmetic."""
    gaps = mc.suboptimality_gaps(31.0086, [1.266, 4.544, 2.913, 2.298])
    np.testing.assert_allclose(
        gaps.per_model, [29.7426, 26.4646, 28.0956, 28.7106], atol=1e-6
    )
    assert gaps.minimal == pytest.approx(26.4646, abs=1e-6)
    assert gaps.maximal == pytest.approx(29.7426, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    stars=st.lists(st.floats(0.1, 50, allow_nan=False), min_size=1, max_size=8),
    extra=st.floats(0.0, 100, allow_nan=False),
)
def test_gap_identities(stars, extra):
    gamma_bar = max(stars) + extra
    gaps = mc.suboptimality_gaps(gamma_bar, stars)
    assert gaps.minimal == min(gaps.per_model)
    assert gaps.maximal == max(gaps.per_model)
    assert len(gaps.per_model) == len(stars)
    assert gaps.minimal >= 0.0
    for g, s in zip(gaps.per_model, stars):
        assert g == gamma_bar - s


def test_empty_gap_list_rejected():
    with pytest.raises(ValueError):
        mc.suboptimality_gaps(10.0, [])


def test_sublinearity_verdicts():
    k = np.arange(101, dtype=float)
    sub = mc.sublinearity_diagnostic(10.0 * np.sqrt(k))
    assert sub.verdict == "consistent-with-sublinear"
    assert sub.tail_slope < 0.0
    lin = mc.sublinearity_diagnostic(10.0 * k)
    assert lin.verdict == "inconclusive"
    assert abs(lin.tail_slope) <= 1e-9
    flat = mc.sublinearity_diagnostic(np.full(101, 42.0))
    assert flat.verdict == "consistent-with-sublinear"


def test_sublinearity_needs_enough_steps():
    with pytest.raises(ValueError):
        mc.sublinearity_diagnostic(np.array([0.0, 1.0, 2.0]))


def test_stepwise_regret_checks_alignment(bench_cfg, certified):
    _, cert = certified
    p = bench_cfg.penalties
    cfg = dataclasses.replace(
        bench_cfg, gamma=certified[0],
        disturbance=mc.DisturbanceSpec(kind="zero"),
    )
    traj = mc.rollout(cfg, cert)
    short = dataclasses.replace(
        bench_cfg, gamma=certified[0], horizon=50,
        disturbance=mc.DisturbanceSpec(kind="zero"),
    )
    traj_short = mc.rollout(short, cert)
    with pytest.raises(ValueError):
        mc.regret_report(traj, traj_short, p, "zero")


def test_horizon_mismatch_is_named(bench_cfg, certified, benchmark_controller):
    """Two rollouts of one external sequence at horizons 100 and 50 differ
    in shape, not in disturbance, and the error says so."""
    sequence = np.random.default_rng(5).standard_normal((100, 3))
    spec = mc.DisturbanceSpec(kind="external", sequence=sequence)
    long, short = (mc.rollout(dataclasses.replace(bench_cfg, gamma=certified[0],
                                                  horizon=T, disturbance=spec),
                              benchmark_controller.K) for T in (100, 50))
    with pytest.raises(ValueError, match=r"horizon 100 .* horizon 50"):
        mc.regret_report(long, short, bench_cfg.penalties, "external")


def test_report_derives_every_series_from_d(bench_cfg, certified,
                                            benchmark_controller):
    """A T = 1e4 report owns one (T+1) float64 array, d: it shares the
    rollouts' step costs, and R, R/T and the cost difference are computed
    from them with the same bits as the running sums they replace."""
    T = 10_000
    sequence = np.random.default_rng(7).standard_normal((T, 3))
    cfg = dataclasses.replace(
        bench_cfg, gamma=certified[0], horizon=T,
        disturbance=mc.DisturbanceSpec(kind="external", sequence=sequence))
    a, b = paired_rollouts(cfg, certified[1], benchmark_controller.K)
    rep = mc.regret_report(a, b, bench_cfg.penalties, "external")

    rollout_arrays = [v for t in (a, b) for v in vars(t).values()
                      if isinstance(v, np.ndarray)]
    held = [item for v in vars(rep).values()
            for item in (v if isinstance(v, tuple) else (v,))
            if isinstance(item, np.ndarray)]
    owned = [v for v in held
             if not any(np.shares_memory(v, r) for r in rollout_arrays)]
    assert sum(v.nbytes for v in owned) == (T + 1) * 8
    assert rep.step_costs[0] is a.step_cost and rep.step_costs[1] is b.step_cost

    R = np.cumsum(rep.d)
    steps = np.arange(len(R), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(steps > 0, R / steps, np.nan)
    assert rep.R.tobytes() == R.tobytes()
    assert rep.R_over_T.tobytes() == ratio.tobytes()
    assert rep.cost_diff.tobytes() == np.cumsum(a.step_cost - b.step_cost).tobytes()


def test_writable_step_costs_are_copied_once():
    """A hand-built trajectory's writable step costs are copied into the
    report, so a later write to them does not change its cost difference."""
    p = mc.Penalties(Q=np.eye(1), R=np.eye(1))
    a = tiny_trajectory([[1.0], [2.0]], [[1.0]], [2.0, 4.0])
    b = tiny_trajectory([[1.0], [0.5]], [[0.0]], [1.0, 0.25])
    report = mc.regret_report(a, b, p, "zero")
    a.step_cost[:] = np.nan
    np.testing.assert_array_equal(report.cost_diff, [1.0, 4.75])
    with pytest.raises(ValueError, match="read-only"):
        report.d[0] = 0.0


def test_mismatched_disturbances_rejected(bench_cfg, certified,
                                          benchmark_controller):
    """Regret is only defined for same-sequence comparisons."""
    _, cert = certified
    p = bench_cfg.penalties
    cfg_a = dataclasses.replace(
        bench_cfg, gamma=certified[0],
        disturbance=mc.DisturbanceSpec(kind="confusing", target=3),
    )
    cfg_b = dataclasses.replace(
        bench_cfg, gamma=certified[0],
        disturbance=mc.DisturbanceSpec(kind="zero"),
    )
    traj_a = mc.rollout(cfg_a, cert)
    traj_b = mc.rollout(cfg_b, cert)
    with pytest.raises(ValueError):
        mc.regret_report(traj_a, traj_b, p, "confusing")


def test_disturbances_apart_by_any_amount_are_rejected():
    """w = +4e-13 against w = -4e-13 are different sequences."""
    p = mc.Penalties(Q=np.eye(1), R=np.eye(1))
    a = tiny_trajectory([[1.0], [2.0]], [[1.0]], [0.0, 0.0])
    b = tiny_trajectory([[1.0], [0.5]], [[0.0]], [0.0, 0.0])
    a.w[0, 0], b.w[0, 0] = 4e-13, -4e-13
    with pytest.raises(ValueError, match="different disturbances"):
        mc.regret_report(a, b, p, "external")


def test_nan_disturbance_is_rejected():
    """A NaN entry equals nothing, so a trajectory carrying one is not
    paired even with itself."""
    p = mc.Penalties(Q=np.eye(1), R=np.eye(1))
    a = tiny_trajectory([[1.0], [2.0]], [[1.0]], [0.0, 0.0])
    a.w[0, 0] = np.nan
    with pytest.raises(ValueError, match="different disturbances"):
        mc.regret_report(a, a, p, "external")
