import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minimaxctrl as mc
from minimaxctrl.simulate import BLOCK_CAP, Trajectory, paired_rollouts


def tiny_trajectory(x_rows, u_rows, penalties):
    x = np.asarray(x_rows, dtype=float)
    u = np.asarray(u_rows, dtype=float)
    T = u.shape[0]
    return Trajectory(x=x, u=u, w=np.zeros((T, x.shape[1])), penalties=penalties)


def test_stepwise_regret_by_hand():
    """One step, scalar state: check every term against pencil arithmetic."""
    p = mc.Penalties(Q=2.0 * np.eye(1), R=3.0 * np.eye(1))
    a = tiny_trajectory([[1.0], [2.0]], [[1.0]], p)
    b = tiny_trajectory([[1.0], [0.5]], [[0.0]], p)
    report = mc.regret_report(a, b, p, "zero")
    # d_0 = 3 (du=1)^2 = 3; d_1 = 2 (dx=1.5)^2 = 4.5 (terminal, state only)
    np.testing.assert_allclose(report.d, [3.0, 4.5])
    np.testing.assert_allclose(report.R, [3.0, 7.5])
    # step costs: a = [2 + 3, 8], b = [2, 0.5]
    np.testing.assert_array_equal(report.cost_diff, [3.0, 10.5])
    with pytest.raises(ValueError, match="read-only"):
        report.d[0] = 0.0


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


def test_total_regret_rejects_different_horizons():
    p = mc.Penalties(Q=np.eye(1), R=np.eye(1))
    one = tiny_trajectory([[1.0], [2.0]], [[1.0]], p)
    two = tiny_trajectory([[1.0], [2.0], [3.0]], [[1.0], [0.0]], p)
    reports = [mc.regret_report(t, t, p, "zero") for t in (one, two)]
    with pytest.raises(ValueError, match="horizon 1 and 2"):
        mc.total_regret(reports)


def test_total_regret_rejects_different_kinds():
    p = mc.Penalties(Q=np.eye(1), R=np.eye(1))
    a = tiny_trajectory([[1.0], [2.0]], [[1.0]], p)
    reports = [mc.regret_report(a, a, p, kind) for kind in ("zero", "external")]
    with pytest.raises(ValueError, match="'zero' and 'external'"):
        mc.total_regret(reports)


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


def owned_bytes(obj, shared):
    """Bytes of obj's array attributes that share no memory with `shared`."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)
               and not any(np.shares_memory(v, s) for s in shared))


def test_report_derives_every_series_from_d(bench_cfg, certified,
                                            benchmark_controller):
    """At T = 1e4 on the shipped set each trajectory owns exactly x and u
    (the pair shares the config's w) and the report one (T+1) float64
    array, d; R, R/T and the cost difference are computed from d and the
    pair's derived step costs with the same bits as the running sums they
    replace."""
    T = 10_000
    sequence = np.random.default_rng(7).standard_normal((T, 3))
    cfg = dataclasses.replace(
        bench_cfg, gamma=certified[0], horizon=T,
        disturbance=mc.DisturbanceSpec(kind="external", sequence=sequence))
    a, b = paired_rollouts(cfg, certified[1], benchmark_controller.K)
    rep = mc.regret_report(a, b, bench_cfg.penalties, "external")

    for traj in (a, b):
        assert owned_bytes(traj, [cfg.disturbance.sequence]) == 320_024
        assert traj.x.nbytes + traj.u.nbytes == 320_024
    rollout_arrays = [getattr(t, name) for t in (a, b) for name in ("x", "u", "w")]
    assert owned_bytes(rep, rollout_arrays) == 80_008
    assert rep.pair[0] is a and rep.pair[1] is b

    R = np.cumsum(rep.d)
    steps = np.arange(len(R), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(steps > 0, R / steps, np.nan)
    assert rep.R.tobytes() == R.tobytes()
    assert rep.R_over_T.tobytes() == ratio.tobytes()
    assert rep.cost_diff.tobytes() == np.cumsum(a.step_cost - b.step_cost).tobytes()


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (4, 2)])
def test_blocked_distance_matches_one_call(n, m):
    """d built BLOCK_CAP steps at a time has the bits of one einsum over all
    steps, at a horizon with two full blocks and a partial one."""
    T = 2 * BLOCK_CAP + 500
    rng = np.random.default_rng(n * 10 + m)
    Xq, Xr = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    p = mc.Penalties(Q=Xq @ Xq.T + np.eye(n), R=Xr @ Xr.T + np.eye(m))
    a, b = (tiny_trajectory(rng.standard_normal((T + 1, n)),
                            rng.standard_normal((T, m)), p) for _ in range(2))
    dx, du = a.x - b.x, a.u - b.u
    d = np.einsum("ki,ij,kj->k", dx, p.Q, dx)
    d[:-1] += np.einsum("ki,ij,kj->k", du, p.R, du)
    assert mc.regret_report(a, b, p, "zero").d.tobytes() == d.tobytes()


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
    a = tiny_trajectory([[1.0], [2.0]], [[1.0]], p)
    b = tiny_trajectory([[1.0], [0.5]], [[0.0]], p)
    a.w[0, 0], b.w[0, 0] = 4e-13, -4e-13
    with pytest.raises(ValueError, match="different disturbances"):
        mc.regret_report(a, b, p, "external")


def test_nan_disturbance_is_rejected():
    """A NaN entry equals nothing, so a trajectory carrying one is not
    paired even with itself."""
    p = mc.Penalties(Q=np.eye(1), R=np.eye(1))
    a = tiny_trajectory([[1.0], [2.0]], [[1.0]], p)
    a.w[0, 0] = np.nan
    with pytest.raises(ValueError, match="different disturbances"):
        mc.regret_report(a, a, p, "external")


@pytest.mark.parametrize("weights_a,weights_b,report,reason", [
    ((1.0, 1.0), (1.0, 1.0), (100.0, 1.0), "penalties Q differs from traj_a"),
    ((1.0, 1.0), (1.0, 1.0), (1.0, 5.0), "penalties R differs from traj_a"),
    ((1.0, 1.0), (100.0, 1.0), (100.0, 1.0), "penalties Q differs from traj_a"),
    ((100.0, 1.0), (1.0, 1.0), (100.0, 1.0), "penalties Q differs from traj_b"),
    ((2.0, 3.0), (2.0, 3.0), (2.0, 3.0), None),
], ids=["Q", "R", "pair-differs-a", "pair-differs-b", "equal-values"])
def test_report_weights_must_be_the_trajectories_own(weights_a, weights_b, report,
                                                     reason):
    """d and cost_diff use one set of weights: the report's penalties must
    have the Q and R of both trajectories, which an equal object has."""
    def penalties(q, r):
        return mc.Penalties(Q=q * np.eye(1), R=r * np.eye(1))

    a = tiny_trajectory([[1.0], [2.0]], [[1.0]], penalties(*weights_a))
    b = tiny_trajectory([[1.0], [0.5]], [[0.0]], penalties(*weights_b))
    if reason is None:
        assert mc.regret_report(a, b, penalties(*report), "zero").d.tolist() == [3.0, 4.5]
    else:
        with pytest.raises(ValueError, match=reason):
            mc.regret_report(a, b, penalties(*report), "zero")
