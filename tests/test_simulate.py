import csv
import dataclasses

import numpy as np
import pytest

import minimaxctrl as mc


def scenario_cfg(bench_cfg, certified, spec):
    gamma_bar, _ = certified
    return dataclasses.replace(
        bench_cfg, gamma=gamma_bar, disturbance=spec
    )


def test_adaptive_rollout_shapes(bench_cfg, certified):
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified,
                       mc.DisturbanceSpec(kind="confusing", target=3))
    traj = mc.rollout(cfg, cert)
    T, n, m = 100, 3, 1
    assert traj.x.shape == (T + 1, n)
    assert traj.u.shape == (T, m)
    assert traj.w.shape == (T, n)
    assert traj.step_cost.shape == (T + 1,)
    assert traj.l.shape == (T,)
    assert traj.alpha_hist.shape == (T + 1, 4)
    assert traj.true_index == 2
    assert traj.horizon == T


def test_fixed_gain_rollout_has_no_switching_columns(bench_cfg, certified,
                                                     benchmark_controller):
    cfg = scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero"))
    traj = mc.rollout(cfg, benchmark_controller.K)
    assert traj.l is None
    assert traj.alpha_hist is None


def test_dynamics_consistency(bench_cfg, certified):
    """Every stored transition satisfies the true model's update exactly."""
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified,
                       mc.DisturbanceSpec(kind="confusing", target=3))
    traj = mc.rollout(cfg, cert)
    A, B = cfg.model_set.pair(cfg.true_index)
    for k in range(traj.horizon):
        np.testing.assert_array_equal(
            traj.x[k + 1], A @ traj.x[k] + B @ traj.u[k] + traj.w[k]
        )


def test_replay_is_bit_identical(bench_cfg, certified):
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified,
                       mc.DisturbanceSpec(kind="confusing", target=3))
    first = mc.rollout(cfg, cert)
    replayed = mc.rollout(cfg, cert, disturbance=first.w)
    np.testing.assert_array_equal(replayed.x, first.x)
    np.testing.assert_array_equal(replayed.u, first.u)
    np.testing.assert_array_equal(replayed.step_cost, first.step_cost)


def test_replay_onto_other_controller(bench_cfg, certified, benchmark_controller):
    """The cross-controller protocol: record along one loop, replay on the other."""
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified,
                       mc.DisturbanceSpec(kind="confusing", target=3))
    traj_mm = mc.rollout(cfg, cert)
    traj_h = mc.rollout(cfg, benchmark_controller.K, disturbance=traj_mm.w)
    np.testing.assert_array_equal(traj_h.w, traj_mm.w)
    assert not np.array_equal(traj_h.x, traj_mm.x)


def test_loop_mismatch_rejected(bench_cfg, certified, benchmark_controller):
    # a confusing spec declares the adaptive loop; feeding it a fixed gain
    # would generate a different disturbance than the one being studied
    cfg = scenario_cfg(bench_cfg, certified,
                       mc.DisturbanceSpec(kind="confusing", target=3))
    with pytest.raises(ValueError, match="replay"):
        mc.rollout(cfg, benchmark_controller.K)


def test_zero_horizon(bench_cfg, certified):
    _, cert = certified
    cfg = dataclasses.replace(
        scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero")),
        horizon=0,
    )
    traj = mc.rollout(cfg, cert)
    assert traj.x.shape == (1, 3)
    assert traj.u.shape == (0, 1)
    assert traj.step_cost[0] == pytest.approx(3.0)  # x0'Qx0 for x0 = ones


def test_divergence_detected(penalties, certified):
    _, cert = certified
    A = np.diag([3.0, 3.0, 3.0])
    B = np.zeros((3, 1))
    ms = mc.ModelSet.from_pairs([(A, B)])
    cfg = mc.ExperimentConfig(
        model_set=ms, penalties=penalties, true_index=1, horizon=200,
        gamma=100.0, disturbance=mc.DisturbanceSpec(kind="zero"),
        x0=np.ones(3),
    )
    with pytest.raises(mc.DivergedRollout):
        mc.rollout(cfg, np.zeros((1, 3)))


def test_accumulated_cost_identities(bench_cfg, certified):
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified,
                       mc.DisturbanceSpec(kind="confusing", target=3))
    traj = mc.rollout(cfg, cert)
    plain = mc.accumulated_cost(traj, 0.0)
    assert plain == pytest.approx(float(np.sum(traj.step_cost)), rel=1e-12)
    g = 5.0
    penalized = mc.accumulated_cost(traj, g)
    w_energy = float(np.sum(traj.w ** 2))
    assert penalized == pytest.approx(plain - g ** 2 * w_energy, rel=1e-12)


def test_empirical_gain_below_certified_level(bench_cfg, certified):
    """From rest, no test signal can beat the certificate's level."""
    gamma_bar, cert = certified
    sin = mc.DisturbanceSpec(
        kind="sinusoid", amplitude=1.0, omega=1.1, phase=0.4,
        direction=np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
    )
    cfg = dataclasses.replace(
        scenario_cfg(bench_cfg, certified, sin), x0=np.zeros(3)
    )
    traj = mc.rollout(cfg, cert)
    gain = np.sqrt(np.sum(traj.step_cost) / np.sum(traj.w * traj.w))
    assert gain <= gamma_bar + 1e-6


def test_step_costs_decay_on_l2_disturbance(bench_cfg, certified,
                                            benchmark_controller):
    """Summable disturbance: step costs decay to zero on both loops."""
    _, cert = certified
    spec = mc.DisturbanceSpec(kind="hinf_worst_case", L=benchmark_controller.L)
    cfg = scenario_cfg(bench_cfg, certified, spec)
    traj_h = mc.rollout(cfg, benchmark_controller.K)
    assert traj_h.step_cost[-1] <= 1e-3 * np.max(traj_h.step_cost)
    traj_mm = mc.rollout(cfg, cert, disturbance=traj_h.w)
    assert traj_mm.step_cost[-1] <= 1e-3 * np.max(traj_mm.step_cost)


def test_trajectory_csv_layout(bench_cfg, certified, tmp_path):
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified,
                       mc.DisturbanceSpec(kind="confusing", target=3))
    traj = mc.rollout(cfg, cert)
    path = tmp_path / "traj.csv"
    mc.write_trajectory_csv(traj, path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["k", "x_1", "x_2", "x_3", "u_1", "w_1", "w_2", "w_3",
                      "l", "step_cost"]
    assert len(rows) == traj.horizon + 1
    # terminal row carries state and cost but no input, noise, or switch
    last = rows[-1]
    assert float(last[0]) == traj.horizon
    assert last[4] == "" and last[5] == "" and last[8] == ""
    assert float(rows[0][8]) == 1  # four-way tie at the start resolves low


def test_csv_newlines_are_unix(bench_cfg, certified, tmp_path):
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero"))
    traj = mc.rollout(cfg, cert)
    path = tmp_path / "traj.csv"
    mc.write_trajectory_csv(traj, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
