import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl.fileio import write_csv
from minimaxctrl.disturbance import (
    confusing_disturbance,
    emit,
    load_sequence,
    spec_from_dict,
    validate_spec,
)


def test_zero_emits_zero(models):
    spec = validate_spec(mc.DisturbanceSpec(kind="zero"), models, 2)
    np.testing.assert_array_equal(emit(spec, 0, np.ones(3), np.zeros(1)), np.zeros(3))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        mc.DisturbanceSpec(kind="brownian")


def test_confusing_identity(models):
    """Under model j's dynamics the target model explains the step exactly."""
    j, i = 2, 3
    Aj, Bj = models.pair(j)
    Ai, Bi = models.pair(i)
    x = np.array([1.0, -0.5, 2.0])
    u = np.array([0.7])
    w = confusing_disturbance(models, j, i, x, u)
    x_next = Aj @ x + Bj @ u + w
    assert np.linalg.norm(x_next - (Ai @ x + Bi @ u)) <= 1e-12


def test_confusing_needs_distinct_target(models):
    with pytest.raises(ValueError):
        confusing_disturbance(models, 2, 2, np.ones(3), np.zeros(1))
    with pytest.raises(ValueError):
        validate_spec(
            mc.DisturbanceSpec(kind="confusing", target=2), models, 2
        )
    with pytest.raises(ValueError):
        validate_spec(
            mc.DisturbanceSpec(kind="confusing", target=9), models, 2
        )


def test_sinusoid_respects_amplitude(models):
    spec = validate_spec(
        mc.DisturbanceSpec(
            kind="sinusoid", amplitude=0.8, omega=0.3, phase=0.1,
            direction=np.array([2.0, 0.0, 0.0]),  # gets normalized
        ),
        models, 2,
    )
    assert np.linalg.norm(spec.direction) == pytest.approx(1.0, abs=1e-12)
    for k in range(100):
        w = emit(spec, k, np.zeros(3), np.zeros(1))
        assert np.linalg.norm(w) <= 0.8 + 1e-12


def test_peak_sinusoid_spec_sits_at_scan_peak(models, penalties, benchmark_controller):
    A, B = models.pair(2)
    spec = mc.peak_sinusoid_spec(A, B, benchmark_controller.K, penalties)
    scan = mc.closed_loop_scan(A, B, benchmark_controller.K, penalties)
    assert spec.omega == scan.peak_omega
    assert spec.amplitude == 1.0
    assert spec.phase == 0.0
    assert np.linalg.norm(spec.direction) == pytest.approx(1.0, abs=1e-12)


def test_peak_sinusoid_degenerates_at_nyquist(models, penalties,
                                              benchmark_controller):
    """A zero-phase sine sampled at integer steps vanishes when omega = pi.

    The benchmark set's certified loop peaks exactly at the Nyquist
    frequency, so the constructed signal is zero on the sample grid.
    Frozen here because downstream regret behavior depends on it.
    """
    A, B = models.pair(2)
    spec = mc.peak_sinusoid_spec(A, B, benchmark_controller.K, penalties)
    assert spec.omega == pytest.approx(np.pi, abs=1e-12)
    sampled = [emit(spec, k, np.zeros(3), np.zeros(1)) for k in range(50)]
    assert np.max(np.abs(sampled)) <= 1e-12


def test_worst_case_needs_gain(models):
    with pytest.raises(mc.ConfigError):
        validate_spec(mc.DisturbanceSpec(kind="hinf_worst_case"), models, 2)


def test_worst_case_is_state_feedback(models, benchmark_controller):
    spec = validate_spec(
        mc.DisturbanceSpec(kind="hinf_worst_case", L=benchmark_controller.L),
        models, 2,
    )
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(emit(spec, 5, x, np.zeros(1)),
                               benchmark_controller.L @ x)


def test_stable_loop_disturbance_has_finite_energy(models, penalties,
                                                   benchmark_controller):
    """Worst-case feedback on the certified loop injects summable energy."""
    A, B = models.pair(2)
    K, L = benchmark_controller.K, benchmark_controller.L
    x = np.ones(3)
    energies = []
    for _ in range(101):
        w = L @ x
        energies.append(float(w @ w))
        x = A @ x - B @ (K @ x) + w
    total = sum(energies)
    tail = sum(energies[75:])
    assert total > 0
    assert tail <= 1e-6 * total


def test_external_sequence_round_trip(models, tmp_path):
    rng = np.random.default_rng(3)
    W = rng.standard_normal((7, 3))
    path = tmp_path / "w.csv"
    write_csv(path, ["k", "w_1", "w_2", "w_3"], [[k, *W[k]] for k in range(7)])
    again = load_sequence(path)
    np.testing.assert_allclose(again, W, atol=1e-11)

    spec = validate_spec(
        mc.DisturbanceSpec(kind="external", sequence=again), models, 2
    )
    np.testing.assert_array_equal(emit(spec, 3, np.zeros(3), np.zeros(1)), again[3])
    with pytest.raises(ValueError):
        emit(spec, 7, np.zeros(3), np.zeros(1))


def test_external_width_checked(models):
    with pytest.raises(ValueError):
        validate_spec(
            mc.DisturbanceSpec(kind="external", sequence=np.ones((5, 2))),
            models, 2,
        )


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "zero", "amplitude": 2.0})
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "confusing", "target": 3,
                        "theta": [0.0, -1.0, 1.0, 0.0]})


def test_loop_defaults():
    assert mc.DisturbanceSpec(kind="zero").generating_loop == "open"
    assert mc.DisturbanceSpec(kind="sinusoid").generating_loop == "open"
    assert mc.DisturbanceSpec(kind="hinf_worst_case").generating_loop == "hinf"
    assert mc.DisturbanceSpec(kind="confusing", target=3).generating_loop == "minimax"


def test_open_kind_cannot_claim_a_loop():
    """The generating loop is fixed by the kind, in code and in configs."""
    with pytest.raises(TypeError):
        mc.DisturbanceSpec(kind="zero", generating_loop="minimax")
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "zero", "generating_loop": "minimax"})


@pytest.mark.parametrize("kind, field, value", [
    ("sinusoid", "amplitude", np.nan),
    ("sinusoid", "omega", np.inf),
    ("sinusoid", "phase", -np.inf),
    ("sinusoid", "direction", np.array([1.0, np.nan, 0.0])),
    ("external", "sequence", np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]])),
    ("hinf_worst_case", "L", np.diag([0.1, np.nan, 0.1])),
])
def test_non_finite_field_rejected(models, kind, field, value):
    spec = mc.DisturbanceSpec(kind=kind, direction=np.ones(3),
                              sequence=np.zeros((2, 3)))
    setattr(spec, field, value)
    with pytest.raises(ValueError, match="non-finite"):
        validate_spec(spec, models, 2)


def test_shared_spec_is_not_rebound(bench_cfg, certified):
    """Binding one spec to a second experiment leaves the first one intact."""
    gamma_bar, cert = certified
    spec = mc.DisturbanceSpec(kind="confusing", target=3)
    cfg2 = mc.ExperimentConfig(
        model_set=bench_cfg.model_set, penalties=bench_cfg.penalties,
        true_index=2, horizon=20, gamma=gamma_bar, disturbance=spec)
    mc.ExperimentConfig(
        model_set=bench_cfg.model_set, penalties=bench_cfg.penalties,
        true_index=1, horizon=20, gamma=gamma_bar, disturbance=spec)
    traj = mc.rollout(cfg2, cert)
    assert np.max(traj.alpha_hist[:, 2]) <= 1e-10  # the target explains every step
    assert spec.model_set is None and spec.true_index is None
