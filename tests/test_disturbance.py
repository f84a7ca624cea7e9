import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl.disturbance import emit, validate_spec


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
    spec = validate_spec(mc.DisturbanceSpec(kind="confusing", target=i), models, j)
    w = emit(spec, 0, x, u)
    x_next = Aj @ x + Bj @ u + w
    assert np.linalg.norm(x_next - (Ai @ x + Bi @ u)) <= 1e-12


def test_confusing_needs_distinct_target(models):
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


def test_external_sequence_round_trip(models):
    W = np.random.default_rng(3).standard_normal((7, 3))
    spec = validate_spec(
        mc.DisturbanceSpec(kind="external", sequence=W), models, 2
    )
    np.testing.assert_array_equal(emit(spec, 3, np.zeros(3), np.zeros(1)), W[3])
    with pytest.raises(ValueError):
        emit(spec, 7, np.zeros(3), np.zeros(1))


def test_external_width_checked(models):
    with pytest.raises(ValueError):
        validate_spec(
            mc.DisturbanceSpec(kind="external", sequence=np.ones((5, 2))),
            models, 2,
        )


def test_one_dimensional_sequence_is_a_shape_error():
    """With n = 1 a flat sequence is still not a (steps, 1) column."""
    scalar = mc.ModelSet.from_pairs([(np.array([[0.5]]), np.array([[1.0]]))])
    with pytest.raises(mc.ConfigError, match=r"\(steps, 1\)"):
        validate_spec(mc.DisturbanceSpec(kind="external", sequence=np.zeros(5)),
                      scalar, 1)
    column = validate_spec(
        mc.DisturbanceSpec(kind="external", sequence=np.zeros((5, 1))), scalar, 1)
    assert column.sequence.shape == (5, 1)


def test_loop_defaults():
    assert mc.DisturbanceSpec(kind="zero").generating_loop == "open"
    assert mc.DisturbanceSpec(kind="sinusoid").generating_loop == "open"
    assert mc.DisturbanceSpec(kind="hinf_worst_case").generating_loop == "hinf"
    assert mc.DisturbanceSpec(kind="confusing", target=3).generating_loop == "minimax"


def test_open_kind_cannot_claim_a_loop():
    """The generating loop is fixed by the kind."""
    with pytest.raises(TypeError):
        mc.DisturbanceSpec(kind="zero", generating_loop="minimax")


@pytest.mark.parametrize("kind, field, value, reason", [
    ("sinusoid", "amplitude", np.nan, "non-finite"),
    ("sinusoid", "omega", np.inf, "non-finite"),
    ("sinusoid", "phase", -np.inf, "non-finite"),
    ("sinusoid", "direction", np.array([1.0, np.nan, 0.0]), "non-finite"),
    ("external", "sequence", np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]]),
     "non-finite"),
    ("hinf_worst_case", "L", np.diag([0.1, np.nan, 0.1]), "non-finite"),
    ("sinusoid", "amplitude", {}, "only numbers"),
    ("zero", "kind", ["zero"], "unknown disturbance kind"),
    ("confusing", "target", 3.6, "must be an integer"),
    ("confusing", "target", True, "must be an integer"),
], ids=["sinusoid-amplitude-nan", "sinusoid-omega-inf", "sinusoid-phase--inf",
        "sinusoid-direction-value3", "external-sequence-value4",
        "hinf_worst_case-L-value5", "sinusoid-amplitude-object", "zero-kind-list",
        "confusing-target-fraction", "confusing-target-bool"])
def test_non_finite_field_rejected(models, kind, field, value, reason):
    """A field that is not a finite number of the right kind is rejected."""
    spec = mc.DisturbanceSpec(kind=kind, direction=np.ones(3),
                              sequence=np.zeros((2, 3)), target=3)
    setattr(spec, field, value)
    with pytest.raises(mc.ConfigError, match=reason):
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
