import dataclasses
import functools

import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl.disturbance import emit, validate_spec


def resolve(bench_cfg, spec, **changes):
    """emit's (w, law) for `spec` in the benchmark experiment, with `changes`."""
    return emit(dataclasses.replace(bench_cfg, disturbance=spec, **changes))


def test_zero_emits_zero(bench_cfg):
    w, law = resolve(bench_cfg, mc.DisturbanceSpec(kind="zero"))
    assert law is None
    np.testing.assert_array_equal(w, np.zeros((bench_cfg.horizon, 3)))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        mc.DisturbanceSpec(kind="brownian")


def test_confusing_identity(models, bench_cfg):
    """Under model j's dynamics the target model explains the step exactly."""
    j, i = 2, 3
    Aj, Bj = models.pair(j)
    Ai, Bi = models.pair(i)
    x = np.array([1.0, -0.5, 2.0])
    u = np.array([0.7])
    open_loop, law = resolve(bench_cfg, mc.DisturbanceSpec(kind="confusing", target=i),
                             true_index=j)
    np.testing.assert_array_equal(open_loop, np.zeros((bench_cfg.horizon, 3)))
    w = np.full(3, np.nan)
    law(x, u, w)  # writes w in place
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


def test_sinusoid_respects_amplitude(models, bench_cfg):
    spec = mc.DisturbanceSpec(
        kind="sinusoid", amplitude=0.8, omega=0.3, phase=0.1,
        direction=np.array([2.0, 0.0, 0.0]),  # gets normalized
    )
    checked = validate_spec(spec, models, 2)
    assert np.linalg.norm(checked.direction) == pytest.approx(1.0, abs=1e-12)
    w, law = resolve(bench_cfg, spec)
    assert law is None and w.shape == (bench_cfg.horizon, 3)
    assert np.max(np.linalg.norm(w, axis=1)) <= 0.8 + 1e-12


@pytest.mark.parametrize("omega, phase", [(1.1, 0.4), (np.pi, 0.0),
                                          (np.pi, np.pi / 2)],
                         ids=["1.1-0.4", "pi-0", "pi-pi/2"])
def test_sinusoid_samples_match_the_per_step_formula(bench_cfg, omega, phase):
    """The whole-horizon samples are the per-step expression, bit for bit."""
    d = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    spec = mc.DisturbanceSpec(kind="sinusoid", amplitude=0.7, omega=omega,
                              phase=phase, direction=d)
    T = 10_000
    w, _ = resolve(bench_cfg, spec, horizon=T)
    d = validate_spec(spec, bench_cfg.model_set, 2).direction
    per_step = np.array([0.7 * np.sin(omega * k + phase) * d for k in range(T)])
    assert w.shape == (T, 3)
    assert w.tobytes() == per_step.tobytes()


def test_peak_sinusoid_spec_sits_at_scan_peak(models, penalties, benchmark_controller):
    A, B = models.pair(2)
    spec = mc.peak_sinusoid_spec(A, B, benchmark_controller.K, penalties)
    scan = mc.closed_loop_scan(A, B, benchmark_controller.K, penalties)
    assert spec.omega == scan.peak_omega
    assert spec.amplitude == 1.0
    assert spec.phase == np.pi / 2
    assert np.linalg.norm(spec.direction) == pytest.approx(1.0, abs=1e-12)
    # the top right singular vector of the response at the peak, its
    # largest entry rotated to the positive real axis, real part, unit norm
    v = np.linalg.svd(scan.peak_response)[2][0].conj()
    lead = v[np.argmax(np.abs(v))]
    d = np.real(v * (lead.conj() / abs(lead)))
    np.testing.assert_allclose(spec.direction, d / np.linalg.norm(d), rtol=0, atol=1e-12)


@pytest.mark.parametrize("true_index, omega", [(2, np.pi), (1, 0.0)],
                         ids=["model2-pi", "model1-zero"])
def test_peak_sinusoid_has_unit_energy_per_step(bench_cfg, certified, true_index,
                                                omega):
    """At omega = 0 or pi the peak sinusoid is a unit cosine: every sample has
    unit norm, so the energy over T steps is T.  The certified loop of true
    model 2 peaks at pi and that of model 1 at 0."""
    gamma_bar, _ = certified
    ms, p = bench_cfg.model_set, bench_cfg.penalties
    A, B = ms.pair(true_index)
    design = mc.solve_riccati(A, B, p, gamma_bar)
    spec = mc.peak_sinusoid_spec(A, B, design.K, p)
    assert spec.omega == pytest.approx(omega, abs=1e-12)
    w, _ = resolve(bench_cfg, spec, true_index=true_index)
    T = bench_cfg.horizon
    assert float(np.sum(w * w)) == pytest.approx(T, rel=1e-12)
    np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0, rtol=1e-12)


def test_worst_case_needs_gain(models):
    with pytest.raises(mc.ConfigError):
        validate_spec(mc.DisturbanceSpec(kind="hinf_worst_case"), models, 2)


def test_worst_case_is_state_feedback(bench_cfg, benchmark_controller):
    open_loop, law = resolve(
        bench_cfg,
        mc.DisturbanceSpec(kind="hinf_worst_case", L=benchmark_controller.L))
    np.testing.assert_array_equal(open_loop, np.zeros((bench_cfg.horizon, 3)))
    x = np.array([1.0, 2.0, 3.0])
    w = np.full(3, np.nan)
    law(x, np.zeros(1), w)  # writes w in place
    np.testing.assert_allclose(w, benchmark_controller.L @ x)


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


def test_external_sequence_round_trip(bench_cfg):
    """The first T rows are replayed, as a copy of the supplied sequence."""
    W = np.random.default_rng(3).standard_normal((7, 3))
    spec = mc.DisturbanceSpec(kind="external", sequence=W)
    for T in (7, 5):
        w, law = resolve(bench_cfg, spec, horizon=T)
        assert law is None
        np.testing.assert_array_equal(w, W[:T])
        assert not np.shares_memory(w, W)


@pytest.mark.parametrize("case", [
    "spec L", "spec direction", "spec sequence", "ModelSet(A, B)",
    "ModelSet.from_pairs", "Penalties", "ExperimentConfig x0",
    "ExperimentConfig default x0", "MinimaxCertificate", "load_certificate",
])
def test_validated_arrays_are_read_only_copies(case, models, penalties, bench_cfg,
                                               certified, tmp_path):
    """Every array a validated object keeps is its own or already frozen:
    changing the caller's arrays afterwards leaves the object unchanged,
    and a write through the object raises."""
    gamma_bar, cert = certified

    def spec(kind):
        return lambda **given: validate_spec(mc.DisturbanceSpec(kind=kind, **given),
                                             models, 2)

    def loaded():
        mc.save_certificate(cert, tmp_path / "certificate.json")
        return mc.load_certificate(tmp_path / "certificate.json")

    # case -> (build, the fields it keeps, the caller's arrays passed to build)
    build, fields, given = {
        "spec L": (spec("hinf_worst_case"), "L", {"L": np.eye(3) * 0.1}),
        "spec direction": (spec("sinusoid"), "direction",
                           {"direction": np.eye(3)[0]}),
        "spec sequence": (spec("external"), "sequence",
                          {"sequence": np.zeros((4, 3))}),
        "ModelSet(A, B)": (mc.ModelSet, "A B",
                           {"A": models.A.copy(), "B": models.B.copy()}),
        "ModelSet.from_pairs": (lambda A, B: mc.ModelSet.from_pairs([(A, B)]), "A B",
                                {"A": models.A[0].copy(), "B": models.B[0].copy()}),
        "Penalties": (mc.Penalties, "Q R",
                      {"Q": penalties.Q.copy(), "R": penalties.R.copy()}),
        "ExperimentConfig x0": (functools.partial(dataclasses.replace, bench_cfg),
                                "x0", {"x0": np.full(3, 0.5)}),
        "ExperimentConfig default x0": (
            lambda: dataclasses.replace(bench_cfg, x0=None), "x0", {}),
        "MinimaxCertificate": (
            functools.partial(mc.MinimaxCertificate, gamma_bar=gamma_bar), "gains P",
            {"gains": cert.gains.copy(), "P": cert.P.copy()}),
        "load_certificate": (loaded, "gains P", {}),
    }[case]
    built = build(**given)
    kept = [getattr(built, field) for field in fields.split()]
    values = [array.copy() for array in kept]
    for caller in given.values():
        caller[...] = np.nan
    for array, value in zip(kept, values):
        np.testing.assert_array_equal(array, value)
        with pytest.raises(ValueError, match="read-only"):
            array[...] *= 0.5


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
    ("sinusoid", "direction", None, "needs an explicit direction when n > 1"),
    ("sinusoid", "direction", np.ones(2), "has length 2, state dimension is 3"),
    ("sinusoid", "direction", np.zeros(3), "must be nonzero"),
    ("hinf_worst_case", "L", np.eye(2), r"must be 3x3, got \(2, 2\)"),
], ids=["sinusoid-amplitude-nan", "sinusoid-omega-inf", "sinusoid-phase--inf",
        "sinusoid-direction-value3", "external-sequence-value4",
        "hinf_worst_case-L-value5", "sinusoid-amplitude-object", "zero-kind-list",
        "confusing-target-fraction", "confusing-target-bool",
        "sinusoid-direction-missing", "sinusoid-direction-short",
        "sinusoid-direction-zero", "hinf_worst_case-L-shape"])
def test_non_finite_field_rejected(models, kind, field, value, reason):
    """A field that is not a finite number of the right kind and shape is
    rejected."""
    spec = mc.DisturbanceSpec(kind=kind, direction=np.ones(3),
                              sequence=np.zeros((2, 3)), target=3)
    setattr(spec, field, value)
    with pytest.raises(mc.ConfigError, match=reason):
        validate_spec(spec, models, 2)


def test_shared_spec_is_not_rebound(bench_cfg, certified):
    """Checking one spec for a second experiment leaves the first one intact."""
    gamma_bar, cert = certified
    spec = mc.DisturbanceSpec(kind="confusing", target=3)
    cfg2 = mc.ExperimentConfig(
        model_set=bench_cfg.model_set, penalties=bench_cfg.penalties,
        true_index=2, horizon=20, gamma=gamma_bar, disturbance=spec)
    cfg1 = mc.ExperimentConfig(
        model_set=bench_cfg.model_set, penalties=bench_cfg.penalties,
        true_index=1, horizon=20, gamma=gamma_bar, disturbance=spec)
    for cfg in (cfg2, cfg1):
        traj = mc.rollout(cfg, cert)
        assert np.max(traj.alpha_hist[:, 2]) <= 1e-10  # the target explains every step
