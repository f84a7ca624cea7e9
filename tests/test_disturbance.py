import dataclasses

import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl.disturbance import emit, read_only, validate_spec


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


def owned_array():
    """A (3, 2) float array that owns its data (reshape would make a view)."""
    return np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])


def frozen(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("case, kept", [
    ("read-only", True),
    ("read-only view of read-only", True),
    ("writable", False),
    ("read-only view of writable", False),
    ("read-only float32", False),
    ("list", False),
])
def test_read_only_copies_unless_nothing_can_write(case, kept):
    array = {
        "read-only": lambda: frozen(owned_array()),
        "read-only view of read-only": lambda: frozen(frozen(owned_array())[1:]),
        "writable": owned_array,
        "read-only view of writable": lambda: frozen(owned_array()[1:]),
        "read-only float32": lambda: frozen(owned_array().astype(np.float32)),
        "list": lambda: [[0.0, 1.0], [2.0, 3.0]],
    }[case]()
    out = read_only(array)
    assert (out is array) == kept
    assert out.dtype == np.float64 and not out.flags.writeable
    np.testing.assert_array_equal(out, array)
    if not kept and isinstance(array, np.ndarray):
        assert not np.shares_memory(out, array)


def test_validated_arrays_are_read_only_copies(models):
    """L, direction and sequence of a validated spec are its own read-only
    arrays; the caller's stay writable and unshared."""
    given = {"L": np.eye(3) * 0.1, "direction": np.eye(3)[0],
             "sequence": np.zeros((4, 3))}
    for kind, field in (("hinf_worst_case", "L"), ("sinusoid", "direction"),
                        ("external", "sequence")):
        spec = validate_spec(mc.DisturbanceSpec(kind=kind, **{field: given[field]}),
                             models, 2)
        assert not getattr(spec, field).flags.writeable
        assert not np.shares_memory(getattr(spec, field), given[field])
        assert given[field].flags.writeable


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
