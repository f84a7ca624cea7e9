import csv
import dataclasses
import inspect
import itertools
import re
import tracemalloc
import types

import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl import simulate
from minimaxctrl.simulate import BLOCK_CAP, write_trajectory_csv


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
    assert traj.horizon == T
    assert traj.model_set is cfg.model_set


def rollout_peak_bytes(cfg, controller):
    """tracemalloc peak of one rollout, after a warm-up rollout."""
    mc.rollout(cfg, controller)
    tracemalloc.start()
    try:
        mc.rollout(cfg, controller)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_adaptive_rollout_keeps_no_residual_history(bench_cfg, certified):
    """An adaptive T = 10^4 rollout on the shipped set (F = 4) peaks at least
    400,032 B, a (T+1, F) float64 residual history and (T,) int64
    selections, below 1,042,989 B, the least of its tracemalloc peaks
    measured when the trajectory stored both (Python 3.11.7, numpy 2.4.6)."""
    T = 10_000
    spec = mc.DisturbanceSpec(
        kind="external", sequence=np.random.default_rng(0).standard_normal((T, 3)))
    cfg = dataclasses.replace(scenario_cfg(bench_cfg, certified, spec), horizon=T)
    history = 8 * (cfg.horizon + 1) * 4 + 8 * cfg.horizon
    assert history == 400_032
    assert rollout_peak_bytes(cfg, certified[1]) <= 1_042_989 - history


def test_long_fixed_gain_rollout_peak_is_bounded(bench_cfg, certified,
                                                 benchmark_controller):
    """A fixed-gain T = 10^4 rollout on the shipped set peaks at most at
    413,441 B, its tracemalloc peak when the play buffer had BLOCK_CAP + 1
    rows and each block made its row views step by step (Python 3.11.7,
    numpy 2.4.6): the views made once per rollout cost less than the rows
    they replace."""
    T = 10_000
    spec = mc.DisturbanceSpec(
        kind="external", sequence=np.random.default_rng(0).standard_normal((T, 3)))
    cfg = dataclasses.replace(scenario_cfg(bench_cfg, certified, spec), horizon=T)
    assert rollout_peak_bytes(cfg, benchmark_controller.K) <= 413_441


@pytest.mark.parametrize("name", ["alpha_hist", "l"])
def test_long_trajectory_history_read_is_folded_in_blocks(bench_cfg, certified,
                                                          name):
    """One read of `alpha_hist` or `l` of an adaptive T = 10^4 trajectory on
    the shipped set peaks at most at twice the arrays it makes (the (T+1, F)
    history, and the (T,) selections for `l`): the fold's temporaries are
    one BLOCK_CAP-step block's.  One fold of all T steps peaked at
    1,987,192 B for either read (Python 3.11.7, numpy 2.4.6)."""
    T = 10_000
    spec = mc.DisturbanceSpec(
        kind="external", sequence=np.random.default_rng(0).standard_normal((T, 3)))
    cfg = dataclasses.replace(scenario_cfg(bench_cfg, certified, spec), horizon=T)
    traj = mc.rollout(cfg, certified[1])
    made = 8 * (T + 1) * 4 + (8 * T if name == "l" else 0)
    getattr(traj, name)
    tracemalloc.start()
    try:
        getattr(traj, name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * made


def test_trajectory_fields_do_not_grow_with_model_count(bench_cfg, certified):
    """The shipped set and the same four models listed twice (F = 8) give
    trajectories whose array fields have the same sizes."""
    _, cert = certified
    ms = bench_cfg.model_set
    doubled = mc.ModelSet.from_pairs([ms.pair(i % 4 + 1) for i in range(8)])
    cert8 = mc.MinimaxCertificate(gamma_bar=cert.gamma_bar,
                                  gains=np.concatenate([cert.gains, cert.gains]),
                                  P=np.zeros((8, 8, 3, 3)))
    sizes = []
    for model_set, controller in ((ms, cert), (doubled, cert8)):
        cfg = dataclasses.replace(
            scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero")),
            model_set=model_set)
        traj = mc.rollout(cfg, controller)
        assert traj.alpha_hist.shape == (101, model_set.size)
        sizes.append({f.name: getattr(traj, f.name).nbytes
                      for f in dataclasses.fields(traj)
                      if isinstance(getattr(traj, f.name), np.ndarray)})
    assert sizes[0] == sizes[1]
    assert set(sizes[0]) == {"x", "u", "w"}


def test_fixed_gain_rollout_has_no_switching_columns(bench_cfg, certified,
                                                     benchmark_controller):
    cfg = scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero"))
    traj = mc.rollout(cfg, benchmark_controller.K)
    assert traj.model_set is None
    assert traj.l is None
    assert traj.alpha_hist is None


def assert_steps_near_textbook(traj, A, B):
    """Every transition is within 2(2n+m) 2^-53 (|A||x| + |B||u| + |w|) of
    A x + B u + w, componentwise: twice the rounding bound of one sum of
    2n + m products, so room for both evaluations of the step."""
    x, u, w = traj.x[:-1], traj.u, traj.w
    n, m = B.shape
    textbook = x @ A.T + u @ B.T + w
    scale = np.abs(x) @ np.abs(A).T + np.abs(u) @ np.abs(B).T + np.abs(w)
    bound = 2 * (2 * n + m) * 2.0 ** -53 * scale
    assert np.all(np.abs(traj.x[1:] - textbook) <= bound)


def test_dynamics_consistency(bench_cfg, certified):
    """Every stored transition is the true model's fused product
    [A B I] [x; u; w] exactly, and A x + B u + w to rounding."""
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified,
                       mc.DisturbanceSpec(kind="confusing", target=3))
    traj = mc.rollout(cfg, cert)
    A, B = cfg.model_set.pair(cfg.true_index)
    Z = np.hstack([A, B, np.eye(3)])
    for k in range(traj.horizon):
        np.testing.assert_array_equal(
            traj.x[k + 1], Z @ np.concatenate([traj.x[k], traj.u[k], traj.w[k]])
        )
    assert_steps_near_textbook(traj, A, B)


def test_long_gaussian_rollout_steps_near_textbook(bench_cfg, certified,
                                                   benchmark_controller):
    """T = 10^4 under Gaussian w on the shipped set, both loops."""
    T = 10_000
    spec = mc.DisturbanceSpec(
        kind="external", sequence=np.random.default_rng(2).standard_normal((T, 3)))
    cfg = dataclasses.replace(scenario_cfg(bench_cfg, certified, spec), horizon=T)
    A, B = cfg.model_set.pair(cfg.true_index)
    for traj in simulate.paired_rollouts(cfg, certified[1], benchmark_controller.K):
        assert_steps_near_textbook(traj, A, B)


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


@pytest.mark.parametrize("shape", [(4, 2, 3), (3, 1, 3), (4, 1, 2)],
                         ids=["m", "F", "n"])
def test_certificate_shape_checked(bench_cfg, certified, shape):
    """A certificate for another set is rejected before the loop, naming both shapes."""
    gamma_bar, _ = certified
    F, _, n = shape
    cert = mc.MinimaxCertificate(gamma_bar=gamma_bar, gains=np.zeros(shape),
                                 P=np.zeros((F, F, n, n)))
    cfg = scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero"))
    with pytest.raises(ValueError, match=re.escape(f"(4, 1, 3) for this model "
                                                   f"set, got {shape}")):
        mc.rollout(cfg, cert)


@pytest.mark.parametrize("controller, disturbance, message", [
    (np.zeros((3, 1)), None, r"gain must be \(1, 3\), got \(3, 1\)"),
    (None, np.zeros((99, 3)),
     r"recorded disturbance must be \(100, 3\), got \(99, 3\)"),
], ids=["gain", "replay"])
def test_gain_and_replay_shapes_checked(bench_cfg, certified, controller,
                                        disturbance, message):
    """A fixed gain or a recorded sequence of the wrong shape is rejected
    before the loop, naming both shapes."""
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero"))
    with pytest.raises(ValueError, match=message):
        mc.rollout(cfg, cert if controller is None else controller,
                   disturbance=disturbance)


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
    write_trajectory_csv(traj, path)
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
    write_trajectory_csv(traj, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def reference_rollout(cfg, controller, disturbance=None):
    """The per-step rollout loop, written out in full: each state the one
    product [A B I] @ [x; u; w], costs inside the loop, `np.isfinite` plus
    `np.linalg.norm` as the divergence test, and the switching law, residual
    update and disturbance laws inlined, each law evaluated at its step.
    Returns a namespace whose `l` and `alpha_hist` are the loop's own
    arrays, so the derived ones are checked against them."""
    ms = cfg.model_set
    T, n = cfg.horizon, ms.n
    A, B = ms.pair(cfg.true_index)
    adaptive = isinstance(controller, mc.MinimaxCertificate)
    x = np.zeros((T + 1, n))
    u = np.zeros((T, ms.m))
    w = np.zeros((T, n))
    step_cost = np.zeros(T + 1)
    x[0] = cfg.x0
    l = np.zeros(T, dtype=int) if adaptive else None
    alpha_hist = np.zeros((T + 1, ms.size)) if adaptive else None
    Q, R = cfg.penalties.Q, cfg.penalties.R
    spec = cfg.disturbance
    Z = np.hstack([A, B, np.eye(n)])
    for k in range(T):
        if adaptive:
            l[k] = int(np.argmin(alpha_hist[k])) + 1
            u[k] = -controller.gains[l[k] - 1] @ x[k]
        else:
            u[k] = -controller @ x[k]
        if disturbance is not None:
            w[k] = disturbance[k]
        elif spec.kind == "sinusoid":
            w[k] = spec.amplitude * np.sin(spec.omega * k + spec.phase) * spec.direction
        elif spec.kind == "external":
            w[k] = spec.sequence[k]
        elif spec.kind == "hinf_worst_case":
            w[k] = spec.L @ x[k]
        elif spec.kind == "confusing":
            Ai, Bi = ms.pair(spec.target)
            w[k] = (Ai - A) @ x[k] + (Bi - B) @ u[k]
        else:
            assert spec.kind == "zero"
        x[k + 1] = Z @ np.concatenate([x[k], u[k], w[k]])
        if not np.all(np.isfinite(x[k + 1])) or np.linalg.norm(x[k + 1]) > 1e12:
            raise mc.DivergedRollout(f"step {k + 1}")
        if adaptive:
            r = x[k + 1] - ms.A @ x[k] - ms.B @ u[k]
            alpha_hist[k + 1] = alpha_hist[k] + np.sum(r * r, axis=1)
        step_cost[k] = x[k] @ Q @ x[k] + u[k] @ R @ u[k]
    step_cost[T] = x[T] @ Q @ x[T]
    return types.SimpleNamespace(x=x, u=u, w=w, step_cost=step_cost, l=l,
                                 alpha_hist=alpha_hist)


def outcome(run):
    """('ok', trajectory) or ('diverged', step) for one rollout call."""
    try:
        return "ok", run()
    except mc.DivergedRollout as exc:
        return "diverged", int(re.search(r"step (\d+)$", str(exc)).group(1))


def assert_same_trajectory(got, want):
    """Byte for byte for n > 1, the sign of every zero included; for n = 1,
    where an exact zero can carry the other sign, equal as numbers."""
    for name in ("x", "u", "w", "l", "alpha_hist", "step_cost"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        elif want.x.shape[1] > 1:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert np.array_equal(a, b), name


def assert_matches_reference(cfg, controller, disturbance=None):
    """Roll out and require bit equality with the reference loop, or a
    divergence at the reference's step; returns the trajectory, or None
    when both diverged."""
    want = outcome(lambda: reference_rollout(cfg, controller, disturbance))
    got = outcome(lambda: mc.rollout(cfg, controller, disturbance=disturbance))
    assert got[0] == want[0]
    if want[0] == "diverged":
        assert got[1] == want[1]
        return None
    assert_same_trajectory(got[1], want[1])
    return got[1]


def reference_pair(cfg, cert, K):
    """(adaptive, fixed) from the reference loop in the pairing order: the
    adaptive loop first for the kinds it generates, else the fixed gain
    first, and the first loop's w replayed on the other."""
    if cfg.disturbance.generating_loop == "minimax":
        adaptive = reference_rollout(cfg, cert)
        return adaptive, reference_rollout(cfg, K, disturbance=adaptive.w)
    fixed = reference_rollout(cfg, K)
    return reference_rollout(cfg, cert, disturbance=fixed.w), fixed


def assert_loops_match_reference(cfg, cert, K):
    """Every loop that may generate cfg's disturbance, then the replay onto
    the other controller, each against the reference loop; and
    `paired_rollouts` against the reference pair, bit for bit, or diverging
    at the reference's step."""
    controllers = {"minimax": cert, "hinf": K}
    loop = cfg.disturbance.generating_loop
    for gen in (("minimax", "hinf") if loop == "open" else (loop,)):
        traj = assert_matches_reference(cfg, controllers[gen])
        if traj is not None:
            other = controllers["hinf" if gen == "minimax" else "minimax"]
            assert_matches_reference(cfg, other, disturbance=traj.w)
    want = outcome(lambda: reference_pair(cfg, cert, K))
    got = outcome(lambda: simulate.paired_rollouts(cfg, cert, K))
    assert got[0] == want[0]
    if want[0] == "diverged":
        assert got[1] == want[1]
        return
    for traj, ref in zip(got[1], want[1]):
        assert_same_trajectory(traj, ref)
    assert got[1][0].l is not None and got[1][1].l is None


@pytest.mark.parametrize(
    "kind", ["zero", "sinusoid", "external", "confusing", "hinf_worst_case"]
)
def test_rollout_matches_reference_loop(bench_cfg, certified,
                                        benchmark_controller, kind):
    _, cert = certified
    spec = {
        "zero": mc.DisturbanceSpec(kind="zero"),
        "sinusoid": mc.DisturbanceSpec(
            kind="sinusoid", amplitude=1.0, omega=1.1, phase=0.4,
            direction=np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
        ),
        "external": mc.DisturbanceSpec(
            kind="external",
            sequence=np.random.default_rng(5).standard_normal((100, 3)),
        ),
        "confusing": mc.DisturbanceSpec(kind="confusing", target=3),
        "hinf_worst_case": mc.DisturbanceSpec(kind="hinf_worst_case",
                                              L=benchmark_controller.L),
    }[kind]
    cfg = scenario_cfg(bench_cfg, certified, spec)
    assert_loops_match_reference(cfg, cert, benchmark_controller.K)


@pytest.mark.parametrize("kind", ["external", "hinf_worst_case"])
def test_full_cap_blocks_match_reference_loop(monkeypatch, bench_cfg, certified,
                                              benchmark_controller, kind):
    """T = 2 BLOCK_CAP + 500 on the shipped set, where the rollouts play
    whole BLOCK_CAP-step blocks, each loop compared with the reference."""
    blocks = record_blocks(monkeypatch)
    _, cert = certified
    T = 2 * BLOCK_CAP + 500
    spec = (mc.DisturbanceSpec(kind="hinf_worst_case", L=benchmark_controller.L)
            if kind == "hinf_worst_case" else mc.DisturbanceSpec(
                kind="external",
                sequence=np.random.default_rng(13).standard_normal((T, 3))))
    cfg = dataclasses.replace(scenario_cfg(bench_cfg, certified, spec), horizon=T)
    assert_loops_match_reference(cfg, cert, benchmark_controller.K)
    assert BLOCK_CAP in [end - k for k, end, _ in blocks]


@pytest.mark.parametrize("kind", ["confusing", "external"])
def test_rollout_matches_reference_loop_weighted_multi_input(kind):
    """n = 4, m = 2, F = 3 with full Q and R: a cost evaluated in another
    summation order (einsum, row sums) would differ in the last bits."""
    rng = np.random.default_rng(7)
    n, m, F = 4, 2, 3
    base = rng.standard_normal((n, n))
    pairs = []
    for _ in range(F):
        A = base + 0.3 * rng.standard_normal((n, n))
        A *= 1.1 / np.max(np.abs(np.linalg.eigvals(A)))
        pairs.append((A, rng.standard_normal((n, m))))
    ms = mc.ModelSet.from_pairs(pairs)
    M, N = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    p = mc.Penalties(Q=M @ M.T + np.eye(n), R=N @ N.T + 0.5 * np.eye(m))
    gamma_bar, cert = mc.minimal_feasible_gamma(ms, p)
    K = mc.solve_riccati(*ms.pair(2), p, gamma_bar).K
    T = 300
    spec = (mc.DisturbanceSpec(kind="confusing", target=1) if kind == "confusing"
            else mc.DisturbanceSpec(kind="external",
                                    sequence=rng.standard_normal((T, n))))
    cfg = mc.ExperimentConfig(
        model_set=ms, penalties=p, true_index=2, horizon=T, gamma=gamma_bar,
        disturbance=spec, x0=rng.standard_normal(n),
    )
    assert_loops_match_reference(cfg, cert, K)


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("scale, step", [(3.0, 25), (1e200, 1), (1e300, 1)])
def test_divergence_step(penalties, scale, step, adaptive):
    """A finite state whose squared norm overflows diverges like any other,
    with DivergedRollout rather than a numpy overflow warning."""
    ms = mc.ModelSet.from_pairs([(scale * np.eye(3), np.zeros((3, 1)))])
    cfg = mc.ExperimentConfig(
        model_set=ms, penalties=penalties, true_index=1, horizon=200,
        gamma=100.0, disturbance=mc.DisturbanceSpec(kind="zero"),
        x0=np.ones(3),
    )
    controller = (
        mc.MinimaxCertificate(gamma_bar=100.0, gains=np.zeros((1, 1, 3)),
                              P=np.zeros((1, 1, 3, 3)))
        if adaptive else np.zeros((1, 3))
    )
    with pytest.raises(mc.DivergedRollout, match=f"at step {step}$"):
        mc.rollout(cfg, controller)


def growth_experiment(growth, x0, kick_step, kick, T=20):
    """F = 2, n = m = 1, true model 1 = (1, 1), model 2 = (1, 2).  Model 1's
    gain makes the true loop grow by `growth` per step, model 2's gain
    zeroes the state; w is zero but for `kick` at `kick_step`."""
    ms = mc.ModelSet.from_pairs([(np.ones((1, 1)), np.ones((1, 1))),
                                 (np.ones((1, 1)), np.full((1, 1), 2.0))])
    w = np.zeros((T, 1))
    w[kick_step] = kick
    cfg = mc.ExperimentConfig(
        model_set=ms, penalties=mc.Penalties(Q=np.eye(1), R=np.eye(1)),
        true_index=1, horizon=T, gamma=1.0, x0=np.array([x0]),
        disturbance=mc.DisturbanceSpec(kind="external", sequence=w))
    cert = mc.MinimaxCertificate(gamma_bar=1.0,
                                 gains=np.array([[[1.0 - growth]], [[1.0]]]),
                                 P=np.zeros((2, 2, 1, 1)))
    return cfg, cert


def record_blocks(monkeypatch):
    """List of (k, end, largest |x| the block computed), one per block."""
    blocks = []
    play = simulate._play_block
    bind = inspect.signature(play).bind

    def recorded(*args):
        play(*args)
        a = bind(*args).arguments
        k, end = a["k"], a["end"]
        blocks.append((k, end, float(np.max(np.abs(a["x"][k + 1:end + 1])))))

    monkeypatch.setattr(simulate, "_play_block", recorded)
    return blocks


def test_speculated_divergence_after_a_switch_is_discarded(monkeypatch):
    """x_k = 100^k under model 1's gain until w_4 = u_4 makes model 2 the
    better explainer at step 5.  The block of steps 3..6 runs on with model
    1's gain past 1e12 before the switch is seen; those states are dropped,
    nothing is raised, and the rollout is the reference's."""
    cfg, cert = growth_experiment(100.0, 1.0, 4, 99e8)
    blocks = record_blocks(monkeypatch)
    traj = assert_matches_reference(cfg, cert)
    assert traj.l[4] == 1 and traj.l[5] == 2
    assert (3, 7) in [b[:2] for b in blocks]
    assert max(b[2] for b in blocks) > simulate.DIVERGENCE_LIMIT
    assert np.max(np.abs(traj.x)) < simulate.DIVERGENCE_LIMIT


@pytest.mark.parametrize("growth, x0, kick", [(1e3, 1.0, 0.0), (1e200, 0.0, 1e13)],
                         ids=["grows", "overflows"])
def test_divergence_inside_a_kept_block(growth, x0, kick):
    """The first state above 1e12 is x_5, inside the block of steps 3..6 on
    an unchanged selection: DivergedRollout at the reference's step 5, also
    when the rest of the block overflows to inf."""
    cfg, cert = growth_experiment(growth, x0, 4, kick)
    assert outcome(lambda: reference_rollout(cfg, cert)) == ("diverged", 5)
    with pytest.raises(mc.DivergedRollout, match="at step 5$"):
        mc.rollout(cfg, cert)


def test_replay_does_not_alias_the_recorded_sequence(bench_cfg, certified):
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero"))
    seq = np.random.default_rng(3).standard_normal((cfg.horizon, 3))
    kept = seq.copy()
    traj = mc.rollout(cfg, cert, disturbance=seq)
    assert traj.w is not seq
    assert not np.shares_memory(traj.w, seq)
    with pytest.raises(ValueError, match="read-only"):
        traj.w[:] = 0.0
    np.testing.assert_array_equal(seq, kept)
    seq[:] = 0.0
    np.testing.assert_array_equal(traj.w, kept)


def test_replay_of_a_read_only_view_is_copied(bench_cfg, certified):
    """A read-only view of a writable array can still change under the
    rollout, so it is copied like the writable array itself."""
    _, cert = certified
    cfg = scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero"))
    seq = np.random.default_rng(3).standard_normal((cfg.horizon, 3))
    kept = seq.copy()
    view = seq[:]
    view.flags.writeable = False
    traj = mc.rollout(cfg, cert, disturbance=view)
    assert not np.shares_memory(traj.w, seq)
    seq[:] = 0.0
    np.testing.assert_array_equal(traj.w, kept)


def test_external_sequence_is_the_config_s_own_copy(bench_cfg, certified):
    """The config keeps the validated values: a NaN written into the
    caller's array afterwards does not reach the rollout."""
    _, cert = certified
    seq = np.random.default_rng(4).standard_normal((bench_cfg.horizon, 3))
    kept = seq.copy()
    cfg = scenario_cfg(bench_cfg, certified,
                       mc.DisturbanceSpec(kind="external", sequence=seq))
    seq[0, 0] = np.nan
    np.testing.assert_array_equal(mc.rollout(cfg, cert).w, kept)
    assert not cfg.disturbance.sequence.flags.writeable


def test_x0_is_the_config_s_own_copy(bench_cfg, certified):
    """A NaN written into the caller's x0 after the config is built does
    not reach the rollout."""
    _, cert = certified
    x0 = np.full(3, 0.5)
    cfg = dataclasses.replace(
        scenario_cfg(bench_cfg, certified, mc.DisturbanceSpec(kind="zero")), x0=x0)
    untouched = mc.rollout(cfg, cert)
    x0[0] = np.nan
    again = mc.rollout(cfg, cert)
    np.testing.assert_array_equal(again.x, untouched.x)
    np.testing.assert_array_equal(again.step_cost, untouched.step_cost)


@pytest.mark.parametrize("kind", ["hinf_worst_case", "confusing", "sinusoid",
                                  "external", "zero"])
def test_pair_shares_one_read_only_disturbance(bench_cfg, certified,
                                               benchmark_controller, kind):
    """The replayed loop uses the generating loop's w as it is; an external
    pair shares the config's sequence.  Every w is read-only."""
    _, cert = certified
    spec = {
        "zero": mc.DisturbanceSpec(kind="zero"),
        "hinf_worst_case": mc.DisturbanceSpec(kind="hinf_worst_case",
                                              L=benchmark_controller.L),
        "confusing": mc.DisturbanceSpec(kind="confusing", target=3),
        "sinusoid": mc.DisturbanceSpec(kind="sinusoid", omega=1.1,
                                       direction=np.ones(3) / np.sqrt(3.0)),
        "external": mc.DisturbanceSpec(
            kind="external",
            sequence=np.random.default_rng(5).standard_normal((100, 3))),
    }[kind]
    cfg = scenario_cfg(bench_cfg, certified, spec)
    adaptive, fixed = simulate.paired_rollouts(cfg, cert, benchmark_controller.K)
    assert np.shares_memory(adaptive.w, fixed.w)
    if kind == "external":
        assert np.shares_memory(adaptive.w, cfg.disturbance.sequence)
        assert np.shares_memory(fixed.w, cfg.disturbance.sequence)
    for traj in (adaptive, fixed):
        assert not traj.w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            traj.w[0, 0] = 1.0


@pytest.mark.parametrize("kind", ["external", "replay", "hinf_worst_case",
                                  "confusing"])
def test_rollout_writes_only_its_trajectory(bench_cfg, certified,
                                            benchmark_controller, kind):
    """The rows a step writes in place belong to the trajectory: the spec's
    sequence and L, a replayed array, the gains and the model stacks are
    unchanged, and a second rollout is byte-identical to the first."""
    _, cert = certified
    rng = np.random.default_rng(17)
    seq = rng.standard_normal((bench_cfg.horizon, 3))
    spec, controller, replay = {
        "external": (mc.DisturbanceSpec(kind="external", sequence=seq),
                     cert, None),
        "replay": (mc.DisturbanceSpec(kind="zero"), cert, seq),
        "hinf_worst_case": (mc.DisturbanceSpec(kind="hinf_worst_case",
                                               L=benchmark_controller.L),
                            benchmark_controller.K, None),
        "confusing": (mc.DisturbanceSpec(kind="confusing", target=3), cert, None),
    }[kind]
    cfg = scenario_cfg(bench_cfg, certified, spec)
    ms = cfg.model_set
    inputs = {"seq": seq, "spec.sequence": cfg.disturbance.sequence,
              "spec.L": cfg.disturbance.L, "gains": cert.gains, "P": cert.P,
              "K": benchmark_controller.K, "A": ms.A, "B": ms.B}
    kept = {name: a.tobytes() for name, a in inputs.items() if a is not None}
    first = mc.rollout(cfg, controller, disturbance=replay)
    second = mc.rollout(cfg, controller, disturbance=replay)
    for name, raw in kept.items():
        assert inputs[name].tobytes() == raw, name
    assert_same_trajectory(second, first)


def random_experiments(seed, T=200):
    """A seeded random set (F 2-8, n 1-4, m 1-2) with per-model LQR gains,
    and one experiment per law: external, sinusoid and confusing."""
    rng = np.random.default_rng(seed)
    F, n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 3))
    A0 = rng.standard_normal((n, n))
    A0 *= 1.05 / np.max(np.abs(np.linalg.eigvals(A0)))
    B0 = rng.standard_normal((n, m))
    ms = mc.ModelSet.from_pairs([
        (A0 + 0.2 * rng.standard_normal((n, n)), B0 + 0.2 * rng.standard_normal((n, m)))
        for _ in range(F)])
    p = mc.Penalties(Q=np.eye(n), R=np.eye(m))
    designs = [mc.solve_riccati(*ms.pair(i), p, np.inf) for i in range(1, F + 1)]
    gains = np.stack([d.K if d else np.zeros((m, n)) for d in designs])
    cert = mc.MinimaxCertificate(gamma_bar=1.0, gains=gains,
                                 P=np.zeros((F, F, n, n)))
    true = int(rng.integers(1, F + 1))
    direction = rng.standard_normal(n)
    specs = [
        mc.DisturbanceSpec(kind="external", sequence=10.0 ** rng.integers(-2, 3)
                           * rng.standard_normal((T, n))),
        mc.DisturbanceSpec(kind="sinusoid", amplitude=float(rng.uniform(0.1, 5)),
                           omega=float(rng.uniform(0, np.pi)),
                           phase=float(rng.uniform(0, np.pi)),
                           direction=direction / np.linalg.norm(direction)),
        mc.DisturbanceSpec(kind="confusing", target=true % F + 1),
    ]
    x0 = rng.standard_normal(n)
    return [(mc.ExperimentConfig(model_set=ms, penalties=p, true_index=true,
                                 horizon=T, gamma=1.0, disturbance=spec, x0=x0),
             cert, gains[true - 1]) for spec in specs]


@pytest.mark.parametrize("seed", range(12))
def test_block_kernel_matches_reference_on_random_sets(seed):
    for cfg, cert, K in random_experiments(seed):
        assert_loops_match_reference(cfg, cert, K)


@pytest.mark.parametrize("seed", range(12))
def test_steps_near_textbook_on_random_sets(seed):
    """n = 1-4, m = 1-2: every pair that does not diverge."""
    for cfg, cert, K in random_experiments(seed):
        status, pair = outcome(lambda: simulate.paired_rollouts(cfg, cert, K))
        for traj in pair if status == "ok" else ():
            assert_steps_near_textbook(traj, *cfg.model_set.pair(cfg.true_index))


def switching_experiment(T=200):
    """F = 2, n = m = 1, A = +-0.5, B = 0, true model 1 with x_k = +-1
    (`sign_experiment`).  Excursions of 1..8 steps down and back make blocks
    of every size end early at varied offsets."""
    products = []  # x_{k+1} x_k: runs of r down-steps, then r back up
    for r in itertools.cycle(range(1, 9)):
        products += [-1.0] * r + [1.0] * r
        if len(products) >= T:
            break
    return sign_experiment(products[:T])


def sign_experiment(products):
    """F = 2, n = m = 1, A = +-0.5, B = 0, true model 1 with x_0 = 1 and
    x_{k+1} x_k = products[k] = +-1.  Each step adds exactly 2 x_k x_{k+1}
    to alpha_2 - alpha_1, so the selection moves to model 2 when the
    difference drops below 0 and back to model 1 when it returns to the tie."""
    T = len(products)
    x = np.cumprod(np.concatenate([[1.0], products]))
    ms = mc.ModelSet.from_pairs([(np.array([[0.5]]), np.zeros((1, 1))),
                                 (np.array([[-0.5]]), np.zeros((1, 1)))])
    cfg = mc.ExperimentConfig(
        model_set=ms, penalties=mc.Penalties(Q=np.eye(1), R=np.eye(1)),
        true_index=1, horizon=T, gamma=1.0, x0=x[:1],
        disturbance=mc.DisturbanceSpec(kind="external",
                                       sequence=(x[1:] - 0.5 * x[:-1])[:, None]))
    cert = mc.MinimaxCertificate(gamma_bar=1.0, gains=np.array([[[0.25]], [[-0.75]]]),
                                 P=np.zeros((2, 2, 1, 1)))
    return cfg, cert


def test_switching_set_matches_reference():
    cfg, cert = switching_experiment()
    traj = assert_matches_reference(cfg, cert)
    assert np.count_nonzero(np.diff(traj.l)) >= 20
    assert_matches_reference(cfg, cert.gains[0], disturbance=traj.w)


def test_block_work_is_bounded(monkeypatch, bench_cfg, certified,
                               benchmark_controller):
    """Steps computed, discarded tails included: T + BLOCK_CAP at most on the
    shipped set, and at most 2T (the docstring's bound) on the switching set."""
    blocks = record_blocks(monkeypatch)
    _, cert = certified
    T = 2 * BLOCK_CAP + 500
    external = mc.DisturbanceSpec(
        kind="external", sequence=np.random.default_rng(11).standard_normal((T, 3)))
    confusing = mc.DisturbanceSpec(kind="confusing", target=3)
    for spec, controller in ((external, cert), (external, benchmark_controller.K),
                             (confusing, cert)):
        cfg = dataclasses.replace(scenario_cfg(bench_cfg, certified, spec), horizon=T)
        blocks.clear()
        mc.rollout(cfg, controller)
        assert T <= sum(e - k for k, e, _ in blocks) <= T + BLOCK_CAP
    cfg, cert = switching_experiment()
    blocks.clear()
    mc.rollout(cfg, cert)
    assert sum(e - k for k, e, _ in blocks) <= 2 * cfg.horizon


CHUNK = simulate._CHUNK


def seam_experiment(kind, n, m, T):
    """F = 3 seeded random set with n states and m inputs, true model 1, the
    per-model LQR gains as the certificate's and model 1's as the fixed
    gain, horizon T under one disturbance law."""
    rng = np.random.default_rng(10 * n + m)
    A0 = rng.standard_normal((n, n))
    A0 *= 1.05 / np.max(np.abs(np.linalg.eigvals(A0)))
    B0 = rng.standard_normal((n, m))
    ms = mc.ModelSet.from_pairs([
        (A0 + 0.2 * rng.standard_normal((n, n)), B0 + 0.2 * rng.standard_normal((n, m)))
        for _ in range(3)])
    p = mc.Penalties(Q=np.eye(n), R=np.eye(m))
    gains = np.stack([mc.solve_riccati(*ms.pair(i), p, np.inf).K for i in (1, 2, 3)])
    cert = mc.MinimaxCertificate(gamma_bar=1.0, gains=gains, P=np.zeros((3, 3, n, n)))
    direction = rng.standard_normal(n)
    gamma = 2.0 * mc.optimal_attenuation(*ms.pair(1), p)
    spec = {
        "external": mc.DisturbanceSpec(kind="external",
                                       sequence=rng.standard_normal((T, n))),
        "sinusoid": mc.DisturbanceSpec(kind="sinusoid", amplitude=2.0, omega=0.7,
                                       phase=0.3,
                                       direction=direction / np.linalg.norm(direction)),
        "hinf_worst_case": mc.DisturbanceSpec(
            kind="hinf_worst_case", L=mc.solve_riccati(*ms.pair(1), p, gamma).L),
        "confusing": mc.DisturbanceSpec(kind="confusing", target=2),
    }[kind]
    cfg = mc.ExperimentConfig(model_set=ms, penalties=p, true_index=1, horizon=T,
                              gamma=gamma, disturbance=spec, x0=rng.standard_normal(n))
    return cfg, cert, gains[0]


@pytest.mark.parametrize("T", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1])
@pytest.mark.parametrize("n, m", [(1, 1), (4, 2)], ids=["n1", "n4m2"])
@pytest.mark.parametrize("kind", ["external", "sinusoid", "hinf_worst_case",
                                  "confusing"])
def test_chunk_seams_match_reference_loop(monkeypatch, kind, n, m, T):
    """Horizons on either side of the play buffer's CHUNK rows, and past a
    seam inside a block: each loop under each law, bit for bit the
    reference loop (as numbers for n = 1)."""
    blocks = record_blocks(monkeypatch)
    cfg, cert, K = seam_experiment(kind, n, m, T)
    assert_loops_match_reference(cfg, cert, K)
    if T > 2 * CHUNK:  # the fixed gain's block 2 CHUNK - 1 .. T - 1 has a seam
        assert (2 * CHUNK - 1, T) in [b[:2] for b in blocks]


def test_switch_on_a_chunk_seam_matches_reference(monkeypatch):
    """The selection moves to model 2 at step 3 CHUNK - 1, the first step of
    the second chunk of the block 2 CHUNK - 1 .. 4 CHUNK - 2: the block is
    cut there, its speculative second chunk discarded, and the rollout is
    the reference's."""
    seam = 3 * CHUNK - 1
    # alpha_2 - alpha_1 alternates 0, 2, ... and first drops below 0 at the seam
    products = [(-1.0) ** k for k in range(4 * CHUNK)]
    products[seam - 1] = -1.0
    cfg, cert = sign_experiment(products)
    blocks = record_blocks(monkeypatch)
    traj = assert_matches_reference(cfg, cert)
    assert traj.l[seam - 1] == 1 and traj.l[seam] == 2
    assert np.all(traj.l[:seam] == 1)
    played = [b[:2] for b in blocks]
    assert (2 * CHUNK - 1, 4 * CHUNK - 1) in played and (seam, seam + 1) in played
