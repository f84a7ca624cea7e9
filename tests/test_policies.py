import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import minimaxctrl as mc
from minimaxctrl.policies import hinf_step, minimax_step, update_residuals


def test_initial_state(bench_cfg, certified):
    """A rollout starts from zero residuals, and the tie selects model 1."""
    gamma_bar, cert = certified
    cfg = dataclasses.replace(bench_cfg, gamma=gamma_bar, horizon=1,
                              disturbance=mc.DisturbanceSpec(kind="zero"))
    traj = mc.rollout(cfg, cert)
    np.testing.assert_array_equal(traj.alpha_hist[0], np.zeros(4))
    assert traj.l[0] == 1


def test_tie_breaks_to_lowest_index(certified):
    _, cert = certified
    x = np.ones(3)
    u, l = minimax_step(cert, np.zeros(4), x)  # a four-way tie
    assert l == 1
    np.testing.assert_allclose(u, -cert.gains[0] @ x)


def test_selects_least_residual(certified):
    _, cert = certified
    x = np.array([1.0, -1.0, 0.5])
    u, l = minimax_step(cert, np.array([3.0, 0.5, 2.0, 0.5]), x)
    assert l == 2  # first of the tied pair
    np.testing.assert_allclose(u, -cert.gains[1] @ x)


def test_step_is_deterministic(certified):
    _, cert = certified
    alpha = np.array([1.0, 4.0, 0.2, 9.0])
    x = np.array([0.3, 0.7, -0.2])
    u1, l1 = minimax_step(cert, alpha, x)
    u2, l2 = minimax_step(cert, alpha, x)
    np.testing.assert_array_equal(u1, u2)
    assert l1 == l2


def test_residual_update_shapes_and_growth(models):
    alpha = np.zeros(4)
    x = np.ones(3)
    u = np.array([0.1])
    x_next = models.A[1] @ x + models.B[1] @ u  # exact model-2 step, no noise
    rows = update_residuals(models, alpha, np.stack([x, x_next]), u[None])
    assert rows.shape == (1, 4)
    alpha2 = rows[0]
    np.testing.assert_array_equal(alpha, np.zeros(4))  # input left untouched
    assert alpha2[1] <= 1e-28  # true model explains the step (rounding only)
    assert np.all(alpha2 >= 0.0)
    assert np.any(alpha2[[0, 2, 3]] > 0.0)


def model_2_lqr_trajectory(models, penalties, steps, seed=7):
    """States, inputs and disturbances of model 2 under its LQR gain."""
    from scipy.linalg import solve_discrete_are

    rng = np.random.default_rng(seed)
    A, B = models.pair(2)
    P = solve_discrete_are(A, B, penalties.Q, penalties.R)
    K = np.linalg.solve(penalties.R + B.T @ P @ B, B.T @ P @ A)
    x, u, w = np.zeros((steps + 1, 3)), np.zeros((steps, 1)), np.zeros((steps, 3))
    x[0] = np.ones(3)
    for k in range(steps):
        u[k] = -K @ x[k]
        w[k] = 0.5 * rng.standard_normal(3)
        x[k + 1] = A @ x[k] + B @ u[k] + w[k]
    return x, u, w


def test_true_model_residual_is_disturbance_energy(models, penalties):
    """alpha_j accumulates exactly the injected disturbance energy."""
    x, u, w = model_2_lqr_trajectory(models, penalties, 25)
    rows = update_residuals(models, np.zeros(4), x, u)
    energy = np.cumsum(np.sum(w * w, axis=1))
    assert rows.shape == (25, 4)
    assert np.all(np.abs(rows[:, 1] - energy) <= 1e-12 * np.maximum(1.0, energy))


@pytest.mark.parametrize("cuts", [(), (1,), (3, 4, 17), tuple(range(1, 25))],
                         ids=["whole", "1+24", "mixed", "one-by-one"])
def test_blocks_fold_like_single_steps(models, penalties, cuts):
    """Folding in blocks, each seeded with the last row of the one before,
    gives the same bits wherever the blocks are cut."""
    x, u, _ = model_2_lqr_trajectory(models, penalties, 25)
    alpha = np.array([0.5, 0.0, 2.0, 1e-3])
    whole = update_residuals(models, alpha, x, u)
    rows, seed = [], alpha
    for a, b in zip((0,) + cuts, cuts + (25,)):
        rows.append(update_residuals(models, seed, x[a:b + 1], u[a:b]))
        seed = rows[-1][-1]
    np.testing.assert_array_equal(np.concatenate(rows), whole)


def test_hinf_step_is_linear_feedback(benchmark_controller):
    x = np.array([1.0, 2.0, -1.0])
    np.testing.assert_allclose(
        hinf_step(benchmark_controller.K, x), -benchmark_controller.K @ x
    )


# smallest residual whose product with every scale below stays normal
NORMAL_AFTER_SCALING = np.finfo(np.float64).tiny * 2.0 ** 30


@settings(max_examples=50, deadline=None)
@given(
    alpha=hnp.arrays(np.float64, 4, elements=st.one_of(
        st.just(0.0), st.floats(NORMAL_AFTER_SCALING, 1e6))),
    scale=st.sampled_from([2.0 ** k for k in range(-30, 31)]),
)
def test_selection_invariant_under_common_scaling(certified, alpha, scale):
    """The switch only sees residual order, never their common size.

    Scales are powers of two and every scaled residual stays zero or
    normal, so the scaling is exact in floats (a subnormal product drops
    bits and can turn distinct residuals into a tie).
    """
    _, cert = certified
    x = np.array([0.5, -1.0, 2.0])
    u1, l1 = minimax_step(cert, alpha, x)
    u2, l2 = minimax_step(cert, alpha * scale, x)
    assert l1 == l2
    np.testing.assert_array_equal(u1, u2)
