import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minimaxctrl as mc
from minimaxctrl import hinf

# Attenuation levels for the four benchmark models, frozen from two
# independent oracles that agree to 4 digits: the Riccati-existence
# bisection below, and a direct Nelder-Mead minimization of the
# closed-loop peak norm over raw gain entries (scipy, no Riccati).
GAMMA_STAR_ORACLE = [2.000477, 9.437843, 2.912582, 2.835266]


def scalar_penalties():
    return mc.Penalties(Q=np.eye(1), R=np.eye(1))


def test_attenuation_levels_frozen(gamma_stars):
    np.testing.assert_allclose(gamma_stars, GAMMA_STAR_ORACLE, atol=2e-3)


def test_scalar_open_loop_analytic():
    """a=0.5, b=0, K=0: transfer w -> x is 1/(z-0.5), peak 2 at omega 0."""
    A, B = np.array([[0.5]]), np.array([[0.0]])
    scan = mc.closed_loop_scan(A, B, np.zeros((1, 1)), scalar_penalties())
    assert scan.peak_omega == pytest.approx(0.0, abs=1e-9)
    assert scan.peak_norm == pytest.approx(2.0, abs=1e-3)
    assert mc.optimal_attenuation(A, B, scalar_penalties()) == pytest.approx(2.0, abs=1e-3)


def test_riccati_returns_fixed_point(models, penalties, gamma_stars):
    for i in range(1, 5):
        A, B = models.pair(i)
        g = 1.1 * gamma_stars[i - 1]
        sol = mc.solve_riccati(A, B, penalties, g)
        assert sol
        # fixed-point equation and derived quantities
        Lam = np.eye(3) + (B @ B.T - np.eye(3) / g**2) @ sol.M
        np.testing.assert_allclose(
            sol.M, penalties.Q + A.T @ sol.M @ np.linalg.solve(Lam, A), atol=1e-8
        )
        np.testing.assert_allclose(sol.K, B.T @ sol.M @ np.linalg.solve(Lam, A), atol=1e-9)
        np.testing.assert_allclose(sol.L, sol.M @ np.linalg.solve(Lam, A) / g**2, atol=1e-9)
        # cone bounds: Q <= M < gamma^2 I
        assert np.min(np.linalg.eigvalsh(sol.M - penalties.Q)) >= -1e-9
        assert np.max(np.linalg.eigvalsh(sol.M)) < g**2


def test_iterates_monotone_in_psd_order(models, penalties, gamma_stars):
    """Successive Riccati iterates from M=Q only ever move up the cone."""
    A, B = models.pair(2)
    g = 1.2 * gamma_stars[1]
    M = penalties.Q.copy()
    for _ in range(60):
        Lam = np.eye(3) + (B @ B.T - np.eye(3) / g**2) @ M
        M_next = penalties.Q + A.T @ M @ np.linalg.solve(Lam, A)
        M_next = 0.5 * (M_next + M_next.T)
        assert np.min(np.linalg.eigvalsh(M_next - M)) >= -1e-9
        np.testing.assert_allclose(M_next, M_next.T, atol=1e-12)
        M = M_next


def test_feasibility_monotone_in_gamma(models, penalties, gamma_stars):
    A, B = models.pair(2)
    g = gamma_stars[1]
    assert not mc.solve_riccati(A, B, penalties, 0.98 * g)
    for factor in (1.02, 1.3, 2.0, 10.0):
        assert mc.solve_riccati(A, B, penalties, factor * g)


def test_infeasible_is_falsy_with_reason(models, penalties):
    A, B = models.pair(1)
    res = mc.solve_riccati(A, B, penalties, 1.0)
    assert not res
    assert isinstance(res, hinf.Infeasible)
    assert res.reason


def test_gain_respects_its_level(models, penalties, gamma_stars):
    for i in range(1, 5):
        A, B = models.pair(i)
        g = 1.05 * gamma_stars[i - 1]
        sol = mc.solve_riccati(A, B, penalties, g)
        scan = mc.closed_loop_scan(A, B, sol.K, penalties)
        assert scan.peak_norm <= g + 1e-3


def test_high_gamma_recovers_lqr(models, penalties):
    """At gamma=1e6 the game gain collapses to the LQR gain."""
    from scipy.linalg import solve_discrete_are

    for i in range(1, 5):
        A, B = models.pair(i)
        sol = mc.solve_riccati(A, B, penalties, 1e6)
        P_ref = solve_discrete_are(A, B, penalties.Q, penalties.R)
        K_ref = np.linalg.solve(penalties.R + B.T @ P_ref @ B, B.T @ P_ref @ A)
        np.testing.assert_allclose(sol.K, K_ref, atol=1e-6)


def game_dare_feasible(A, B, penalties, gamma):
    """Independent verdict from scipy: the game Riccati equation as a DARE.

    The stacked input [u; w] has input matrix [B I] and indefinite weight
    diag(R, -gamma^2 I).  The level is feasible when the stabilizing
    solution exists with 0 < M < gamma^2 I.
    """
    from scipy.linalg import block_diag, solve_discrete_are

    n = A.shape[0]
    Bt = np.hstack([B, np.eye(n)])
    Rt = block_diag(penalties.R, -gamma ** 2 * np.eye(n))
    try:
        M = solve_discrete_are(A, Bt, penalties.Q, Rt)
    except (np.linalg.LinAlgError, ValueError):
        return False
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    if eigs[0] <= 0.0 or eigs[-1] >= gamma ** 2:
        return False
    gain = np.linalg.solve(Rt + Bt.T @ M @ Bt, Bt.T @ M @ A)
    return bool(np.max(np.abs(np.linalg.eigvals(A - Bt @ gain))) < 1.0)


def seeded_model_set(seed, n, m, F):
    """A_i = X + X' + 0.1 N and B_i = B0 + 0.1 N with X ~ U(0,1), B0 ~ U(0,2)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, n))
    A0 = X + X.T
    B0 = rng.uniform(0.0, 2.0, (n, m))
    pairs = []
    for _ in range(F):
        pairs.append((A0 + 0.1 * rng.standard_normal((n, n)),
                      B0 + 0.1 * rng.standard_normal((n, m))))
    return pairs


def test_feasibility_matches_game_dare_oracle():
    """Verdicts agree with scipy on open-loop unstable models over a grid.

    Model 4 of the seed-1006 draw at gamma 16 and 20 is the case where the
    doubling passes over the escaping iterates and converges to a
    stabilizing but indefinite solution: only the M > 0 check rejects it.
    """
    grid = np.concatenate([np.geomspace(1.5, 300.0, 24), [16.0, 20.0]])
    for seed, n, m, F in ((1006, 4, 1, 5), (1003, 4, 2, 6)):
        penalties = mc.Penalties(Q=np.eye(n), R=np.eye(m))
        for A, B in seeded_model_set(seed, n, m, F):
            assert np.max(np.abs(np.linalg.eigvals(A))) > 1.0
            for g in grid:
                expected = game_dare_feasible(A, B, penalties, g)
                assert bool(mc.solve_riccati(A, B, penalties, g)) == expected, (seed, g)


def test_bracket_error_when_nothing_feasible(penalties):
    A = np.diag([2.0, 2.0, 2.0])
    B = np.zeros((3, 1))
    with pytest.raises(mc.BracketError):
        mc.optimal_attenuation(A, B, penalties)


@pytest.mark.filterwarnings("error")
def test_unstabilizable_lqr_case_is_infeasible(penalties):
    # Diagonal expansion with no input authority cannot be stabilized; the
    # doubling diverges and must say so without numpy overflow warnings.
    sol = mc.solve_riccati(2.0 * np.eye(3), np.zeros((3, 1)), penalties, np.inf)
    assert not sol
    assert "diverged" in sol.reason


def test_scan_grid_properties(models, penalties, gamma_stars):
    A, B = models.pair(3)
    sol = mc.solve_riccati(A, B, penalties, 1.1 * gamma_stars[2])
    scan = mc.closed_loop_scan(A, B, sol.K, penalties)
    assert 0.0 <= scan.peak_omega <= np.pi
    # independent sigma_max of [Q^(1/2); R^(1/2) K] (zI - A + BK)^-1 on a coarse grid
    from scipy.linalg import sqrtm
    C = np.vstack([sqrtm(penalties.Q), sqrtm(penalties.R) @ sol.K])
    Acl = A - B @ sol.K
    coarse = [np.linalg.norm(C @ np.linalg.inv(np.exp(1j * w) * np.eye(3) - Acl), 2)
              for w in np.linspace(0.0, np.pi, 257)]
    assert scan.peak_norm >= max(coarse) * (1.0 - 1e-12)


def test_scan_refines_a_peak_between_grid_points():
    """A = 0.97 rot(0.7), K = 0: the response (zI - A)^-1 of a normal A peaks
    at 1/(1 - 0.97) exactly at omega = 0.7.  The nearest grid point is
    6.0e-5 low (relative), so only the golden-section refinement passes."""
    c, s = np.cos(0.7), np.sin(0.7)
    A = 0.97 * np.array([[c, -s], [s, c]])
    B = np.array([[0.0], [1.0]])
    p = mc.Penalties(Q=np.eye(2), R=np.eye(1))
    scan = mc.closed_loop_scan(A, B, np.zeros((1, 2)), p)
    assert scan.peak_norm == pytest.approx(1.0 / (1.0 - 0.97), rel=1e-12)
    assert scan.peak_omega == pytest.approx(0.7, abs=1e-6)


def test_attenuation_is_deterministic(models, penalties):
    A, B = models.pair(4)
    first = mc.optimal_attenuation(A, B, penalties)
    second = mc.optimal_attenuation(A, B, penalties)
    assert first == second


@settings(max_examples=10, deadline=None)
@given(
    a=st.floats(-0.9, 0.9, allow_nan=False),
    b=st.floats(0.2, 2.0, allow_nan=False),
)
def test_scalar_bisection_brackets_the_level(a, b):
    """gamma* separates infeasible from feasible, and the gain honors it."""
    A, B = np.array([[a]]), np.array([[b]])
    p = scalar_penalties()
    g = mc.optimal_attenuation(A, B, p)
    assert g >= 1.0  # never below sqrt(max eig Q)
    assert mc.solve_riccati(A, B, p, 1.05 * g)
    if 0.95 * g > 1.0:
        assert not mc.solve_riccati(A, B, p, 0.95 * g)
    sol = mc.solve_riccati(A, B, p, 1.05 * g)
    scan = mc.closed_loop_scan(A, B, sol.K, p)
    assert scan.peak_norm <= 1.05 * g + 1e-3


class Probe:
    """Fake probe accepting every level at or above `threshold`; logs calls."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.levels = []

    def __call__(self, level):
        self.levels.append(level)
        if level >= self.threshold:
            return ("accepted", level)
        return hinf.Infeasible(f"rejected {level:g}")


def test_level_search_doubles_then_bisects():
    probe = Probe(threshold=10.0)
    level, result = hinf._level_search(probe, np.eye(1), 1e-4)  # lo 1, hi 2
    assert probe.levels[:4] == [2.0, 4.0, 8.0, 16.0]
    assert all(g < 16.0 for g in probe.levels[4:])
    assert result == ("accepted", level)
    assert 10.0 <= level and level - 10.0 <= 1e-4 * level


def test_level_search_last_probe_is_gamma_max():
    probe = Probe(threshold=hinf.GAMMA_MAX)
    level, _ = hinf._level_search(probe, 2.25 * np.eye(1), 1e-4)  # lo 1.5, hi 3
    doubling = [3.0 * 2.0 ** k for k in range(19)]
    assert probe.levels[:20] == doubling + [hinf.GAMMA_MAX]
    assert level == hinf.GAMMA_MAX


def test_level_search_raises_with_last_reason():
    probe = Probe(threshold=np.inf)
    with pytest.raises(mc.BracketError, match=r"rejected 1e\+06"):
        hinf._level_search(probe, 2.25 * np.eye(1), 1e-4)
    assert probe.levels[-1] == hinf.GAMMA_MAX
    assert len(probe.levels) == 20


def test_one_dimensional_b_is_a_shape_error(models, penalties):
    A, B = models.pair(1)
    with pytest.raises(ValueError, match="B must be"):
        mc.solve_riccati(A, B[:, 0], penalties, 10.0)


def test_level_search_first_probe_is_clamped_to_gamma_max():
    probe = Probe(threshold=0.8 * hinf.GAMMA_MAX)
    lo = 0.7 * hinf.GAMMA_MAX
    level, _ = hinf._level_search(probe, np.array([[lo ** 2]]), 1e-4)
    assert probe.levels[0] == hinf.GAMMA_MAX  # not 2 lo
    assert all(lo < g <= hinf.GAMMA_MAX for g in probe.levels)
    assert 0.8 * hinf.GAMMA_MAX <= level <= hinf.GAMMA_MAX


def test_level_search_with_lo_at_gamma_max_probes_nothing():
    probe = Probe(threshold=0.0)
    with pytest.raises(mc.BracketError, match="is not below it"):
        hinf._level_search(probe, np.array([[hinf.GAMMA_MAX ** 2]]), 1e-4)
    assert probe.levels == []


def stack_of(pairs):
    return (np.stack([A for A, _ in pairs]), np.stack([B for _, B in pairs]))


def doubling_reference(A, B, penalties, gamma):
    """The doubling for one model in 2-D arrays, as `solve_riccati` ran
    before it took stacks: the reference for bit-for-bit equality.

    Returns (M, K, L, iterations) as bytes and int, or the failure reason
    without its level.
    """
    Q, R = penalties.Q, penalties.R
    n = A.shape[0]
    eye = np.eye(n)
    ginv2 = gamma ** -2

    def pd(S, margin):
        try:
            np.linalg.cholesky(S - margin * eye)
            return True
        except np.linalg.LinAlgError:
            return False

    with np.errstate(over="ignore", invalid="ignore"):
        G = B @ np.linalg.solve(R, B.T) - ginv2 * eye
        Ak, Gk, M = A, G, Q
        for it in range(1, hinf.RICCATI_BUDGET + 1):
            if not pd(eye - ginv2 * M, hinf.FEAS_MARGIN):
                return f"I - gamma^-2 M lost positive definiteness at doubling {it - 1}"
            X = np.linalg.solve(eye + Gk @ M, np.hstack([Ak, Gk]))
            step = Ak.T @ M @ X[:, :n]
            step = 0.5 * (step + step.T)
            M = M + step
            Gk = Gk + Ak @ X[:, n:] @ Ak.T
            Gk = 0.5 * (Gk + Gk.T)
            Ak = Ak @ X[:, :n]
            delta = float(np.max(np.abs(step)))
            if not np.isfinite(delta):
                return f"Riccati iterates diverged at doubling {it}"
            if delta <= hinf.RICCATI_TOL * max(1.0, float(np.max(np.abs(M)))):
                break
        else:
            return f"Riccati doubling did not converge in {hinf.RICCATI_BUDGET} steps"
        if not pd(eye - ginv2 * M, hinf.FEAS_MARGIN):
            return "converged M violates M < gamma^2 I"
        if not pd(M, 0.0):
            return "converged M is not positive definite"
        X = np.linalg.solve(eye + G @ M, A)
        if float(np.max(np.abs(np.linalg.eigvals(X)))) >= 1.0:
            return "converged M is not stabilizing"
        MX = M @ X
        K = np.linalg.solve(R, B.T @ MX)
        return M.tobytes(), K.tobytes(), (ginv2 * MX).tobytes(), it


def as_reference(result):
    """A solve's result in `doubling_reference`'s terms."""
    if not result:
        return result.reason.split(" (gamma")[0]
    return (result.M.tobytes(), result.K.tobytes(), result.L.tobytes(),
            result.iterations)


def assert_stack_matches_members(A, B, penalties, gamma):
    """Each entry of the stacked solve is, bit for bit, the member's own
    solve and the 2-D reference's result."""
    stack = hinf._solve_stack(A, B, penalties, gamma)
    assert len(stack) == len(A)
    for i, got in enumerate(stack):
        ref = mc.solve_riccati(A[i], B[i], penalties, gamma)
        assert type(got) is type(ref), (gamma, i)
        if not ref:
            assert got.reason == ref.reason
        assert as_reference(got) == as_reference(ref) \
            == doubling_reference(A[i], B[i], penalties, gamma), (gamma, i)
    return stack


def verdict(result):
    """'ok after k doublings' or the failure reason without the level."""
    if result:
        return f"ok after {result.iterations} doublings"
    return result.reason.split(" (gamma")[0]


@pytest.mark.parametrize("draw", [None, (1001, 2, 1, 8), (1009, 4, 2, 8)],
                         ids=["shipped", "draw1001", "draw1009"])
def test_stacked_solve_matches_member_solves(models, penalties, draw):
    if draw is None:
        A, B, p = models.A, models.B, penalties
    else:
        seed, n, m, F = draw
        A, B = stack_of(seeded_model_set(seed, n, m, F))
        p = mc.Penalties(Q=np.eye(n), R=np.eye(m))
    split = 0
    for g in np.geomspace(1.0001, hinf.GAMMA_MAX, 40):
        results = assert_stack_matches_members(A, B, p, g)
        split += len({verdict(r) for r in results}) > 1
    assert split >= 2  # members leave the stack at different doublings


def test_stacked_solve_with_members_leaving_at_different_doublings():
    """Members converge after 7, 8 and 9 doublings while others lose
    I - gamma^-2 M > 0 at doublings 3, 5 and 44, exhaust the budget or
    converge to an indefinite M; at gamma = inf one diverges."""
    pairs = seeded_model_set(1006, 4, 1, 5)
    A, B = stack_of(pairs)
    p = mc.Penalties(Q=np.eye(4), R=np.eye(1))
    seen = set()
    for g in (8.0, 16.0, 20.0):
        seen |= {verdict(r) for r in assert_stack_matches_members(A, B, p, g)}
    lost = "I - gamma^-2 M lost positive definiteness at doubling"
    assert seen == {
        "ok after 7 doublings", "ok after 8 doublings", "ok after 9 doublings",
        f"{lost} 3", f"{lost} 5", f"{lost} 44",
        "Riccati doubling did not converge in 64 steps",
        "converged M is not positive definite",
    }

    A, B = stack_of(pairs[:2] + [(2.0 * np.eye(4), np.zeros((4, 1)))] + pairs[2:])
    results = assert_stack_matches_members(A, B, p, np.inf)
    assert [bool(r) for r in results] == [True, True, False, True, True, True]
    assert results[2].reason.startswith("Riccati iterates diverged")


def test_stacked_linalg_retests_members_one_by_one():
    """A failing member makes the stacked numpy call raise; the fallback
    finds exactly the failing positions and solves the others alike."""
    S = np.stack([np.eye(2), -np.eye(2), np.diag([1.0, 0.0]), 2.0 * np.eye(2)])
    assert hinf._stacked(np.linalg.cholesky, S)[1] == [1, 2]
    assert hinf._stacked(np.linalg.cholesky, S[:1])[1] == []
    assert hinf._stacked(np.linalg.cholesky, S[1:2]) == (None, [0])
    rhs = np.arange(16.0).reshape(4, 2, 2)
    X, failed = hinf._stacked(np.linalg.solve, S, rhs)
    assert failed == [2]
    for row, k in zip(X, (0, 1, 3)):
        assert row.tobytes() == np.linalg.solve(S[k], rhs[k]).tobytes()
    assert hinf._stacked(np.linalg.solve, S[2:3], rhs[2:3]) == (None, [0])
