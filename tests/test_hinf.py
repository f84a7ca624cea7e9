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
        assert scan.peak_norm < g


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
    doubling passes over the escaping iterates and, without the exit on a
    falling iterate, converges to a stabilizing but indefinite solution.
    """
    grid = np.concatenate([np.geomspace(1.5, 300.0, 24), [16.0, 20.0]])
    for seed, n, m, F in ((1006, 4, 1, 5), (1003, 4, 2, 6)):
        penalties = mc.Penalties(Q=np.eye(n), R=np.eye(m))
        for A, B in seeded_model_set(seed, n, m, F):
            assert np.max(np.abs(np.linalg.eigvals(A))) > 1.0
            for g in grid:
                expected = game_dare_feasible(A, B, penalties, g)
                assert bool(mc.solve_riccati(A, B, penalties, g)) == expected, (seed, g)


def test_bracket_error_when_nothing_feasible(models, penalties):
    A = np.diag([2.0, 2.0, 2.0])
    B = np.zeros((3, 1))
    with pytest.raises(mc.BracketError):
        mc.optimal_attenuation(A, B, penalties)
    # beside a stabilizable model, the table raises with this model's reason
    with pytest.raises(mc.BracketError, match=r"fell at doubling 5 \(gamma=1e\+06\)\)$"):
        hinf.gamma_stars(np.stack([models.A[0], A]), np.stack([models.B[0], B]), penalties)


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


GRID_SIZE = 4096


def golden_max(fun, lo, hi, tol=1e-12, max_iter=200):
    """Golden-section maximization of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    if fc >= fd:
        return c, fc
    return d, fd


def frequency_response(A, B, K, p):
    """The map omega -> [Q^(1/2); R^(1/2) K] (e^(j omega) I - A + B K)^-1,
    one response per entry of omega: what `whole_grid_scan` samples."""
    Acl, eye = A - B @ K, np.eye(A.shape[0])
    C = np.vstack([sqrtm_psd(p.Q), sqrtm_psd(p.R) @ K])

    def response(omega):
        z = np.exp(1j * np.asarray(omega))[..., None, None] * eye - Acl
        return C @ np.linalg.solve(z, np.broadcast_to(eye, z.shape))
    return response


def sqrtm_psd(M):
    d, V = np.linalg.eigh(M)
    return (V * np.sqrt(np.maximum(d, 0.0))) @ V.T


def whole_grid_scan(response):
    """The peak of GRID_SIZE uniform frequencies over [0, pi], each with an
    SVD, refined by golden section between its grid neighbours, the refined
    sample replacing it only when larger by 1e-12 (relative): the grid scan
    that the level-set scan must never fall below."""
    omegas = np.linspace(0.0, np.pi, GRID_SIZE)
    norms = np.linalg.svd(response(omegas), compute_uv=False)[:, 0]
    ipk = int(np.argmax(norms))
    peak_omega, peak_norm = float(omegas[ipk]), float(norms[ipk])
    lo = float(omegas[max(ipk - 1, 0)])
    hi = float(omegas[min(ipk + 1, GRID_SIZE - 1)])
    w_ref, s_ref = golden_max(
        lambda w: float(np.linalg.svd(response(w), compute_uv=False)[0]), lo, hi)
    if s_ref > peak_norm * (1.0 + 1e-12):
        peak_omega, peak_norm = float(w_ref), float(s_ref)
    return peak_omega, peak_norm


def random_stable_loops(count, seed):
    """(A, B, K, penalties) of `count` loops with n 2-4, m 1-2 and A - BK of
    spectral radius 0.5-0.9995; every second one has K != 0."""
    rng = np.random.default_rng(seed)
    loops = []
    for k in range(count):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        Acl = rng.standard_normal((n, n))
        Acl *= rng.uniform(0.5, 0.9995) / np.max(np.abs(np.linalg.eigvals(Acl)))
        B = rng.standard_normal((n, m))
        K = rng.standard_normal((m, n)) if k % 2 else np.zeros((m, n))
        loops.append((Acl + B @ K, B, K, mc.Penalties(Q=np.eye(n), R=np.eye(m))))
    return loops


def scan_families(models, penalties):
    """(A, B, K, penalties) of every system the scan is checked on: each
    shipped model's design at gamma_bar, 2 gamma_bar, 1e3 and inf (LQR),
    each draw's models at inf and 50 where feasible, a flat response
    (A = 0), a normal A peaking between grid points, A = diag(0.6, -0.6),
    which peaks at both ends of the grid, and 100 `random_stable_loops`."""
    gamma_bar = 143.15347290039062  # test_minimax_cert.py::GAMMA_BAR_PIN
    cases = [(A, B, sol.K, penalties)
             for level in (gamma_bar, 2.0 * gamma_bar, 1e3, np.inf)
             for A, B in (models.pair(j) for j in range(1, models.size + 1))
             if (sol := mc.solve_riccati(A, B, penalties, level))]
    for seed, n, m, F in DRAWS:
        p = mc.Penalties(Q=np.eye(n), R=np.eye(m))
        cases += [(A, B, sol.K, p) for A, B in seeded_model_set(seed, n, m, F)
                  for level in (np.inf, 50.0) if (sol := mc.solve_riccati(A, B, p, level))]
    c, s = np.cos(0.7), np.sin(0.7)
    p = mc.Penalties(Q=np.eye(2), R=np.eye(1))
    B, K = np.array([[0.0], [1.0]]), np.zeros((1, 2))
    cases += [(np.zeros((2, 2)), B, K, p),
              (0.97 * np.array([[c, -s], [s, c]]), B, K, p),
              (np.diag([0.6, -0.6]), B, K, p)]
    return cases + random_stable_loops(100, seed=36)


def test_scan_matches_whole_grid_reference(models, penalties):
    """On every family of `scan_families`, closed_loop_scan's peak_norm is
    within 1e-9 (relative) of `whole_grid_scan`'s and never below it by more
    than 2e-10, and it is the SVD of the scan's peak_response bit for bit,
    the response at peak_omega."""
    cases = scan_families(models, penalties)
    assert len(cases) > 200
    for A, B, K, p in cases:
        scan = mc.closed_loop_scan(A, B, K, p)
        response = frequency_response(A, B, K, p)
        _, reference = whole_grid_scan(response)
        np.testing.assert_allclose(scan.peak_response, response(scan.peak_omega),
                                   rtol=1e-12, atol=1e-12 * scan.peak_norm)
        assert abs(scan.peak_norm - reference) <= 1e-9 * reference
        assert scan.peak_norm >= reference * (1.0 - 2e-10)
        assert 0.0 <= scan.peak_omega <= np.pi
        assert scan.peak_norm == np.linalg.svd(scan.peak_response, compute_uv=False)[0]


def test_all_pass_peaks_at_omega_zero():
    """A = 0, K = 0: the response [I; 0] / z has sigma_max 1 at every
    frequency, so the tie rule reports the lowest, omega = 0, where the
    value is exactly 1."""
    B, K = np.array([[0.0], [1.0]]), np.zeros((1, 2))
    scan = mc.closed_loop_scan(np.zeros((2, 2)), B, K, mc.Penalties(Q=np.eye(2), R=np.eye(1)))
    assert (scan.peak_omega, scan.peak_norm) == (0.0, 1.0)


def test_scan_finds_a_resonance_between_grid_points():
    """A = diag(0.9997, (1 - 1e-6) rot(theta)), K = 0: a pole pair of radius
    1 - 1e-6 halfway between two points of the 4096-point grid, beside a
    broad peak 1/(1 - 0.9997) at omega = 0.  The resonance peaks near 1e6
    at theta, where a grid scan reads only the broad peak."""
    theta = 1000.5 * np.pi / (GRID_SIZE - 1)
    c, s = np.cos(theta), np.sin(theta)
    A = np.zeros((3, 3))
    A[0, 0] = 0.9997
    A[1:, 1:] = (1.0 - 1e-6) * np.array([[c, -s], [s, c]])
    scan = mc.closed_loop_scan(A, np.zeros((3, 1)), np.zeros((1, 3)),
                               mc.Penalties(Q=np.eye(3), R=np.eye(1)))
    assert scan.peak_norm >= 0.999e6
    assert abs(scan.peak_omega - theta) <= 1e-6


def test_scan_refines_a_peak_between_grid_points():
    """A = 0.97 rot(0.7), K = 0: the response (zI - A)^-1 of a normal A peaks
    at 1/(1 - 0.97) exactly at omega = 0.7, where the nearest point of a
    4096-point grid is 6.0e-5 low (relative)."""
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
    assert scan.peak_norm < 1.05 * g


class Probe:
    """Fake probe over k brackets: bracket i accepts every level at or above
    thresholds[i].  Logs each call's (levels, members) in `calls` and, in
    `consumed`, the (bracket, level) of each result the search asks for."""

    def __init__(self, *thresholds):
        self.thresholds = thresholds
        self.calls = []
        self.consumed = []

    def __call__(self, levels, members):
        levels, members = list(levels), list(members)
        self.calls.append((levels, members))

        def result_at(j):
            g, i = levels[j], members[j]
            self.consumed.append((i, g))
            if g >= self.thresholds[i]:
                return ("accepted", i, g)
            return hinf.Infeasible(f"bracket {i} rejected {g:g}")

        return result_at

    def levels_of(self, i):
        """The levels of bracket i whose results the search consumed, in order."""
        return [g for j, g in self.consumed if j == i]

    @property
    def levels(self):
        return self.levels_of(0)


def test_level_search_doubles_then_bisects():
    probe = Probe(10.0)
    (level,), (result,) = hinf._level_search(probe, 1, np.eye(1), 1e-4)  # lo 1, hi 2
    assert probe.levels[:4] == [2.0, 4.0, 8.0, 16.0]
    assert all(g < 16.0 for g in probe.levels[4:])
    assert result == ("accepted", 0, level)
    assert 10.0 <= level and level - 10.0 <= 1e-4 * level


def test_level_search_last_probe_is_gamma_max():
    probe = Probe(hinf.GAMMA_MAX)
    (level,), _ = hinf._level_search(probe, 1, 2.25 * np.eye(1), 1e-4)  # lo 1.5, hi 3
    doubling = [3.0 * 2.0 ** k for k in range(19)]
    assert probe.levels[:20] == doubling + [hinf.GAMMA_MAX]
    assert level == hinf.GAMMA_MAX


def test_level_search_raises_with_last_reason():
    probe = Probe(np.inf)
    with pytest.raises(mc.BracketError, match=r"rejected 1e\+06"):
        hinf._level_search(probe, 1, 2.25 * np.eye(1), 1e-4)
    assert probe.levels[-1] == hinf.GAMMA_MAX
    assert len(probe.levels) == 20


def test_level_search_runs_brackets_in_lockstep():
    """Three brackets: one accepted near 10, one never accepted, one clamped
    at GAMMA_MAX.  Each call probes the next SEARCH_DEPTH rounds of the
    unfinished ones, each consuming the levels of its search alone, and the
    never-accepted one raises with its own last reason."""
    probe = Probe(10.0, np.inf, hinf.GAMMA_MAX)
    with pytest.raises(mc.BracketError, match=r"bracket 1 rejected 1e\+06"):
        hinf._level_search(probe, 3, np.eye(1), 1e-4)
    for levels, members in probe.calls:
        assert members == sorted(members) and len(levels) == len(members)
    doubling = [2.0 ** k for k in range(1, 20)] + [hinf.GAMMA_MAX]
    depth = hinf.SEARCH_DEPTH
    rounds = -(-len(doubling) // depth)  # 20 sequential rounds, depth per call
    assert len(probe.calls) == rounds
    assert probe.calls[0] == (doubling[:depth] * 3, [0] * depth + [1] * depth + [2] * depth)
    tail = doubling[(rounds - 1) * depth:]  # bracket 0 may still bisect before it
    levels, members = probe.calls[-1]
    assert levels[-2 * len(tail):] == tail * 2
    assert members[-2 * len(tail):] == [1] * len(tail) + [2] * len(tail)

    alone = Probe(10.0)
    (level,), _ = hinf._level_search(alone, 1, np.eye(1), 1e-4)
    assert probe.levels_of(0) == alone.levels  # finished before the raise
    assert 10.0 <= level and level - 10.0 <= 1e-4 * level
    assert probe.levels_of(1) == doubling
    # bracket 1 raised before bracket 2 asked for the results of the last call
    assert probe.levels_of(2) == doubling[:(rounds - 1) * depth]

    # without the never-accepted bracket the other two return
    probe = Probe(10.0, hinf.GAMMA_MAX)
    levels, results = hinf._level_search(probe, 2, np.eye(1), 1e-4)
    assert levels == [level, hinf.GAMMA_MAX]
    assert results == [("accepted", 0, level), ("accepted", 1, hinf.GAMMA_MAX)]
    assert probe.levels_of(0) == alone.levels


def test_one_dimensional_b_is_a_shape_error(models, penalties):
    A, B = models.pair(1)
    with pytest.raises(ValueError, match="B must be"):
        mc.solve_riccati(A, B[:, 0], penalties, 10.0)


@pytest.mark.parametrize("cols, Q, R, gamma, reason", [
    (2, np.eye(3), np.eye(1), 10.0, r"A must be square, got \(3, 2\)"),
    (3, np.eye(2), np.eye(1), 10.0, r"Q must be 3 x 3, got \(2, 2\)"),
    (3, np.eye(3), np.eye(2), 10.0, r"R must be 1 x 1, got \(2, 2\)"),
    (3, np.eye(3), np.eye(1), 0.0, "gamma must be positive"),
    (3, np.eye(3), np.eye(1), -1.0, "gamma must be positive"),
], ids=["A-not-square", "Q-size", "R-size", "gamma-zero", "gamma-negative"])
def test_structural_problems_raise(models, cols, Q, R, gamma, reason):
    A, B = models.pair(1)
    with pytest.raises(ValueError, match=reason):
        mc.solve_riccati(A[:, :cols], B, mc.Penalties(Q=Q, R=R), gamma)


@pytest.mark.parametrize("A, K, reason", [
    (0.5 * np.eye(3), np.zeros((3, 1)), r"K must be 1 x 3, got \(3, 1\)"),
    (2.0 * np.eye(3), np.zeros((1, 3)), r"Schur stable \(spectral radius 2\)"),
], ids=["K-shape", "unstable"])
def test_scan_rejects(penalties, A, K, reason):
    with pytest.raises(ValueError, match=reason):
        mc.closed_loop_scan(A, np.ones((3, 1)), K, penalties)


def test_level_search_first_probe_is_clamped_to_gamma_max():
    probe = Probe(0.8 * hinf.GAMMA_MAX)
    lo = 0.7 * hinf.GAMMA_MAX
    (level,), _ = hinf._level_search(probe, 1, np.array([[lo ** 2]]), 1e-4)
    assert probe.levels[0] == hinf.GAMMA_MAX  # not 2 lo
    assert all(lo < g <= hinf.GAMMA_MAX for g in probe.levels)
    assert 0.8 * hinf.GAMMA_MAX <= level <= hinf.GAMMA_MAX


def test_level_search_with_lo_at_gamma_max_probes_nothing():
    probe = Probe(0.0)
    with pytest.raises(mc.BracketError, match="is not below it"):
        hinf._level_search(probe, 1, np.array([[hinf.GAMMA_MAX ** 2]]), 1e-4)
    assert probe.calls == [] and probe.levels == []


def level_search_reference(probe, k, Q, rel_tol):
    """Each of k brackets searched alone, doubling then bisection, asking
    `probe` for one level at a time, as `_level_search` ran before it took
    brackets in lockstep: the reference for its levels, results and errors.

    Returns, per bracket, (level, result) or its BracketError message.
    """
    lo0 = float(np.sqrt(np.max(np.linalg.eigvalsh(Q))))
    outcomes = []
    for i in range(k):
        def at(level):
            return probe([level], [i])(0)

        lo, hi = lo0, min(max(2.0 * lo0, 1.0), hinf.GAMMA_MAX)
        result = at(hi)
        while not result and hi < hinf.GAMMA_MAX:
            hi = min(2.0 * hi, hinf.GAMMA_MAX)
            result = at(hi)
        if not result:
            outcomes.append(f"no feasible level up to {hinf.GAMMA_MAX:.3g} "
                            f"(last reason: {result.reason})")
            continue
        while hi - lo > rel_tol * hi:
            mid = 0.5 * (lo + hi)
            if mid_result := at(mid):
                hi, result = mid, mid_result
            else:
                lo = mid
        outcomes.append((hi, result))
    return outcomes


@st.composite
def brackets(draw):
    """(lo, thresholds): lo = sqrt(max eig Q) and 1-4 thresholds, each never
    accepted, exactly GAMMA_MAX, just above lo, below lo or in between."""
    lo = draw(st.sampled_from([0.3, 1.0, 1.5, 0.7 * hinf.GAMMA_MAX])
              | st.floats(1e-3, 1e3))
    threshold = st.one_of(
        st.sampled_from([np.inf, hinf.GAMMA_MAX, 0.5 * lo]),
        st.sampled_from([1e-15, 1e-9, 1e-5, 1e-4, 1e-3]).map(lambda r: lo * (1.0 + r)),
        st.floats(np.log(lo), np.log(2.0 * hinf.GAMMA_MAX)).map(np.exp),
    )
    return lo, draw(st.lists(threshold, min_size=1, max_size=4))


def sequential_path(lo, threshold, rel_tol, flip=None):
    """The levels one bracket's search alone probes, from lo against
    `threshold`, with the verdict at position `flip` of its path inverted."""
    probed = []

    def probe(levels, members):
        def result_at(j):
            probed.append(levels[0])
            if (levels[0] >= threshold) != (len(probed) - 1 == flip):
                return True
            return hinf.Infeasible("rejected")
        return result_at

    level_search_reference(probe, 1, np.array([[lo ** 2]]), rel_tol)
    return probed


@st.composite
def first_plan(draw, lo, threshold, rel_tol):
    """A first-round plan for one bracket: none, its exact path, the path
    after one flipped verdict, levels of its doubling ladder and bisection
    tree, or levels that no search probes (lo, below lo, above GAMMA_MAX)."""
    path = sequential_path(lo, threshold, rel_tol)
    kind = draw(st.sampled_from(["none", "exact", "flipped", "tree", "off-path"]))
    if kind == "none":
        return []
    if kind == "exact":
        return path
    if kind == "flipped":
        return sequential_path(lo, threshold, rel_tol, draw(st.integers(0, len(path) - 1)))
    if kind == "tree":
        hi = min(max(2.0 * lo, 1.0), hinf.GAMMA_MAX)
        tree = hinf._plan(lo, hi, False, rel_tol, 20) + hinf._plan(lo, path[-1], True, rel_tol, 5)
        return draw(st.lists(st.sampled_from(tree), min_size=1, max_size=20))
    return draw(st.lists(st.sampled_from([0.5 * lo, lo, 2.0 * hinf.GAMMA_MAX]), min_size=1))


def search_outcome(probe, k, Q, rel_tol, first=None):
    """`_level_search`'s (level, result) per bracket, or its error text."""
    try:
        return list(zip(*hinf._level_search(probe, k, Q, rel_tol, first)))
    except mc.BracketError as error:
        return str(error)


@settings(max_examples=100, deadline=None)
@given(case=brackets(), rel_tol=st.sampled_from([1e-4, 1e-5]), data=st.data())
def test_level_search_replays_the_sequential_search(case, rel_tol, data):
    """Same levels, results and error text as each bracket's search alone,
    with every probe call covering up to SEARCH_DEPTH rounds, whatever first
    round plan each bracket has (`first_plan`); with every bracket's exact
    path as its plan, in one probe call."""
    lo, thresholds = case
    k, Q = len(thresholds), np.array([[lo ** 2]])
    alone = Probe(*thresholds)
    outcomes = level_search_reference(alone, k, Q, rel_tol)
    errors = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, str)]
    plans = [data.draw(first_plan(lo, t, rel_tol)) for t in thresholds]
    exact = [alone.levels_of(i) for i in range(k)]
    rounds = max(len(path) for path in exact)
    for first in (None, plans, exact):
        probe = Probe(*thresholds)
        outcome = search_outcome(probe, k, Q, rel_tol, first)
        if errors:
            assert outcome == outcomes[errors[0]]
            assert probe.levels_of(errors[0]) == alone.levels_of(errors[0])
        else:
            assert outcome == outcomes
        for i in range(k):
            consumed = probe.levels_of(i)
            assert consumed == alone.levels_of(i)[:len(consumed)]
            if not errors:
                assert consumed == alone.levels_of(i)
        assert len(probe.calls) <= rounds + (first is not None)  # a first plan may miss
    assert len(probe.calls) == 1


def stack_of(pairs):
    return (np.stack([A for A, _ in pairs]), np.stack([B for _, B in pairs]))


def doubling_reference(A, B, penalties, gamma, fall_exit=True, pd_test="cholesky"):
    """The doubling for one model in 2-D arrays, as `solve_riccati` ran
    before it took stacks: the reference for bit-for-bit equality.  With
    fall_exit=False it runs without the exit on a falling iterate, as
    `solve_riccati` ran before it had one.  Each positive definiteness test
    is a Cholesky factorization, or with pd_test="eigvalsh" a positive
    least eigenvalue.

    Returns (M, K, L, iterations) as bytes and int, or the failure reason
    without its level.
    """
    Q, R = penalties.Q, penalties.R
    n = A.shape[0]
    eye = np.eye(n)
    ginv2 = gamma ** -2

    def pd(S, margin):
        if pd_test == "eigvalsh":
            return bool(np.linalg.eigvalsh(S - margin * eye)[0] > 0.0)
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
            tol = hinf.RICCATI_TOL * max(1.0, float(np.max(np.abs(M))))
            if not np.isfinite(delta):
                return f"Riccati iterates diverged at doubling {it}"
            if fall_exit and float(np.min(np.diag(step))) < -tol:
                return f"Riccati iterates fell at doubling {it}"
            if delta <= tol:
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


def assert_stack_matches_members(A, B, penalties, levels):
    """Each entry of the stacked solve, member i at levels[i], is bit for bit
    the member's own solve at that level and the 2-D reference's result."""
    stack = hinf._solve_stack(A, B, penalties, levels)
    assert len(stack) == len(A)
    for i, (got, gamma) in enumerate(zip(stack, levels)):
        ref = mc.solve_riccati(A[i], B[i], penalties, gamma)
        assert type(got) is type(ref), (gamma, i)
        if not ref:
            assert got.reason == ref.reason
            assert got.reason.endswith(f" (gamma={gamma:.6g})")
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
    grid = np.geomspace(1.0001, hinf.GAMMA_MAX, 40)
    split = mixed = 0
    for j, g in enumerate(grid):
        results = assert_stack_matches_members(A, B, p, [g] * len(A))
        split += len({verdict(r) for r in results}) > 1
        # each member at its own level: member i at grid point j + 5 i
        levels = [grid[(j + 5 * i) % len(grid)] for i in range(len(A))]
        results = assert_stack_matches_members(A, B, p, levels)
        mixed += len({bool(r) for r in results}) > 1
    assert split >= 2  # members leave the stack at different doublings
    assert mixed >= 10  # feasible and infeasible members share a stack


def bisection_reference(A, B, penalties):
    """gamma* by a scalar doubling-then-bisection over `solve_riccati`, as
    `optimal_attenuation` ran before the level search took brackets in
    lockstep: the reference for bit-for-bit equality."""
    lo = float(np.sqrt(np.max(np.linalg.eigvalsh(penalties.Q))))
    hi = min(max(2.0 * lo, 1.0), hinf.GAMMA_MAX)
    while not mc.solve_riccati(A, B, penalties, hi):
        assert hi < hinf.GAMMA_MAX
        hi = min(2.0 * hi, hinf.GAMMA_MAX)
    while hi - lo > hinf.BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mc.solve_riccati(A, B, penalties, mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("draw", [None, (1001, 2, 1, 8), (1006, 4, 1, 5), (1009, 4, 2, 8)],
                         ids=["shipped", "draw1001", "draw1006", "draw1009"])
def test_gamma_stars_match_one_model_searches(models, penalties, draw):
    """The lockstep table is, bit for bit, each model's own search."""
    if draw is None:
        A, B, p = models.A, models.B, penalties
    else:
        seed, n, m, F = draw
        A, B = stack_of(seeded_model_set(seed, n, m, F))
        p = mc.Penalties(Q=np.eye(n), R=np.eye(m))
    stars = hinf.gamma_stars(A, B, p)
    assert stars == [mc.optimal_attenuation(A[i], B[i], p) for i in range(len(A))]
    assert stars == [bisection_reference(A[i], B[i], p) for i in range(len(A))]


def test_stacked_solve_with_members_leaving_at_different_doublings():
    """Members converge after 7, 8 and 9 doublings while others lose
    I - gamma^-2 M > 0 at doublings 3 and 5 or fall at doublings 4 and 5;
    at gamma = inf one diverges."""
    pairs = seeded_model_set(1006, 4, 1, 5)
    A, B = stack_of(pairs)
    p = mc.Penalties(Q=np.eye(4), R=np.eye(1))
    seen = set()
    for g in (8.0, 16.0, 20.0):
        seen |= {verdict(r) for r in assert_stack_matches_members(A, B, p, [g] * len(A))}
    lost = "I - gamma^-2 M lost positive definiteness at doubling"
    assert seen == {
        "ok after 7 doublings", "ok after 8 doublings", "ok after 9 doublings",
        f"{lost} 3", f"{lost} 5",
        "Riccati iterates fell at doubling 4", "Riccati iterates fell at doubling 5",
    }

    A, B = stack_of(pairs[:2] + [(2.0 * np.eye(4), np.zeros((4, 1)))] + pairs[2:])
    results = assert_stack_matches_members(A, B, p, [np.inf] * len(A))
    assert [bool(r) for r in results] == [True, True, False, True, True, True]
    assert results[2].reason.startswith("Riccati iterates diverged")


def test_stacked_linalg_retests_members_one_by_one():
    """A singular member makes the stacked solve raise; the fallback masks
    exactly the failing members, gives them NaN rows and solves the others
    alike."""
    S = np.stack([np.eye(2), -np.eye(2), np.diag([1.0, 0.0]), 2.0 * np.eye(2)])
    rhs = np.arange(16.0).reshape(4, 2, 2)
    X, singular = hinf._stacked_solve(S, rhs)
    assert singular.tolist() == [False, False, True, False]
    assert np.isnan(X[2]).all()
    for k in (0, 1, 3):
        assert X[k].tobytes() == np.linalg.solve(S[k], rhs[k]).tobytes()
    X, singular = hinf._stacked_solve(S[2:3], rhs[2:3])
    assert singular.tolist() == [True] and np.isnan(X).all()
    X, singular = hinf._stacked_solve(S[:2], rhs[:2])
    assert not singular.any() and X.tobytes() == np.linalg.solve(S[:2], rhs[:2]).tobytes()


def test_pd_is_one_cholesky_unless_a_member_fails(monkeypatch):
    """Every member positive definite: one stacked Cholesky answers numpy's
    True, and no eigvalsh runs.  One member fails: the mask is the stacked
    eigvalsh's.  A member that went non-finite, replaced by I as
    `_solve_stack` does, passes beside the others."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(S):
        calls.append(len(S))
        return eigvalsh(S)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    X = np.random.default_rng(0).standard_normal((5, 3, 3))
    S = X @ X.swapaxes(1, 2) + 1e-3 * np.eye(3)
    assert hinf._pd(S) is np.True_ and calls == []

    S[3] = np.diag([1.0, -1e-12, 2.0])
    mask = hinf._pd(S)
    assert calls == [5]
    assert mask.tolist() == (eigvalsh(S)[:, 0] > 0.0).tolist() == [True, True, True, False, True]

    S[1] = np.nan
    S[~np.isfinite(S).all(axis=(1, 2))] = np.eye(3)
    assert hinf._pd(S).tolist() == [True, True, True, False, True]
    S[3] = np.eye(3)
    assert hinf._pd(S) is np.True_


def test_each_exit_of_the_doubling_in_one_stack(models, penalties):
    """At gamma = (1 - 1e-10 - 1e-12)^-1/2, M = Q = I passes
    I - gamma^-2 M > 1e-10 I by 1e-12, and A = diag(a, 0, 0), B = 0 raise
    M_11 by about a^2 1e10 in one doubling: a = 1e-11 stays feasible and
    converges, a = 3e-11 converges to an infeasible limit and a = 5e-11
    leaves the feasible region before converging.  A = I, B = 0 at
    gamma = inf doubles H_k = 2^k Q and never converges.  Beside the
    shipped models, one of them infeasible at Q itself, in one stack."""
    level = (1.0 - 1e-10 - 1e-12) ** -0.5
    A = np.concatenate([models.A, [np.diag([a, 0.0, 0.0]) for a in (1e-11, 3e-11, 5e-11)],
                        [np.eye(3)]])
    B = np.concatenate([models.B, np.zeros((4, 3, 1))])
    levels = [150.0, 2.0, 2.9, 1.0] + [level] * 3 + [np.inf]
    results = assert_stack_matches_members(A, B, penalties, levels)
    lost = "I - gamma^-2 M lost positive definiteness at doubling"
    assert [verdict(r) for r in results] == [
        "ok after 5 doublings", f"{lost} 1", "Riccati iterates fell at doubling 7",
        f"{lost} 0", "ok after 1 doublings", "converged M violates M < gamma^2 I",
        f"{lost} 1", f"Riccati doubling did not converge in {hinf.RICCATI_BUDGET} steps"]


def test_singular_step_leaves_at_the_one_exit(models, penalties, monkeypatch):
    """No shipped model has a singular doubling step (I + G H is
    nonsingular at a feasible H > 0), so one is made singular: it leaves
    with that verdict at that doubling, and the others are unchanged."""
    levels = [150.0] * models.size
    clean = hinf._solve_stack(models.A, models.B, penalties, levels)
    original, calls = hinf._stacked_solve, []

    def second_step_singular_for_member_1(a, b):
        X, singular = original(a, b)
        calls.append(len(a))
        if len(calls) == 2:
            X[1], singular[1] = np.nan, True
        return X, singular

    monkeypatch.setattr(hinf, "_stacked_solve", second_step_singular_for_member_1)
    got = hinf._solve_stack(models.A, models.B, penalties, levels)
    assert verdict(got[1]) == "singular doubling step 2"
    assert got[1].reason.endswith("(gamma=150)")
    assert [as_reference(r) for r in got[:1] + got[2:]] == \
        [as_reference(r) for r in clean[:1] + clean[2:]]


def test_limit_verdicts_leave_the_other_members_unchanged(models, penalties, monkeypatch):
    """No known input has a converged limit that is not positive definite
    (every feasible iterate has M >= Q > 0) or not stabilizing, so member
    1's limit is made to fail both checks and member 2's the second: each
    gets the first verdict that holds at its own level, and the others,
    one converged and one that left the loop at doubling 0, are unchanged."""
    levels = [150.0, 150.0, 20.0, 1.0]
    clean = hinf._solve_stack(models.A, models.B, penalties, levels)
    assert [verdict(r) for r in clean] == [
        "ok after 5 doublings", "ok after 8 doublings", "ok after 6 doublings",
        "I - gamma^-2 M lost positive definiteness at doubling 0"]
    pd, eigvals, limit = hinf._pd, np.linalg.eigvals, clean[1].M

    def limit_of_member_1_not_pd(S):
        return pd(S) & ~(S == limit).all(axis=(1, 2))

    def members_1_and_2_unstable(X):
        # the limits are checked in member order: rows 1 and 2 are members 1 and 2
        lam = eigvals(X)
        lam[1:3] = 2.0
        return lam

    monkeypatch.setattr(hinf, "_pd", limit_of_member_1_not_pd)
    monkeypatch.setattr(np.linalg, "eigvals", members_1_and_2_unstable)
    got = hinf._solve_stack(models.A, models.B, penalties, levels)
    assert got[1].reason == "converged M is not positive definite (gamma=150)"
    assert got[2].reason == "converged M is not stabilizing (gamma=20)"
    assert [as_reference(r) for r in (got[0], got[3])] == \
        [as_reference(r) for r in (clean[0], clean[3])]


DRAWS = [(1000, 2, 1, 2), (1001, 2, 1, 8), (1002, 3, 1, 4), (1003, 4, 2, 6),
         (1004, 3, 2, 8), (1005, 2, 2, 3), (1006, 4, 1, 5), (1007, 3, 1, 7),
         (1008, 2, 1, 8), (1009, 4, 2, 8)]


@pytest.mark.parametrize("draw", [None] + DRAWS,
                         ids=["shipped"] + [f"draw{d[0]}" for d in DRAWS])
def test_fall_exit_changes_no_verdict(models, penalties, draw):
    """Each model at 140 levels: within 1e-8 to 1e-1 (relative) on either
    side of its gamma*, and geometric from 1.0001 to 1e4.  `_solve_stack`
    accepts exactly where the reference without the exit on a falling
    iterate accepts, with Cholesky tests and with eigvalsh tests alike."""
    if draw is None:
        A, B, p = models.A, models.B, penalties
    else:
        seed, n, m, F = draw
        A, B = stack_of(seeded_model_set(seed, n, m, F))
        p = mc.Penalties(Q=np.eye(n), R=np.eye(m))
    rel = np.geomspace(1e-8, 1e-1, 35)
    for i, star in enumerate(hinf.gamma_stars(A, B, p)):
        grid = np.concatenate([star * (1.0 - rel), star * (1.0 + rel),
                               np.geomspace(1.0001, 1e4, 70)]).tolist()
        members = [i] * len(grid)
        got = hinf._solve_stack(A[members], B[members], p, grid)
        for g, result in zip(grid, got):
            for pd_test in ("cholesky", "eigvalsh"):
                ref = doubling_reference(A[i], B[i], p, g, fall_exit=False, pd_test=pd_test)
                assert bool(result) == (not isinstance(ref, str)), \
                    (i, g, pd_test, verdict(result), ref)


def test_probes_below_gamma_star_stop_before_the_budget(models, penalties):
    """Levels just below gamma* whose doubling once ran all RICCATI_BUDGET
    steps without converging now end when an iterate falls."""
    A, B = models.pair(3)
    assert verdict(mc.solve_riccati(A, B, penalties, 2.9)) == \
        "Riccati iterates fell at doubling 7"
    A, B = seeded_model_set(1006, 4, 1, 5)[4]
    p = mc.Penalties(Q=np.eye(4), R=np.eye(1))
    assert verdict(mc.solve_riccati(A, B, p, 8.0)) == "Riccati iterates fell at doubling 4"


def test_gamma_star_search_call_budget(models, penalties, monkeypatch):
    """gamma* of shipped model 3 (2.9126, from lo = 1): the sequential search
    probes 2 doubling levels (2, 4) and 17 midpoints of [1, 4], so with
    three rounds per call it makes 1 + 6 `_solve_stack` calls (19 with
    one), and no member runs the whole Riccati budget."""
    calls = []
    original = hinf._solve_stack

    def counted(*args):
        results = original(*args)
        calls.append(results)
        return results

    monkeypatch.setattr(hinf, "_solve_stack", counted)
    A, B = models.pair(3)
    assert mc.optimal_attenuation(A, B, penalties) == pytest.approx(2.912582, abs=1e-5)
    assert len(calls) <= 7
    for result in (r for results in calls for r in results):
        if result:
            assert result.iterations < hinf.RICCATI_BUDGET
        else:
            assert "did not converge" not in result.reason


def counted_solves(monkeypatch):
    """List that grows by one entry, the levels, per `_solve_stack` call."""
    calls, original = [], hinf._solve_stack

    def counted(A, B, penalties, levels):
        calls.append(list(levels))
        return original(A, B, penalties, levels)

    monkeypatch.setattr(hinf, "_solve_stack", counted)
    return calls


@pytest.mark.parametrize("draw", [None] + DRAWS,
                         ids=["shipped"] + [f"draw{d[0]}" for d in DRAWS])
def test_gamma_stars_plan_one_call_per_model(models, penalties, draw, monkeypatch):
    """The symplectic planner predicts every verdict on each model's path:
    `optimal_attenuation` makes one `_solve_stack` call per model, and on
    the shipped set `gamma_stars` makes one for the whole stack."""
    if draw is None:
        A, B, p = models.A, models.B, penalties
    else:
        seed, n, m, F = draw
        A, B = stack_of(seeded_model_set(seed, n, m, F))
        p = mc.Penalties(Q=np.eye(n), R=np.eye(m))
    calls = counted_solves(monkeypatch)
    for i in range(len(A)):
        mc.optimal_attenuation(A[i], B[i], p)
        assert len(calls) == i + 1, i
    if draw is None:
        calls.clear()
        hinf.gamma_stars(A, B, p)
        assert len(calls) == 1


def flipping_planner(at):
    """`_symplectic_probe` with the verdict of the `at`-th result that the
    planning search reads inverted."""
    original, read = hinf._symplectic_probe, []

    def planner(A, B, penalties):
        predict = original(A, B, penalties)

        def probe(levels, members):
            predicted = predict(levels, members)

            def result_at(j):
                read.append(j)
                verdict = predicted(j)
                if len(read) - 1 != at:
                    return verdict
                return hinf.Infeasible("flipped") if verdict else True
            return result_at
        return probe
    return planner


def stars_or_error(A, B, p):
    """gamma_stars' levels as hex, or its BracketError text."""
    try:
        return [star.hex() for star in hinf.gamma_stars(A, B, p)]
    except mc.BracketError as error:
        return str(error)


def test_gamma_stars_without_or_against_the_plan(models, penalties, monkeypatch):
    """No plan (a singular A, or a planner that returns None or whose eig
    raises) and a plan with one wrong verdict give the levels and errors,
    bit for bit, of the search planned without prediction; a wrong verdict
    costs a `_solve_stack` call.  An unstabilizable pair's ladder to
    GAMMA_MAX is planned and takes one call."""
    c, s = np.cos(0.7), np.sin(0.7)
    p1, p2 = scalar_penalties(), mc.Penalties(Q=np.eye(2), R=np.eye(1))
    b2 = np.array([[0.0], [1.0]])
    unstabilizable = (np.stack([models.A[0], 2.0 * np.eye(3)]),
                      np.stack([models.B[0], np.zeros((3, 1))]), penalties)
    cases = [(np.zeros((1, 2, 2)), b2[None], p2),
             (np.outer([1.0, 2.0], [0.5, -1.0])[None], b2[None], p2),
             (np.array([[[0.5]]]), np.zeros((1, 1, 1)), p1),
             ((0.97 * np.array([[c, -s], [s, c]]))[None], b2[None], p2),
             (2.0 * np.eye(3)[None], np.zeros((1, 3, 1)), penalties),
             unstabilizable,
             (models.A, models.B, penalties)]
    calls, planned, counts = counted_solves(monkeypatch), [], []
    for case in cases:
        calls.clear()
        planned.append(stars_or_error(*case))
        counts.append(len(calls))
    assert planned[2] == [(2.0).hex()]
    assert planned[5] == ("no feasible level up to 1e+06 (last reason: "
                          "Riccati iterates fell at doubling 5 (gamma=1e+06))")
    # a BracketError of the planning search keeps the ladder to GAMMA_MAX
    assert counts[3:] == [1, 1, 1, 1]

    for case, flip in ((6, 3), (6, 40), (5, 0)):  # the shipped set, the unstabilizable pair
        with monkeypatch.context() as patched:
            patched.setattr(hinf, "_symplectic_probe", flipping_planner(flip))
            calls.clear()
            assert stars_or_error(*cases[case]) == planned[case]
            assert len(calls) >= 2

    def eig_fails(Z):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "eig", eig_fails)
        assert [stars_or_error(*case) for case in cases] == planned
    monkeypatch.setattr(hinf, "_symplectic_probe", lambda *args: None)
    assert [stars_or_error(*case) for case in cases] == planned
    monkeypatch.undo()
    assert hinf.gamma_stars(np.empty((0, 2, 2)), np.empty((0, 2, 1)), p2) == []
