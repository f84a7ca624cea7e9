import dataclasses
import hashlib

import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl import minimax_cert

from test_hinf import DRAWS, GAMMA_STAR_ORACLE, seeded_model_set


def single_model_set(models, i):
    return mc.ModelSet.from_pairs([models.pair(i)])


def test_synthesized_certificate_verifies(models, penalties, certified):
    gamma_bar, cert = certified
    assert cert.gamma_bar == gamma_bar
    assert cert.size == 4
    check = mc.verify_certificate(models, penalties, cert)
    assert check.feasible
    assert check.worst_violation <= 1e-8


def test_gamma_bar_dominates_every_member_level(certified, gamma_stars):
    gamma_bar, _ = certified
    assert gamma_bar >= max(gamma_stars)


def test_certificate_gains_are_member_designs(models, penalties, certified):
    """Each row of gains must be that model's H-infinity gain at gamma_bar,
    and each diagonal block P_ii that model's Riccati solution."""
    gamma_bar, cert = certified
    for l in range(1, 5):
        A, B = models.pair(l)
        sol = mc.solve_riccati(A, B, penalties, gamma_bar)
        np.testing.assert_allclose(cert.gains[l - 1], sol.K, atol=1e-9)
        np.testing.assert_allclose(cert.P[l - 1, l - 1], sol.M, rtol=1e-9)


def test_shrunk_certificate_fails_verification(models, penalties, certified):
    _, cert = certified
    shrunk = mc.MinimaxCertificate(
        gamma_bar=cert.gamma_bar, gains=cert.gains, P=0.5 * cert.P
    )
    check = mc.verify_certificate(models, penalties, shrunk)
    assert not check.feasible
    assert check.worst_violation < -1e-8  # least slack eigenvalue
    i, j, l = check.worst_triple
    assert 1 <= i <= 4 and 1 <= j <= 4 and 1 <= l <= 4


def test_verified_certificate_cannot_change(models, penalties, certified):
    """Scaling P after verification raises, so the verdict still holds."""
    _, cert = certified
    own = mc.MinimaxCertificate(gamma_bar=cert.gamma_bar, gains=cert.gains.copy(),
                                P=cert.P.copy())
    assert mc.verify_certificate(models, penalties, own).feasible
    with pytest.raises(ValueError, match="read-only"):
        own.P[...] *= 0.5
    assert mc.verify_certificate(models, penalties, own).feasible


def test_asymmetric_certificate_rejected(models, penalties, certified):
    _, cert = certified
    P = cert.P.copy()
    P[0, 1, 0, 1] += 1e-3  # breaks P_ij = P_ji and matrix symmetry
    bad = mc.MinimaxCertificate(gamma_bar=cert.gamma_bar, gains=cert.gains, P=P)
    with pytest.raises(ValueError):
        mc.verify_certificate(models, penalties, bad)


@pytest.mark.parametrize("scale", [0.0, 1.0], ids=["zero", "gamma_bar-squared"])
def test_family_outside_the_box_is_rejected(models, penalties, certified, scale):
    """P = 0 and P = gamma_bar^2 I are symmetric but outside 0 < P < gamma_bar^2 I."""
    _, cert = certified
    P = scale * cert.gamma_bar ** 2 * np.broadcast_to(np.eye(3), cert.P.shape)
    bad = mc.MinimaxCertificate(gamma_bar=cert.gamma_bar, gains=cert.gains, P=P)
    with pytest.raises(ValueError, match="violates 0 < P < gamma_bar"):
        mc.verify_certificate(models, penalties, bad)


# (seed, spectrum of P_12 relative to gamma_bar^2 = 1e12) reaching each
# singular-pair rule of the verifier in `singular_pair_certificate`; the
# test checks that the construction still reaches its rule.
SINGULAR_PAIRS = {
    "not-positive-definite": (3, (1.0, 10.0, (1 - 1e-12) * 1e12)),
    "X-not-invertible": (1, (1.0, 10.0, (1 - 1e-12) * 1e12)),
    "P-not-invertible": (30, (2e-10, 1.0, 5e11)),
}


def singular_pair_certificate(models, penalties, case):
    """The shipped set's certificate at gamma_bar = 1e6 with P_12 = P_21 replaced
    by V diag(spectrum) V' for a seeded random orthogonal V: symmetric and
    inside 0 < P < gamma_bar^2 I, yet ill-conditioned enough that numpy
    finds X = P_12^-1 - gamma_bar^-2 I not positive definite, or cannot
    invert X or P_12 itself."""
    seed, spectrum = SINGULAR_PAIRS[case]
    cert = mc.synthesize_certificate(models, penalties, 1e6)
    V, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    M = (V * np.array(spectrum)) @ V.T
    P = cert.P.copy()
    P[0, 1] = P[1, 0] = 0.5 * (M + M.T)
    return mc.MinimaxCertificate(gamma_bar=cert.gamma_bar, gains=cert.gains, P=P)


def slack_table(ms, penalties, cert):
    """Least slack eigenvalue of every triple, as `verify_certificate` computes it."""
    F = ms.size
    return minimax_cert._least_slacks(ms, penalties, cert,
                                      *np.ix_(range(F), range(F), range(F)))


@pytest.mark.parametrize("case", list(SINGULAR_PAIRS))
def test_singular_pair_is_infeasible(models, penalties, case):
    """A pair whose (P_12^-1 - gamma_bar^-2 I)^-1 does not exist in floating
    point gives its 2F triples the verdict -inf instead of raising, and a
    single triple's slack, as the gamma_bar search screens it, is the
    table's entry."""
    cert = singular_pair_certificate(models, penalties, case)
    P12 = cert.P[0, 1]
    if case == "P-not-invertible":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(P12)
    else:
        X = np.linalg.inv(P12) - np.eye(3) / cert.gamma_bar ** 2
        X = 0.5 * (X + X.T)
        if case == "not-positive-definite":
            assert np.linalg.eigvalsh(X)[0] <= 0.0
        else:
            assert np.linalg.eigvalsh(X)[0] > 0.0
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(X)
    check = mc.verify_certificate(models, penalties, cert)
    assert not check.feasible
    assert check.worst_violation == -np.inf
    assert check.worst_triple[:2] in [(1, 2), (2, 1)]
    table = slack_table(models, penalties, cert)
    singular = np.zeros((4, 4), dtype=bool)
    singular[0, 1] = singular[1, 0] = True
    assert np.all(table[singular] == -np.inf)
    assert np.all(np.isfinite(table[~singular]))
    for triple in [(0, 1, 0), (1, 0, 3), (0, 0, 1), (2, 3, 1)]:
        screened = minimax_cert._least_slacks(models, penalties, cert, *triple)
        assert screened.tobytes() == table[triple].tobytes()


@pytest.mark.parametrize("gains, P, reason", [
    (np.zeros((1, 3)), np.zeros((1, 1, 3, 3)), "gains must be stacked"),
    (np.zeros((2, 1, 3)), np.zeros((1, 1, 3, 3)),
     r"P must be \(F, F, n, n\) = \(2, 2, 3, 3\)"),
], ids=["2-D-gains", "P-shape"])
def test_certificate_checks_its_shapes(gains, P, reason):
    with pytest.raises(ValueError, match=reason):
        mc.MinimaxCertificate(gamma_bar=10.0, gains=gains, P=P)


def test_single_model_reduces_to_riccati(models, penalties):
    """F=1 synthesis must coincide with the plain H-infinity design."""
    ms1 = single_model_set(models, 2)
    gamma = 12.0
    cert = mc.synthesize_certificate(ms1, penalties, gamma)
    assert cert
    sol = mc.solve_riccati(*models.pair(2), penalties, gamma)
    np.testing.assert_allclose(cert.gains[0], sol.K, atol=1e-6)
    np.testing.assert_allclose(cert.P[0, 0], sol.M, atol=1e-6)


def test_single_model_infeasible_below_its_level(models, penalties):
    # model 2's attenuation level is 9.44, so 4.6 has no design at all
    ms1 = single_model_set(models, 2)
    res = mc.synthesize_certificate(ms1, penalties, 4.6)
    assert not res
    assert "no H-infinity design" in res.reason


def test_full_set_infeasible_at_gamma_40(models, penalties):
    """The closed-form heuristic does not certify the benchmark set at 40.

    Necessity analysis leaves headroom at this level, so this freezes the
    heuristic's actual behavior rather than a physical impossibility; the
    certified level the bisection does reach is checked elsewhere.
    """
    res = mc.synthesize_certificate(models, penalties, 40.0)
    assert not res


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_single_model_level_dominates_its_gamma_star(models, penalties,
                                                     gamma_stars, i):
    """Both searches walk one bracket, so gamma_bar never undercuts gamma*."""
    gamma_bar, _ = mc.minimal_feasible_gamma(single_model_set(models, i), penalties)
    assert gamma_bar >= gamma_stars[i - 1]


def test_duplicated_model_matches_single(models, penalties):
    """Two copies of one model must certify at (about) that model's level."""
    A, B = models.pair(2)
    ms2 = mc.ModelSet.from_pairs([(A, B), (A, B)])
    g2, cert2 = mc.minimal_feasible_gamma(ms2, penalties)
    assert cert2.size == 2
    g_star = GAMMA_STAR_ORACLE[1]
    assert abs(g2 - g_star) <= 2e-3 * g_star
    np.testing.assert_allclose(cert2.gains[0], cert2.gains[1], atol=1e-12)
    np.testing.assert_allclose(cert2.P[0, 1], cert2.P[0, 0], atol=1e-6)


# The benchmark set's levels, bit for bit.  A change that moves them on
# purpose (for example a different certificate synthesis) updates these
# pins and records the old and new values.
GAMMA_STAR_PIN = [2.000476837158203, 9.437843322753906,
                  2.9125823974609375, 2.83526611328125]
GAMMA_BAR_PIN = 143.15347290039062
DRAW_1001_GAMMA_BAR_PIN = 157808.3980102539


def test_benchmark_levels_are_pinned(gamma_stars, certified):
    assert gamma_stars == GAMMA_STAR_PIN
    assert certified[0] == GAMMA_BAR_PIN


# gamma* per model, gamma_bar and the sha256 of gains.tobytes() + P.tobytes()
# of the shipped set and of every draw, bit for bit.  A change that moves
# them on purpose updates this table and records the old and new values.
SEARCH_PINS = {
    "shipped": ([2.000476837158203, 9.437843322753906, 2.9125823974609375, 2.83526611328125],
                143.15347290039062,
                "506fda7b74d1dfa30dbb61b153bd1d59dcf40f8ff5e6128658f8a0f15df5196c"),
    "draw1000": ([2.242382049560547, 2.0528564453125],
                 4.63287353515625,
                 "6439e9ffe5ecbd7e51ecb1b21a7b290d999b50c16195fec096a988bba04d7d07"),
    "draw1001": ([136.73333740234375, 11.512313842773438, 54.47540283203125, 11.776901245117188,
                  127.37019348144531, 29.278228759765625, 30.478050231933594, 22.021591186523438],
                 157808.3980102539,
                 "70a17cdbb5f3587aeae7030029ef01fddc882664c777577fde1fa478f6e22638"),
    "draw1002": ([2.9751815795898438, 2.7898788452148438, 3.4630661010742188, 3.3358535766601562],
                 57.16705322265625,
                 "3367bf558a89818290cc4ec587f254a722c9001b6d84b4ade27993ba20a6cd29"),
    "draw1003": ([3.8306503295898438, 3.1748580932617188, 3.9756240844726562,
                  3.6421432495117188, 4.250675201416016, 3.779632568359375],
                 384.0628662109375,
                 "a68eb05c05f2b740ad60cdb54075911dc06d91e3e240fa3b78716418888e4d17"),
    "draw1004": ([3.5108108520507812, 3.9400558471679688, 3.4729080200195312,
                  3.3146133422851562, 3.6450958251953125, 3.2455368041992188, 4.156681060791016,
                  3.39447021484375],
                 1279.875244140625,
                 "5a06426400ad91c64f1c9db19921b064ccab0f4f935c997c9eaca7234b56b129"),
    "draw1005": ([1.8665924072265625, 1.7529754638671875, 1.9054718017578125],
                 8.7069091796875,
                 "0360b203ccc9ae4d12c72ad27a44ea7e9f193d6bbeefb1f73473a0654bf58478"),
    "draw1006": ([5.813941955566406, 8.484321594238281, 7.528961181640625, 26.348800659179688,
                  41.34351348876953],
                 779.1143798828125,
                 "86e72b5b67b2329f6427f368adeca9e1f1e5d7d561a5e9a823003a5827bb0bec"),
    "draw1007": ([2.9482879638671875, 2.6500091552734375, 2.6055831909179688, 2.733551025390625,
                  3.0471878051757812, 2.5851898193359375, 2.5074844360351562],
                 3668.8543090820312,
                 "0f9ecebed8e6878aacea131fed0af7b19e61db0e49fb91c8917b024fc49ac5c8"),
    "draw1008": ([1.8098907470703125, 1.90899658203125, 2.159160614013672, 1.949249267578125,
                  1.9534912109375, 1.8292999267578125, 2.0213165283203125, 1.783538818359375],
                 2051.9991455078125,
                 "7ae28bc916fd0ebb871a6e2833c59e242d8df1b8a6b8a50ab30f5950b9895237"),
    "draw1009": ([4.263679504394531, 3.341827392578125, 2.935882568359375, 5.049945831298828,
                  3.5526275634765625, 3.0665054321289062, 3.9289779663085938, 4.102100372314453],
                 8483.482238769531,
                 "45e87e8c6d10124baefb86aad44fe93d69d41d556b4fe2ca98f9db93a20339a4"),
}


@pytest.fixture(scope="session")
def searched(models, penalties):
    """name -> (model set, gamma*, gamma_bar, certificate, the families the
    gamma_bar search built) for the shipped set and every draw."""
    runs = {}
    for draw in [None] + DRAWS:
        if draw is None:
            name, ms, p = "shipped", models, penalties
        else:
            seed, n, m, F = draw
            name = f"draw{seed}"
            ms = mc.ModelSet.from_pairs(seeded_model_set(seed, n, m, F))
            p = mc.Penalties(Q=np.eye(n), R=np.eye(m))
        with pytest.MonkeyPatch.context() as monkeypatch:
            (gamma_bar, cert), families, _, _ = search_records(monkeypatch, ms, p)
        runs[name] = (ms, mc.hinf.gamma_stars(ms.A, ms.B, p), gamma_bar, cert, families)
    return runs


@pytest.mark.parametrize("name", list(SEARCH_PINS))
def test_every_search_is_pinned(searched, name):
    _, stars, gamma_bar, cert, _ = searched[name]
    assert (stars, gamma_bar) == SEARCH_PINS[name][:2]
    assert cert.gamma_bar == gamma_bar
    digest = hashlib.sha256(cert.gains.tobytes() + cert.P.tobytes()).hexdigest()
    assert digest == SEARCH_PINS[name][2]


@pytest.mark.parametrize("name", list(SEARCH_PINS))
def test_search_families_are_mirrored_and_valid(searched, name):
    """Every family the search built has P[j, i] byte-equal to P[i, j] and
    meets the certificate invariants that `verify_certificate` checks."""
    ms, _, _, _, families = searched[name]
    assert families
    for cert in families:
        assert cert.P.tobytes() == cert.P.transpose(1, 0, 2, 3).tobytes()
        minimax_cert._check_cert_invariants(cert, ms)


@pytest.mark.parametrize("name", list(SEARCH_PINS))
def test_synthesis_at_gamma_bar_is_the_search_certificate(searched, penalties, name):
    """`synthesize_certificate` at gamma_bar is the search's probe at that
    one level: it returns the search's certificate, gains and P bit for bit."""
    ms, _, gamma_bar, cert, _ = searched[name]
    p = penalties if name == "shipped" else mc.Penalties(Q=np.eye(ms.n), R=np.eye(ms.m))
    found = mc.synthesize_certificate(ms, p, gamma_bar)
    assert found.gamma_bar == gamma_bar
    assert found.gains.tobytes() == cert.gains.tobytes()
    assert found.P.tobytes() == cert.P.tobytes()


def test_minimal_feasible_gamma_is_deterministic(models, penalties, certified,
                                                 gamma_star_calls):
    gamma_bar, cert = mc.minimal_feasible_gamma(models, penalties)
    assert gamma_star_calls == []  # its bracket needs no gamma*
    assert gamma_bar == certified[0]
    np.testing.assert_array_equal(cert.gains, certified[1].gains)
    np.testing.assert_array_equal(cert.P, certified[1].P)


def test_gamma_bar_is_the_sequential_bisection_over_synthesis(models, penalties,
                                                               certified):
    """gamma_bar is the doubling-then-bisection that probes one level per
    round with `synthesize_certificate`, and the certificate is that
    function's at gamma_bar, bit for bit."""
    lo = float(np.sqrt(np.max(np.linalg.eigvalsh(penalties.Q))))
    hi = min(max(2.0 * lo, 1.0), mc.hinf.GAMMA_MAX)
    while not (cert := mc.synthesize_certificate(models, penalties, hi)):
        assert hi < mc.hinf.GAMMA_MAX
        hi = min(2.0 * hi, mc.hinf.GAMMA_MAX)
    while hi - lo > minimax_cert.GAMMA_BAR_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        found = mc.synthesize_certificate(models, penalties, mid)
        if found:
            hi, cert = mid, found
        else:
            lo = mid
    assert hi == certified[0]
    assert cert.gains.tobytes() == certified[1].gains.tobytes()
    assert cert.P.tobytes() == certified[1].P.tobytes()


def search_records(monkeypatch, ms, penalties):
    """Run `minimal_feasible_gamma` and record its families (every certificate
    that reaches verification), its full verifications and its screens
    (single-triple `_least_slacks` calls) as (cert, triple, slack)."""
    families, verified, screens = [], [], []
    family, verify, least_slacks = (minimax_cert._family, minimax_cert.verify_certificate,
                                    minimax_cert._least_slacks)

    def recorded_family(*args):
        result = family(*args)
        if result:
            families.append(result)
        return result

    def recorded_verify(ms, penalties, cert):
        verified.append(cert)
        return verify(ms, penalties, cert)

    def recorded_slacks(ms, penalties, cert, i, j, l):
        slack = least_slacks(ms, penalties, cert, i, j, l)
        if np.ndim(i) == 0:
            screens.append((cert, (i, j, l), slack))
        return slack

    monkeypatch.setattr(minimax_cert, "_family", recorded_family)
    monkeypatch.setattr(minimax_cert, "verify_certificate", recorded_verify)
    monkeypatch.setattr(minimax_cert, "_least_slacks", recorded_slacks)
    result = mc.minimal_feasible_gamma(ms, penalties)
    monkeypatch.undo()
    return result, families, verified, screens


def test_screen_saves_full_verifications(models, penalties, certified, monkeypatch):
    """The shipped set's search reaches verification at 20 levels.  Once a
    full verification has failed, a level whose slack at that failing triple
    is below -VERIFY_TOL is rejected by the screen, so only 11 levels run
    the F^3 check; gamma_bar and the certificate are the pinned ones."""
    (gamma_bar, cert), families, verified, screens = search_records(
        monkeypatch, models, penalties)
    assert (len(families), len(verified)) == (20, 11)
    rejected = [s for s in screens if not s[2] >= -minimax_cert.VERIFY_TOL]
    assert len(rejected) == 9
    assert gamma_bar == GAMMA_BAR_PIN
    np.testing.assert_array_equal(cert.P, certified[1].P)


@pytest.mark.parametrize("draw", [None] + [d for d in DRAWS if d[0] != 1001],
                         ids=["shipped"] + [f"draw{d[0]}" for d in DRAWS if d[0] != 1001])
def test_screen_matches_full_verification(models, penalties, monkeypatch, draw):
    """At every level the gamma_bar search verifies or screens, failing levels
    included, a triple's least slack eigenvalue alone is the full F^3
    table's entry bit for bit: every triple the search screened, the
    table's worst, and every triple for F <= 4 (else 16 seeded ones); and
    `verify_certificate` reports the table's minimum."""
    if draw is None:
        ms, p = models, penalties
    else:
        seed, n, m, F = draw
        ms = mc.ModelSet.from_pairs(seeded_model_set(seed, n, m, F))
        p = mc.Penalties(Q=np.eye(n), R=np.eye(m))
    _, families, _, screens = search_records(monkeypatch, ms, p)
    F = ms.size
    rng = np.random.default_rng(0)
    tables = {id(cert): slack_table(ms, p, cert) for cert in families}
    for cert, triple, slack in screens:
        assert slack.tobytes() == tables[id(cert)][triple].tobytes()
    for cert in families:
        table = tables[id(cert)]
        worst = np.unravel_index(np.argmin(table), table.shape)
        check = mc.verify_certificate(ms, p, cert)
        assert check.worst_triple == tuple(int(k) + 1 for k in worst)
        assert np.float64(check.worst_violation).tobytes() == table[worst].tobytes()
        picks = range(F ** 3) if F <= 4 else rng.choice(F ** 3, 16, replace=False)
        for triple in [worst] + [np.unravel_index(k, table.shape) for k in picks]:
            triple = tuple(int(k) for k in triple)
            slack = minimax_cert._least_slacks(ms, p, cert, *triple)
            assert slack.tobytes() == table[triple].tobytes(), triple
    assert len(screens) > 0


def test_value_bound_is_max_quadratic_form(certified):
    _, cert = certified
    x0 = np.array([1.0, -2.0, 0.5])
    manual = max(
        float(x0 @ cert.P[i, j] @ x0)
        for i in range(cert.size)
        for j in range(cert.size)
    )
    assert mc.value_bound(cert, x0) == pytest.approx(manual, rel=1e-12)
    with pytest.raises(ValueError):
        mc.value_bound(cert, np.ones(4))


def cost_bound_initial_states(n):
    """x0 = 1, each +-e_k, and 8 seeded unit vectors."""
    rng = np.random.default_rng(0)
    random = rng.standard_normal((8, n))
    return ([np.ones(n)] + [s * e for e in np.eye(n) for s in (1.0, -1.0)]
            + list(random / np.linalg.norm(random, axis=1, keepdims=True)))


@pytest.mark.parametrize("law", ["zero", "hinf_worst_case", "confusing"])
@pytest.mark.parametrize("true_index", [1, 2, 3, 4])
def test_soft_cost_stays_below_value_bound(bench_cfg, certified, true_index, law):
    """sum c_k - gamma_bar^2 W <= max_ij x0' P_ij x0, the certificate's
    guarantee, at T = 200 for every true model under three laws: none, the
    true model's own worst case at gamma_bar replayed from its H-infinity
    loop, and the residual-steering law that frames the next model.  Unlike criterion 5 on fig2 and fig3, where -gamma_bar^2 W sits
    far below the bound, these runs come close: true model 2 under its
    worst case reaches 0.9994 of the bound."""
    gamma_bar, cert = certified
    ms, p = bench_cfg.model_set, bench_cfg.penalties
    if law == "hinf_worst_case":
        design = mc.solve_riccati(*ms.pair(true_index), p, gamma_bar)
        spec = mc.DisturbanceSpec(kind=law, L=design.L)
    elif law == "confusing":
        spec = mc.DisturbanceSpec(kind=law, target=true_index % ms.size + 1)
    else:
        spec = mc.DisturbanceSpec(kind=law)
    for x0 in cost_bound_initial_states(ms.n):
        cfg = dataclasses.replace(bench_cfg, true_index=true_index, horizon=200,
                                  gamma=gamma_bar, disturbance=spec, x0=x0)
        if law == "hinf_worst_case":
            traj = mc.rollout(cfg, cert, disturbance=mc.rollout(cfg, design.K).w)
        else:
            traj = mc.rollout(cfg, cert)
        bound = mc.value_bound(cert, x0)
        cost = mc.accumulated_cost(traj, gamma_bar)
        assert cost <= bound, (x0, cost, bound)


def test_save_load_round_trip(certified, tmp_path):
    _, cert = certified
    path = tmp_path / "cert.json"
    mc.save_certificate(cert, path)
    again = mc.load_certificate(path)
    assert again.gamma_bar == cert.gamma_bar
    np.testing.assert_array_equal(again.gains, cert.gains)
    np.testing.assert_array_equal(again.P, cert.P)
    mc.save_certificate(again, tmp_path / "cert2.json")
    assert (tmp_path / "cert.json").read_bytes() == (tmp_path / "cert2.json").read_bytes()


def test_load_rejects_truncated_file(certified, tmp_path):
    _, cert = certified
    path = tmp_path / "cert.json"
    mc.save_certificate(cert, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(mc.ConfigError):
        mc.load_certificate(path)


def test_load_rejects_missing_field(certified, tmp_path):
    import json

    _, cert = certified
    path = tmp_path / "cert.json"
    mc.save_certificate(cert, path)
    doc = json.loads(path.read_text())
    del doc["gamma_bar"]
    path.write_text(json.dumps(doc))
    with pytest.raises(mc.ConfigError):
        mc.load_certificate(path)


def test_scalar_set_certifies(penalties):
    """Two genuinely different scalar models end-to-end."""
    p = mc.Penalties(Q=np.eye(1), R=np.eye(1))
    ms = mc.ModelSet.from_pairs(
        [(np.array([[0.8]]), np.array([[1.0]])),
         (np.array([[-0.5]]), np.array([[0.7]]))]
    )
    gb, cert = mc.minimal_feasible_gamma(ms, p)
    assert mc.verify_certificate(ms, p, cert).feasible
    g_stars = [mc.optimal_attenuation(*ms.pair(i), p) for i in (1, 2)]
    assert gb >= max(g_stars)


def test_perturbed_eight_model_set_certifies():
    """The (1001, n=2, m=1, F=8) draw of the benchmark's random-sets recipe.

    Its P entries reach 1.2e4 while VERIFY_TOL is an absolute 1e-8, so the
    family passes only if P carries almost no rounding residue (worst slack
    about -3.3e-11).  Its level is pinned bit for bit like the shipped
    set's: F = 8 members whose probes split into mixed verdicts.
    """
    rng = np.random.default_rng(1001)
    X = rng.uniform(0.0, 1.0, (2, 2))
    A0, B0 = X + X.T, rng.uniform(0.0, 2.0, (2, 1))
    pairs = [(A0 + 0.1 * rng.standard_normal((2, 2)),
              B0 + 0.1 * rng.standard_normal((2, 1))) for _ in range(8)]
    ms = mc.ModelSet.from_pairs(pairs)
    p = mc.Penalties(Q=np.eye(2), R=np.eye(1))
    gamma_bar, cert = mc.minimal_feasible_gamma(ms, p)
    assert gamma_bar == DRAW_1001_GAMMA_BAR_PIN
    assert cert.gamma_bar == gamma_bar
    assert mc.verify_certificate(ms, p, cert).feasible
