"""Acceptance scorecard for the benchmark configuration.

One test per criterion.  Each records a single PASS/FAIL line with the
measured values; the lines are printed as a terminal-summary section at
the end of every pytest run.  Two criteria fail by design and are left
red on purpose rather than loosened:

 - criterion 1: the reference attenuation table shipped with the
   benchmark set is inconsistent with the benchmark matrices; two
   independent solvers (the Riccati bisection here and a direct norm
   minimization over gain entries) agree on the computed values, and
   only model 3 coincides with the table.
 - criterion 7: the certificate's per-model gains make the locked-on
   adaptive controller identical to the benchmark controller, so under
   any replayed disturbance the trajectory gap decays geometrically and
   the sinusoid regret plateaus instead of growing without bound.
"""
import dataclasses
import time

import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl import cli
from minimaxctrl.fileio import sha256_of
from minimaxctrl.simulate import paired_rollouts

import conftest
from conftest import CONFIG_PATH

REFERENCE_GAMMA_STARS = [1.266, 4.544, 2.913, 2.298]
REFERENCE_GAMMA_BAR = 31.0086
REFERENCE_GAPS = [29.7426, 26.4646, 28.0956, 28.7106]


def report(n, ok, detail):
    line = f"criterion {n:>2}: {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scenarios(bench_cfg, certified, benchmark_controller):
    """All three paired rollouts at gamma_bar, keyed by scenario name."""
    _, cert = certified
    ms, p = bench_cfg.model_set, bench_cfg.penalties
    A, B = ms.pair(2)
    specs = {
        "fig1": mc.DisturbanceSpec(kind="hinf_worst_case",
                                   L=benchmark_controller.L),
        "fig2": mc.peak_sinusoid_spec(A, B, benchmark_controller.K, p),
        "fig3": mc.DisturbanceSpec(kind="confusing", target=3),
    }
    out = {}
    for name, spec in specs.items():
        rcfg = dataclasses.replace(bench_cfg, disturbance=spec)
        traj_mm, traj_h = paired_rollouts(rcfg, cert, benchmark_controller.K)
        rep = mc.regret_report(traj_mm, traj_h, p, spec.kind)
        out[name] = {
            "traj_mm": traj_mm,
            "traj_h": traj_h,
            "report": rep,
            "diag": mc.sublinearity_diagnostic(rep.R),
        }
    return out


def test_criterion_01_attenuation_table(models, penalties):
    t0 = time.perf_counter()
    computed = [
        mc.optimal_attenuation(*models.pair(i), penalties) for i in range(1, 5)
    ]
    elapsed = time.perf_counter() - t0
    errs = [abs(c - r) for c, r in zip(computed, REFERENCE_GAMMA_STARS)]
    ok = max(errs) <= 0.005 and elapsed < 5.0
    report(
        1, ok,
        f"gamma_star computed={[round(c, 4) for c in computed]} "
        f"reference={REFERENCE_GAMMA_STARS} tol=0.005 "
        f"runtime={elapsed:.2f}s (<5s)",
    )


def test_criterion_02_gap_table():
    gaps = mc.suboptimality_gaps(REFERENCE_GAMMA_BAR, REFERENCE_GAMMA_STARS)
    errs = [abs(g - r) for g, r in zip(gaps.per_model, REFERENCE_GAPS)]
    ok = (max(errs) <= 1e-6
          and abs(gaps.minimal - 26.4646) <= 1e-6
          and abs(gaps.maximal - 29.7426) <= 1e-6)
    report(
        2, ok,
        f"gaps={[round(g, 4) for g in gaps.per_model]} "
        f"minimal={gaps.minimal:.4f} maximal={gaps.maximal:.4f} tol=1e-6",
    )


def test_criterion_03_certificate_verifies(models, penalties, certified):
    gamma_bar, cert = certified
    check = mc.verify_certificate(models, penalties, cert)
    ok = check.feasible and check.worst_violation >= -1e-8 and gamma_bar >= 4.544
    report(
        3, ok,
        f"gamma_bar={gamma_bar:.4f} (>=4.544) verified={check.feasible} "
        f"worst slack eig={check.worst_violation:.3e} tol=1e-8",
    )


def test_criterion_04_confusing_scenario(scenarios):
    traj = scenarios["fig3"]["traj_mm"]
    alpha3 = traj.alpha_hist[:, 2]
    l = traj.l
    max_alpha3 = float(np.max(alpha3))
    picked_true = int(np.sum(l[1:] == 2))
    ok = max_alpha3 <= 1e-10 and picked_true == 0
    report(
        4, ok,
        f"max alpha_3={max_alpha3:.2e} (<=1e-10), "
        f"steps with l=2 for k>=1: {picked_true} (must be 0)",
    )


def test_criterion_05_cost_bound(scenarios, bench_cfg, certified):
    gamma_bar, cert = certified
    bound = mc.value_bound(cert, bench_cfg.x0)
    costs = {
        name: mc.accumulated_cost(s["traj_mm"], gamma_bar)
        for name, s in scenarios.items()
    }
    ok = all(c <= bound + 1e-6 for c in costs.values())
    report(
        5, ok,
        f"value_bound={bound:.4f}, adaptive costs="
        f"{ {k: round(v, 3) for k, v in costs.items()} } (each <= bound+1e-6)",
    )


def test_criterion_06_l2_regret_flattens(scenarios):
    s = scenarios["fig1"]
    d, R = s["report"].d, s["report"].R
    ratio = s["report"].R_over_T
    decay = float(d[-1] / np.max(d))
    T = len(d) - 1
    q = T - T // 4
    tail_nonincreasing = bool(np.all(np.diff(ratio[q:]) <= 1e-12))
    verdict = s["diag"].verdict
    ok = (decay <= 1e-3 and tail_nonincreasing
          and verdict == "consistent-with-sublinear")
    report(
        6, ok,
        f"d_T/max_d={decay:.2e} (<=1e-3), tail ratio nonincreasing="
        f"{tail_nonincreasing}, verdict={verdict}",
    )


def test_criterion_07_sinusoid_regret_grows(scenarios):
    R = scenarios["fig2"]["report"].R
    inc = np.diff(R)
    zero_steps = int(np.sum(inc <= 0.0))
    ok = bool(np.all(inc > 0.0))
    report(
        7, ok,
        f"R(100)={R[-1]:.4f}, non-increasing steps={zero_steps}/100 "
        f"(strict growth required; plateau means the adaptive and "
        f"benchmark gains coincide after lock-on)",
    )


def test_criterion_08_oracle_equivalences(models, penalties):
    from scipy.linalg import solve_discrete_are

    p1 = mc.Penalties(Q=np.eye(1), R=np.eye(1))
    A1, B1 = np.array([[0.5]]), np.array([[0.0]])
    scan = mc.closed_loop_scan(A1, B1, np.zeros((1, 1)), p1)
    ga = mc.optimal_attenuation(A1, B1, p1)
    a_ok = (abs(scan.peak_norm - 2.0) <= 1e-3 and abs(scan.peak_omega) <= 1e-9
            and abs(ga - 2.0) <= 1e-3)

    b_err = 0.0
    for i in range(1, 5):
        A, B = models.pair(i)
        sol = mc.solve_riccati(A, B, penalties, 1e6)
        P = solve_discrete_are(A, B, penalties.Q, penalties.R)
        K_lqr = np.linalg.solve(penalties.R + B.T @ P @ B, B.T @ P @ A)
        b_err = max(b_err, float(np.max(np.abs(sol.K - K_lqr))))
    b_ok = b_err <= 1e-6

    ms1 = mc.ModelSet.from_pairs([models.pair(2)])
    cert1 = mc.synthesize_certificate(ms1, penalties, 12.0)
    sol1 = mc.solve_riccati(*models.pair(2), penalties, 12.0)
    c_err = float(max(np.max(np.abs(cert1.gains[0] - sol1.K)),
                      np.max(np.abs(cert1.P[0, 0] - sol1.M))))
    c_ok = bool(cert1) and c_err <= 1e-6

    report(
        8, a_ok and b_ok and c_ok,
        f"(a) scalar peak={scan.peak_norm:.4f}@omega={scan.peak_omega:.1e}, "
        f"level={ga:.4f} (2.0 +- 1e-3); "
        f"(b) LQR gain error={b_err:.1e} (<=1e-6); "
        f"(c) single-model synthesis error={c_err:.1e} (<=1e-6)",
    )


def test_criterion_09_residual_identity(bench_cfg, scenarios):
    worst = 0.0
    for s in scenarios.values():
        traj = s["traj_mm"]
        w_energy = np.concatenate(
            [[0.0], np.cumsum(np.sum(traj.w ** 2, axis=1))]
        )
        alpha_true = traj.alpha_hist[:, bench_cfg.true_index - 1]
        worst = max(worst, float(np.max(np.abs(alpha_true - w_energy))))
    ok = worst <= 1e-10
    report(9, ok, f"max |alpha_j(k) - sum w energy| = {worst:.2e} (<=1e-10)")


def test_criterion_10_determinism(tmp_path):
    names = ("minimax_traj.csv", "hinf_traj.csv", "regret.csv", "gaps.csv")
    identical = True
    for scenario in ("fig1", "fig2", "fig3"):
        dirs = [tmp_path / f"{scenario}_{run}" for run in "ab"]
        for d in dirs:
            code = cli.main(["reproduce", str(CONFIG_PATH), "--scenario",
                             scenario, "--out-dir", str(d)])
            assert code == 0
        for name in names:
            if sha256_of(dirs[0] / name) != sha256_of(dirs[1] / name):
                identical = False
    report(
        10, identical,
        f"all three scenario bundles byte-identical across two runs "
        f"({len(names)} CSVs each); suite wall clock asserted by the runner",
    )
