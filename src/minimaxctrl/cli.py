"""Batch command line front end.

Four subcommands: per-model H-infinity design (synth-hinf), certificate
synthesis for the whole set (synth-minimax), certificate verification
(verify), and the paired-rollout experiment bundles (reproduce).  All
outputs are plain files; CSVs are formatted to 12 significant digits with
newline line endings and written atomically, so re-running a command on
identical inputs yields byte-identical data files.

Exit codes: 0 success, 1 infeasible or failed verdict, 2 input error,
3 numeric divergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .disturbance import DisturbanceSpec, peak_sinusoid_spec
from .fileio import atomic_write_text, sha256_of, svg_line_chart, write_csv
from .hinf import BracketError, checked_level, optimal_attenuation, solve_riccati
from .minimax_cert import (
    load_certificate,
    minimal_feasible_gamma,
    save_certificate,
    synthesize_certificate,
    value_bound,
    verify_certificate,
)
from .model_set import ConfigError, load_config
from .regret import (MIN_DIAGNOSTIC_STEPS, regret_report, suboptimality_gaps,
                     sublinearity_diagnostic)
from .simulate import DivergedRollout, accumulated_cost, rollout, write_trajectory_csv

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_DIVERGED = 3

OUT_DIR_ENV = "MINIMAXCTRL_OUT_DIR"
CONFUSING_TARGET = 3  # scenario fig3 zeroes this wrong model's residual


def _out_dir(args):
    path = args.out_dir or os.environ.get(OUT_DIR_ENV) or "out"
    os.makedirs(path, exist_ok=True)
    return path


def _gamma_star_table(ms, penalties):
    return [optimal_attenuation(*ms.pair(i), penalties) for i in range(1, ms.size + 1)]


def cmd_synth_hinf(args):
    cfg = load_config(args.config)
    ms, p = cfg.model_set, cfg.penalties
    if args.model is not None and not 1 <= args.model <= ms.size:
        raise ConfigError(f"--model {args.model} outside 1..{ms.size}")
    indices = [args.model] if args.model is not None else list(range(1, ms.size + 1))

    entries = []
    for i in indices:
        A, B = ms.pair(i)
        if args.gamma is not None:
            gamma = checked_level(args.gamma, "--gamma")
            sol = solve_riccati(A, B, p, gamma)
            if not sol:
                print(f"model {i} infeasible at gamma={args.gamma:g}: {sol.reason}",
                      file=sys.stderr)
                return EXIT_INFEASIBLE
            print(f"model {i}: gamma={gamma:.6g}  K={sol.K.tolist()}")
            entries.append({"model": i, "gamma": gamma, "M": sol.M.tolist(),
                            "K": sol.K.tolist(), "L": sol.L.tolist()})
        else:
            gs = optimal_attenuation(A, B, p)
            print(f"model {i}: gamma_star={gs:.6g}")
            entries.append({"model": i, "gamma_star": gs})

    out = os.path.join(_out_dir(args), "hinf_synthesis.json")
    atomic_write_text(out, json.dumps({"entries": entries}, indent=2) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_synth_minimax(args):
    cfg = load_config(args.config)
    ms, p = cfg.model_set, cfg.penalties
    if args.gamma is not None:
        cert = synthesize_certificate(ms, p, checked_level(args.gamma, "--gamma"))
        if not cert:
            print(f"infeasible at gamma={args.gamma:g}: {cert.reason}", file=sys.stderr)
            return EXIT_INFEASIBLE
    else:
        gbar, cert = minimal_feasible_gamma(ms, p)

    check = verify_certificate(ms, p, cert)
    stars = _gamma_star_table(ms, p)
    gaps = suboptimality_gaps(cert.gamma_bar, stars)
    print(f"gamma_bar={cert.gamma_bar:.6g}  "
          f"(verified, worst slack eigenvalue {check.worst_violation:.3e})")
    for i, (star, gap) in enumerate(zip(stars, gaps.per_model), start=1):
        print(f"model {i}: gamma_star={star:.6g}  gap={gap:.6g}")
    print(f"minimal gap={gaps.minimal:.6g}  maximal gap={gaps.maximal:.6g}")

    out = os.path.join(_out_dir(args), "certificate.json")
    save_certificate(cert, out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(args):
    cert = load_certificate(args.certificate)
    cfg = load_config(args.config)
    check = verify_certificate(cfg.model_set, cfg.penalties, cert)
    print(f"feasible={check.feasible}  worst_violation={check.worst_violation:.6e}  "
          f"worst_triple={check.worst_triple}")
    return EXIT_OK if check.feasible else EXIT_INFEASIBLE


def _scenario_spec(scenario, cfg, bench):
    """Disturbance spec for one reproduction scenario.

    fig1: the benchmark designer's own worst-case feedback w = L x.
    fig2: unit sinusoid at the closed loop's peak-gain frequency.
    fig3: the residual-steering disturbance that frames a wrong model.
    """
    A, B = cfg.model_set.pair(cfg.true_index)
    if scenario == "fig1":
        return DisturbanceSpec(kind="hinf_worst_case", L=bench.L)
    if scenario == "fig2":
        return peak_sinusoid_spec(A, B, bench.K, cfg.penalties)
    return DisturbanceSpec(kind="confusing", target=CONFUSING_TARGET)


def cmd_reproduce(args):
    stages = {}
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    if cfg.horizon < MIN_DIAGNOSTIC_STEPS:
        raise ConfigError(
            f"reproduce needs a horizon of at least {MIN_DIAGNOSTIC_STEPS} steps "
            f"for the sublinearity diagnostic, got {cfg.horizon}"
        )
    ms, p = cfg.model_set, cfg.penalties
    out_dir = _out_dir(args)

    if args.certificate:
        cert = load_certificate(args.certificate)
        check = verify_certificate(ms, p, cert)
        if not check.feasible:
            print(f"supplied certificate fails verification "
                  f"(worst {check.worst_violation:.3e} at {check.worst_triple})",
                  file=sys.stderr)
            return EXIT_INFEASIBLE
    else:
        _, cert = minimal_feasible_gamma(ms, p)
    gbar = cert.gamma_bar
    stages["certificate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bench = solve_riccati(*ms.pair(cfg.true_index), p, gbar)
    if not bench:
        print(f"benchmark design infeasible at gamma_bar={gbar:.6g}: {bench.reason}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    spec = _scenario_spec(args.scenario, cfg, bench)
    rcfg = dataclasses.replace(cfg, gamma=gbar, disturbance=spec)
    stages["design"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if spec.generating_loop == "minimax":
        traj_mm = rollout(rcfg, cert)
        traj_h = rollout(rcfg, bench.K, disturbance=traj_mm.w)
    else:
        traj_h = rollout(rcfg, bench.K)
        traj_mm = rollout(rcfg, cert, disturbance=traj_h.w)
    stages["rollouts"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = regret_report(traj_mm, traj_h, p, spec.kind)
    diag = sublinearity_diagnostic(report.R)
    stars = _gamma_star_table(ms, p)
    bound = value_bound(cert, rcfg.x0)
    cost_mm = accumulated_cost(traj_mm, gbar)
    cost_h = accumulated_cost(traj_h, gbar)
    stages["metrics"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    artifacts = []

    def emit(name, kind, writer):
        path = os.path.join(out_dir, name)
        writer(path)
        artifacts.append({"name": name, "kind": kind, "sha256": sha256_of(path)})

    emit("minimax_traj.csv", "trajectory",
         lambda pth: write_trajectory_csv(traj_mm, pth))
    emit("hinf_traj.csv", "trajectory",
         lambda pth: write_trajectory_csv(traj_h, pth))

    T = traj_mm.horizon
    regret_rows = [
        [k, report.d[k], report.R[k], report.R_over_T[k], report.cost_diff[k]]
        for k in range(T + 1)
    ]
    emit("regret.csv", "regret",
         lambda pth: write_csv(pth, ["T", "d_T", "R_T", "R_over_T", "cost_diff_T"],
                               regret_rows))

    gap_rows = [[i, star, gbar - star] for i, star in enumerate(stars, start=1)]
    emit("gaps.csv", "gaps",
         lambda pth: write_csv(pth, ["model", "gamma_star", "gap"], gap_rows))

    emit("certificate.json", "certificate",
         lambda pth: save_certificate(cert, pth))

    if args.svg:
        ks = list(range(T + 1))
        emit("states.svg", "chart", lambda pth: atomic_write_text(pth, svg_line_chart(
            {"adaptive |x|": (ks, np.linalg.norm(traj_mm.x, axis=1).tolist()),
             "benchmark |x|": (ks, np.linalg.norm(traj_h.x, axis=1).tolist())},
            f"{args.scenario}: state norms")))
        emit("regret.svg", "chart", lambda pth: atomic_write_text(pth, svg_line_chart(
            {"R": (ks, report.R.tolist())}, f"{args.scenario}: cumulative regret")))
        emit("ratio.svg", "chart", lambda pth: atomic_write_text(pth, svg_line_chart(
            {"R/T": (ks[1:], report.R_over_T[1:].tolist())},
            f"{args.scenario}: regret per step")))
    stages["write"] = time.perf_counter() - t0

    manifest = {
        "config": os.path.abspath(args.config),
        "output_dir": os.path.abspath(out_dir),
        "scenario": args.scenario,
        "tool_version": __version__,
        "gamma_bar": gbar,
        "value_bound": bound,
        "accumulated_cost": {"adaptive": cost_mm, "benchmark": cost_h},
        "sublinearity": {"verdict": diag.verdict, "tail_slope": diag.tail_slope},
        "stage_seconds": stages,
        "artifacts": artifacts,
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=2) + "\n")

    print(f"{args.scenario}: gamma_bar={gbar:.6g}  value_bound={bound:.6g}")
    print(f"accumulated cost: adaptive={cost_mm:.6g}  benchmark={cost_h:.6g}")
    print(f"final regret R(T)={report.R[-1]:.6g}  verdict={diag.verdict}")
    print(f"wrote {len(artifacts) + 1} files to {out_dir}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minimaxctrl",
        description="Adaptive minimax control synthesis and experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth-hinf", help="per-model H-infinity design")
    sp.add_argument("config")
    sp.add_argument("--model", type=int, help="1-based model index (default: all)")
    sp.add_argument("--gamma", type=float,
                    help="attenuation level (default: bisect the optimum)")
    sp.add_argument("--out-dir")
    sp.set_defaults(func=cmd_synth_hinf)

    sp = sub.add_parser("synth-minimax", help="certificate for the whole set")
    sp.add_argument("config")
    sp.add_argument("--gamma", type=float,
                    help="attenuation level (default: bisect the smallest feasible)")
    sp.add_argument("--out-dir")
    sp.set_defaults(func=cmd_synth_minimax)

    sp = sub.add_parser("verify", help="check a certificate against a model set")
    sp.add_argument("certificate")
    sp.add_argument("config")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("reproduce", help="paired-rollout experiment bundle")
    sp.add_argument("config")
    sp.add_argument("--scenario", choices=("fig1", "fig2", "fig3"), required=True)
    sp.add_argument("--certificate", help="use this certificate instead of synthesizing")
    sp.add_argument("--svg", action="store_true", help="also emit SVG line charts")
    sp.add_argument("--out-dir")
    sp.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BracketError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DivergedRollout as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:  # ConfigError and every other bad value
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
