"""Batch command line front end: synth-hinf, synth-minimax, verify and
reproduce.  Every output is a plain file, and a command re-run on identical
inputs writes byte-identical data files
(test_acceptance.py::test_criterion_10_determinism).

Exit codes: 0 success, 1 infeasible or failed verdict, 2 input error,
3 numeric divergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .disturbance import DisturbanceSpec, peak_sinusoid_spec, validate_spec
from .fileio import atomic_write_text, svg_line_chart, write_csv
from .hinf import BracketError, checked_level, gamma_stars, solve_riccati
from .minimax_cert import (
    _checked_search,
    _checked_synthesis,
    load_certificate,
    minimal_feasible_gamma,
    save_certificate,
    value_bound,
    verify_certificate,
)
from .model_set import ConfigError, load_config
from .regret import (MIN_DIAGNOSTIC_STEPS, regret_report, suboptimality_gaps,
                     sublinearity_diagnostic)
from .simulate import DivergedRollout, accumulated_cost, paired_rollouts, write_trajectory_csv

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_DIVERGED = 3

OUT_DIR_ENV = "MINIMAXCTRL_OUT_DIR"
CONFUSING_TARGET = 3  # scenario fig3 zeroes this wrong model's residual


def _out_dir(args):
    """The output directory, created if missing; ConfigError if it cannot be."""
    path = args.out_dir or os.environ.get(OUT_DIR_ENV) or "out"
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{exc.strerror}") from None
    return path


def cmd_synth_hinf(args):
    cfg = load_config(args.config)
    ms, p = cfg.model_set, cfg.penalties
    if args.model is not None and not 1 <= args.model <= ms.size:
        raise ConfigError(f"--model {args.model} outside 1..{ms.size}")
    sel = slice(None) if args.model is None else slice(args.model - 1, args.model)
    A, B, indices = ms.A[sel], ms.B[sel], range(1, ms.size + 1)[sel]
    gamma = None if args.gamma is None else checked_level(args.gamma, "--gamma")
    out_dir = _out_dir(args)
    entries = []
    if gamma is not None:
        for i, Ai, Bi in zip(indices, A, B):
            sol = solve_riccati(Ai, Bi, p, gamma)
            if not sol:
                print(f"model {i} infeasible at gamma={args.gamma:g}: {sol.reason}",
                      file=sys.stderr)
                return EXIT_INFEASIBLE
            print(f"model {i}: gamma={gamma:.6g}  K={sol.K.tolist()}")
            entries.append({"model": i, "gamma": gamma, "M": sol.M.tolist(),
                            "K": sol.K.tolist(), "L": sol.L.tolist()})
    else:
        for i, gs in zip(indices, gamma_stars(A, B, p)):
            print(f"model {i}: gamma_star={gs:.6g}")
            entries.append({"model": i, "gamma_star": gs})

    out = os.path.join(out_dir, "hinf_synthesis.json")
    atomic_write_text(out, json.dumps({"entries": entries}, indent=2) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_synth_minimax(args):
    cfg = load_config(args.config)
    ms, p = cfg.model_set, cfg.penalties
    gamma = None if args.gamma is None else checked_level(args.gamma, "--gamma")
    out_dir = _out_dir(args)
    if gamma is not None:
        found = _checked_synthesis(ms, p, gamma)
        if not found:
            print(f"infeasible at gamma={args.gamma:g}: {found.reason}", file=sys.stderr)
            return EXIT_INFEASIBLE
        cert, check = found
    else:
        _, cert, check = _checked_search(ms, p)

    stars = gamma_stars(ms.A, ms.B, p)
    gaps = suboptimality_gaps(cert.gamma_bar, stars)
    print(f"gamma_bar={cert.gamma_bar:.6g}  "
          f"(verified, worst slack eigenvalue {check.worst_violation:.3e})")
    for i, (star, gap) in enumerate(zip(stars, gaps.per_model), start=1):
        print(f"model {i}: gamma_star={star:.6g}  gap={gap:.6g}")
    print(f"minimal gap={gaps.minimal:.6g}  maximal gap={gaps.maximal:.6g}")

    out = os.path.join(out_dir, "certificate.json")
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
    stages, last = {}, time.perf_counter()

    def lap(stage):
        """Record the seconds since the previous lap (or the start) as `stage`."""
        nonlocal last
        now = time.perf_counter()
        stages[stage], last = now - last, now

    cfg = load_config(args.config)
    if cfg.horizon < MIN_DIAGNOSTIC_STEPS:
        raise ConfigError(
            f"reproduce needs a horizon of at least {MIN_DIAGNOSTIC_STEPS} steps "
            f"for the sublinearity diagnostic, got {cfg.horizon}"
        )
    ms, p = cfg.model_set, cfg.penalties
    if args.scenario == "fig3":  # the target must be another model of this set
        validate_spec(DisturbanceSpec(kind="confusing", target=CONFUSING_TARGET), ms,
                      cfg.true_index)
    if args.certificate:  # a rejected certificate leaves no output directory
        cert = load_certificate(args.certificate)
        check = verify_certificate(ms, p, cert)
        if not check.feasible:
            print(f"supplied certificate fails verification "
                  f"(worst {check.worst_violation:.3e} at {check.worst_triple})",
                  file=sys.stderr)
            return EXIT_INFEASIBLE
        out_dir = _out_dir(args)
    else:
        out_dir = _out_dir(args)
        _, cert = minimal_feasible_gamma(ms, p)
    gbar = cert.gamma_bar
    lap("certificate")

    bench = solve_riccati(*ms.pair(cfg.true_index), p, gbar)
    if not bench:
        print(f"benchmark design infeasible at gamma_bar={gbar:.6g}: {bench.reason}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    spec = _scenario_spec(args.scenario, cfg, bench)
    rcfg = dataclasses.replace(cfg, disturbance=spec)
    lap("design")

    traj_mm, traj_h = paired_rollouts(rcfg, cert, bench.K)
    lap("rollouts")

    report = regret_report(traj_mm, traj_h, p, spec.kind)
    R, ratio = report.R, report.R_over_T  # each read recomputes the series
    diag = sublinearity_diagnostic(R)
    stars = gamma_stars(ms.A, ms.B, p)
    bound = value_bound(cert, rcfg.x0)
    cost_mm = accumulated_cost(traj_mm, gbar)
    cost_h = accumulated_cost(traj_h, gbar)
    lap("metrics")

    def at(name):
        return os.path.join(out_dir, name)

    # no manifest while the data files are replaced: a run that fails partway
    # leaves a bundle without one, never one that vouches for mixed files
    try:
        os.remove(at("manifest.json"))
    except FileNotFoundError:
        pass
    except OSError as exc:  # e.g. a directory: the manifest could not be written
        raise ConfigError(f"cannot write {at('manifest.json')}: {exc.strerror}") from None

    ks = np.arange(traj_mm.horizon + 1)
    files = {  # name -> (kind, sha256 of the bytes written), in writing order
        "minimax_traj.csv": ("trajectory", write_trajectory_csv(
            traj_mm, at("minimax_traj.csv"))),
        "hinf_traj.csv": ("trajectory", write_trajectory_csv(traj_h, at("hinf_traj.csv"))),
        "regret.csv": ("regret", write_csv(
            at("regret.csv"), ["T", "d_T", "R_T", "R_over_T", "cost_diff_T"],
            np.column_stack([ks, report.d, R, ratio, report.cost_diff]))),
        "gaps.csv": ("gaps", write_csv(
            at("gaps.csv"), ["model", "gamma_star", "gap"],
            np.column_stack([np.arange(1, ms.size + 1), stars,
                             suboptimality_gaps(gbar, stars).per_model]))),
        "certificate.json": ("certificate", save_certificate(cert, at("certificate.json"))),
    }
    if args.svg:
        charts = {
            "states.svg": ({"adaptive |x|": (ks, np.linalg.norm(traj_mm.x, axis=1)),
                            "benchmark |x|": (ks, np.linalg.norm(traj_h.x, axis=1))},
                           "state norms"),
            "regret.svg": ({"R": (ks, R)}, "cumulative regret"),
            "ratio.svg": ({"R/T": (ks[1:], ratio[1:])}, "regret per step"),
        }
        for name, (series, title) in charts.items():
            files[name] = ("chart", atomic_write_text(
                at(name), svg_line_chart(series, f"{args.scenario}: {title}")))
    lap("write")

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
        "artifacts": [{"name": name, "kind": kind, "sha256": digest}
                      for name, (kind, digest) in files.items()],
    }
    atomic_write_text(at("manifest.json"), json.dumps(manifest, indent=2) + "\n")

    print(f"{args.scenario}: gamma_bar={gbar:.6g}  value_bound={bound:.6g}")
    print(f"accumulated cost: adaptive={cost_mm:.6g}  benchmark={cost_h:.6g}")
    print(f"final regret R(T)={R[-1]:.6g}  verdict={diag.verdict}")
    print(f"wrote {len(files) + 1} files to {out_dir}")
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


def run():
    """The console entry point: `main` on sys.argv, exiting with its code.

    gc.freeze() first moves everything import made to the permanent
    generation, which no later collection, the exit's included, scans.
    `main` leaves the collector as it is for callers that run it in process."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
