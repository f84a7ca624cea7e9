"""Benchmark of minimaxctrl: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload paper-bundles --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics from spans recorded around the package's public
functions, plus the tracing overhead.  Lines before it name each metric in
the workload's own terms.  See bench/README.md for the workloads, metrics
and reference figures.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")
SRC = os.path.join(ROOT, "src")

# one BLAS thread: the matrices are at most 8x8, and idle BLAS threads
# spinning on a 2-core machine only add noise
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
sys.path.insert(0, SRC)

SETUP_SAMPLES = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB",
                    "gamma_bar": "1", "gamma_bar_ratio": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-bundles", "random-sets", "long-horizon"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up, print 'ready' and exit")
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(name, seed, workdir):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir)


def time_setup(args, workdir, k):
    """Fresh interpreter until the workload's set-up reports 'ready', in seconds."""
    sub = os.path.join(workdir, f"setup-{k}")
    os.makedirs(sub)
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", sub]
    with open(sub + ".log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log)
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
    if line.strip() != b"ready" or code != 0:
        with open(sub + ".log", encoding="utf-8", errors="replace") as fh:
            sys.exit(f"set-up of {args.workload} failed (exit {code}):\n{fh.read()}")
    return seconds


def run_rounds(workload, seconds, tracer, sample_setup, setups):
    """Whole rounds until the next one would end past `seconds` of rounds.

    `setups` set-up samples are taken between the first rounds, so that
    they see the same phases of a shared host as the timed work; their time
    is not counted against `seconds`.  Returns raw samples and samples
    scaled by the median reference of their round, keyed by whether their
    round was traced.  Under tracing, rounds alternate untraced and traced
    (at least one of each), so the overhead is measured within one run.
    """
    setup = []
    raw, scaled = {False: [], True: []}, {False: [], True: []}
    attempted = failed = rounds = 0
    elapsed = 0.0
    while True:
        if len(setup) < setups:
            setup.append(sample_setup(len(setup)))
        traced_round = tracer is not None and rounds % 2 == 1
        t0 = time.perf_counter()
        samples, refs, n_ops, n_failed = workload.round(rounds, tracer if traced_round else None)
        last = time.perf_counter() - t0
        elapsed += last
        raw[traced_round] += samples
        scaled[traced_round] += [s / statistics.median(refs) for s in samples]
        attempted += n_ops
        failed += n_failed
        rounds += 1
        if elapsed + last > seconds and (tracer is None or rounds >= 2):
            break
    while len(setup) < setups:
        setup.append(sample_setup(len(setup)))
    return setup, raw, scaled, attempted, failed, rounds


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        make_workload(args.workload, args.seed, args.workdir)
        print("ready", flush=True)
        return 0

    if not os.path.isdir(os.path.join(SRC, "minimaxctrl")):
        sys.exit(f"no src/minimaxctrl under {ROOT}; run from the root of a checkout")
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        setup, raw, scaled, attempted, failed, rounds = run_rounds(
            workload, args.seconds, tracer, lambda k: time_setup(args, workdir, k),
            0 if args.trace else SETUP_SAMPLES)
        rss = workload.peak_rss_mb()
        problems, quality = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    wall = statistics.median(raw[False])
    wall_ref = statistics.median(scaled[False])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds, "
          f"{attempted} operations attempted, {failed} failed, "
          f"{len(problems)} check problems")
    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.layer_metrics(rounds // 2).items()}
        overhead = (statistics.median(scaled[True]) / wall_ref - 1.0) * 100.0
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        spans = os.path.join(RESULTS, f"spans-{args.workload}.npz")
        tracer.save(spans)
        print(f"  tracing overhead {overhead:.2f}% on wall_ref ({len(scaled[True])} traced "
              f"vs {len(scaled[False])} untraced samples); spans in "
              f"{os.path.relpath(spans, ROOT)}")
    else:
        values = {"setup_s": statistics.median(setup), "wall_ref": wall_ref,
                  "peak_rss_mb": rss, **quality}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        name, value, unit, note = workload.headline(wall)
        print(f"  {name} = {value:.6g} {unit}  ({note}; median of {len(raw[False])})")
        for key, unit in END_TO_END_UNITS.items():
            print(f"  {key} = {values[key]:.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
