"""Benchmark a change against its parent commit in alternating pairs and write
BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr N [--parent REV] [--pairs 10]
                                 [--workload W ...] [--claim W:METRIC]

The change side is the working tree of the checkout this script is in; the
parent (default HEAD) is checked out with `git worktree add` in a temporary
directory, which is removed on exit and on error.  Pair k runs
`bench/run.py --workload W --seed k --trace 0` in both checkouts, the parent
first at odd k and the change first at even k, at the run length the bench
fixes.  Each run's result line (the last line of its output) and its
"N rounds" line are parsed.  Per workload the file holds, for every
end-to-end metric, each side's runs, median and quartiles
(`statistics.quantiles(method="inclusive")`) and the number of pairs in
which the change is lower, plus rounds, correctness and failed operations
per side.  With --claim the file also holds its verdict: the change better
in at least 9 of every 10 pairs, and the median gap larger than the
parent's interquartile range.  Only the standard library is used.
"""
import argparse
import json
import math
import os
import pathlib
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
ROUNDS = re.compile(r": (\d+) rounds, ")
RULE = "change better in >= 9 of 10 pairs and the median gap above the parent's IQR"


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_bench(checkout, workload, seed):
    """(result dict, rounds) of one `bench/run.py --trace 0` run in `checkout`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    rounds = [int(m.group(1)) for line in lines if (m := ROUNDS.search(line))]
    if proc.returncode != 0 or not lines or len(rounds) != 1:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), rounds[0]


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(workload, pairs, parent, change):
    """The record of one workload: per side and pair, its seeds, rounds,
    correctness, failures and every end-to-end metric."""
    seeds = list(range(1, pairs + 1))
    record = {"pairs": pairs, "order": "parent first at odd seeds, change first at even seeds",
              "seeds": seeds, "rounds": {"parent": [], "change": []}}
    results = {"parent": [], "change": []}
    for seed in seeds:
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in sides:
            result, rounds = run_bench(parent if side == "parent" else change, workload, seed)
            results[side].append(result)
            record["rounds"][side].append(rounds)
            print(f"{workload} seed {seed} {side}: {rounds} rounds, wall_ref "
                  f"{result['metrics']['wall_ref']['value']:.4f}", file=sys.stderr, flush=True)
    record["correct"] = {s: all(r["correct"] for r in results[s]) for s in results}
    record["failed"] = {s: sum(r["failed"] for r in results[s]) for s in results}
    record["metrics"] = {}
    for name, first in results["parent"][0]["metrics"].items():
        runs = {s: [r["metrics"][name]["value"] for r in results[s]] for s in results}
        record["metrics"][name] = {
            "unit": first["unit"],
            "parent": summary(runs["parent"]),
            "change": summary(runs["change"]),
            "change_lower_in_pairs": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
        }
    return record


def verdict(record, metric, better):
    """Whether the change is better on `metric`: in at least 9 of every 10
    pairs, and by a median gap larger than the parent's interquartile range."""
    m = record["metrics"][metric]
    parent, change = m["parent"], m["change"]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent["runs"], change["runs"]))
    gap = sign * (parent["median"] - change["median"])
    return wins >= math.ceil(0.9 * record["pairs"]) and gap > parent["q3"] - parent["q1"]


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain the file judges")
    parser.add_argument("--out", help="default: BENCH_<pr>.json at the checkout's root")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs per side)")
    claim = args.claim.split(":") if args.claim else None
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if claim and (len(claim) != 2 or claim[1] not in better
                  or claim[0] not in (args.workload or workloads)):
        parser.error(f"--claim must be WORKLOAD:METRIC of a benchmarked workload, "
                     f"got {args.claim!r}")
    out = pathlib.Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    parent_rev = git("rev-parse", "--short", args.parent)

    # SIGTERM unwinds like Ctrl-C, so the worktree is removed either way
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="bench-parent-")
    tree = os.path.join(tmp, "parent")
    try:
        git("worktree", "add", "--detach", tree, parent_rev)
        record = {name: compare(name, args.pairs, tree, str(ROOT))
                  for name in (args.workload or workloads)}
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    same = subprocess.run(["git", "diff", "--quiet", parent_rev, "--", "bench", "BENCHMARK.json"],
                          cwd=ROOT).returncode == 0
    doc = {"pr": args.pr}
    if claim:
        workload, metric = claim
        doc["claim"] = {"workload": workload, "metric": metric, "better": better[metric],
                        "met": verdict(record[workload], metric, better[metric]), "rule": RULE}
    doc["record"] = (f"bench/run.py --trace 0 at the bench's run length, parent ({parent_rev}) "
                     f"and change (the working tree) in alternating order, same seed per pair; "
                     f"quartiles by statistics.quantiles(method=\"inclusive\")")
    doc["machine"] = {"cores": os.cpu_count(), "python": platform.python_version(),
                      "numpy": numpy, "blas_threads": 1}
    doc["workloads"] = record
    doc["benchmark_unchanged"] = (
        "no file under bench/ and not BENCHMARK.json changed; both sides ran the same "
        "bench/run.py" if same else
        "bench/ or BENCHMARK.json differs from the parent; each side ran its own bench/run.py")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if claim:
        print(f"claim {args.claim}: {'met' if doc['claim']['met'] else 'not met'}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
