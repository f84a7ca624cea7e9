"""One child process of the benchmark.

    python3 bench/child.py reproduce --spans FILE --op N -- <minimaxctrl argv>
    python3 bench/child.py certify --out FILE [--spans FILE --op N] -- CONFIG...

`reproduce` runs the command line front end in this fresh interpreter with
the tracer installed (an untraced bundle runs `python3 -m minimaxctrl.cli`
instead, exactly as a user would).  `certify` certifies each model set
config in turn: gamma* per model, the smallest certifiable level and the
verification of its certificate.  It writes the results, the wall time of
each set and the reference-loop sample taken before each set as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import minimaxctrl as mc  # noqa: E402
from minimaxctrl import cli  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import reference_seconds  # noqa: E402


def certify(paths, tracer, op_base):
    """Certify each config; returns (results, seconds per set, references).

    The reference loop runs before each set, outside the timed region.
    """
    results, refs, seconds = [], [], []
    for k, path in enumerate(paths):
        refs.append(reference_seconds())
        if tracer is not None:
            tracer.current_op = op_base + k
        t0 = time.perf_counter()
        cfg = mc.load_config(path)
        ms, p = cfg.model_set, cfg.penalties
        entry = {"config": path}
        try:
            entry["gamma_star"] = [mc.optimal_attenuation(*ms.pair(i), p)
                                   for i in range(1, ms.size + 1)]
            gamma_bar, cert = mc.minimal_feasible_gamma(ms, p)
            check = mc.verify_certificate(ms, p, cert)
        except mc.BracketError as exc:
            entry["error"] = str(exc)
        else:
            entry.update(gamma_bar=gamma_bar, gains=cert.gains.tolist(),
                         P=cert.P.tolist(), verified=check.feasible)
        seconds.append(time.perf_counter() - t0)
        results.append(entry)
    return results, seconds, refs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("reproduce", "certify"))
    parser.add_argument("--spans")
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("--out")
    argv = sys.argv[1:]
    split = argv.index("--")
    args, rest = parser.parse_args(argv[:split]), argv[split + 1:]

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.current_op = args.op
        tracer.install()
    try:
        if args.mode == "reproduce":
            return cli.main(rest)
        results, seconds, refs = certify(rest, tracer, args.op)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "reference": refs, "sets": results}, fh)
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.save(args.spans)


if __name__ == "__main__":
    sys.exit(main())
