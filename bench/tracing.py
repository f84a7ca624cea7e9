"""Spans around the public functions of minimaxctrl, recorded from outside.

`Tracer.install` replaces each traced function at every module attribute
of the package that is bound to it, so a call is caught at the name the
caller resolves it by (for example `simulate` calls `minimax_step` through
its own import, and `cli` calls `minimal_feasible_gamma` through its own).
`uninstall` puts the originals back.  Nothing under src/ is changed.

A span is (name, start, end, parent, operation id).  Spans are kept in
compact in-memory arrays and written out once, at the end of a run.
Counts that belong to a boundary (Riccati iterations, infeasible probes,
rollout steps, files and bytes written) are taken in the same wrapper.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np
from minimaxctrl.minimax_cert import MinimaxCertificate

# (defining module, function) for every traced boundary
TRACED = (
    ("cli", "cmd_reproduce"),
    ("model_set", "load_config"),
    ("hinf", "solve_riccati"),
    ("hinf", "optimal_attenuation"),
    ("hinf", "closed_loop_scan"),
    ("minimax_cert", "minimal_feasible_gamma"),
    ("minimax_cert", "synthesize_certificate"),
    ("minimax_cert", "verify_certificate"),
    ("minimax_cert", "save_certificate"),
    ("policies", "minimax_step"),
    ("policies", "hinf_step"),
    ("policies", "update_residuals"),
    ("simulate", "rollout"),
    ("simulate", "write_trajectory_csv"),
    ("disturbance", "emit"),
    ("disturbance", "peak_sinusoid_spec"),
    ("regret", "regret_report"),
    ("regret", "sublinearity_diagnostic"),
    ("regret", "total_regret"),
    ("fileio", "write_csv"),
    ("fileio", "atomic_write_text"),
)

FILE_WRITERS = ("fileio.write_csv", "fileio.atomic_write_text",
                "simulate.write_trajectory_csv", "minimax_cert.save_certificate")


def _observe_riccati(counts, args, kwargs, result):
    if result:
        counts["hinf.riccati_iters"] += result.iterations
    else:
        counts["hinf.riccati_infeasible"] += 1


def _observe_synth(counts, args, kwargs, result):
    if result:
        counts["minimax_cert.synth_accepted"] += 1


def _count_file(counts, path):
    counts["fileio.files_written"] += 1
    counts["fileio.bytes_written"] += os.path.getsize(path)


def _observe_cert_write(counts, args, kwargs, result):
    _count_file(counts, args[1] if len(args) > 1 else kwargs["path"])


def _observe_text_write(counts, args, kwargs, result):
    _count_file(counts, args[0] if args else kwargs["path"])


def _rollout_kind(args, kwargs):
    controller = args[1] if len(args) > 1 else kwargs["controller"]
    return "adaptive" if isinstance(controller, MinimaxCertificate) else "fixed"


def _observe_rollout(counts, args, kwargs, result):
    counts[f"simulate.rollout_steps.{_rollout_kind(args, kwargs)}"] += result.horizon


OBSERVERS = {
    "hinf.solve_riccati": _observe_riccati,
    "minimax_cert.synthesize_certificate": _observe_synth,
    "minimax_cert.save_certificate": _observe_cert_write,
    "fileio.atomic_write_text": _observe_text_write,
    "simulate.rollout": _observe_rollout,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self.current_op = 0
        self._stack = []
        self._patched = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, span, fn):
        observe = OBSERVERS.get(span)
        kind = _rollout_kind if span == "simulate.rollout" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{span}.{kind(args, kwargs)}" if kind else span
            idx = len(tracer.start)
            tracer.name.append(tracer._name_id(name))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter_ns()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every package attribute bound to a traced function."""
        wrappers = {}
        for mod, fn_name in TRACED:
            fn = getattr(importlib.import_module(f"minimaxctrl.{mod}"), fn_name)
            wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fn_name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "minimaxctrl" and not modname.startswith("minimaxctrl."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def save(self, path):
        """Write spans and counts as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            counts=np.array(json.dumps(dict(self.counts))),
        )

    def merge(self, path):
        """Append the spans and counts a child process saved with `save`."""
        with np.load(path) as doc:
            remap = np.array([self._name_id(str(n)) for n in doc["names"]],
                             dtype=np.int32)
            base = len(self.start)
            parent = doc["parent"]
            self.name.extend(remap[doc["name"]].tolist())
            self.parent.extend(np.where(parent >= 0, parent + base, -1).tolist())
            self.op.extend(doc["op"].tolist())
            self.start.extend(doc["start"].tolist())
            self.end.extend(doc["end"].tolist())
            self.counts.update(json.loads(str(doc["counts"])))

    def layer_metrics(self, rounds):
        """Per-layer metrics, each a total per traced round unless noted."""
        names = np.array(self.names, dtype=object)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        label = names[name]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        parent_label = np.where(has_parent, label[np.where(has_parent, parent, 0)], "")

        def pick(*spans):
            return np.isin(label, spans)

        def total(*spans):
            return float(np.sum(dur[pick(*spans)])) / rounds

        def calls(*spans):
            return float(np.count_nonzero(pick(*spans))) / rounds

        def per_step(kind):
            steps = self.counts[f"simulate.rollout_steps.{kind}"]
            span_s = float(np.sum(dur[pick(f"simulate.rollout.{kind}")]))
            return span_s / steps * 1e6 if steps else 0.0

        riccati = dur[pick("hinf.solve_riccati")]
        writes = pick(*FILE_WRITERS) & ~np.isin(parent_label, FILE_WRITERS)
        rollouts = ("simulate.rollout.adaptive", "simulate.rollout.fixed")
        c = self.counts
        return {
            "cli.reproduce_s": (total("cli.cmd_reproduce"), "s"),
            "cli.reproduce_self_s": (
                float(np.sum(self_time[pick("cli.cmd_reproduce")])) / rounds, "s"),
            "model_set.load_config_s": (total("model_set.load_config"), "s"),
            "hinf.gamma_star_s": (total("hinf.optimal_attenuation"), "s"),
            "hinf.gamma_star_calls": (calls("hinf.optimal_attenuation"), "count"),
            "hinf.riccati_calls": (calls("hinf.solve_riccati"), "count"),
            "hinf.riccati_infeasible": (c["hinf.riccati_infeasible"] / rounds, "count"),
            "hinf.riccati_s": (total("hinf.solve_riccati"), "s"),
            "hinf.riccati_max_s": (float(riccati.max()) if len(riccati) else 0.0, "s"),
            "hinf.riccati_iters": (c["hinf.riccati_iters"] / rounds, "count"),
            "hinf.scan_s": (total("hinf.closed_loop_scan"), "s"),
            "minimax_cert.gamma_bar_s": (total("minimax_cert.minimal_feasible_gamma"), "s"),
            "minimax_cert.synth_calls": (calls("minimax_cert.synthesize_certificate"), "count"),
            "minimax_cert.synth_accepted": (c["minimax_cert.synth_accepted"] / rounds, "count"),
            "minimax_cert.synth_s": (total("minimax_cert.synthesize_certificate"), "s"),
            "minimax_cert.verify_calls": (calls("minimax_cert.verify_certificate"), "count"),
            "minimax_cert.verify_s": (total("minimax_cert.verify_certificate"), "s"),
            "policies.step_calls": (calls("policies.minimax_step", "policies.hinf_step"), "count"),
            "policies.step_s": (total("policies.minimax_step", "policies.hinf_step"), "s"),
            "policies.residual_s": (total("policies.update_residuals"), "s"),
            "simulate.rollout_calls": (calls(*rollouts), "count"),
            "simulate.rollout_steps": (
                (c["simulate.rollout_steps.adaptive"] + c["simulate.rollout_steps.fixed"])
                / rounds, "count"),
            "simulate.rollout_s": (total(*rollouts), "s"),
            "simulate.adaptive_us_per_step": (per_step("adaptive"), "us"),
            "simulate.fixed_us_per_step": (per_step("fixed"), "us"),
            "disturbance.emit_calls": (calls("disturbance.emit"), "count"),
            "disturbance.emit_s": (total("disturbance.emit"), "s"),
            "disturbance.peak_sinusoid_s": (total("disturbance.peak_sinusoid_spec"), "s"),
            "regret.report_s": (total("regret.regret_report"), "s"),
            "regret.diagnostic_s": (total("regret.sublinearity_diagnostic"), "s"),
            "regret.total_regret_s": (total("regret.total_regret"), "s"),
            "fileio.write_s": (float(np.sum(dur[writes])) / rounds, "s"),
            "fileio.files_written": (c["fileio.files_written"] / rounds, "count"),
            "fileio.bytes_written": (c["fileio.bytes_written"] / rounds, "bytes"),
            "trace.spans": (len(dur) / rounds, "count"),
        }
