"""Disturbance laws the experiments throw at the controllers.

Implemented kinds:

* ``zero``            -- w = 0.
* ``hinf_worst_case`` -- the saddle-point policy w = L* x of the known-model
  game, with L* taken from an H-infinity solution.
* ``sinusoid``        -- open-loop w_k = amplitude * sin(omega k + phase) * d.
* ``confusing``       -- mixes model responses so that a wrong model's
  one-step residual is exactly zero and the switching law never settles on
  the truth: w_k = (A_i - A_j) x_k + (B_i - B_j) u_k for target i, true j.
* ``external``        -- a supplied (steps, n) sequence, replayed in order.

A `DisturbanceSpec` is plain data; `emit` resolves it for one rollout.
Each kind fixes its *generating loop* (which controller's closed loop
produces the recorded sequence): the worst-case policy is generated along
the H-infinity loop, the confusing one along the adaptive loop;
zero/sinusoid/external sequences are open.  The recorded sequence is then
replayed verbatim on the other controller so both see the same inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import hinf
from .fileio import ConfigError, integer, number, numeric

# kind -> generating loop
KINDS = {
    "zero": "open",
    "hinf_worst_case": "hinf",
    "sinusoid": "open",
    "confusing": "minimax",
    "external": "open",
}


@dataclass(eq=False)
class DisturbanceSpec:
    """One disturbance law as plain data; only the fields of `kind` are used."""

    kind: str
    amplitude: float = 1.0
    omega: float = 0.0
    phase: float = 0.0
    direction: np.ndarray = None
    target: int = None
    sequence: np.ndarray = None
    L: np.ndarray = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")

    @property
    def generating_loop(self):
        """'open', 'hinf' or 'minimax', fixed by the kind."""
        return KINDS[self.kind]


def peak_sinusoid_spec(A, B, K, penalties):
    """Unit cosine at the closed loop's worst frequency.

    Scans the weighted closed-loop frequency response for u = -Kx (A, B
    and K as 2-D arrays, see `hinf.closed_loop_scan`), places a
    unit-amplitude sinusoid of phase pi/2 (a cosine) at the peak frequency,
    and points it along the right singular vector of the response there.
    The phase keeps every sample at unit norm when the peak is at omega = 0
    or pi, where a zero-phase sine vanishes on the integers.  The singular
    vector is complex in general; it is made real by rotating its largest
    entry to the positive real axis, taking the real part, and
    renormalizing.
    """
    scan = hinf.closed_loop_scan(A, B, K, penalties)
    tf = hinf._frequency_response(A, B, K, penalties)(scan.peak_omega)
    _, _, Vh = np.linalg.svd(tf)
    v = Vh[0].conj()
    lead = v[int(np.argmax(np.abs(v)))]
    v = v * (lead.conj() / abs(lead))
    d = np.real(v)
    d = d / np.linalg.norm(d)
    return DisturbanceSpec(kind="sinusoid", amplitude=1.0,
                           omega=scan.peak_omega, phase=np.pi / 2, direction=d)


def emit(cfg):
    """Resolve a validated ExperimentConfig's disturbance for one rollout.

    Returns (w, law): w is a new (T, n) array of the open-loop samples
    (zeros for a feedback kind), and law is None or, for a feedback kind,
    the function (x_k, u_k) -> w_k that the rollout evaluates at each step.
    """
    spec, ms, T = cfg.disturbance, cfg.model_set, cfg.horizon
    if spec.kind == "sinusoid":
        wave = spec.amplitude * np.sin(spec.omega * np.arange(T) + spec.phase)
        return np.outer(wave, spec.direction), None
    if spec.kind == "external":
        return spec.sequence[:T].copy(), None
    w = np.zeros((T, ms.n))
    if spec.kind == "hinf_worst_case":
        L = spec.L
        return w, lambda x_k, u_k: L.dot(x_k)
    if spec.kind == "confusing":
        (Aj, Bj), (Ai, Bi) = ms.pair(cfg.true_index), ms.pair(spec.target)
        dA, dB = Ai - Aj, Bi - Bj
        return w, lambda x_k, u_k: dA.dot(x_k) + dB.dot(u_k)
    return w, None


def validate_spec(spec, ms, true_index):
    """Check a spec against an experiment; return a normalized copy.

    The copy passes the kind-specific checks (finite entries, unit
    direction, valid confusing target, a (steps, n) sequence, an n x n
    worst-case gain L).  Nothing about the experiment is stored in it, and
    `spec` itself is not modified, so one spec can serve several
    experiments.  Raises ConfigError.
    """
    spec = replace(spec)
    n = ms.n
    if spec.kind == "sinusoid":
        spec.amplitude = number(spec.amplitude, "sinusoid amplitude")
        spec.omega = number(spec.omega, "sinusoid omega")
        spec.phase = number(spec.phase, "sinusoid phase")
        if spec.direction is None:
            if n != 1:
                raise ConfigError("sinusoid needs an explicit direction when n > 1")
            spec.direction = np.ones(1)
        spec.direction = numeric(spec.direction, "sinusoid direction").reshape(-1)
        if spec.direction.shape[0] != n:
            raise ConfigError(
                f"sinusoid direction has length {spec.direction.shape[0]}, "
                f"state dimension is {n}"
            )
        norm = float(np.linalg.norm(spec.direction))
        if norm <= 0:
            raise ConfigError("sinusoid direction must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            spec.direction = spec.direction / norm
    elif spec.kind == "confusing":
        spec.target = integer(spec.target, "confusing target")
        if not 1 <= spec.target <= ms.size:
            raise ConfigError(f"confusing target {spec.target} outside 1..{ms.size}")
        if spec.target == true_index:
            raise ConfigError("confusing target must differ from the true model index")
    elif spec.kind == "external":
        spec.sequence = numeric(spec.sequence, "external sequence")
        if spec.sequence.ndim != 2 or spec.sequence.shape[1] != n:
            raise ConfigError(
                f"external sequence must be (steps, {n}), got "
                f"{spec.sequence.shape}"
            )
    elif spec.kind == "hinf_worst_case":
        if spec.L is None:
            raise ConfigError("hinf_worst_case needs the L gain of an "
                              "H-infinity design")
        spec.L = numeric(spec.L, "L gain")
        if spec.L.shape != (n, n):
            raise ConfigError(f"L gain must be {n}x{n}, got {spec.L.shape}")
    return spec
