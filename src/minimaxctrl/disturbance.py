"""Disturbance strategies the experiments throw at the controllers.

Implemented kinds:

* ``zero``            -- w = 0.
* ``hinf_worst_case`` -- the saddle-point policy w = L* x of the known-model
  game, with L* taken from an H-infinity solution.
* ``sinusoid``        -- open-loop w_k = amplitude * sin(omega k + phase) * d.
* ``confusing``       -- mixes model responses so that a wrong model's
  one-step residual is exactly zero and the switching law never settles on
  the truth: w_k = (A_i - A_j) x_k + (B_i - B_j) u_k for target i, true j.
* ``external``        -- a supplied sequence, e.g. loaded from CSV.

Each kind fixes its *generating loop* (which controller's closed loop
produces the recorded sequence): the worst-case policy is generated along
the H-infinity loop, the confusing one along the adaptive loop;
zero/sinusoid/external sequences are open.  The recorded sequence is then
replayed verbatim on the other controller so both see the same inputs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import fileio, hinf
from .fileio import ConfigError, integer, number, numeric

# kind -> (generating loop, config keys besides "kind")
KINDS = {
    "zero": ("open", ()),
    "hinf_worst_case": ("hinf", ()),
    "sinusoid": ("open", ("amplitude", "omega", "phase", "direction")),
    "confusing": ("minimax", ("target",)),
    "external": ("open", ("sequence", "path")),
}


@dataclass(eq=False)
class DisturbanceSpec:
    """One disturbance strategy plus the context it needs at emit time.

    Only the fields relevant to `kind` are used.  `model_set` and
    `true_index` are runtime context, set on the copy that `validate_spec`
    binds to an experiment.
    """

    kind: str
    amplitude: float = 1.0
    omega: float = 0.0
    phase: float = 0.0
    direction: np.ndarray = None
    target: int = None
    sequence: np.ndarray = None
    L: np.ndarray = None
    model_set: object = field(default=None, repr=False)
    true_index: int = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")

    @property
    def generating_loop(self):
        """'open', 'hinf' or 'minimax', fixed by the kind."""
        return KINDS[self.kind][0]


def hinf_worst_case(L_star, x_k):
    """Saddle-point adversary w = L* x."""
    return np.asarray(L_star, dtype=float) @ np.asarray(x_k, dtype=float)


def confusing_disturbance(ms, j, i, x_k, u_k):
    """Disturbance that makes model j's data look exactly like model i's.

    w_k = (A_i - A_j) x_k + (B_i - B_j) u_k, so under the true dynamics of
    model j the successor state is A_i x_k + B_i u_k and model i's one-step
    residual vanishes identically.  Requires i != j (the construction is
    vacuous otherwise).
    """
    if i == j:
        raise ValueError("confusing disturbance needs a target distinct from "
                         "the true model")
    Aj, Bj = ms.pair(j)
    Ai, Bi = ms.pair(i)
    x_k = np.asarray(x_k, dtype=float)
    u_k = np.atleast_1d(np.asarray(u_k, dtype=float))
    return (Ai - Aj) @ x_k + (Bi - Bj) @ u_k


def peak_sinusoid_spec(A, B, K, penalties):
    """Unit sinusoid at the closed loop's worst frequency.

    Scans the weighted closed-loop frequency response for u = -Kx (A, B
    and K as 2-D arrays, see `hinf.closed_loop_scan`), places a
    unit-amplitude, zero-phase sinusoid at the peak frequency, and points it
    along the right singular vector of the response there.  The singular
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
                           omega=scan.peak_omega, phase=0.0, direction=d)


def emit(spec, k, x_k, u_k):
    """Evaluate the strategy at step k given the current state and input."""
    if spec.kind == "zero":
        return np.zeros(np.asarray(x_k).shape[0])
    if spec.kind == "hinf_worst_case":
        return hinf_worst_case(spec.L, x_k)
    if spec.kind == "sinusoid":
        return (spec.amplitude * np.sin(spec.omega * k + spec.phase)
                * spec.direction)
    if spec.kind == "confusing":
        if spec.model_set is None or spec.true_index is None:
            raise ValueError("confusing spec is not bound to an experiment "
                             "(missing model set / true index)")
        return confusing_disturbance(spec.model_set, spec.true_index,
                                     spec.target, x_k, u_k)
    if k >= spec.sequence.shape[0]:  # external
        raise ValueError(f"external sequence exhausted at step {k}")
    return spec.sequence[k]


def validate_spec(spec, ms, true_index):
    """Check a spec against an experiment; return a bound, normalized copy.

    The copy passes the kind-specific checks (finite entries, unit
    direction, valid confusing target, sequence width, an n x n worst-case
    gain L) and carries the model set and true index that `emit` needs for
    the confusing kind; `spec` itself is not modified, so one spec can
    serve several experiments.  Raises ConfigError.
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
        spec.model_set = ms
        spec.true_index = true_index
    elif spec.kind == "external":
        spec.sequence = numeric(spec.sequence, "external sequence")
        if spec.sequence.ndim == 1:
            spec.sequence = spec.sequence.reshape(-1, 1)
        if spec.sequence.ndim != 2 or spec.sequence.shape[1] != n:
            raise ConfigError(
                f"external sequence must be (steps, {n}), got "
                f"{spec.sequence.shape}"
            )
    elif spec.kind == "hinf_worst_case":
        if spec.L is None:
            raise ConfigError("hinf_worst_case needs the L gain of an "
                              "H-infinity design, which a config cannot supply")
        spec.L = numeric(spec.L, "L gain")
        if spec.L.shape != (n, n):
            raise ConfigError(f"L gain must be {n}x{n}, got {spec.L.shape}")
    return spec


def spec_from_dict(doc, base_dir=""):
    """Build a spec from a config 'disturbance' section.

    Its keys are the DisturbanceSpec fields the kind accepts (KINDS), so
    the dataclass defaults apply; "path" names a sequence CSV relative to
    base_dir.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("disturbance section must be an object with 'kind'")
    kind = DisturbanceSpec(kind=doc["kind"]).kind
    unknown = set(doc) - set(KINDS[kind][1]) - {"kind"}
    if unknown:
        raise ConfigError(
            f"disturbance kind {kind!r} does not accept keys: "
            f"{', '.join(sorted(unknown))}"
        )
    fields = dict(doc)
    if "path" in fields:
        fields["sequence"] = load_sequence(os.path.join(base_dir, fields.pop("path")))
    return DisturbanceSpec(**fields)


def load_sequence(path):
    """Read a disturbance sequence CSV with columns k, w_1..w_n."""
    header, rows = fileio.read_csv_columns(path)
    if not header or header[0] != "k":
        raise ConfigError(f"{path}: expected first column 'k'")
    return np.array([row[1:] for row in rows], dtype=float)
