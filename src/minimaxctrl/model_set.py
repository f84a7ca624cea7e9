"""Finite model sets, quadratic penalties, and experiment configuration.

The controller knows the family of pairs (A, B) but not which member
generates the data.  Model indices are 1-based throughout, as in the
file formats and the CLI.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import disturbance as _dist
from .fileio import ConfigError, integer, numeric, read_json_object, read_only
from .hinf import checked_level

SYMMETRY_TOL = 1e-9
PD_MIN_EIG = 1e-12


def enforce_symmetry(M, name="matrix"):
    """Return the symmetrized read-only copy of M, rejecting real asymmetry.

    Asymmetry up to SYMMETRY_TOL (max-abs of M - M.T) is treated as
    numerical noise and averaged away; anything larger is an input error,
    not noise, and so is a non-finite entry.
    """
    M = numeric(M, name)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {M.shape}")
    gap = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if gap > SYMMETRY_TOL:
        raise ConfigError(
            f"{name} is asymmetric by {gap:.3e} (limit {SYMMETRY_TOL:.1e})")
    return read_only(0.5 * (M + M.T))


@dataclass(eq=False)
class ModelSet:
    """Ordered family of linear models x+ = A_i x + B_i u + w, i = 1..size."""

    A: np.ndarray  # (size, n, n), read-only
    B: np.ndarray  # (size, n, m), read-only

    def __post_init__(self):
        self.A = read_only(self.A)
        self.B = read_only(self.B)
        if self.A.ndim != 3 or self.B.ndim != 3:
            raise ConfigError("ModelSet expects stacked A (F,n,n) and B (F,n,m)")
        F, n, n2 = self.A.shape
        if F < 1:
            raise ConfigError("model set must contain at least one model")
        if n != n2:
            raise ConfigError(f"A matrices must be square, got {self.A.shape[1:]}")
        if self.B.shape[0] != F or self.B.shape[1] != n:
            raise ConfigError(
                f"B stack shape {self.B.shape} does not match A stack {self.A.shape}"
            )
        for name, S in (("A", self.A), ("B", self.B)):
            bad = np.flatnonzero(~np.isfinite(S).reshape(F, -1).all(axis=1))
            if bad.size:
                raise ConfigError(f"model {bad[0] + 1}: {name} has a non-finite entry")

    @classmethod
    def from_pairs(cls, pairs):
        """Build from an ordered list of (A_i, B_i) pairs, A_i (n, n), B_i (n, m)."""
        if not pairs:
            raise ConfigError("model set must contain at least one model")
        As = [np.asarray(A, dtype=float) for A, _ in pairs]
        Bs = [np.asarray(B, dtype=float) for _, B in pairs]
        for k, (A, B) in enumerate(zip(As, Bs), start=1):
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ConfigError(f"model {k}: A must be square, got {A.shape}")
            if B.ndim != 2 or B.shape[0] != A.shape[0]:
                raise ConfigError(f"model {k}: B is {B.shape}, expected ({A.shape[0]}, m)")
        if len({a.shape for a in As}) > 1 or len({b.shape for b in Bs}) > 1:
            raise ConfigError("all models must share the same state/input dimensions")
        return cls(np.stack(As), np.stack(Bs))

    @property
    def size(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def m(self):
        return self.B.shape[2]

    def pair(self, i):
        """Return (A_i, B_i) for 1-based index i."""
        if not 1 <= i <= self.size:
            raise ConfigError(f"model index {i} outside 1..{self.size}")
        return self.A[i - 1], self.B[i - 1]


@dataclass(eq=False)
class Penalties:
    """State and input weights of the quadratic stage cost |x|_Q^2 + |u|_R^2."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.Q = enforce_symmetry(self.Q, "Q")
        self.R = enforce_symmetry(self.R, "R")
        for name, M in (("Q", self.Q), ("R", self.R)):
            lo = float(np.min(np.linalg.eigvalsh(M)))
            if lo <= PD_MIN_EIG:
                raise ConfigError(
                    f"{name} must be positive definite (min eig {lo:.3e})"
                )


@dataclass(eq=False)
class ExperimentConfig:
    """One simulation experiment: who the plant really is and what hits it."""

    model_set: ModelSet
    penalties: Penalties
    true_index: int
    horizon: int
    gamma: float
    disturbance: _dist.DisturbanceSpec
    x0: np.ndarray = field(default=None)

    def __post_init__(self):
        ms = self.model_set
        self.true_index = integer(self.true_index, "true_index")
        self.horizon = integer(self.horizon, "horizon")
        if self.penalties.Q.shape[0] != ms.n:
            raise ConfigError(
                f"Q is {self.penalties.Q.shape[0]}x..., state dimension is {ms.n}"
            )
        if self.penalties.R.shape[0] != ms.m:
            raise ConfigError(
                f"R is {self.penalties.R.shape[0]}x..., input dimension is {ms.m}"
            )
        if not 1 <= self.true_index <= ms.size:
            raise ConfigError(f"true_index {self.true_index} outside 1..{ms.size}")
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        self.gamma = checked_level(self.gamma, "gamma")
        if self.x0 is None:
            self.x0 = np.ones(ms.n)
        self.x0 = numeric(self.x0, "x0")
        if self.x0.shape != (ms.n,):
            raise ConfigError(f"x0 must be a list of {ms.n} numbers, got shape {self.x0.shape}")
        spec = self.disturbance = _dist.validate_spec(self.disturbance, ms,
                                                      self.true_index)
        if spec.kind == "external" and spec.sequence.shape[0] < self.horizon:
            raise ConfigError(f"external sequence has {spec.sequence.shape[0]} "
                              f"steps, horizon is {self.horizon}")


def _matrix_from_rows(rows, name):
    M = numeric(rows, name)
    return M.reshape(1, -1) if M.ndim < 2 else M


def load_config(path):
    """Read an experiment config from a JSON file.

    Layout::

        {
          "models": [{"A": [[...], ...], "B": [[...], ...]}, ...],
          "penalties": {"Q": [[...], ...], "R": [[...], ...]},
          "experiment": {"true_index": 2, "x0": [...], "horizon": 100,
                         "gamma": 31.0}
        }

    Matrices are row-major lists of rows; a B given as a flat list is read
    as a single input column.  `x0` may be omitted (defaults to all ones).
    Other top-level keys are ignored.  The disturbance is the zero spec:
    each command builds the disturbance it needs from the designs.
    """
    raw = read_json_object(path, "config", ("models", "penalties", "experiment"))

    models = raw["models"]
    if not isinstance(models, list) or not models:
        raise ConfigError("'models' must be a non-empty list")
    pairs = []
    for k, entry in enumerate(models, start=1):
        if not isinstance(entry, dict) or "A" not in entry or "B" not in entry:
            raise ConfigError(f"model {k} must be an object with 'A' and 'B'")
        A = _matrix_from_rows(entry["A"], f"model {k} A")
        B = _matrix_from_rows(entry["B"], f"model {k} B")
        if B.shape[0] == 1 and A.shape[0] != 1:
            B = B.reshape(-1, 1)  # flat list means one input column
        pairs.append((A, B))
    ms = ModelSet.from_pairs(pairs)

    pen = raw["penalties"]
    if not isinstance(pen, dict) or "Q" not in pen or "R" not in pen:
        raise ConfigError("'penalties' must contain Q and R")
    penalties = Penalties(
        _matrix_from_rows(pen["Q"], "Q"), _matrix_from_rows(pen["R"], "R")
    )

    exp = raw["experiment"]
    if not isinstance(exp, dict):
        raise ConfigError("'experiment' must be an object")
    # a missing key arrives as None, which the checks reject by name
    return ExperimentConfig(
        model_set=ms,
        penalties=penalties,
        true_index=exp.get("true_index"),
        horizon=exp.get("horizon"),
        gamma=exp.get("gamma"),
        disturbance=_dist.DisturbanceSpec(kind="zero"),
        x0=exp.get("x0"),
    )
