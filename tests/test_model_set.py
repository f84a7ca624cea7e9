import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minimaxctrl as mc
from minimaxctrl.model_set import enforce_symmetry

from conftest import CONFIG_PATH


def test_benchmark_config_shape(bench_cfg):
    ms = bench_cfg.model_set
    assert ms.size == 4
    assert ms.n == 3
    assert ms.m == 1
    assert bench_cfg.true_index == 2
    assert bench_cfg.horizon == 100
    np.testing.assert_array_equal(bench_cfg.x0, np.ones(3))
    np.testing.assert_array_equal(bench_cfg.penalties.Q, np.eye(3))
    np.testing.assert_array_equal(bench_cfg.penalties.R, np.eye(1))


def test_pair_indexing(models):
    A2, B2 = models.pair(2)
    np.testing.assert_array_equal(A2, models.A[1])
    np.testing.assert_array_equal(B2, models.B[1])
    with pytest.raises(mc.ConfigError):
        models.pair(0)
    with pytest.raises(mc.ConfigError):
        models.pair(5)


def test_from_pairs_matches_loaded(models):
    pairs = [models.pair(i) for i in range(1, 5)]
    rebuilt = mc.ModelSet.from_pairs(pairs)
    np.testing.assert_array_equal(rebuilt.A, models.A)
    np.testing.assert_array_equal(rebuilt.B, models.B)


@pytest.mark.parametrize("A, B, reason", [
    (np.eye(2), np.ones((1, 2, 1)), "stacked A"),
    (np.zeros((0, 2, 2)), np.zeros((0, 2, 1)), "at least one model"),
    (np.zeros((1, 2, 3)), np.zeros((1, 2, 1)), "must be square"),
    (np.zeros((2, 2, 2)), np.zeros((1, 2, 1)), "does not match"),
    (np.zeros((2, 2, 2)), np.array([np.ones((2, 1)), [[0.0], [np.inf]]]),
     "model 2: B has a non-finite entry"),
], ids=["not-stacked", "empty", "non-square", "B-mismatch", "non-finite"])
def test_model_set_checks_its_stacks(A, B, reason):
    with pytest.raises(mc.ConfigError, match=reason):
        mc.ModelSet(A, B)


@pytest.mark.parametrize("pairs, reason", [
    ([], "at least one model"),
    ([(np.eye(2), np.ones((2, 1))), (np.eye(3), np.ones((3, 1)))],
     "same state/input dimensions"),
], ids=["empty", "mixed-dimensions"])
def test_from_pairs_rejects(pairs, reason):
    with pytest.raises(mc.ConfigError, match=reason):
        mc.ModelSet.from_pairs(pairs)


def write_json(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


@settings(max_examples=25, deadline=None)
@given(vals=st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4))
def test_round_trip_preserves_exact_floats(vals, tmp_path_factory):
    """JSON serialization must not perturb matrix entries at all."""
    a = np.array([[vals[0], vals[1]], [vals[1], vals[2]]])
    b = np.array([[vals[3]], [0.5]])
    doc = {
        "models": [{"A": a.tolist(), "B": b.tolist()}],
        "penalties": {"Q": np.eye(2).tolist(), "R": [[1.0]]},
        "experiment": {"true_index": 1, "x0": [0.0, 0.0], "horizon": 3,
                       "gamma": 100.0},
    }
    again = mc.load_config(write_json(tmp_path_factory.mktemp("rt"), doc))
    np.testing.assert_array_equal(again.model_set.A, a[None])
    np.testing.assert_array_equal(again.model_set.B, b[None])


def test_load_rejects_missing_section(tmp_path):
    doc = json.loads(CONFIG_PATH.read_text())
    del doc["penalties"]
    with pytest.raises(mc.ConfigError):
        mc.load_config(write_json(tmp_path, doc))


@pytest.mark.parametrize("section, value, reason", [
    ("models", [], "'models' must be a non-empty list"),
    ("models", {"A": [[1.0]], "B": [[1.0]]}, "'models' must be a non-empty list"),
    ("models", [{"A": [[1.0]]}], "model 1 must be an object with 'A' and 'B'"),
    ("penalties", {"Q": [[1.0]]}, "'penalties' must contain Q and R"),
    ("experiment", [1, 100], "'experiment' must be an object"),
], ids=["models-empty", "models-object", "model-without-B", "penalties-without-R",
        "experiment-list"])
def test_load_rejects_malformed_section(tmp_path, section, value, reason):
    doc = json.loads(CONFIG_PATH.read_text())
    doc[section] = value
    with pytest.raises(mc.ConfigError, match=reason):
        mc.load_config(write_json(tmp_path, doc))


def test_load_rejects_ragged_matrix(tmp_path):
    doc = json.loads(CONFIG_PATH.read_text())
    doc["models"][0]["A"][1] = [1.0, 2.0]
    with pytest.raises(mc.ConfigError):
        mc.load_config(write_json(tmp_path, doc))


def test_load_rejects_bad_true_index(tmp_path):
    doc = json.loads(CONFIG_PATH.read_text())
    doc["experiment"]["true_index"] = 9
    with pytest.raises(mc.ConfigError):
        mc.load_config(write_json(tmp_path, doc))


def test_config_rejects_negative_horizon(bench_cfg):
    with pytest.raises(mc.ConfigError):
        dataclasses.replace(bench_cfg, horizon=-1)


def test_external_sequence_must_cover_horizon(bench_cfg):
    def external(steps):
        return mc.DisturbanceSpec(kind="external", sequence=np.zeros((steps, 3)))

    with pytest.raises(mc.ConfigError, match="5 steps"):
        dataclasses.replace(bench_cfg, horizon=100, disturbance=external(5))
    longer = dataclasses.replace(bench_cfg, horizon=100, disturbance=external(101))
    assert longer.disturbance.sequence.shape == (101, 3)


@pytest.mark.parametrize("spec, reason", [
    (mc.DisturbanceSpec(kind="sinusoid", amplitude=float("nan"),
                        direction=np.ones(3)), "non-finite"),
    (mc.DisturbanceSpec(kind="hinf_worst_case"), "needs the L gain"),
    (mc.DisturbanceSpec(kind="external", sequence=[[0.0, 0.0, 0.0]] * 5), "5 steps"),
], ids=["amplitude-nan", "worst-case-without-L", "short-external-list"])
def test_config_rejects_bad_disturbance(bench_cfg, spec, reason):
    """Building an experiment checks its disturbance, JSON-style lists included."""
    with pytest.raises(mc.ConfigError, match=reason):
        dataclasses.replace(bench_cfg, horizon=100, disturbance=spec)


def test_enforce_symmetry():
    M = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    S = enforce_symmetry(M)
    np.testing.assert_array_equal(S, S.T)
    with pytest.raises(mc.ConfigError):
        enforce_symmetry(np.array([[1.0, 2.0], [0.0, 3.0]]), name="Q")
    with pytest.raises(mc.ConfigError, match=r"Q must be square, got shape \(2, 3\)"):
        enforce_symmetry(np.ones((2, 3)), name="Q")


def test_penalties_require_positive_definite_R():
    with pytest.raises(mc.ConfigError):
        mc.Penalties(Q=np.eye(2), R=np.zeros((1, 1)))


def test_lqr_case_matches_dare(models, penalties):
    """solve_riccati at gamma = inf must agree with scipy's DARE solver."""
    from scipy.linalg import solve_discrete_are

    for i in range(1, 5):
        A, B = models.pair(i)
        sol = mc.solve_riccati(A, B, penalties, np.inf)
        P_ref = solve_discrete_are(A, B, penalties.Q, penalties.R)
        np.testing.assert_allclose(sol.M, P_ref, atol=1e-7)
        np.testing.assert_array_equal(sol.L, 0.0)


def test_config_path_exists():
    assert CONFIG_PATH.exists()
