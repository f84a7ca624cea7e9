import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl.fileio import (
    ConfigError,
    atomic_write_text,
    fmt,
    number,
    numeric,
    read_json_object,
    read_only,
    sha256_of,
    svg_line_chart,
    write_csv,
)
from minimaxctrl.simulate import paired_rollouts


def test_fmt_twelve_significant_digits():
    assert fmt(0.1) == "0.1"
    assert fmt(1.0 / 3.0) == "0.333333333333"
    assert fmt(2.0) == "2"
    assert fmt(-1.5e-7) == "-1.5e-07"
    assert fmt(123456789012345.0) == "1.23456789012e+14"


def test_fmt_blanks_for_missing():
    assert fmt(float("nan")) == ""
    assert fmt(np.float64("nan")) == ""


def test_fmt_is_stable():
    vals = np.random.default_rng(0).standard_normal(100)
    assert [fmt(v) for v in vals] == [fmt(v) for v in vals]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[0, 1.5, None], [1, -2.25, 7.0]]
    write_csv(path, ["k", "a", "b"], rows)
    assert path.read_text() == "k,a,b\n0,1.5,\n1,-2.25,7\n"


def test_csv_cells_of_a_float_table(tmp_path):
    """NaN cells are empty, integer-valued cells print as the integer (up to
    12 digits) and a negative zero keeps its sign."""
    path = tmp_path / "t.csv"
    table = np.array([[0.0, np.nan, -0.0], [3.0, 123456789012.0, 1.0 / 3.0]])
    digest = write_csv(path, ["k", "a", "b"], table)
    assert path.read_text() == "k,a,b\n0,,-0\n3,123456789012,0.333333333333\n"
    assert digest == sha256_of(path)


def test_csv_uses_unix_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x"], [[1.0], [2.0]])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw == b"x\n1\n2\n"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_returns_the_digest_of_the_file(tmp_path):
    path = tmp_path / "out.txt"
    assert atomic_write_text(path, "caf\u00e9 \u03b3\n") == sha256_of(path)
    assert sha256_of(path) == hashlib.sha256("caf\u00e9 \u03b3\n".encode()).hexdigest()


def test_unwritable_path_is_a_config_error(tmp_path):
    """An OSError of the write (here: a directory in the way) is a ConfigError
    naming the file, and no temp file is left behind."""
    (tmp_path / "out.csv").mkdir()
    with pytest.raises(ConfigError, match=r"cannot write .*out\.csv: \w"):
        atomic_write_text(tmp_path / "out.csv", "x\n")
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_atomic_write_leaves_no_temp_file(tmp_path):
    """A write that fails midway raises, keeps the old file and removes its
    temp file."""
    path = tmp_path / "out.txt"
    atomic_write_text(path, "old\n")
    with pytest.raises(TypeError):
        atomic_write_text(path, None)
    assert os.listdir(tmp_path) == ["out.txt"]
    assert path.read_text() == "old\n"


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "one\n")
    atomic_write_text(path, "two\n")
    assert path.read_text() == "two\n"


def test_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(b"abc123")
    assert sha256_of(path) == hashlib.sha256(b"abc123").hexdigest()


def test_svg_chart_contains_series(tmp_path):
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [0.0, 1.0, 4.0, 9.0]
    svg = svg_line_chart({"quadratic": (xs, ys)}, title="growth")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "growth" in svg
    assert "quadratic" in svg


def test_svg_chart_handles_constant_series():
    svg = svg_line_chart({"flat": ([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])},
                         title="flat")
    assert "NaN" not in svg
    assert "flat" in svg


def test_json_root_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="config root must be an object"):
        read_json_object(path, "config", ())


def test_number_rejects_an_array():
    with pytest.raises(ConfigError, match=r"gamma must be a number, got shape \(2,\)"):
        number([1.0, 2.0], "gamma")


def owned_array():
    """A (3, 2) float array that owns its data (reshape would make a view)."""
    return np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])


def frozen(a):
    a.flags.writeable = False
    return a


# case -> (the input, whether read_only keeps it as it is)
SHARING = {
    "read-only": (lambda: frozen(owned_array()), True),
    "read-only view of read-only": (lambda: frozen(frozen(owned_array())[1:]), True),
    "writable": (owned_array, False),
    "read-only view of writable": (lambda: frozen(owned_array()[1:]), False),
    "read-only float32": (lambda: frozen(owned_array().astype(np.float32)), False),
    "list": (lambda: [[0.0, 1.0], [2.0, 3.0]], False),
}
SHARING_CASES = [(case, kept) for case, (_, kept) in SHARING.items()]


def check_sharing(freeze, case, kept):
    array = SHARING[case][0]()
    out = freeze(array)
    assert (out is array) == kept
    assert out.dtype == np.float64 and not out.flags.writeable
    np.testing.assert_array_equal(out, array)
    if not kept and isinstance(array, np.ndarray):
        assert not np.shares_memory(out, array)


@pytest.mark.parametrize("case, kept", SHARING_CASES)
def test_read_only_copies_unless_nothing_can_write(case, kept):
    check_sharing(read_only, case, kept)


@pytest.mark.parametrize("case, kept", SHARING_CASES)
def test_numeric_is_read_only(case, kept):
    check_sharing(lambda array: numeric(array, "x"), case, kept)


def test_every_container_array_is_read_only(bench_cfg, certified,
                                            benchmark_controller):
    """Every array held by a config built from the shipped file (its model
    set, penalties, x0 and each kind of validated disturbance), by its
    certificate, or by the results of a paired rollout (both trajectories,
    their derived `step_cost`, `l` and `alpha_hist` included, and their
    regret report, which references them) is frozen, so a new array field
    that skips the rule fails here."""
    specs = [mc.DisturbanceSpec(kind="external", sequence=np.zeros((100, 3))),
             mc.DisturbanceSpec(kind="sinusoid", direction=np.ones(3)),
             mc.DisturbanceSpec(kind="hinf_worst_case", L=benchmark_controller.L)]
    todo = [dataclasses.replace(bench_cfg, disturbance=spec) for spec in specs]
    pair = paired_rollouts(todo[-1], certified[1], benchmark_controller.K)
    todo += [certified[1], *pair,
             mc.regret_report(*pair, bench_cfg.penalties, "hinf_worst_case")]
    arrays = []
    while todo:
        obj = todo.pop()
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            name = f"{type(obj).__name__}.{field.name}"
            items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
            for i, item in items:
                if isinstance(item, np.ndarray):
                    label = name if i is None else f"{name}[{i}]"
                    arrays.append((label, item.flags.writeable))
                elif dataclasses.is_dataclass(item):
                    todo.append(item)
    for traj in pair:
        for name in ("l", "alpha_hist", "step_cost"):
            value = getattr(traj, name)
            if value is not None:
                arrays.append((f"Trajectory.{name}", value.flags.writeable))
    assert {name for name, _ in arrays} >= {
        "ModelSet.A", "ModelSet.B", "Penalties.Q", "Penalties.R",
        "ExperimentConfig.x0", "DisturbanceSpec.sequence",
        "DisturbanceSpec.direction", "DisturbanceSpec.L",
        "MinimaxCertificate.gains", "MinimaxCertificate.P",
        "Trajectory.x", "Trajectory.u", "Trajectory.w", "Trajectory.step_cost",
        "Trajectory.l", "Trajectory.alpha_hist", "RegretReport.d"}
    assert [name for name, writeable in arrays if writeable] == []
