import hashlib
import math
import os

import numpy as np
import pytest

from minimaxctrl.fileio import (
    ConfigError,
    atomic_write_text,
    fmt,
    number,
    read_json_object,
    sha256_of,
    svg_line_chart,
    write_csv,
)


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
