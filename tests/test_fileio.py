import hashlib
import math
import os

import numpy as np
import pytest

from minimaxctrl.fileio import (
    atomic_write_text,
    fmt,
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
    assert fmt(None) == ""
    assert fmt(float("nan")) == ""


def test_fmt_is_stable():
    vals = np.random.default_rng(0).standard_normal(100)
    assert [fmt(v) for v in vals] == [fmt(v) for v in vals]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[0, 1.5, None], [1, -2.25, 7.0]]
    write_csv(path, ["k", "a", "b"], rows)
    assert path.read_text() == "k,a,b\n0,1.5,\n1,-2.25,7\n"


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
