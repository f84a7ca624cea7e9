"""The repository tools: line counts of src/ and the paired benchmark record,
and the pytest configuration that tier-1 runs under."""
import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_the_package_from_any_directory(tmp_path):
    """Run outside the repository, the default DIR is still the package; a
    DIR without .py files is an error, not a table of zeros."""
    tool = [sys.executable, str(TOOLS / "src_lines.py")]
    run = subprocess.run(tool, cwd=tmp_path, capture_output=True, text=True, check=True)
    total = run.stdout.splitlines()[-1].split()
    assert total[0] == "total" and int(total[2]) > 1000  # code lines
    run = subprocess.run(tool + [str(tmp_path)], cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1 and "no .py file" in run.stderr and not run.stdout


def test_bench_claim_needs_nine_of_ten_pairs_and_a_gap_above_the_iqr():
    bench = load("bench_pairs")
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def record(change):
        return {"pairs": 10, "metrics": {"wall_ref": {
            "parent": bench.summary(parent), "change": bench.summary(change)}}}

    iqr = bench.summary(parent)
    assert (iqr["q1"], iqr["q3"]) == (pytest.approx(9.925), pytest.approx(10.1))
    faster = [p - 0.5 for p in parent]
    assert bench.verdict(record(faster), "wall_ref", "lower")
    assert not bench.verdict(record(faster), "wall_ref", "higher")
    # lower in 8 pairs only
    assert not bench.verdict(record(faster[:8] + parent[8:]), "wall_ref", "lower")
    # lower in every pair, by less than the parent's IQR of 0.175
    assert not bench.verdict(record([p - 0.1 for p in parent]), "wall_ref", "lower")


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    """Under the repository's pytest configuration, which turns warnings into
    errors, a failing @given test is reported as one failure and the tests
    after it still run: Hypothesis's failure report raises a third-party
    DeprecationWarning that would otherwise end the session as an
    INTERNALERROR."""
    (tmp_path / "test_module.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(max_examples=5, database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n"
        "\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1 and "1 failed, 1 passed" in run.stdout.splitlines()[-1]
