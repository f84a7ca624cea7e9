"""Shared fixtures: the four-model benchmark set and its certificate.

The attenuation bisections and the certificate synthesis are
session-scoped fixtures.  The library keeps no memo caches, so a test that
calls a bisection again recomputes it; the doubling Riccati solver keeps
that cheap.
"""
import pathlib

import pytest

import minimaxctrl as mc

CONFIG_PATH = pathlib.Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"

# one line per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scorecard")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bench_cfg():
    return mc.load_config(CONFIG_PATH)


@pytest.fixture(scope="session")
def models(bench_cfg):
    return bench_cfg.model_set


@pytest.fixture(scope="session")
def penalties(bench_cfg):
    return bench_cfg.penalties


@pytest.fixture(scope="session")
def gamma_stars(models, penalties):
    out = []
    for i in range(1, models.size + 1):
        A, B = models.pair(i)
        out.append(mc.optimal_attenuation(A, B, penalties))
    return out


@pytest.fixture(scope="session")
def certified(models, penalties):
    """(gamma_bar, certificate) from the synthesis bisection."""
    return mc.minimal_feasible_gamma(models, penalties)


@pytest.fixture(scope="session")
def certificate_file(certified, tmp_path_factory):
    """Path of the certified certificate, for CLI runs that do not test synthesis."""
    path = tmp_path_factory.mktemp("certificate") / "certificate.json"
    mc.save_certificate(certified[1], path)
    return str(path)


@pytest.fixture(scope="session")
def benchmark_controller(models, penalties, certified):
    """Fixed-gain law for the true model at the certified level."""
    gamma_bar, _ = certified
    A, B = models.pair(2)
    return mc.solve_riccati(A, B, penalties, gamma_bar)
