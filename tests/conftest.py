"""Shared fixtures: the four-model benchmark set and its certificate.

The attenuation bisections and the certificate synthesis are
session-scoped fixtures.  The library keeps no memo caches, so a test that
calls a bisection again recomputes it; the doubling Riccati solver keeps
that cheap, each level search plans several bisection rounds per call,
and each call solves every member at every planned level as one stacked
doubling.
"""
import pathlib
import sys

import pytest
from hypothesis import settings

import minimaxctrl as mc
from minimaxctrl import hinf

# Tier-1 is deterministic: every run draws the same examples, and no
# example database replays an old failure
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

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
    return hinf.gamma_stars(models.A, models.B, penalties)


@pytest.fixture
def gamma_star_calls(monkeypatch):
    """List that grows by one entry per `hinf.gamma_stars` call, the one
    gamma* routine (`optimal_attenuation` calls it too).

    The function is replaced at every name the package binds it to, as
    bench/tracing.py does, so a call is counted whichever module makes it.
    """
    calls = []
    original = hinf.gamma_stars

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "minimaxctrl" or name.startswith("minimaxctrl."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


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
