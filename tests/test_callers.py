"""The library's callers outside the package keep working.

The benchmark tracer (bench/tracing.py) wraps package functions by
(module, name), and the README's Library section is documented use; a
trim of the library that breaks either must fail here.  This file reads
bench/ and README.md and edits neither.
"""
import dataclasses
import importlib
import json
import pathlib
import re
import sys

import numpy as np
import pytest

import minimaxctrl as mc

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(ROOT / "bench"))


def package_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "minimaxctrl" or name.startswith("minimaxctrl.")
            for attr, value in vars(module).items()}


def test_traced_functions_resolve(tracing):
    for module, name in tracing.TRACED:
        fn = getattr(importlib.import_module(f"minimaxctrl.{module}"), name)
        assert callable(fn), (module, name)


def test_bench_references_resolve():
    """Every `mc.<name>` the benchmark scripts use exists on the package."""
    names = {name for path in (ROOT / "bench").glob("*.py")
             for name in re.findall(r"\bmc\.(\w+)", path.read_text())}
    assert names
    assert sorted(n for n in names if not hasattr(mc, n)) == []


def test_random_sets_configs_load_with_zero_disturbance(monkeypatch, tmp_path):
    """The random-sets set-up writes configs with a disturbance section."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    sets = importlib.import_module("workloads").RandomSets(0, str(tmp_path))
    for path in sets.sets:
        doc = json.loads(pathlib.Path(path).read_text())
        assert doc["disturbance"] == {"kind": "zero"}
        assert "gamma" in doc["experiment"]
        assert mc.load_config(path).disturbance.kind == "zero"


def test_tracer_sees_policy_steps_and_restores(tracing, bench_cfg, certified,
                                               benchmark_controller):
    """Rollouts reach the policy functions by name, and uninstall undoes install.

    The policy functions run once per block of steps: blocks of 1, 2 and 2
    steps at T = 5 (the adaptive loop switches only where a block starts).
    `emit` runs once per rollout that generates its disturbance.
    """
    gamma_bar, cert = certified
    cfg = dataclasses.replace(bench_cfg, gamma=gamma_bar, horizon=5,
                              disturbance=mc.DisturbanceSpec(kind="zero"))
    before = package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mc.rollout(cfg, cert)
        mc.rollout(cfg, benchmark_controller.K)
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    spans = [tracer.names[i] for i in tracer.name]
    expected = {"policies.minimax_step": 3, "policies.update_residuals": 3,
                "policies.hinf_step": 3, "disturbance.emit": 2}
    assert {name: spans.count(name) for name in expected} == expected


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_public_surface_is_all():
    """The README's by-module export list names exactly `minimaxctrl.__all__`."""
    readme = (ROOT / "README.md").read_text()
    bullets = readme.split("The public surface", 1)[1].split("\n\n", 2)[1]
    listed = []
    for module, names in re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", bullets,
                                    re.M | re.S):
        assert re.fullmatch(r"`\w+`(,\s+`\w+`)*\s*", names), module
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(importlib.import_module(f"minimaxctrl.{module}"),
                           name), (module, name)
            listed.append(name)
    assert sorted(listed) == sorted(mc.__all__)
    assert all(hasattr(mc, name) for name in mc.__all__)
