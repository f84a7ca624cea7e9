import json
import pathlib

import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl import cli
from minimaxctrl.fileio import sha256_of

from conftest import CONFIG_PATH

CFG = str(CONFIG_PATH)


def run(argv):
    return cli.main(argv)


def test_synth_hinf_all_models(tmp_path, capsys):
    code = run(["synth-hinf", CFG, "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "hinf_synthesis.json").read_text())
    assert len(doc["entries"]) == 4
    out = capsys.readouterr().out
    assert "gamma_star" in out


def test_synth_hinf_bad_model_index(tmp_path):
    assert run(["synth-hinf", CFG, "--model", "7", "--out-dir", str(tmp_path)]) == 2


def test_synth_hinf_infeasible_level(tmp_path):
    # model 2's attenuation level is above 9, so 4.0 is infeasible
    code = run(["synth-hinf", CFG, "--model", "2", "--gamma", "4.0",
                "--out-dir", str(tmp_path)])
    assert code == 1


def test_synth_hinf_feasible_level(tmp_path):
    code = run(["synth-hinf", CFG, "--model", "2", "--gamma", "12.0",
                "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "hinf_synthesis.json").read_text())
    assert doc["entries"][0]["model"] == 2
    assert doc["entries"][0]["gamma"] == 12.0


def test_synth_minimax_writes_certificate(tmp_path, capsys):
    code = run(["synth-minimax", CFG, "--out-dir", str(tmp_path)])
    assert code == 0
    cert = mc.load_certificate(tmp_path / "certificate.json")
    assert cert.size == 4
    out = capsys.readouterr().out
    assert "gamma_bar" in out
    assert "minimal" in out and "maximal" in out


def test_synth_minimax_infeasible_level(tmp_path):
    assert run(["synth-minimax", CFG, "--gamma", "5.0",
                "--out-dir", str(tmp_path)]) == 1


def test_verify_round_trip(tmp_path):
    assert run(["synth-minimax", CFG, "--out-dir", str(tmp_path)]) == 0
    cert_path = str(tmp_path / "certificate.json")
    assert run(["verify", cert_path, CFG]) == 0


def test_verify_rejects_shrunk_certificate(tmp_path, certified):
    _, cert = certified
    shrunk = mc.MinimaxCertificate(
        gamma_bar=cert.gamma_bar, gains=cert.gains, P=0.5 * cert.P
    )
    path = tmp_path / "bad.json"
    mc.save_certificate(shrunk, path)
    assert run(["verify", str(path), CFG]) == 1


def test_verify_rejects_truncated_file(tmp_path, certified):
    _, cert = certified
    path = tmp_path / "cert.json"
    mc.save_certificate(cert, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 3])
    assert run(["verify", str(path), CFG]) == 2


def test_missing_config_is_input_error(tmp_path):
    assert run(["synth-hinf", str(tmp_path / "nope.json")]) == 2


def edited_config(tmp_path, where, value):
    """Copy of the shipped config with the entry at key path `where` replaced."""
    doc = json.loads(CONFIG_PATH.read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def synthesis_must_not_run(*args, **kwargs):
    pytest.fail("input error detected only after synthesis started")


def assert_rejected_at_load(tmp_path, monkeypatch, where, value):
    # synth-hinf, not reproduce: reproduce also refuses horizons below 4,
    # which would hide a boolean horizon read as 1
    monkeypatch.setattr(cli, "optimal_attenuation", synthesis_must_not_run)
    cfg = edited_config(tmp_path, where, value)
    assert run(["synth-hinf", cfg, "--out-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("where, value", [
    (("models", 3, "A", 1, 2), float("nan")),
    (("penalties", "Q", 0, 0), float("inf")),
    (("experiment", "x0", 0), float("nan")),
    (("experiment", "gamma"), None),
    (("experiment", "gamma"), "31"),
    (("experiment", "gamma"), 1e7),
    (("experiment", "x0"), {}),
], ids=["model", "penalties", "x0", "gamma-null", "gamma-string", "gamma-huge",
        "x0-object"])
def test_non_finite_input_is_rejected_at_load(tmp_path, monkeypatch, where, value):
    assert_rejected_at_load(tmp_path, monkeypatch, where, value)


@pytest.mark.parametrize("where, value", [
    (("experiment", "true_index"), 2.9),
    (("experiment", "horizon"), 100.7),
    (("experiment", "true_index"), True),
    (("experiment", "horizon"), True),
], ids=["true_index", "horizon", "true_index-bool", "horizon-bool"])
def test_non_integer_input_is_rejected_at_load(tmp_path, monkeypatch, where, value):
    assert_rejected_at_load(tmp_path, monkeypatch, where, value)


@pytest.mark.parametrize("where, value, reason", [
    (("P", 4, "i"), None, "P entry i must be an integer"),
    (("P", 4, "i"), 2.7, "P entry i must be an integer"),
    (("P", 4, "i"), "2", "P entry i must be an integer"),
    (("P", 4, "j"), 2.7, "P entry j must be an integer"),
    (("P", 4, "j"), "2", "P entry j must be an integer"),
    (("gamma_bar",), float("nan"), "gamma_bar has a non-finite entry"),
    (("gamma_bar",), True, "gamma_bar must hold only numbers"),
    (("gamma_bar",), -143.16, r"gamma_bar must be in \(0, 1e\+06\]"),
    (("gamma_bar",), 0, r"gamma_bar must be in \(0, 1e\+06\]"),
    (("gamma_bar",), 1e200, r"gamma_bar must be in \(0, 1e\+06\]"),
    (("P", 4, "rows", 1, 0), float("nan"), r"P entry \(2, 2\) has a non-finite entry"),
    (("gains", 2, 0, 1), float("nan"), "certificate gains has a non-finite entry"),
    (("gains",), "2-D", r"gains must be \(F, m, n\), got shape \(4, 3\)"),
    (("P",), {}, "'P' must be a list"),
    (("P", 4), {"i": 2, "j": 2}, "each P entry needs keys i, j, rows"),
    (("P", 4, "i"), 3, r"P entry \(3, 2\) outside the upper triangle of 1..4"),
    (("P", 4, "j"), 3, r"duplicate P entry \(2, 3\)"),
    (("P", 4, "rows"), [[1.0, 0.0], [0.0, 1.0]],
     r"P entry \(2, 2\) has shape \(2, 2\), expected \(3, 3\)"),
    (("P",), "without (2, 2)", r"missing P entries: \[\(2, 2\)\]"),
], ids=["i-null", "i-fraction", "i-string", "j-fraction", "j-string",
        "gamma_bar-nan", "gamma_bar-bool", "gamma_bar-negative", "gamma_bar-zero",
        "gamma_bar-huge",
        "P-nan", "gains-nan", "gains-2d",
        "P-object", "P-entry-no-rows", "P-below-diagonal", "P-duplicate",
        "P-block-shape", "P-missing"])
def test_malformed_certificate_is_rejected_at_load(tmp_path, certificate_file,
                                                    where, value, reason):
    doc = json.loads(pathlib.Path(certificate_file).read_text())
    assert doc["P"][4]["i"] == doc["P"][4]["j"] == 2  # truncation would pass
    if value == "2-D":
        value = [gain[0] for gain in doc["gains"]]  # (F, n) for m = 1
    elif value == "without (2, 2)":
        value = doc["P"][:4] + doc["P"][5:]
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(mc.ConfigError, match=reason):
        mc.load_certificate(path)
    assert run(["verify", str(path), CFG]) == 2


def test_short_horizon_is_rejected_before_synthesis(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "minimal_feasible_gamma", synthesis_must_not_run)
    cfg = edited_config(tmp_path, ("experiment", "horizon"), 0)
    code = run(["reproduce", cfg, "--scenario", "fig1",
                "--out-dir", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("command", ["synth-hinf", "synth-minimax"])
@pytest.mark.parametrize("gamma", ["inf", "nan", "1e308", "1000000.1", "0", "-1"])
def test_gamma_outside_level_range_is_input_error(tmp_path, monkeypatch,
                                                   command, gamma):
    monkeypatch.setattr(cli, "solve_riccati", synthesis_must_not_run)
    monkeypatch.setattr(cli, "synthesize_certificate", synthesis_must_not_run)
    assert run([command, CFG, f"--gamma={gamma}", "--out-dir", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["synth-hinf", "synth-minimax"])
def test_no_level_below_gamma_max_is_infeasible(tmp_path, capsys, command):
    """Q = 1e12 puts sqrt(max eig Q) at GAMMA_MAX: no level is left to search,
    so neither search may report one above it."""
    doc = {"models": [{"A": [[0.5]], "B": [[1.0]]}, {"A": [[-0.4]], "B": [[0.8]]}],
           "penalties": {"Q": [[1e12]], "R": [[1.0]]},
           "experiment": {"true_index": 1, "horizon": 10, "gamma": 1.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run([command, str(path), "--out-dir", str(out)]) == 1
    assert "no feasible level up to 1e+06" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["reproduce", CFG, "--scenario", "fig1"],
    ["synth-minimax", CFG],
], ids=["reproduce", "synth-minimax"])
def test_gamma_star_table_is_computed_once(tmp_path, gamma_star_calls, argv):
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    assert len(gamma_star_calls) == 4  # once per model, for gaps only


@pytest.mark.parametrize("scenario", ["fig1", "fig2", "fig3"])
def test_reproduce_bundle(tmp_path, certificate_file, scenario):
    out = tmp_path / scenario
    code = run(["reproduce", CFG, "--scenario", scenario,
                "--certificate", certificate_file, "--out-dir", str(out)])
    assert code == 0
    for name in ("minimax_traj.csv", "hinf_traj.csv", "regret.csv",
                 "gaps.csv", "certificate.json", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == scenario
    for entry in manifest["artifacts"]:
        assert sha256_of(out / entry["name"]) == entry["sha256"]


def test_reproduce_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["reproduce", CFG, "--scenario", "fig3", "--out-dir", str(out_a)]) == 0
    assert run(["reproduce", CFG, "--scenario", "fig3", "--out-dir", str(out_b)]) == 0
    for name in ("minimax_traj.csv", "hinf_traj.csv", "regret.csv", "gaps.csv"):
        assert sha256_of(out_a / name) == sha256_of(out_b / name), name


def test_config_disturbance_section_is_ignored(tmp_path, certificate_file):
    """Each scenario builds its own disturbance; a config section changes nothing."""
    sine = edited_config(tmp_path, ("disturbance",),
                         {"kind": "sinusoid", "amplitude": 5.0, "omega": 0.3,
                          "direction": [1.0, 0.0, 0.0]})
    for name, cfg in (("shipped", CFG), ("sine", sine)):
        assert run(["reproduce", cfg, "--scenario", "fig3",
                    "--certificate", certificate_file,
                    "--out-dir", str(tmp_path / name)]) == 0
    for name in ("minimax_traj.csv", "hinf_traj.csv", "regret.csv", "gaps.csv"):
        assert ((tmp_path / "shipped" / name).read_bytes()
                == (tmp_path / "sine" / name).read_bytes()), name


def test_reproduce_with_supplied_certificate(tmp_path, certificate_file):
    out = tmp_path / "out"
    code = run(["reproduce", CFG, "--scenario", "fig3",
                "--certificate", certificate_file, "--out-dir", str(out)])
    assert code == 0


def test_reproduce_rejects_bad_certificate(tmp_path, certified):
    _, cert = certified
    shrunk = mc.MinimaxCertificate(
        gamma_bar=cert.gamma_bar, gains=cert.gains, P=0.5 * cert.P
    )
    cert_path = tmp_path / "bad.json"
    mc.save_certificate(shrunk, cert_path)
    out = tmp_path / "out"
    code = run(["reproduce", CFG, "--scenario", "fig3",
                "--certificate", str(cert_path), "--out-dir", str(out)])
    assert code == 1


def test_svg_flag_emits_charts(tmp_path, certificate_file):
    out = tmp_path / "fig1"
    code = run(["reproduce", CFG, "--scenario", "fig1", "--svg",
                "--certificate", certificate_file, "--out-dir", str(out)])
    assert code == 0
    assert (out / "states.svg").exists()
    assert (out / "regret.svg").exists()
    assert (out / "ratio.svg").exists()


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
    assert run(["synth-minimax", CFG]) == 0
    assert (target / "certificate.json").exists()


def test_out_dir_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env"))
    flag_dir = tmp_path / "flag"
    assert run(["synth-minimax", CFG, "--out-dir", str(flag_dir)]) == 0
    assert (flag_dir / "certificate.json").exists()
    assert not (tmp_path / "env").exists()


def test_divergence_maps_to_exit_3(tmp_path, monkeypatch, certificate_file):
    def boom(*args, **kwargs):
        raise mc.DivergedRollout("state norm exceeded limit at step 3")

    monkeypatch.setattr(cli, "rollout", boom)
    out = tmp_path / "out"
    code = run(["reproduce", CFG, "--scenario", "fig3",
                "--certificate", certificate_file, "--out-dir", str(out)])
    assert code == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == mc.__version__
